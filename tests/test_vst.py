import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiszkit import (CoeffPyramid, EstimatorConfig, NoiseModel, SeedSpec, VarianceEstimate,
                     VstState, apply_threshold, denoise_via_vst, dwt_forward, dwt_inverse,
                     estimate, estimate_variance_function, forward_vst, haar, inverse_vst,
                     local_means, make_blocks, sample_noise, textio, universal_factor)
from fiszkit.estimator import coefficient_sd
from fiszkit.vst import _divisor_row, divisors_as_lines, divisors_from_lines
from fiszkit.wavelet import basis_by_name
from test_cli import BLOCK_EDGES
from test_wavelet import transform_matrix


def unit_variance_estimate():
    return VarianceEstimate(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1e-12)


def vst_oracle(x, hhat, basis):
    """The pyramid route the engine replaces: stabilised signal and divisors."""
    p = dwt_forward(x, basis)
    lm = local_means(x, basis)
    floor = np.sqrt(hhat.floor_eps)
    divisors = [np.maximum(coefficient_sd(lm[j], hhat.query, j), floor)
                for j in range(len(p.details))]
    q = CoeffPyramid([d / div for d, div in zip(p.details, divisors)], p.smooth)
    return dwt_inverse(q, basis), divisors


def inverse_vst_oracle(y, divisors, basis):
    p = dwt_forward(y, basis)
    q = CoeffPyramid([d * div for d, div in zip(p.details, divisors)], p.smooth)
    return dwt_inverse(q, basis)


def denoise_via_vst_oracle(x, cfg):
    """Stabilise, threshold the pyramid at the universal level, unstabilise."""
    max_level = cfg.resolve_max_level(x.size.bit_length() - 1)
    xt, divisors = vst_oracle(x, estimate_variance_function(x, cfg.varfn), cfg.basis)
    lam = universal_factor(max_level)
    q = apply_threshold(dwt_forward(xt, cfg.basis),
                        [np.full(1 << j, lam) for j in range(max_level)], cfg.rule, max_level)
    return inverse_vst_oracle(dwt_inverse(q, cfg.basis), divisors, cfg.basis)


BASES = st.sampled_from(["haar", "daub4", "daub6", "daub8"])


@st.composite
def monotone_step_maps(draw):
    """A positive nondecreasing step map on a sorted grid over [-60, 60].

    Its values may fall below ``floor_eps``, so the divisor floor is hit.
    """
    size = draw(st.integers(1, 40))
    grid = sorted(draw(st.lists(st.floats(-60.0, 60.0), min_size=size, max_size=size)))
    steps = draw(st.lists(st.floats(0.0, 50.0), min_size=size, max_size=size))
    values = np.cumsum(steps) + draw(st.floats(1e-6, 5.0))
    floor_eps = draw(st.sampled_from([0.0, 1e-12, float(np.median(values))]))
    return VarianceEstimate(np.array(grid), values, floor_eps)


def assert_bits_equal(got, want):
    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(b).tobytes() for b in want]


class TestForwardInverse:
    def test_unit_divisors_identity(self):
        rng = np.random.default_rng(70)
        x = rng.uniform(1.0, 5.0, size=64)
        xt, state = forward_vst(x, unit_variance_estimate())
        np.testing.assert_allclose(xt, x, atol=1e-12)
        for d in state.divisors:
            np.testing.assert_array_equal(d, 1.0)

    def test_constant_signal_unchanged(self):
        truth = np.full(128, 9.0)
        hhat = VarianceEstimate(np.array([8.0, 10.0]), np.array([2.0, 4.0]), 1e-12)
        xt, _ = forward_vst(truth, hhat)
        np.testing.assert_allclose(xt, truth, atol=1e-10)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(71)
        truth = make_blocks(512, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(72, 1))
        hhat = estimate_variance_function(x)
        xt, state = forward_vst(x, hhat)
        np.testing.assert_allclose(inverse_vst(xt, state), x, atol=1e-10)

    def test_random_divisors_match_matrix_oracle(self):
        rng = np.random.default_rng(73)
        n = 16
        y = rng.normal(size=n)
        divisors = [rng.uniform(0.5, 2.0, size=1 << j) for j in range(4)]
        state = VstState([d.copy() for d in divisors], haar())
        got = inverse_vst(y, state)
        w = transform_matrix(n, haar().lowpass)
        scale = np.concatenate([[1.0], *divisors])  # smooth untouched
        want = w.T @ (scale * (w @ y))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_divisors_floored_positive(self):
        x = np.full(64, 3.0)  # zero residuals: variance estimate sits at the floor
        hhat = estimate_variance_function(x)
        _, state = forward_vst(x, hhat)
        floor = np.sqrt(hhat.floor_eps)
        for d in state.divisors:
            assert np.all(d >= floor)

    def test_mean_preserved(self):
        rng = np.random.default_rng(74)
        x = rng.uniform(2.0, 7.0, size=256)
        hhat = VarianceEstimate(np.array([0.0, 9.0]), np.array([0.5, 3.0]), 1e-12)
        xt, _ = forward_vst(x, hhat)
        assert xt.mean() == pytest.approx(x.mean(), rel=1e-12)

    def test_length_mismatch_rejected(self):
        state = VstState([np.ones(1), np.ones(2)], haar())
        with pytest.raises(ValueError):
            inverse_vst(np.zeros(16), state)

    def test_bad_divisors_rejected(self):
        with pytest.raises(ValueError):
            VstState([np.array([0.0])], haar())
        with pytest.raises(ValueError):
            VstState([np.ones(2)], haar())
        with pytest.raises(ValueError):
            VstState([np.array([np.nan])], haar())

    def test_state_leaves_the_callers_list_alone(self):
        divisors = [[2.0], [1.0, 3.0]]
        state = VstState(divisors, haar())
        assert [type(d) for d in divisors] == [list, list]
        assert divisors == [[2.0], [1.0, 3.0]]
        assert [d.tolist() for d in state.divisors] == divisors

    def test_non_finite_variance_rejected(self):
        hhat = VarianceEstimate(np.array([0.0, 1.0]), np.array([1.0, np.inf]), 1e-12)
        with pytest.raises(ValueError):
            forward_vst(np.linspace(0.5, 1.5, 16), hhat)

    def test_zero_divisor_rejected_before_dividing(self):
        hhat = VarianceEstimate(np.array([0.0, 1.0]), np.array([0.0, 0.0]), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning before the error
            with pytest.raises(ValueError,
                               match=r"^divisors must be strictly positive \(level \d+\)$"):
                forward_vst(np.linspace(0.5, 1.5, 16), hhat)

    def test_data_near_float_max_is_local_means_overflow(self):
        x = np.full(64, 1.5e308)
        x[::5] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError is the only report
            with pytest.raises(ValueError, match="local means overflow"):
                forward_vst(x, unit_variance_estimate())

    @given(st.integers(1, 10), BASES, monotone_step_maps(), st.integers(0, 2**32 - 1))
    def test_matches_pyramid_oracle_bit_for_bit(self, log_n, name, hhat, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-80.0, 80.0, size=1 << log_n)
        basis = basis_by_name(name)
        xt, state = forward_vst(x, hhat, basis)
        want_xt, want_divisors = vst_oracle(x, hhat, basis)
        assert_bits_equal([xt], [want_xt])
        assert_bits_equal(state.divisors, want_divisors)
        assert_bits_equal([inverse_vst(xt, state)],
                          [inverse_vst_oracle(xt, want_divisors, basis)])

    @given(st.integers(2, 10), BASES, st.integers(0, 2**32 - 1), st.booleans())
    def test_fitted_map_matches_pyramid_oracle_bit_for_bit(self, log_n, name, seed, poisson):
        # Poisson local means can sit on a knot of the fitted grid
        rng = np.random.default_rng(seed)
        n = 1 << log_n
        if poisson:
            x = rng.poisson(np.repeat(rng.uniform(0.2, 20.0, size=4), n // 4)).astype(float)
        else:
            x = rng.uniform(0.5, 30.0, size=n)
        hhat = estimate_variance_function(x, EstimatorConfig().varfn)
        basis = basis_by_name(name)
        xt, state = forward_vst(x, hhat, basis)
        want_xt, want_divisors = vst_oracle(x, hhat, basis)
        assert_bits_equal([xt, *state.divisors], [want_xt, *want_divisors])


class TestThreeStepRoute:
    def test_equals_direct_estimator_without_cycle_spinning(self):
        truth = make_blocks(256, 1.0, 22.6)
        cfg = EstimatorConfig(translation_invariant=False)
        for seed in (1, 2, 3):
            x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(75, seed))
            direct = estimate(x, cfg).values
            via = denoise_via_vst(x, cfg)
            assert np.max(np.abs(direct - via)) < 1e-9

    def test_soft_rule_also_agrees(self):
        truth = make_blocks(256, 1.0, 22.6)
        cfg = EstimatorConfig(rule="soft", translation_invariant=False)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(76, 1))
        assert np.max(np.abs(estimate(x, cfg).values - denoise_via_vst(x, cfg))) < 1e-9

    def test_zero_noise_constant_is_identity(self):
        x = np.full(64, 7.0)
        out = denoise_via_vst(x, EstimatorConfig(translation_invariant=False))
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_unit_map_reduces_to_universal_shrinkage(self):
        # with unit divisors the three steps collapse to plain thresholding
        rng = np.random.default_rng(78)
        x = rng.normal(loc=5.0, size=256)
        hhat = unit_variance_estimate()
        xt, state = forward_vst(x, hhat)
        p = dwt_forward(xt)
        lam = universal_factor(6)
        q = apply_threshold(p, [np.full(1 << j, lam) for j in range(6)], "hard", 6)
        via = inverse_vst(dwt_inverse(q), state)
        direct = dwt_inverse(apply_threshold(dwt_forward(x),
                                             [np.full(1 << j, lam) for j in range(6)],
                                             "hard", 6))
        np.testing.assert_allclose(via, direct, atol=1e-10)

    @pytest.mark.parametrize("rule", ["hard", "soft"])
    def test_matches_pyramid_composition_bit_for_bit(self, rule):
        for n, basis in ((256, haar()), (512, basis_by_name("daub8"))):
            cfg = EstimatorConfig(rule=rule, translation_invariant=False, basis=basis)
            for seed in (1, 2, 3):
                x = sample_noise(make_blocks(n, 1.0, 22.6), NoiseModel("poisson"),
                                 SeedSpec(79, seed))
                assert_bits_equal([denoise_via_vst(x, cfg)], [denoise_via_vst_oracle(x, cfg)])

    def test_known_variance_config_rejected(self):
        cfg = EstimatorConfig(known_variance=lambda u: np.asarray(u))
        with pytest.raises(ValueError):
            denoise_via_vst(np.ones(16), cfg)


class TestSerialization:
    def test_divisor_round_trip(self):
        rng = np.random.default_rng(77)
        divisors = [rng.uniform(0.5, 2.0, size=1 << j) for j in range(4)]
        state = VstState([d.copy() for d in divisors], haar())
        back = divisors_from_lines("".join(divisors_as_lines(state)).splitlines())
        assert back.basis.name == "haar"
        for a, b in zip(back.divisors, divisors):
            np.testing.assert_array_equal(a, b)

    def test_missing_divisor_rejected(self):
        with pytest.raises(ValueError, match=r"^missing divisor \(1, 2\)$"):
            divisors_from_lines(["# basis haar", "0 1 1.0", "1 1 1.0"])
        with pytest.raises(ValueError, match=r"^missing divisor \(0, 1\)$"):
            divisors_from_lines(["40 1 1.0"])

    @pytest.mark.parametrize("bad, reason", [
        ("0 5 9.0", "names no divisor"),
        ("-1 1 3.0", "names no divisor"),
        ("1 0 3.0", "names no divisor"),
        ("63 1 3.0", "names no divisor"),
        ("99999999999999999999 1 3.0", "names no divisor"),
        ("1 2", "expected 3 fields"),
        ("1 2 3.0 4", "expected 3 fields"),
        ("1.0 1 2", "invalid literal for int"),
        ("1 1 x", "could not convert"),
        ("1 1 2.0 # c", "expected 3 fields"),
        ("1 ; 1.0", "invalid literal for int"),
        ("1 1 ;", "could not convert"),
    ])
    def test_bad_row_is_rejected_with_its_line(self, bad, reason):
        lines = ["# basis haar", "0 1 1.0", "", "1 1 1.0", bad, "1 2 1.0"]
        with pytest.raises(ValueError, match=f"^divisor file:5: cannot read '.*' as a divisor: "
                                             f".*{reason}"):
            divisors_from_lines(lines)

    def test_duplicate_is_rejected_at_its_second_line(self):
        lines = ["# basis haar", "1 2 1.0", "0 1 1.0", "# c", "1 1 1.0", "1 2 5.0"]
        with pytest.raises(ValueError, match=r"^divisor file:6: duplicate divisor \(1, 2\)$"):
            divisors_from_lines(lines)

    @pytest.mark.parametrize("header, message", [
        (["# basis daub8 x"], "1: expected '# basis NAME', found '# basis daub8 x'"),
        (["# basis"], "1: expected '# basis NAME', found '# basis'"),
        (["# basis daub8", "# c", "#basis haar"],
         "3: basis haar conflicts with basis daub8 on line 1"),
    ])
    def test_basis_line_is_one_name_and_never_changes(self, header, message):
        # each of these used to invert with haar
        with pytest.raises(ValueError, match=f"^divisor file:{re.escape(message)}$"):
            divisors_from_lines([*header, "0 1 1.0"])

    @pytest.mark.parametrize("lines, message", [
        (["# basis haar", "0 x 1.0", "# basis daub8"],
         "2: cannot read '0 x 1.0' as a divisor: invalid literal for int() with base 10: 'x'"),
        (["# basis haar", "# basis daub8", "0 x 1.0"],
         "2: basis daub8 conflicts with basis haar on line 1"),
    ])
    def test_first_faulty_line_of_a_block_is_reported(self, lines, message):
        # the unreadable row used to lose to the later basis conflict in the same block
        with pytest.raises(ValueError, match=f"^divisor file:{re.escape(message)}$"):
            divisors_from_lines(lines)

    @pytest.mark.parametrize("header, name", [
        ([], "haar"), (["# c"], "haar"), (["# the basis daub8"], "haar"),
        (["# basis daub8", "#  basis  daub8"], "daub8"),
    ])
    def test_basis_line_names_the_basis(self, header, name):
        assert divisors_from_lines([*header, "0 1 1.0"]).basis.name == name


def divisors_oracle(lines):
    """The per-line, dict-based parser the array parser replaces, with its messages."""
    source = getattr(lines, "name", "divisor file")
    basis, rows = None, []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["basis"]:
                if len(parts) != 2:
                    raise ValueError(f"{source}:{lineno}: expected '# basis NAME', "
                                     f"found {line!r}")
                if basis and basis[0] != parts[1]:
                    raise ValueError(f"{source}:{lineno}: basis {parts[1]} conflicts with "
                                     f"basis {basis[0]} on line {basis[1]}")
                basis = basis or (parts[1], lineno)
            continue
        try:
            _divisor_row(line)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{source}:{lineno}: cannot read {line!r} as a divisor: "
                             f"{exc}") from None
        rows.append((lineno, line))
    if not rows:
        raise ValueError("empty divisor file")
    entries = {}
    for lineno, line in rows:
        j_s, k_s, v_s = line.split()
        key = (int(j_s), int(k_s))
        if key in entries:
            raise ValueError(f"{source}:{lineno}: duplicate divisor ({key[0]}, {key[1]})")
        entries[key] = float(v_s)
    n_levels = 1 + max(j for j, _ in entries)
    for j in range(n_levels):
        for k in range(1, (1 << j) + 1):
            if (j, k) not in entries:
                raise ValueError(f"missing divisor ({j}, {k})")
    divisors = [np.array([entries[(j, k + 1)] for k in range(1 << j)]) for j in range(n_levels)]
    return VstState(divisors, basis_by_name(basis[0] if basis else "haar"))


def read_divisor_file(read, path):
    """Basis and divisor bytes that ``read`` gives for the file at ``path``, or its message."""
    with open(path, encoding="utf-8") as f:
        try:
            state = read(f)
        except ValueError as exc:
            return str(exc)
    return state.basis.name, [d.tobytes() for d in state.divisors]


def assert_blocks_read_like_oracle(path):
    """The reader, at every size in ``BLOCK_EDGES``, gives what the oracle gives."""
    want = read_divisor_file(divisors_oracle, path)
    for block_rows in BLOCK_EDGES:
        with mock.patch.object(textio, "BLOCK_ROWS", block_rows):
            assert read_divisor_file(divisors_from_lines, path) == want, block_rows
    return want


def write_file(tmp_path_factory, lines, crlf):
    path = tmp_path_factory.mktemp("divisors") / "div.txt"
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
    return path


POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)


@st.composite
def valid_divisor_files(draw):
    n_levels = draw(st.integers(1, 6))
    rows = [(j, k) for j in range(n_levels) for k in range(1, (1 << j) + 1)]
    rows = draw(st.permutations(rows))
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    integer = st.sampled_from(["{}", "+{}", "0{}", " {} "])
    lines = []
    for j, k in rows:
        value = draw(POSITIVE)
        text = draw(st.sampled_from([repr(value), "%.17g" % value, " %r\r\n" % value]))
        lines.append(draw(integer).format(j) + draw(space) + draw(integer).format(k)
                     + draw(space) + text)
    basis = draw(BASES)
    for _ in range(draw(st.integers(0, 4))):
        filler = draw(st.sampled_from(["", "  ", "# note", "# basis " + basis,
                                       "#basis\t" + basis, "# the basis daub4 extra"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return lines


BAD_ROWS = ["0 5 9.0", "-1 1 3.0", "63 1 3.0", "1 2", "1 2 3.0 4", "1.0 1 2", "1 1 x",
            "1 1 2.0 # c", "1 ; 1.0", "; 1 1.0", "1 1 ;", "1 1 -3.0"]


@st.composite
def faulty_divisor_files(draw):
    """A valid file with one bad row, duplicate, missing row, field moved across rows or
    basis line that has more or fewer than one name or may name another basis."""
    lines = draw(valid_divisor_files())
    data = [i for i, s in enumerate(lines) if s.strip() and s.strip()[0] != "#"]
    fault = draw(st.sampled_from(["bad", "duplicate", "missing", "moved", "basis"]))
    if fault == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[draw(st.sampled_from(data))])
    elif fault == "missing":
        del lines[draw(st.sampled_from(data))]
    elif fault == "moved" and len(data) > 1:
        # "j k" then "value j k value": as many fields as two rows, misaligned
        at = draw(st.integers(0, len(data) - 2))
        fields = lines[data[at]].split()
        lines[data[at]] = " ".join(fields[:2])
        lines[data[at + 1]] = fields[2] + " " + lines[data[at + 1]]
    elif fault == "basis":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["# basis", "# basis haar x", "#basis daub8", "# basis symmlet8"])))
    else:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_ROWS)))
    return lines


class TestDivisorCodec:
    @given(st.integers(1, 9), BASES, st.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, n_levels, basis, data):
        divisors = [np.array(data.draw(st.lists(POSITIVE, min_size=1 << j, max_size=1 << j)))
                    for j in range(n_levels)]
        path = tmp_path_factory.mktemp("divisors") / "div.txt"
        path.write_text("".join(divisors_as_lines(VstState(list(divisors), basis_by_name(basis)))),
                        encoding="utf-8")
        with open(path, encoding="utf-8") as f:
            back = divisors_from_lines(f)
        assert back.basis.name == basis
        assert [d.tobytes() for d in back.divisors] == [d.tobytes() for d in divisors]

    @given(valid_divisor_files(), st.booleans())
    def test_matches_dict_parser_on_valid_files(self, tmp_path_factory, lines, crlf):
        want = assert_blocks_read_like_oracle(write_file(tmp_path_factory, lines, crlf))
        assert not isinstance(want, str), want

    @given(faulty_divisor_files(), st.booleans())
    def test_names_the_faults_the_line_loop_names(self, tmp_path_factory, lines, crlf):
        assert_blocks_read_like_oracle(write_file(tmp_path_factory, lines, crlf))
