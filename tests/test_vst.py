import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiszkit import (EstimatorConfig, NoiseModel, SeedSpec, VarianceEstimate,
                     VstState, denoise_via_vst, dwt_forward, estimate,
                     estimate_variance_function, forward_vst, haar, inverse_vst,
                     make_blocks, sample_noise)
from fiszkit.vst import divisors_as_lines, divisors_from_lines
from fiszkit.wavelet import basis_by_name
from test_wavelet import transform_matrix


def unit_variance_estimate():
    return VarianceEstimate(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1e-12)


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

    def test_non_finite_variance_rejected(self):
        hhat = VarianceEstimate(np.array([0.0, 1.0]), np.array([1.0, np.inf]), 1e-12)
        with pytest.raises(ValueError):
            forward_vst(np.linspace(0.5, 1.5, 16), hhat)


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
        from fiszkit import apply_threshold, dwt_inverse, universal_factor
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

    def test_known_variance_config_rejected(self):
        cfg = EstimatorConfig(known_variance=lambda u: np.asarray(u))
        with pytest.raises(ValueError):
            denoise_via_vst(np.ones(16), cfg)


class TestSerialization:
    def test_divisor_round_trip(self):
        rng = np.random.default_rng(77)
        divisors = [rng.uniform(0.5, 2.0, size=1 << j) for j in range(4)]
        state = VstState([d.copy() for d in divisors], haar())
        back = divisors_from_lines(divisors_as_lines(state))
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


def divisors_oracle(lines):
    """The dict-based parser the array parser replaces; valid files only."""
    entries = {}
    basis_name = "haar"
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "basis":
                basis_name = parts[1]
            continue
        j_s, k_s, v_s = line.split()
        entries[(int(j_s), int(k_s))] = float(v_s)
    n_levels = 1 + max(j for j, _ in entries)
    divisors = [np.array([entries[(j, k + 1)] for k in range(1 << j)]) for j in range(n_levels)]
    return VstState(divisors, basis_by_name(basis_name))


POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)
BASES = st.sampled_from(["haar", "daub4", "daub6", "daub8"])


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
    for _ in range(draw(st.integers(0, 4))):
        filler = draw(st.sampled_from(["", "  ", "# note", "# basis " + draw(BASES),
                                       "#basis daub4 extra"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return lines


class TestDivisorCodec:
    @given(st.integers(1, 9), BASES, st.data())
    def test_round_trip_is_bit_exact(self, n_levels, basis, data):
        divisors = [np.array(data.draw(st.lists(POSITIVE, min_size=1 << j, max_size=1 << j)))
                    for j in range(n_levels)]
        back = divisors_from_lines(divisors_as_lines(VstState(list(divisors),
                                                               basis_by_name(basis))))
        assert back.basis.name == basis
        assert [d.tobytes() for d in back.divisors] == [d.tobytes() for d in divisors]

    @given(valid_divisor_files())
    def test_matches_dict_parser_on_valid_files(self, lines):
        got, want = divisors_from_lines(lines), divisors_oracle(lines)
        assert got.basis.name == want.basis.name
        assert [d.tobytes() for d in got.divisors] == [d.tobytes() for d in want.divisors]
