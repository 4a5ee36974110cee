import re
import time
import tracemalloc
import warnings
from math import log, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiszkit import (EstimatorConfig, NoiseModel, SeedSpec, VarianceEstimate,
                     apply_threshold, baseline_mad_estimate, dwt_forward, dwt_inverse,
                     estimate, estimate_variance_function, haar, hard_threshold,
                     local_means, make_blocks, make_bumps, sample_noise, soft_threshold,
                     thresholds_data_driven, thresholds_known_h, universal_factor)
from fiszkit.estimator import MAD_TO_SIGMA, _merge_exchange, _running_mad, coefficient_sd
from fiszkit.wavelet import (BASIS_NAMES, _analysis_step, _checked_thresholds, _synthesis_rows,
                             basis_by_name, cycle_spin, shifted_local_means)

H_POISSON = lambda u: np.asarray(u, dtype=float)
H_SQUARE = lambda u: np.asarray(u, dtype=float) ** 2
ALL_BASES = [basis_by_name(name) for name in BASIS_NAMES]


def mad_window_stack(values, window):
    """Running MAD from ``np.median`` over the full stack of periodic windows."""
    w = min(window, values.shape[-1])
    stack = np.stack([np.roll(values, -o, axis=-1) for o in np.arange(w) - w // 2])
    med = np.median(stack, axis=0)
    return np.median(np.abs(stack - med), axis=0)


def mad_window(j):
    """The comparator's window at level j, clipped by the oracles to the row."""
    return (1 << max(0, j - 4)) + 1


def window_id(value):
    """Test id of a level by its window; other parameters keep pytest's ids."""
    return str(mad_window(value)) if isinstance(value, int) else None


def two_value_windows(test):
    """Pin levels 1 to 4 (window 2) over 128 rows of 2 .. 16 values, and level 0 over
    one-value rows, a third of the values ±0.0, NaN or ±inf."""
    for m in range(1, 17):
        test = example(128, m, 1 + m % 4 if m > 1 else 0, 70 + m, (None, None), 0.3)(test)
    return test


def mad_sort_twice(values, window):
    """Running MAD that sorts each window with ``np.sort`` and then sorts its deviations.

    The median and the MAD are the middles of the sorted windows, the two
    middle values averaged for an even window, as ``np.median`` does. A sort
    puts NaN last, so a window whose largest deviation is NaN is set to NaN.
    """
    w = min(window, values.shape[-1])
    padded = np.concatenate([values[..., values.shape[-1] - w // 2:], values,
                             values[..., :w - 1 - w // 2]], axis=-1)
    windows = np.sort(np.lib.stride_tricks.sliding_window_view(padded, w, axis=-1), axis=-1)

    def middle(a):
        return (a[..., (w - 1) // 2] + a[..., w // 2]) / 2 if w % 2 == 0 else a[..., w // 2]

    devs = np.sort(np.abs(windows - middle(windows)[..., None]), axis=-1)
    mad = middle(devs)
    mad[np.isnan(devs[..., -1])] = np.nan
    return mad


def shift_list(n: int, cfg: EstimatorConfig) -> range:
    """The shifts the estimator averages: the first n/stride consecutive ones."""
    if not cfg.translation_invariant:
        return range(1)
    return range(max(1, n // cfg.shift_stride))


def denoise_shifts(x, cfg, threshold_fn):
    """Slow definition of shift averaging: one full transform per shift.

    ``threshold_fn(pyramid, shifted_x)`` builds the thresholds of one shift.
    Returns the average, the thresholds and survivor masks of the unshifted
    pass, and the number of shifts.
    """
    n = x.size
    max_level = cfg.resolve_max_level(n.bit_length() - 1)
    shifts = shift_list(n, cfg)
    acc = np.zeros(n)
    first_thr = first_surv = None
    for s in shifts:
        xs = np.roll(x, s)
        p = dwt_forward(xs, cfg.basis)
        thr = threshold_fn(p, xs)
        q = apply_threshold(p, thr, cfg.rule, max_level)
        acc += np.roll(dwt_inverse(q, cfg.basis), -s)
        if s == 0:
            first_thr = thr
            first_surv = [q.details[j] != 0 for j in range(max_level)]
    return acc / len(shifts), first_thr, first_surv, len(shifts)


def cycle_spin_arange_weights(x, basis, shifts, max_level, threshold_fn, shrink):
    """Oracle for the engine's table, rows rotated by ``np.roll``.

    Synthesis weights every row by its own class count,
    ``(shifts - 1 - r) // 2^(d+1) + 1`` from ``np.arange``, and divides the
    merged parents by theirs: the engine must match it bit for bit.
    """
    n = x.size
    depth = n.bit_length() - 1
    g, h = basis.filter_pair()
    rows = x[None, :]
    shrunk, first_thr = [], []
    for d in range(depth):
        j = depth - 1 - d
        odd = min(shifts, 2 << d) - rows.shape[0]
        if odd > 0:
            rows = np.concatenate([rows, np.roll(rows[:odd], 1, axis=1)])
        rows, detail = _analysis_step(rows, g, h)
        if j >= max_level:
            shrunk.append(None)
            continue
        lam = threshold_fn(j, detail)
        shrunk.append(shrink(detail, lam))
        first_thr.append(lam[0].copy())
    for d in reversed(range(depth)):
        detail = shrunk[d] if shrunk[d] is not None else np.zeros_like(rows)
        y = _synthesis_rows(rows, detail, g, h)
        parents = min(shifts, 1 << d)
        odd = y.shape[0] - parents
        if odd:
            r = np.arange(y.shape[0])
            y *= ((shifts - 1 - r) // (2 << d) + 1)[:, None]
            y[:odd] += np.roll(y[parents:], -1, axis=1)
            rows = y[:parents] / ((shifts - 1 - r[:parents]) // (1 << d) + 1)[:, None]
        else:
            rows = y
    first_shrunk = [rows_d[0] for rows_d in reversed(shrunk) if rows_d is not None]
    return rows[0], first_thr[::-1], first_shrunk


def mode_threshold_fn(x, basis, max_level, mode):
    """The threshold callback of ``estimate`` (known or fitted law) or of the MAD comparator.

    Mode "searchsorted" is the fitted law looked up by ``np.searchsorted``.
    """
    factor = universal_factor(max_level)
    if mode == "mad":
        return lambda j, rows: MAD_TO_SIGMA * _running_mad(rows, j) * factor
    h = H_POISSON
    if mode in ("fitted", "searchsorted"):
        fit = estimate_variance_function(x, EstimatorConfig().varfn)
        h = fit.query if mode == "fitted" else (
            lambda u: fit.values[np.searchsorted(fit.grid_u[1:], u, side="right")])
    means = shifted_local_means(x, basis)
    return lambda j, rows: coefficient_sd(means(j, len(rows)), h, j) * factor


def assert_same_bytes(got, want):
    values, thr, shrunk = got
    assert values.tobytes() == want[0].tobytes()
    assert len(thr) == len(want[1]) and len(shrunk) == len(want[2])
    for a, b in zip(thr + shrunk, want[1] + want[2]):
        assert a.tobytes() == b.tobytes()


def scalar_rule(y, lam, rule):
    if rule == "soft":
        return np.sign(y) * max(abs(y) - lam, 0.0)
    return y if abs(y) >= lam else 0.0


class TestCounts:
    @pytest.mark.parametrize("max_level,expected", [(1, 1), (3, 7), (9, 511)])
    def test_count(self, max_level, expected):
        # sqrt(2 log N) over the N = 2^max_level - 1 coefficients of the thresholded levels
        assert universal_factor(max_level) == sqrt(2.0 * log(expected))

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="max_level must be >= 1, got 0"):
            universal_factor(0)

    def test_resolve_max_level_raises_the_engine_message(self):
        message = re.escape("max_level must be in [1, 3], got 5")
        with pytest.raises(ValueError, match=f"^{message}$"):
            EstimatorConfig(max_level=5).resolve_max_level(3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cycle_spin(np.ones(8), haar(), 1, 5, None, hard_threshold)
        assert EstimatorConfig(max_level=3).resolve_max_level(3) == 3
        assert [EstimatorConfig().resolve_max_level(d) for d in (1, 3, 12)] == [1, 1, 10]

    @pytest.mark.parametrize("route", [estimate, baseline_mad_estimate])
    @pytest.mark.parametrize("ti", [True, False])
    def test_universal_factor_runs_once_per_call(self, route, ti, monkeypatch):
        calls = []
        monkeypatch.setattr("fiszkit.estimator.universal_factor",
                            lambda level: calls.append(level) or universal_factor(level))
        x = np.random.default_rng(69).uniform(0.5, 30.0, size=256)
        route(x, EstimatorConfig(translation_invariant=ti))
        assert calls == [6]


class TestThresholdBuilders:
    def test_unit_variance_gives_universal_threshold(self):
        lm = local_means(np.full(32, 6.0))
        thr = thresholds_known_h(lm, lambda u: np.ones_like(np.asarray(u)), 3)
        for arr in thr:
            np.testing.assert_allclose(arr, universal_factor(3))

    def test_poisson_hand_value(self):
        # local mean 9, 511 coefficients considered: 3 * sqrt(2 ln 511)
        factor = np.sqrt(2.0 * np.log(511))
        lm = [np.full(1 << j, 9.0) for j in range(9)]
        thr = thresholds_known_h(lm, H_POISSON, 9)
        np.testing.assert_allclose(thr[4], 3.0 * factor)
        assert thr[0][0] == pytest.approx(10.594, abs=5e-3)

    def test_square_law_is_linear_in_mean(self):
        lm = [np.full(1, 2.0), np.full(2, 6.0)]
        thr = thresholds_known_h(lm, H_SQUARE, 2)
        assert thr[0][0] == pytest.approx(2.0 * universal_factor(2))
        np.testing.assert_allclose(thr[1], 6.0 * universal_factor(2))

    def test_negative_variance_rejected(self):
        lm = local_means(np.full(8, 1.0))
        with pytest.raises(ValueError):
            thresholds_known_h(lm, lambda u: np.asarray(u) - 5.0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, bad):
        lm = local_means(np.full(8, 1.0))
        with pytest.raises(ValueError):
            thresholds_known_h(lm, lambda u: np.full_like(np.asarray(u), bad), 2)

    def test_data_driven_matches_known_at_step_function(self):
        rng = np.random.default_rng(50)
        x = rng.uniform(1.0, 9.0, size=64)
        hhat = VarianceEstimate(np.linspace(0.0, 10.0, 33),
                                np.sort(rng.uniform(0.1, 4.0, size=33)), 1e-9)
        lm = local_means(x)
        got = thresholds_data_driven(lm, hhat, 4)
        want = thresholds_known_h(lm, hhat.query, 4)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("h, shape", [
        (lambda u: 4.0, "()"),
        (lambda u: np.ravel(u) ** 0, "(64,)"),  # the right size, flat
    ], ids=["scalar", "flat"])
    def test_known_law_of_the_wrong_shape_is_named(self, h, shape):
        x = np.random.default_rng(51).uniform(1.0, 9.0, size=64)
        # the finest thresholded level (3) of the 64-shift table comes first
        with pytest.raises(ValueError, match=re.escape(
                f"variance map returned shape {shape} at level 3, expected (8, 8)")):
            estimate(x, EstimatorConfig(known_variance=h))

    def test_known_law_of_the_wrong_shape_is_named_by_thresholds_known_h(self):
        lm = local_means(np.arange(1.0, 9.0))
        with pytest.raises(ValueError, match=re.escape(
                "variance map returned shape () at level 0, expected (1,)")):
            thresholds_known_h(lm, lambda u: 4.0, 3)

    def test_coefficient_sd_keeps_negative_zero(self):
        sd = coefficient_sd(np.zeros(3), lambda u: np.array([-0.0, 0.0, 4.0]), 2)
        assert sd.tobytes() == np.array([-0.0, 0.0, 2.0]).tobytes()

    @pytest.mark.parametrize("bad", [-5e-324, np.nan, np.inf])
    def test_coefficient_sd_rejects_with_one_message(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError is the only report
            with pytest.raises(ValueError, match=re.escape(
                    "variance map returned negative or non-finite values at level 2")):
                coefficient_sd(np.zeros(3), lambda u: np.array([1.0, bad, 4.0]), 2)

    def test_data_driven_flat_estimate_is_universal(self):
        hhat = VarianceEstimate(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1e-9)
        lm = local_means(np.full(16, 3.0))
        for arr in thresholds_data_driven(lm, hhat, 3):
            np.testing.assert_allclose(arr, universal_factor(3))

    def test_data_driven_clamps_outside_grid(self):
        hhat = VarianceEstimate(np.array([5.0, 6.0]), np.array([2.0, 8.0]), 1e-9)
        lm = [np.array([0.5]), np.array([10.0, 5.5])]  # below / above / inside
        thr = thresholds_data_driven(lm, hhat, 2)
        factor = universal_factor(2)
        assert factor > 0
        assert thr[0][0] == pytest.approx(np.sqrt(2.0) * factor)
        np.testing.assert_allclose(thr[1], np.sqrt([8.0, 2.0]) * factor)


class TestRules:
    def test_scalar_examples(self):
        assert soft_threshold(5.0, 3.0) == 2.0
        assert hard_threshold(5.0, 3.0) == 5.0
        assert soft_threshold(2.0, 3.0) == 0.0
        assert hard_threshold(2.0, 3.0) == 0.0
        assert soft_threshold(-5.0, 3.0) == -2.0

    def test_soft_magnitude_and_sign(self):
        rng = np.random.default_rng(51)
        y = rng.normal(scale=3.0, size=200)
        lam = rng.uniform(0.0, 3.0, size=200)
        out = soft_threshold(y, lam)
        np.testing.assert_allclose(np.abs(out), np.maximum(np.abs(y) - lam, 0.0))
        nz = out != 0
        assert np.all(np.sign(out[nz]) == np.sign(y[nz]))

    def test_hard_keeps_or_kills(self):
        rng = np.random.default_rng(52)
        y = rng.normal(size=100)
        out = hard_threshold(y, 0.8)
        assert np.all((out == 0) | (out == y))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(53)
        y = rng.normal(scale=2.0, size=300)
        lam_lo = rng.uniform(0.0, 1.0, size=300)
        lam_hi = lam_lo + rng.uniform(0.0, 1.0, size=300)
        assert np.all((hard_threshold(y, lam_hi) != 0) <= (hard_threshold(y, lam_lo) != 0))
        assert np.all(np.abs(soft_threshold(y, lam_hi)) <= np.abs(soft_threshold(y, lam_lo)))


class TestApplyThreshold:
    def test_zero_thresholds_soft_identity_below_cutoff(self):
        rng = np.random.default_rng(54)
        p = dwt_forward(rng.normal(size=32))
        thr = [np.zeros(1 << j) for j in range(3)]
        q = apply_threshold(p, thr, "soft", 3)
        for j in range(3):
            np.testing.assert_array_equal(q.details[j], p.details[j])
        for j in range(3, 5):
            np.testing.assert_array_equal(q.details[j], 0.0)
        assert q.smooth == p.smooth

    @pytest.mark.parametrize("rule", ["soft", "hard"])
    def test_matches_scalar_rule(self, rule):
        rng = np.random.default_rng(55)
        p = dwt_forward(rng.normal(size=16))
        thr = [rng.uniform(0.0, 2.0, size=1 << j) for j in range(3)]
        q = apply_threshold(p, thr, rule, 3)
        for j in range(3):
            want = [scalar_rule(y, lam, rule) for y, lam in zip(p.details[j], thr[j])]
            np.testing.assert_allclose(q.details[j], want)

    def test_errors(self):
        p = dwt_forward(np.arange(16.0))
        with pytest.raises(ValueError):
            apply_threshold(p, [np.array([-0.1])], "hard", 1)
        with pytest.raises(ValueError):
            apply_threshold(p, [np.array([np.nan])], "hard", 1)
        with pytest.raises(ValueError):
            apply_threshold(p, [np.zeros(1)], "hard", 2)  # missing level 1
        with pytest.raises(ValueError):
            apply_threshold(p, [np.zeros(1), np.zeros(3)], "hard", 2)  # wrong shape
        with pytest.raises(ValueError, match="^max_level 5 exceeds pyramid depth 4$"):
            apply_threshold(p, [np.zeros(1 << j) for j in range(5)], "hard", 5)


class TestEstimate:
    def test_zero_noise_constant_truth_recovered(self):
        x = np.full(64, 5.0)
        res = estimate(x, EstimatorConfig(translation_invariant=False))
        np.testing.assert_allclose(res.values, x, atol=1e-10)

    def test_flat_unit_variance_reduces_to_universal_shrinkage(self):
        rng = np.random.default_rng(56)
        x = rng.normal(loc=10.0, size=256)
        cfg = EstimatorConfig(translation_invariant=False,
                              known_variance=lambda u: np.ones_like(np.asarray(u)))
        res = estimate(x, cfg)
        # classical route: universal threshold on every coarse coefficient
        p = dwt_forward(x)
        ml = cfg.resolve_max_level(8)
        lam = universal_factor(ml)
        q = apply_threshold(p, [np.full(1 << j, lam) for j in range(ml)], "hard", ml)
        np.testing.assert_allclose(res.values, dwt_inverse(q), atol=1e-12)

    def test_ti_zero_thresholds_soft_round_trips(self):
        rng = np.random.default_rng(57)
        x = rng.uniform(1.0, 4.0, size=64)
        cfg = EstimatorConfig(rule="soft", max_level=6,
                              known_variance=lambda u: np.zeros_like(np.asarray(u)))
        res = estimate(x, cfg)
        assert res.shifts_averaged == 64
        np.testing.assert_allclose(res.values, x, atol=1e-9)

    def test_survivor_mask_definition(self):
        truth = make_blocks(256, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(58, 1))
        res = estimate(x, EstimatorConfig(translation_invariant=False))
        p = dwt_forward(x)
        for j, mask in enumerate(res.survivors):
            np.testing.assert_array_equal(mask, np.abs(p.details[j]) >= res.thresholds[j])

    @given(st.sampled_from(["hard", "soft"]),
           st.integers(3, 8).flatmap(lambda depth: arrays(
               float, 1 << depth, elements=st.floats(-50.0, 50.0))),
           st.floats(0.01, 10.0), st.floats(0.0, 2.0))
    def test_survivor_mask_definition_property(self, rule, x, c0, c2):
        # positive variance map, so every threshold is > 0
        cfg = EstimatorConfig(rule=rule, max_level=x.size.bit_length() - 2,
                              translation_invariant=False,
                              known_variance=lambda u: c0 + c2 * np.asarray(u) ** 2)
        res = estimate(x, cfg)
        p = dwt_forward(x)
        for j, (mask, lam) in enumerate(zip(res.survivors, res.thresholds)):
            assert np.all(lam > 0)
            d = np.abs(p.details[j])
            np.testing.assert_array_equal(mask, d >= lam if rule == "hard" else d > lam)

    def test_scale_equivariance_square_law(self):
        truth = make_bumps(512, 3.0, 23.21)
        cfg = EstimatorConfig(known_variance=H_SQUARE, translation_invariant=False)
        for seed in (1, 2, 3):
            x = sample_noise(truth, NoiseModel("exponential"), SeedSpec(59, seed))
            r1 = estimate(x, cfg)
            r3 = estimate(3.0 * x, cfg)
            for a, b in zip(r1.survivors, r3.survivors):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(r3.values, 3.0 * r1.values,
                                       atol=1e-9 * np.max(np.abs(r1.values)))

    def test_known_law_with_false_truth_value_is_used(self):
        # a law whose truth value is False used to be replaced by a fitted one
        class EmptyLookingLaw:
            def __call__(self, u):
                return np.asarray(u, dtype=float)

            def __len__(self):
                return 0

        law = EmptyLookingLaw()
        assert not law
        x = sample_noise(make_blocks(256, 1.0, 22.6), NoiseModel("poisson"), SeedSpec(57, 1))
        res = estimate(x, EstimatorConfig(known_variance=law))
        want = estimate(x, EstimatorConfig(known_variance=H_POISSON))
        assert res.variance_fn is law
        assert res.values.tobytes() == want.values.tobytes()
        assert [t.tobytes() for t in res.thresholds] == [t.tobytes() for t in want.thresholds]

    def test_known_vs_data_driven_survivors_mostly_agree(self):
        truth = make_blocks(2048, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(60, 1))
        rk = estimate(x, EstimatorConfig(known_variance=H_POISSON, translation_invariant=False))
        rd = estimate(x, EstimatorConfig(translation_invariant=False))
        a = np.concatenate([m.ravel() for m in rk.survivors])
        b = np.concatenate([m.ravel() for m in rd.survivors])
        assert np.mean(a == b) >= 0.90

    def test_variance_fit_reused_across_shifts(self):
        truth = make_blocks(256, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(61, 1))
        res = estimate(x, EstimatorConfig(shift_stride=64))
        assert isinstance(res.variance_fn, VarianceEstimate)
        # thresholds of the unshifted pass come from that one fit
        want = thresholds_data_driven(local_means(x), res.variance_fn, 6)
        for a, b in zip(res.thresholds, want):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=150)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.sampled_from(ALL_BASES),
           st.sampled_from([1, 2, 3, 16]), st.booleans(), st.sampled_from(["hard", "soft"]),
           st.sampled_from(["known", "fitted", "mad"]))
    def test_cycle_spin_matches_shift_loop(self, depth, seed, basis, stride, ti, rule, mode):
        # Continuous data: a local mean landing exactly on a knot of the fitted
        # step function could round to either side in the two computations.
        assume(mode != "fitted" or depth >= 2)  # the variance fit needs n >= 3
        x = np.random.default_rng(seed).uniform(0.5, 30.0, size=1 << depth)
        cfg = EstimatorConfig(rule=rule, translation_invariant=ti, shift_stride=stride,
                              basis=basis, known_variance=H_POISSON if mode == "known" else None)
        max_level = cfg.resolve_max_level(depth)
        if mode == "mad":
            got = baseline_mad_estimate(x, cfg)
            factor = universal_factor(max_level)
            want = denoise_shifts(x, cfg, lambda p, _xs: [
                MAD_TO_SIGMA * _running_mad(p.details[j], j) * factor
                for j in range(max_level)])[0]
        else:
            res = estimate(x, cfg)
            h = H_POISSON if mode == "known" else estimate_variance_function(x, cfg.varfn).query
            want, thr, surv, n_shifts = denoise_shifts(
                x, cfg, lambda _p, xs: thresholds_known_h(local_means(xs, basis), h, max_level))
            got = res.values
            assert res.shifts_averaged == n_shifts
            assert len(res.thresholds) == len(res.survivors) == max_level
            for a, b in zip(res.thresholds, thr):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(res.survivors, surv):
                np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("basis", [haar(), basis_by_name("daub4"), basis_by_name("daub8")],
                             ids=lambda b: b.name)
    # 96 = 3 * 2^5, 384 = 3 * 2^7, 640 = 5 * 2^7 and 1536 = 3 * 2^9: at their shallow
    # depths the equal class counts have an odd factor, so the scaling is partial
    @pytest.mark.parametrize("shifts", [1, 2, 3, 5, 7, 96, 127, 128, 384, 640, 682, 1536, 2047,
                                        2048])
    def test_cycle_spin_merge_is_bit_exact(self, shifts, basis):
        x = sample_noise(make_blocks(2048, 1.0, 22.6), NoiseModel("poisson"), SeedSpec(66, 1))
        for mode in ("known", "fitted", "mad"):
            threshold_fn = mode_threshold_fn(x, basis, 9, mode)
            assert_same_bytes(cycle_spin(x, basis, shifts, 9, threshold_fn, hard_threshold),
                              cycle_spin_arange_weights(x, basis, shifts, 9, threshold_fn,
                                                        hard_threshold))

    @given(st.integers(1, 10).flatmap(lambda depth: st.tuples(
               st.just(depth), st.integers(1, 1 << depth), st.integers(1, depth))),
           st.integers(0, 2**32 - 1), st.sampled_from(ALL_BASES),
           st.sampled_from(["known", "fitted", "mad"]), st.sampled_from(["hard", "soft"]))
    def test_cycle_spin_merge_is_bit_exact_property(self, sizes, seed, basis, mode, rule):
        depth, shifts, max_level = sizes
        assume(mode != "fitted" or depth >= 2)  # the variance fit needs n >= 3
        x = np.random.default_rng(seed).uniform(0.5, 30.0, size=1 << depth)
        threshold_fn = mode_threshold_fn(x, basis, max_level, mode)
        shrink = soft_threshold if rule == "soft" else hard_threshold
        assert_same_bytes(cycle_spin(x, basis, shifts, max_level, threshold_fn, shrink),
                          cycle_spin_arange_weights(x, basis, shifts, max_level, threshold_fn,
                                                    shrink))

    @given(st.integers(2, 9).flatmap(lambda depth: st.tuples(
               st.just(depth), st.one_of(st.just(1), st.integers(1, 1 << depth)),
               st.integers(1, depth - 1))),
           st.integers(0, 2**32 - 1), st.sampled_from(ALL_BASES),
           st.sampled_from(["known", "fitted", "mad"]), st.sampled_from(["hard", "soft"]),
           st.sampled_from([(0.0,), (-0.0,), (0.0, -0.0)]), st.sampled_from([0.0, 0.5]))
    @example((3, 8, 2), 0, ALL_BASES[0], "known", "hard", (0.0,), 0.0)
    @example((3, 8, 2), 0, ALL_BASES[3], "fitted", "soft", (-0.0,), 0.0)
    @example((3, 1, 1), 0, ALL_BASES[0], "known", "hard", (-0.0,), 0.0)  # a -0.0 reaches level 1
    def test_cycle_spin_merge_is_bit_exact_on_signed_zeros(self, sizes, seed, basis, mode, rule,
                                                           zeros, nonzero):
        # The engine synthesises the zeroed levels j >= max_level from a scalar
        # 0.0, the oracle from np.zeros_like: ±0.0 entries and the all-zero
        # signal must come out with the same bits, signs of zeros included.
        depth, shifts, max_level = sizes
        rng = np.random.default_rng(seed)
        x = rng.choice(zeros, size=1 << depth)
        some = rng.random(x.size) < nonzero
        x[some] = rng.uniform(0.5, 30.0, size=np.count_nonzero(some))
        threshold_fn = mode_threshold_fn(x, basis, max_level, mode)
        shrink = soft_threshold if rule == "soft" else hard_threshold
        assert_same_bytes(cycle_spin(x, basis, shifts, max_level, threshold_fn, shrink),
                          cycle_spin_arange_weights(x, basis, shifts, max_level, threshold_fn,
                                                    shrink))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.sampled_from(ALL_BASES),
           st.sampled_from([1, 3, 16]), st.booleans(), st.sampled_from(["hard", "soft"]),
           st.sampled_from(["fitted", "known"]), st.booleans())
    def test_estimate_matches_the_query_route_bit_for_bit(self, depth, seed, basis, stride,
                                                          ti, rule, mode, poisson):
        # The query route is coefficient_sd over VarianceEstimate.query, and for
        # the fitted law also over np.searchsorted. Poisson local means are ratios
        # of small integers and can land on a knot, where a lookup that rounds
        # differently would take the neighbouring step.
        rng = np.random.default_rng(seed)
        n = 1 << depth
        if poisson:
            x = rng.poisson(np.repeat(rng.uniform(0.2, 20.0, size=4), n // 4)).astype(float)
        else:
            x = rng.uniform(0.5, 30.0, size=n)
        cfg = EstimatorConfig(rule=rule, translation_invariant=ti, shift_stride=stride,
                              basis=basis, known_variance=H_POISSON if mode == "known" else None)
        max_level = cfg.resolve_max_level(depth)
        shrink = soft_threshold if rule == "soft" else hard_threshold
        res = estimate(x, cfg)
        for route in [mode] + ["searchsorted"] * (mode == "fitted"):
            values, thr, shrunk = cycle_spin(x, basis, len(shift_list(n, cfg)), max_level,
                                             mode_threshold_fn(x, basis, max_level, route),
                                             shrink)
            assert_same_bytes((res.values, res.thresholds, res.survivors),
                              (values, thr, [d != 0 for d in shrunk]))

    def test_cycle_spin_memory_is_n_log_n(self):
        # every shift of n = 4096: a shift-count x n stack would be 128 MiB;
        # daub8's periodically extended rows count too
        n = 1 << 12
        x = np.random.default_rng(65).uniform(1.0, 20.0, size=n)
        for basis in (haar(), basis_by_name("daub8")):
            tracemalloc.start()
            try:
                cycle_spin(x, basis, n, 10, lambda j, rows: np.ones_like(rows), hard_threshold)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 8 * n * 12, basis.name  # four arrays of n doubles per level

    def test_cycle_spin_validation(self):
        x = np.arange(1.0, 9.0)
        ones = lambda j, rows: np.ones_like(rows)
        for shifts, max_level in ((0, 1), (9, 1), (8, 0), (8, 4)):
            with pytest.raises(ValueError):
                cycle_spin(x, haar(), shifts, max_level, ones, hard_threshold)
        with pytest.raises(ValueError, match="shape"):
            cycle_spin(x, haar(), 8, 2, lambda j, rows: np.ones(1 << j), hard_threshold)
        with pytest.raises(ValueError, match="NaN"):
            cycle_spin(x, haar(), 8, 2, lambda j, rows: np.full_like(rows, np.nan),
                       hard_threshold)

    @pytest.mark.parametrize("x, lam_of, message", [
        (np.arange(1.0, 9.0), lambda d: np.ones(3),
         r"threshold level 0 has shape \(3,\), expected \("),
        (np.arange(1.0, 9.0), lambda d: -np.ones(d.shape), "negative or NaN threshold at level 0"),
        (np.arange(1.0, 9.0), lambda d: np.full(d.shape, np.nan),
         "negative or NaN threshold at level 0"),
        # neighbour sums overflow, so the level-0 detail is not finite; a
        # threshold built from it is NaN there
        (np.array([1.0, *[1.5e308] * 4, 1.0, 1.5e308, 1.5e308]),
         lambda d: np.where(np.isfinite(d), 1.0, np.nan), "wavelet coefficients overflow"),
    ], ids=["shape", "negative", "nan", "non-finite details"])
    def test_engine_and_pyramid_share_the_threshold_check(self, x, lam_of, message):
        with pytest.raises(ValueError, match=message):
            cycle_spin(x, haar(), 1, 1, lambda j, rows: lam_of(rows), hard_threshold)
        with np.errstate(over="ignore", invalid="ignore"):  # the check reports the overflow
            p = dwt_forward(x)
        with pytest.raises(ValueError, match=message):
            apply_threshold(p, [lam_of(p.details[0])], "hard", 1)

    def test_threshold_check_reports_overflow_before_a_nan_threshold(self):
        nan_first = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="wavelet coefficients overflow"):
            _checked_thresholds(1, nan_first, np.array([np.inf, 1.0]))
        with pytest.raises(ValueError, match="negative or NaN threshold at level 1"):
            _checked_thresholds(1, nan_first, np.ones(2))
        with pytest.raises(ValueError, match="negative or NaN threshold at level 1"):
            _checked_thresholds(1, [1.0, -5e-324], np.ones(2))
        assert _checked_thresholds(1, [-0.0, 0.0], np.ones(2)).tobytes() == \
            np.array([-0.0, 0.0]).tobytes()

    def test_out_of_range_max_level_fails_before_any_factor(self):
        # 2^(10^9) - 1, the coefficient count of 10^9 levels, is a 125 MB integer
        x = sample_noise(make_blocks(2048, 1.0, 22.6), NoiseModel("poisson"), SeedSpec(67, 1))
        cfg = EstimatorConfig(max_level=10**9)
        for route in (estimate, baseline_mad_estimate):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(ValueError, match=re.escape(
                        "max_level must be in [1, 11], got 1000000000")):
                    route(x, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 0.5, route.__name__
            assert peak < 8 << 20, route.__name__

    def test_two_samples(self):
        # known law: no variance fit, so n = 2 runs through the engine
        x = np.array([1.0, 3.0])
        res = estimate(x, EstimatorConfig(known_variance=H_POISSON))
        assert res.shifts_averaged == 2
        np.testing.assert_allclose(res.values, x)  # sqrt(2 log 1) = 0: nothing shrinks
        with pytest.raises(ValueError, match=r"half-window M = 1 .* 2M\+1 = 3"):
            estimate(x)

    def test_overflowing_data_rejected(self):
        x = sample_noise(make_blocks(256, 1.0, 22.6), NoiseModel("poisson"), SeedSpec(64, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError is the only report
            with pytest.raises(ValueError):
                estimate(x * 1e300, EstimatorConfig(translation_invariant=False))
            with pytest.raises(ValueError):
                estimate(x * 1e300, EstimatorConfig(known_variance=H_SQUARE,
                                                    translation_invariant=False))

    def test_data_near_float_max_reports_overflow(self):
        # sums of two neighbours overflow; every numpy warning is an error here
        x = np.full(64, 1.5e308)
        x[::5] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wavelet coefficients overflow"):
                baseline_mad_estimate(x)
            with pytest.raises(ValueError, match="wavelet coefficients overflow"):
                baseline_mad_estimate(x, EstimatorConfig(translation_invariant=False))
            for h in (H_POISSON, H_SQUARE):
                with pytest.raises(ValueError, match="local means overflow"):
                    estimate(x, EstimatorConfig(known_variance=h))

    def test_overflowing_output_reported(self):
        # zero thresholds keep every coefficient, so only the check of the
        # averaged output sees the overflow
        x = np.full(16, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wavelet coefficients overflow"):
                cycle_spin(x, haar(), 16, 4, lambda j, rows: np.zeros(rows.shape),
                           hard_threshold)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(rule="block")
        with pytest.raises(ValueError):
            EstimatorConfig(shift_stride=0)
        with pytest.raises(ValueError):
            EstimatorConfig(max_level=0)
        with pytest.raises(ValueError):
            estimate(np.ones(8), EstimatorConfig(max_level=4))  # depth is 3

    @pytest.mark.parametrize("field", ["shift_stride", "max_level"])
    def test_integer_fields_must_be_integers(self, field):
        # 2.5 used to fail inside the engine with a TypeError
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 2.5$"):
            EstimatorConfig(**{field: 2.5})
        cfg = EstimatorConfig(**{field: np.int64(2)})  # numpy integers pass
        assert estimate(np.arange(1.0, 17.0), cfg).values.shape == (16,)


class TestBaseline:
    def test_running_mad_gaussian_consistency(self):
        # robust scale of i.i.d. gaussian coefficients, averaged over 50 seeds
        rng = np.random.default_rng(62)
        sigma = 2.3
        scales = []
        for _ in range(50):
            coeffs = rng.normal(scale=sigma, size=256)
            scales.append(np.mean(MAD_TO_SIGMA * _running_mad(coeffs, 8)))  # window 17
        assert abs(np.mean(scales) - sigma) < 0.15 * sigma

    @pytest.mark.parametrize("shape, j", [((256,), 8), ((7, 33), 1), ((3, 5), 6),
                                          ((2, 1024), 10), ((8, 2048), 11)], ids=window_id)
    def test_running_mad_matches_window_stack(self, shape, j):
        # the last two take several column blocks
        values = np.random.default_rng(66).normal(size=shape)
        values[..., ::3] = np.round(values[..., ::3])  # ties
        np.testing.assert_array_equal(_running_mad(values, j),
                                      mad_window_stack(values, mad_window(j)))

    @settings(max_examples=300)
    @given(st.integers(1, 3), st.integers(1, 40), st.data())
    def test_running_mad_property(self, rows, m, data):
        # ties from a small value set, and NaN or ±inf in some windows
        values = data.draw(arrays(float, (rows, m), elements=st.one_of(
            st.sampled_from([-1.5, 0.0, 0.25, 2.0]), st.floats(-1e3, 1e3),
            st.sampled_from([np.nan, np.inf, -np.inf]))))
        # level 0 holds one value; level j > 0 a window of at most m
        j = data.draw(st.integers(1, 3 + (m - 1).bit_length()) if m > 1 else st.just(0))
        with np.errstate(invalid="ignore"):  # inf - inf in a window is NaN, as in np.median
            np.testing.assert_array_equal(_running_mad(values, j),
                                          mad_window_stack(values, mad_window(j)))

    @pytest.mark.parametrize("shape, j", [((3, 1500), 10), ((2, 2048), 11), ((5, 700), 9)],
                             ids=window_id)
    def test_running_mad_nonfinite_over_blocks(self, shape, j):
        # windows over several column blocks, NaN and ±inf inside
        values = np.random.default_rng(68).normal(size=shape)
        values[..., ::4] = np.round(values[..., ::4])
        values[0, 100] = np.nan
        values[-1, 333] = np.inf
        values[-1, 600] = -np.inf
        window = mad_window(j)
        with np.errstate(invalid="ignore"):
            got = _running_mad(values, j)
            np.testing.assert_array_equal(got, mad_window_stack(values, window))
        lead = window // 2  # position p's window starts at p - lead
        assert np.isnan(got[0, 100 + lead - window + 1:100 + lead + 1]).all()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([(None, None), (0, None), (None, 0)]),
           st.sampled_from([0.0, 0.002, 0.02, 0.3, 0.9]))
    # wide windows over few positions per block, and a last block of few positions
    @example(8, 300, 12, 69, (None, None), 0.02)
    @example(8, 200, 11, 69, (0, None), 0.02)
    @example(1, 300, 12, 69, (None, 0), 0.02)
    # network windows whose rows span several network blocks, a block of one column, and
    # the narrowest network windows
    @example(64, 300, 7, 71, (None, None), 0.02)
    @example(64, 300, 8, 72, (0, None), 0.02)
    @example(4000, 20, 8, 73, (None, None), 0.02)
    @example(8, 200, 6, 74, (None, None), 0.3)
    @example(8, 200, 5, 75, (None, 0), 0.02)
    @two_value_windows  # the sort-free path
    def test_running_mad_bit_identical_to_sorting_twice(self, rows, m, j, seed, clip, share):
        # ties, ±0.0, ±inf, NaN and ±1.7e308, whose pairs overflow a two-value median;
        # clipped at 0, about half of each window ties at one end, where the MAD can be
        # the first or the last split
        assume((j == 0) == (m == 1) and mad_window(j) <= m)  # level 0 holds one value
        rng = np.random.default_rng(seed)
        values = np.clip(np.round(rng.normal(size=(rows, m)), 1), *clip)
        hit = rng.random(values.shape) < share
        values[hit] = rng.choice([0.0, -0.0, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan],
                                 size=hit.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            got = _running_mad(values, j)
            want = mad_sort_twice(values, mad_window(j))
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("j", [1, 7, 9, 10], ids=window_id)
    def test_running_mad_where_the_median_overflows(self, j):
        # a two-value window of 1.7e308s has the median inf, and so the MAD inf
        values = np.full((2, 130), 1.7e308)
        values[0, ::2] = -1.7e308
        values[1, 7] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            got = _running_mad(values, j)
            want = mad_sort_twice(values, mad_window(j))
        assert got.tobytes() == want.tobytes()
        if j <= 4:  # positions 7 and 8 pair the 1.0 with a 1.7e308
            assert np.isinf(np.delete(got[1], [7, 8])).all()

    def test_running_mad_memory_is_linear(self):
        # full averaging at n = 2^14: the finest thresholded level (j = 11)
        # holds 8 rows of 2048, and a window stack would be 129 arrays of n;
        # j = 8 holds 64 rows of 256 in windows of 17, the widest network
        n = 1 << 14
        for j in (11, 8):
            rows = np.random.default_rng(67).normal(size=(n >> j, 1 << j))
            tracemalloc.start()
            try:
                _running_mad(rows, j)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 8 * n, j

    @pytest.mark.parametrize("j", [0], ids=["1"])  # ids name the window
    def test_running_mad_of_one_value_per_row(self, j):
        # the j = 0 level: each row holds one coefficient, so the window clips to one value
        values = np.array([1.0, -0.0, 0.0, np.inf, -np.inf, np.nan, 1.7e308, -5e-324])[:, None]
        with np.errstate(invalid="ignore"):
            got = _running_mad(values, j)
            want = mad_sort_twice(values, mad_window(j))
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_merge_exchange_sorts_every_column_of_zeros_and_ones(self):
        # a network that sorts every 0-1 input sorts every input (Knuth, TAOCP vol. 3, 5.3.4)
        for w in range(1, 18):
            pairs = _merge_exchange(w)
            assert all(0 <= i < j < w for i, j in pairs)
            rows = np.arange(1 << w) >> np.arange(w)[:, None] & 1
            for i, j in pairs:
                rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
            assert (rows[:-1] <= rows[1:]).all(), w
        assert [len(_merge_exchange(w)) for w in (3, 5, 9, 17)] == [3, 9, 26, 74]

    def test_zero_noise_constant_is_identity(self):
        x = np.full(128, 4.0)
        out = baseline_mad_estimate(x, EstimatorConfig(translation_invariant=False))
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_beats_nothing_but_runs_deterministically(self):
        truth = make_blocks(256, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(63, 1))
        cfg = EstimatorConfig(shift_stride=16)
        a = baseline_mad_estimate(x, cfg)
        b = baseline_mad_estimate(x, cfg)
        np.testing.assert_array_equal(a, b)


class TestScaling:
    """Metamorphic relation: a power-of-two scale passes through every step exactly.

    The fit, the kernel, PAVA, the floor, the lookup, the square root and
    the engine each commute with x -> 2^k x as long as nothing becomes
    subnormal or overflows, so the output scales bit for bit.
    """

    @settings(max_examples=50)
    @given(st.sampled_from([("blocks", "poisson"), ("bumps", "exponential")]),
           st.integers(6, 12), st.integers(1, 3), st.sampled_from(["haar", "daub4", "daub8"]),
           st.booleans())
    @example(("bumps", "exponential"), 12, 1, "daub8", True)
    @example(("blocks", "poisson"), 12, 2, "haar", False)
    def test_power_of_two_scale_is_exact(self, family, log_n, rep, basis, ti):
        signal, noise = family
        truth = (make_blocks(1 << log_n, 1.0, 22.6) if signal == "blocks"
                 else make_bumps(1 << log_n, 3.0, 23.21))
        x = sample_noise(truth, NoiseModel(noise), SeedSpec(68, rep))
        cfg = EstimatorConfig(basis=basis_by_name(basis), translation_invariant=ti)
        fitted, mad = estimate(x, cfg).values, baseline_mad_estimate(x, cfg)
        for k in (-40, -3, 5, 60):
            scale = 2.0 ** k
            assert estimate(scale * x, cfg).values.tobytes() == (scale * fitted).tobytes(), k
            assert baseline_mad_estimate(scale * x, cfg).tobytes() == (scale * mad).tobytes(), k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 10), st.integers(-40, 60), st.sampled_from(BASIS_NAMES),
           st.sampled_from([1, 3, 16]), st.booleans(), st.sampled_from(["hard", "soft"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    @example(10, 60, "daub8", 1, True, "hard", False, 1)
    @example(3, -40, "haar", 3, True, "soft", True, 2)
    def test_power_of_two_scale_is_exact_in_every_setting(self, log_n, k, basis, stride, ti,
                                                          rule, known, seed):
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        x = rng.exponential(size=n) * np.repeat(rng.uniform(1.0, 20.0, size=4), n // 4)
        cfg = EstimatorConfig(basis=basis_by_name(basis), shift_stride=stride,
                              translation_invariant=ti, rule=rule,
                              known_variance=H_SQUARE if known else None)
        scale = 2.0 ** k
        plain, scaled = estimate(x, cfg), estimate(scale * x, cfg)
        assert scaled.values.tobytes() == (scale * plain.values).tobytes()
        assert len(scaled.thresholds) == len(plain.thresholds)
        for got, want in zip(scaled.thresholds, plain.thresholds):
            assert got.tobytes() == (scale * want).tobytes()
        mad = baseline_mad_estimate(x, cfg)
        assert baseline_mad_estimate(scale * x, cfg).tobytes() == (scale * mad).tobytes()

    @pytest.mark.parametrize("basis", ["haar", "daub4"])
    @pytest.mark.parametrize("k", [1010, 1012])
    def test_scale_near_the_float_maximum_is_exact(self, basis, k):
        # Under full averaging every merge is one add and one halving, so no
        # sum exceeds twice an average: x * 2^1010 would overflow as q x at
        # q = 1024 shifts a class, but the average scales exactly.
        x = sample_noise(make_blocks(2048, 1.0, 22.6), NoiseModel("poisson"), SeedSpec(66, 1))
        cfg = EstimatorConfig(basis=basis_by_name(basis))
        scale = 2.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = baseline_mad_estimate(scale * x, cfg)
        assert got.tobytes() == (scale * baseline_mad_estimate(x, cfg)).tobytes()


class TestCircularShift:
    """Metamorphic relation: under full averaging a circular shift of the input
    shifts the estimate.

    Every shift is averaged and the fit sees the same (mean, residual) pairs,
    so only the order of sums changes: equal fitted values may be summed in
    another order, and the shift average starts at another shift.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 10), st.sampled_from(BASIS_NAMES), st.sampled_from(["hard", "soft"]),
           st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**20))
    @example(10, "daub8", "hard", False, 1, 999)
    @example(3, "haar", "soft", True, 2, 4)
    def test_roll_commutes_with_estimate(self, log_n, basis, rule, known, seed, shift):
        n = 1 << log_n
        s = 1 + shift % (n - 1)
        rng = np.random.default_rng(seed)
        x = rng.exponential(size=n) * np.repeat(rng.uniform(1.0, 20.0, size=4), n // 4)
        cfg = EstimatorConfig(basis=basis_by_name(basis), rule=rule,
                              known_variance=H_SQUARE if known else None)
        want = np.roll(estimate(x, cfg).values, s)
        got = estimate(np.roll(x, s), cfg).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
