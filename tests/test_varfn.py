import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiszkit import (EstimatorConfig, NoiseModel, SeedSpec, VarFnConfig, VarianceEstimate,
                     default_bandwidth, estimate_variance_function, make_blocks,
                     make_bumps, nw_variance_raw, pava_isotone, preliminary_fit, running_mean,
                     sample_noise, triangular_kernel)
from fiszkit.varfn import PreliminaryFit, _stable_order


def nw_oracle(alpha_hat, resid_sq, b, grid):
    """Double-loop evaluation of the kernel-weighted residual mean."""
    out = np.empty(len(grid))
    for gi, u in enumerate(grid):
        num = den = 0.0
        for a, r in zip(alpha_hat, resid_sq):
            v = abs((a - u) / b)
            w = 2.0 - 4.0 * v if v <= 0.5 else 0.0
            num += w * r
            den += w
        out[gi] = num / den if den > 0 else np.nan
    return out


def nw_window_oracle(fit, bandwidth, grid_u):
    """The per-grid-point loop that the blocked gather replaces."""
    order = np.argsort(fit.alpha_hat, kind="stable")
    alpha, resid_sq = fit.alpha_hat[order], fit.residuals_sq[order]
    reach = 0.5 * bandwidth * (1.0 + 16 * np.finfo(float).eps) + 4 * np.spacing(np.abs(grid_u))
    lo = np.searchsorted(alpha, grid_u - reach, side="left")
    hi = np.searchsorted(alpha, grid_u + reach, side="right")
    mass = np.empty(grid_u.size)
    num = np.empty(grid_u.size)
    for i, (u, start, stop) in enumerate(zip(grid_u, lo, hi)):
        w = triangular_kernel((alpha[start:stop] - u) / bandwidth)
        mass[i] = w.sum()
        num[i] = w @ resid_sq[start:stop]
    populated = mass > 0
    raw = np.full(mass.size, np.nan)
    raw[populated] = num[populated] / mass[populated]
    return raw, populated


def mean_drops(s0, w0, s1, w1):
    """Whether block (s0, w0) has a larger mean than the next block (s1, w1).

    Compared by cross products, and by the means where both cross products
    are the same infinity, as in ``pava_isotone``.
    """
    a, c = s0 * w1, s1 * w0
    return a > c or a == c and abs(a) == np.inf and s0 / w0 > s1 / w1


def pava_scalar_oracle(values, weights):
    """The scan on numpy scalars, with one ``np.sum`` pair per block."""
    ends, wsum, wvsum = [], [], []
    for i, (v, w) in enumerate(zip(values, weights)):
        ends.append(i + 1)
        wsum.append(w)
        wvsum.append(w * v)
        while len(ends) > 1 and mean_drops(wvsum[-2], wsum[-2], wvsum[-1], wsum[-1]):
            ends[-2] = ends[-1]
            wsum[-2] += wsum[-1]
            wvsum[-2] += wvsum[-1]
            ends.pop(), wsum.pop(), wvsum.pop()
    out = np.empty_like(values)
    start = 0
    for end in ends:
        block = slice(start, end)
        out[block] = np.sum(weights[block] * values[block]) / np.sum(weights[block])
        start = end
    return out


def pava_reduce_oracle(values, weights=None):
    """The scan on three lists, with one ``np.add.reduce`` pair per block."""
    values = np.asarray(values, dtype=float)
    weights = np.ones_like(values) if weights is None else np.asarray(weights, dtype=float)
    ends, wsum, wvsum = [], [], []
    for i, (v, w) in enumerate(zip(values.tolist(), weights.tolist())):
        ends.append(i + 1)
        wsum.append(w)
        wvsum.append(w * v)
        while len(ends) > 1 and mean_drops(wvsum[-2], wsum[-2], wvsum[-1], wsum[-1]):
            ends[-2] = ends[-1]
            wsum[-2] += wsum[-1]
            wvsum[-2] += wvsum[-1]
            ends.pop(), wsum.pop(), wvsum.pop()
    wv = weights * values
    out = np.empty_like(values)
    start = 0
    for end in ends:
        out[start:end] = np.add.reduce(wv[start:end]) / np.add.reduce(weights[start:end])
        start = end
    return out


def kernel_where_oracle(v):
    """The triangle as one ``np.where`` over |v|."""
    v = np.abs(np.asarray(v, dtype=float))
    return np.where(v <= 0.5, 2.0 - 4.0 * v, 0.0)


def nw_formula_oracle(fit, bandwidth, grid_u):
    """The blocked gather with the ``np.where`` kernel and an out-of-place argument.

    Its blocks hold max(n, 2**12) samples, half the gather's floor; block
    edges fall between slices, so they change no sum.
    """
    order = np.argsort(fit.alpha_hat, kind="stable")
    alpha, resid_sq = fit.alpha_hat[order], fit.residuals_sq[order]
    reach = 0.5 * bandwidth * (1.0 + 16 * np.finfo(float).eps) + 4 * np.spacing(np.abs(grid_u))
    lo = np.searchsorted(alpha, grid_u - reach, side="left")
    hi = np.searchsorted(alpha, grid_u + reach, side="right")
    counts = hi - lo
    ends = np.cumsum(counts)
    block = max(alpha.size, 1 << 12)
    mass = np.zeros(grid_u.size)
    num = np.zeros(grid_u.size)
    g0 = 0
    while g0 < grid_u.size:
        g1 = max(int(np.searchsorted(ends, ends[g0] - counts[g0] + block, side="right")), g0 + 1)
        full = g0 + np.flatnonzero(counts[g0:g1])
        size = counts[full]
        starts = np.cumsum(size) - size
        idx = np.arange(size.sum()) + np.repeat(lo[full] - starts, size)
        w = kernel_where_oracle((alpha[idx] - np.repeat(grid_u[full], size)) / bandwidth)
        mass[full] = np.add.reduceat(w, starts)
        num[full] = np.add.reduceat(w * resid_sq[idx], starts)
        g0 = g1
    populated = mass > 0
    raw = np.zeros(mass.size)
    raw[populated] = num[populated] / mass[populated]
    return raw, populated


def fill_from_nearest_oracle(values, populated):
    """The two-sided fill: each unpopulated entry takes the nearer of its two
    populated neighbours, the left one on a tie."""
    if populated.all():
        return values
    pop_idx = np.flatnonzero(populated)
    if pop_idx.size == 0:
        raise ValueError("no grid point received kernel mass")
    pos = np.arange(values.size)
    right = np.searchsorted(pop_idx, pos)
    left = np.clip(right - 1, 0, pop_idx.size - 1)
    right = np.clip(right, 0, pop_idx.size - 1)
    nearer_right = np.abs(pop_idx[right] - pos) < np.abs(pos - pop_idx[left])
    donor = np.where(nearer_right, pop_idx[right], pop_idx[left])
    out = values.copy()
    out[~populated] = values[donor[~populated]]
    return out


def query_oracle(est, u):
    """``values[searchsorted(grid_u[1:], u, side="right")]``, NaN where u is NaN."""
    u = np.asarray(u, dtype=float)
    out = est.values[np.searchsorted(est.grid_u[1:], u, side="right")]
    return np.where(np.isnan(u), np.nan, out)


@st.composite
def pooled_blocks(draw):
    """Values whose PAVA blocks have 1-7, 8-128 or over 128 values, with or without weights.

    A falling segment pools into one block of its length (or a longer one,
    if a later segment lies below it); a segment of signed zeros stays in
    blocks of one; a noisy segment pools at random. Empty input is included.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for length in draw(st.lists(st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 300),
                                max_size=5)):
        level = draw(st.floats(-50.0, 50.0))
        kind = draw(st.sampled_from(["falling", "zeros", "noise"]))
        if kind == "falling":
            segments.append(level - np.cumsum(rng.uniform(0.01, 1.0, length)))
        elif kind == "zeros":
            segments.append(rng.choice([-0.0, 0.0], length))
        else:
            segments.append(rng.normal(level, 5.0, length))
    values = np.concatenate([np.zeros(0)] + segments)
    weights = 10.0 ** rng.uniform(-2.0, 2.0, values.size) if draw(st.booleans()) else None
    return values, weights


@st.composite
def random_cases(draw):
    """Fitted values, squared residuals, bandwidth and grid drawn independently."""
    n = draw(st.integers(1, 24))
    alpha = draw(arrays(float, n, elements=st.floats(0.0, 10.0)))
    resid = draw(arrays(float, n, elements=st.floats(0.0, 5.0)))
    grid = draw(arrays(float, st.integers(1, 12), elements=st.floats(-1.0, 11.0)))
    return alpha, resid, draw(st.floats(0.05, 5.0)), grid


@st.composite
def window_edge_cases(draw):
    """Fitted values on, and a few ulps either side of, the window ends u ± b/2.

    Repeated, unsorted, and at offsets up to 1e9 with a bandwidth down to
    1e-3, where rounding u ± b/2 moves a window end by up to 1e-4 of b.
    """
    offset = draw(st.sampled_from([0.0, 1e6, 1e9]) | st.floats(1e6, 1e9))
    b = draw(st.floats(1e-3, 5.0))
    grid = offset + draw(arrays(float, st.integers(1, 4), elements=st.floats(0.0, 4.0)))
    ends = np.concatenate([grid - 0.5 * b, grid + 0.5 * b])
    near_ends = np.concatenate([ends + k * np.spacing(ends) for k in range(-2, 3)])
    inside = offset + draw(arrays(float, st.integers(0, 4), elements=st.floats(0.0, 4.0)))
    pool = np.concatenate([near_ends, inside, grid])
    picks = draw(st.lists(st.integers(0, pool.size - 1), min_size=1, max_size=24))
    alpha = pool[picks]
    resid = draw(arrays(float, alpha.size, elements=st.floats(0.0, 5.0)))
    return alpha, resid, b, grid


@st.composite
def gapped_cases(draw):
    """Two clusters of fitted values on a grid wider than both.

    Every case has empty windows at both ends and between the clusters:
    b/2 <= 0.75, the end grid points lie 2 or more from the nearest cluster,
    and the grid spacing of at most 2 puts a point in (1.75, 4.25).
    """
    left = draw(arrays(float, st.integers(1, 40), elements=st.floats(0.0, 1.0)))
    right = draw(arrays(float, st.integers(1, 40), elements=st.floats(5.0, 6.0)))
    alpha = draw(st.permutations(np.concatenate([left, right]).tolist()))
    resid = draw(arrays(float, len(alpha), elements=st.floats(0.0, 5.0)))
    grid = np.linspace(-2.0 - draw(st.floats(0.0, 2.0)), 8.0 + draw(st.floats(0.0, 2.0)),
                       draw(st.integers(8, 64)))
    return np.array(alpha), resid, draw(st.floats(0.05, 1.5)), grid


@st.composite
def multi_block_cases(draw):
    """Hundreds to thousands of samples under 256 wide windows.

    With a bandwidth wider than the range each window holds all n samples;
    with one of 0.1 to 1 range the windows differ in size, so blocks end at
    varied windows. Each sample then falls in 25 or more windows, so the
    windows add up to several blocks of at most max(n, 2**13) samples.
    """
    n = draw(st.integers(600, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.uniform(1.0, 9.0, size=n) ** draw(st.sampled_from([1.0, 2.0]))
    resid = rng.exponential(size=n)
    b = np.ptp(alpha) * draw(st.floats(0.1, 1.0) | st.floats(1.5, 1e5))
    return alpha, resid, b, np.linspace(alpha.min(), alpha.max(), 256)


def pava_oracle(values, weights):
    """Exhaustive search over monotone contiguous partitions."""
    n = len(values)
    best, best_sse = None, np.inf
    for mask in range(1 << (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        fitted = np.empty(n)
        means = []
        for a, b in zip(bounds, bounds[1:]):
            mu = np.sum(weights[a:b] * values[a:b]) / np.sum(weights[a:b])
            means.append(mu)
            fitted[a:b] = mu
        if any(means[i] > means[i + 1] for i in range(len(means) - 1)):
            continue
        sse = np.sum(weights * (values - fitted) ** 2)
        if sse < best_sse:
            best, best_sse = fitted, sse
    return best


class TestRunningMean:
    def test_zero_halfwidth_is_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0])
        np.testing.assert_array_equal(running_mean(x, 0), x)

    def test_constant(self):
        np.testing.assert_allclose(running_mean(np.full(16, 2.5), 3), 2.5)

    def test_periodic_hand_value(self):
        np.testing.assert_allclose(running_mean(np.array([1.0, 2.0, 3.0]), 1),
                                   [2.0, 2.0, 2.0])

    def test_window_too_wide(self):
        with pytest.raises(ValueError):
            running_mean(np.arange(4.0), 2)

    def test_negative_half_window_rejected(self):
        with pytest.raises(ValueError, match="^half_window must be >= 0, got -1$"):
            running_mean(np.arange(4.0), -1)


class TestKernelSmoother:
    def test_kernel_shape(self):
        k = triangular_kernel
        assert k(0.0) == 2.0
        assert k(0.5) == 0.0
        assert k(0.6) == 0.0
        # unit integral on the support
        v = np.linspace(-0.5, 0.5, 100001)
        y = k(v)
        trapezoid = np.sum((y[1:] + y[:-1]) * np.diff(v)) / 2  # np.trapezoid needs numpy 2
        assert trapezoid == pytest.approx(1.0, abs=1e-6)

    @given(arrays(float, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @example(np.array([0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0),
                       np.inf, -np.inf, np.nan, 5e-324, 1.5e308]))
    def test_kernel_bit_identical_to_where_form(self, v):
        for arg in [v] + v[:3].tolist():
            got = np.asarray(triangular_kernel(arg))
            with np.errstate(over="ignore"):  # the where form overflows 4|v| beyond 4.5e307
                want = kernel_where_oracle(arg)
            assert got.tobytes() == want.tobytes()

    @given(arrays(float, st.integers(0, 300),
                  elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0, 1e300, -np.inf, np.inf])
                  | st.floats(allow_nan=False)))
    @example(np.full(50, 7.0))
    @example(np.arange(200.0))
    @example(np.arange(200.0)[::-1].copy())
    @example(np.array([4.0]))
    @example(np.tile([0.0, -0.0], 40))
    def test_stable_order_is_numpys_stable_argsort(self, a):
        assert _stable_order(a).tobytes() == np.argsort(a, kind="stable").tobytes()

    def test_constant_residuals(self):
        fit = preliminary_fit(np.full(32, 2.0) + np.tile([0.5, -0.5], 16), 1)
        fit.residuals_sq[:] = 3.0
        grid = np.linspace(fit.alpha_hat.min(), fit.alpha_hat.max(), 16)
        values, populated = nw_variance_raw(fit, 0.5, grid)
        np.testing.assert_allclose(values, 3.0)
        assert populated.all()

    def test_single_cluster_average(self):
        fit = PreliminaryFit(np.array([5.0, 5.0]), np.array([1.0, 3.0]))
        assert nw_variance_raw(fit, 1.0, np.array([5.0]))[0][0] == pytest.approx(2.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(1.0, 9.0, size=64)
        fit = preliminary_fit(np.sort(x), 2)  # sorted keeps every grid point populated
        grid = np.linspace(fit.alpha_hat.min(), fit.alpha_hat.max(), 40)
        b = 2.0
        got, _ = nw_variance_raw(fit, b, grid)
        want = nw_oracle(fit.alpha_hat, fit.residuals_sq, b, grid)
        assert not np.any(np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_location_equivariance(self):
        rng = np.random.default_rng(32)
        a = rng.uniform(0.0, 4.0, size=50)
        r = rng.uniform(0.0, 2.0, size=50)
        grid = np.linspace(0.0, 4.0, 21)
        base, _ = nw_variance_raw(PreliminaryFit(a, r), 0.7, grid)
        moved, _ = nw_variance_raw(PreliminaryFit(a + 11.5, r), 0.7, grid + 11.5)
        np.testing.assert_allclose(moved, base, rtol=1e-12)

    def test_nonpositive_bandwidth_rejected(self):
        fit = preliminary_fit(np.arange(8.0) + 1, 1)
        with pytest.raises(ValueError):
            nw_variance_raw(fit, 0.0, np.array([1.0]))

    def test_nan_bandwidth_rejected(self):
        fit = preliminary_fit(np.arange(8.0) + 1, 1)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            nw_variance_raw(fit, float("nan"), np.array([1.0]))
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            VarFnConfig(bandwidth=float("nan"))

    def test_samples_on_window_ends_get_no_weight(self):
        fit = PreliminaryFit(np.array([0.75, 1.25, 2.0]), np.array([1.0, 2.0, 3.0]))
        values, populated = nw_variance_raw(fit, 0.5, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(populated, [False, True])
        np.testing.assert_array_equal(values, [3.0, 3.0])

    @settings(max_examples=300)
    @given(st.one_of(random_cases(), window_edge_cases()))
    def test_matches_oracle_property(self, case):
        alpha, resid, b, grid = case
        fit = PreliminaryFit(alpha, resid)
        want = nw_oracle(alpha, resid, b, grid)
        if np.all(np.isnan(want)):
            with pytest.raises(ValueError):
                nw_variance_raw(fit, b, grid)
            return
        got, populated = nw_variance_raw(fit, b, grid)
        np.testing.assert_array_equal(populated, ~np.isnan(want))
        np.testing.assert_allclose(got[populated], want[populated], rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(random_cases(), window_edge_cases(), gapped_cases()))
    def test_matches_window_loop(self, case):
        alpha, resid, b, grid = case
        fit = PreliminaryFit(alpha, resid)
        want, want_populated = nw_window_oracle(fit, b, grid)
        if not want_populated.any():
            with pytest.raises(ValueError, match="no grid point"):
                nw_variance_raw(fit, b, grid)
            return
        got, populated = nw_variance_raw(fit, b, grid)
        np.testing.assert_array_equal(populated, want_populated)
        np.testing.assert_allclose(got[populated], want[populated], rtol=1e-14, atol=0)

    @settings(max_examples=20, deadline=None)
    @given(multi_block_cases())
    def test_matches_window_loop_across_blocks(self, case):
        alpha, resid, b, grid = case
        fit = PreliminaryFit(alpha, resid)
        want, want_populated = nw_window_oracle(fit, b, grid)
        got, populated = nw_variance_raw(fit, b, grid)
        np.testing.assert_array_equal(populated, want_populated)
        np.testing.assert_allclose(got[populated], want[populated], rtol=1e-14, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(multi_block_cases(), random_cases(), window_edge_cases(), gapped_cases()))
    def test_bit_identical_to_formula_oracle(self, case):
        alpha, resid, b, grid = case
        fit = PreliminaryFit(alpha, resid)
        want, want_populated = nw_formula_oracle(fit, b, grid)
        if not want_populated.any():
            with pytest.raises(ValueError, match="no grid point received kernel mass"):
                nw_variance_raw(fit, b, grid)
            return
        got, populated = nw_variance_raw(fit, b, grid)
        assert populated.tobytes() == want_populated.tobytes()
        assert got.tobytes() == fill_from_nearest_oracle(want, want_populated).tobytes()

    @pytest.mark.parametrize("alpha, populated, donor", [
        ([0.0, 4.0], [1, 0, 0, 0, 1], [0, 0, 0, 4, 4]),  # only the ends; 2 is a tie, 0 wins
        ([1.0, 3.0], [0, 1, 0, 1, 0], [1, 1, 1, 3, 3]),  # an inner tie at 2, 1 wins
        ([0.0, 3.0], [1, 0, 0, 1, 0], [0, 0, 3, 3, 3]),  # no tie
        ([2.0], [0, 0, 1, 0, 0], [2, 2, 2, 2, 2]),  # one donor
        ([4.0, 0.0, 2.0, 3.0, 1.0], [1, 1, 1, 1, 1], [0, 1, 2, 3, 4]),  # every point populated
    ])
    def test_fill_takes_the_nearest_populated_point(self, alpha, populated, donor):
        # A window of half width 1/4 around each integer grid point holds
        # exactly the samples at that point, whose residual is 10 + the point.
        alpha = np.array(alpha)
        fit = PreliminaryFit(alpha, 10.0 + alpha)
        got, got_populated = nw_variance_raw(fit, 0.5, np.arange(5.0))
        np.testing.assert_array_equal(got_populated, np.array(populated, dtype=bool))
        np.testing.assert_array_equal(got, 10.0 + np.array(donor))

    def test_leaves_the_fit_unsorted(self):
        fit = PreliminaryFit(np.array([3.0, 1.0, 2.0, 1.0]), np.array([4.0, 1.0, 2.0, 3.0]))
        nw_variance_raw(fit, 1.5, np.linspace(1.0, 3.0, 5))
        np.testing.assert_array_equal(fit.alpha_hat, [3.0, 1.0, 2.0, 1.0])
        np.testing.assert_array_equal(fit.residuals_sq, [4.0, 1.0, 2.0, 3.0])


class TestPava:
    def test_forced_pooling(self):
        np.testing.assert_allclose(pava_isotone(np.array([3.0, 1.0, 2.0])), 2.0)

    def test_sorted_input_unchanged(self):
        v = np.array([1.0, 1.0, 2.5, 7.0])
        np.testing.assert_array_equal(pava_isotone(v), v)

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            v = rng.normal(size=n)
            w = rng.uniform(0.2, 3.0, size=n)
            np.testing.assert_array_equal(pava_isotone(v, w), pava_oracle(v, w))

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        arrays(float, n, elements=st.floats(-100.0, 100.0)),
        arrays(float, n, elements=st.floats(0.01, 100.0)))))
    def test_matches_partition_oracle_property(self, data):
        v, w = data
        np.testing.assert_allclose(pava_isotone(v, w), pava_oracle(v, w), rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_to_scalar_scan(self, data):
        n = data.draw(st.integers(1, 300))
        # A few levels repeated in runs give ties and plateaus.
        levels = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
        runs = data.draw(st.lists(st.tuples(st.integers(0, len(levels) - 1), st.integers(1, 40)),
                                  min_size=1, max_size=n))
        v = np.repeat([levels[i] for i, _ in runs], [k for _, k in runs])[:n]
        v = np.concatenate([v, data.draw(arrays(float, n - v.size,
                                                elements=st.floats(-50.0, 50.0)))])
        if data.draw(st.booleans()):
            w = np.ones(n)
            got = pava_isotone(v)
        else:
            w = data.draw(arrays(float, n, elements=st.floats(0.01, 100.0)))
            got = pava_isotone(v, w)
        assert got.tobytes() == pava_scalar_oracle(v, w).tobytes()  # -0.0 and 0.0 apart

    @pytest.mark.parametrize("values", [[-0.0], [0.0, -0.0, -0.0], [-0.0, 1.0, -0.0],
                                        [2.5] * 9 + [1.0] * 3 + [2.5] * 4 + [3.0] * 20])
    def test_bit_identical_to_scalar_scan_on_repeated_values(self, values):
        # The nearest-donor fill repeats a populated grid value exactly over each
        # run of unpopulated points; runs longer than 7 are summed pairwise.
        values = np.array(values)
        want = pava_scalar_oracle(values, np.ones(values.size))
        assert pava_isotone(values).tobytes() == want.tobytes()

    def test_bit_identical_to_scalar_scan_on_fitted_grids(self):
        # The raw grids fitted to the 32 inputs of perfbench's ti-denoise workload.
        cfg = EstimatorConfig().varfn
        blocks, bumps = make_blocks(2048, 1.0, 22.6), make_bumps(2048, 3.0, 23.21)
        unpopulated = 0
        for rep in range(1, 17):
            for truth, kind, seed in ((blocks, "poisson", 101), (bumps, "exponential", 102)):
                fit = preliminary_fit(sample_noise(truth, NoiseModel(kind), SeedSpec(seed, rep)),
                                      cfg.half_window)
                grid = np.linspace(fit.alpha_hat.min(), fit.alpha_hat.max(), cfg.grid_size)
                raw, populated = nw_variance_raw(fit, default_bandwidth(fit.alpha_hat), grid)
                unpopulated += np.count_nonzero(~populated)
                want = pava_scalar_oracle(raw, np.ones(raw.size))
                assert pava_isotone(raw).tobytes() == want.tobytes()
        assert unpopulated > 0

    @settings(max_examples=150, deadline=None)
    @given(pooled_blocks())
    @example((np.array([]), None))
    @example((np.array([-0.0]), None))
    @example((np.array([-0.0, 1.0, -0.0]), np.array([2.0, 1.0, 3.0])))
    def test_bit_identical_to_reduce_per_block(self, case):
        values, weights = case
        assert pava_isotone(values, weights).tobytes() == pava_reduce_oracle(values, weights).tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(34)
        v = rng.normal(size=40)
        once = pava_isotone(v)
        np.testing.assert_array_equal(pava_isotone(once), once)

    def test_preserves_weighted_mean(self):
        rng = np.random.default_rng(35)
        v = rng.normal(size=25)
        w = rng.uniform(0.5, 2.0, size=25)
        out = pava_isotone(v, w)
        assert np.sum(w * out) == pytest.approx(np.sum(w * v), rel=1e-12)

    def test_output_nondecreasing(self):
        rng = np.random.default_rng(36)
        out = pava_isotone(rng.normal(size=100))
        assert np.all(np.diff(out) >= 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            pava_isotone(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            pava_isotone(np.ones(3), np.array([1.0, 0.0, 1.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
                pava_isotone(np.ones(3), np.array([1.0, bad, 1.0]))
            with pytest.raises(ValueError, match="values must be finite"):
                pava_isotone(np.array([1.0, bad, 1.0]))
        # finite data whose weighted values, or whose pooled sum, overflow
        with pytest.raises(ValueError, match="weighted sums overflow"):
            pava_isotone(np.array([1e200, 1.0]), np.array([1e200, 1.0]))
        with pytest.raises(ValueError, match="weighted sums overflow"):
            pava_isotone(np.array([1.7e308, 1.0e308]))
        assert pava_isotone(np.array([])).tobytes() == b""
        with pytest.raises(ValueError, match="^values must be one-dimensional$"):
            pava_isotone(np.ones((2, 3)))

    @pytest.mark.parametrize("values, pooled", [([2e150, 1e150], True), ([-1e150, -2e150], True),
                                                ([1e150, 2e150], False)])
    def test_cross_products_that_overflow_alike(self, values, pooled):
        # Both cross products of the scan overflow to the same infinity; the sums stay finite.
        values = np.array(values)
        weights = np.full(2, 1e150)
        got = pava_isotone(values, weights)
        want = np.full(2, values.mean()) if pooled else values
        np.testing.assert_allclose(got, want, rtol=1e-15)
        assert np.all(np.diff(got) >= 0)
        with np.errstate(over="ignore"):  # the scalar oracle's cross products overflow
            want = pava_scalar_oracle(values, weights)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == pava_reduce_oracle(values, weights).tobytes()


class TestDefaultBandwidth:
    def test_formula_value(self):
        alpha = np.linspace(0.0, 10.0, 2048)
        assert default_bandwidth(alpha) == pytest.approx(0.2 * 10.0 * 2048**-0.2)

    def test_constant_fallback_positive(self):
        assert default_bandwidth(np.full(64, 5.0)) == pytest.approx(0.2 * 6.0)

    def test_constant_fallback_takes_the_one_value(self):
        # the mean of 64 copies of 1.1 is 1.0999999999999999, and the mean of
        # 64 copies of 1.5e308 overflows
        assert default_bandwidth(np.full(64, 1.1)) == 0.2 * (1.1 + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_bandwidth(np.full(64, -1.5e308)) == 0.2 * (1.5e308 + 1.0)

    def test_scales_with_range(self):
        a = np.linspace(0.0, 4.0, 512)
        assert default_bandwidth(2 * a) == pytest.approx(2 * default_bandwidth(a))


class TestEstimatePipeline:
    def test_zero_noise_floors_to_eps(self):
        est = estimate_variance_function(np.full(256, 7.0))
        assert est.floor_eps > 0
        np.testing.assert_array_equal(est.values, est.floor_eps)

    def test_floor_stays_positive_where_it_underflows(self):
        # 1e-10 * peak underflows to 0 at this scale; the floor keeps the smallest double
        est = estimate_variance_function(make_blocks(256, 1.0, 22.6) * 1e-160,
                                         VarFnConfig(half_window=1))
        assert est.floor_eps > 0
        assert np.all(est.values >= est.floor_eps)

    def test_values_monotone_and_floored(self):
        truth = make_blocks(1024, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(40, 1))
        est = estimate_variance_function(x, VarFnConfig(half_window=3))
        assert np.all(np.diff(est.values) >= 0)
        assert np.all(est.values >= est.floor_eps)

    @pytest.mark.parametrize("grid, values, floor_eps, message", [
        ([], [], 1e-9, "grid_u and values must be 1-D and of the same nonzero length, "
                       "got shapes (0,) and (0,)"),
        ([0.0, 1.0, 2.0], [1.0, 2.0], 1e-9, "grid_u and values must be 1-D and of the same "
                                            "nonzero length, got shapes (3,) and (2,)"),
        ([[0.0, 1.0]], [[1.0, 2.0]], 1e-9, "grid_u and values must be 1-D and of the same "
                                           "nonzero length, got shapes (1, 2) and (1, 2)"),
        ([0.0, np.inf], [1.0, 2.0], 1e-9, "grid_u must be finite"),
        ([np.nan, 1.0], [1.0, 2.0], 1e-9, "grid_u must be finite"),
        ([2.0, 0.0, 1.0], [1.0, 2.0, 3.0], 1e-9, "grid_u must be nondecreasing"),
        ([0.0, 1.0], [1.0, 2.0], -1e-9, "floor_eps must be finite and >= 0, got -1e-09"),
        ([0.0, 1.0], [1.0, 2.0], np.inf, "floor_eps must be finite and >= 0, got inf"),
        ([0.0, 1.0], [1.0, 2.0], np.nan, "floor_eps must be finite and >= 0, got nan"),
    ], ids=["empty", "short-values", "2-d", "inf-knot", "nan-knot", "unsorted", "negative-floor",
            "inf-floor", "nan-floor"])
    def test_malformed_estimate_rejected(self, grid, values, floor_eps, message):
        # each used to fail later, or to give wrong steps: an empty grid raised IndexError
        # in query, 2 values on 3 knots misaligned the VST divisors, and knots [2, 0, 1]
        # gave query([0.5, 1.5]) == [2, 3]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VarianceEstimate(np.array(grid), np.array(values), floor_eps)

    def test_estimate_takes_float_arrays_and_leaves_values_unchecked(self):
        est = VarianceEstimate([0, 1, 1, 2], [1, -2, np.inf, np.nan], 0.0)
        assert est.grid_u.dtype == est.values.dtype == np.float64
        assert est.query(1.5) == np.inf  # the lookups report bad steps level by level

    def test_query_clamps_and_is_monotone(self):
        est = VarianceEstimate(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 9.0]), 1e-8)
        assert est.query(0.0) == 4.0
        assert est.query(99.0) == 9.0
        assert est.query(2.5) == 5.0
        u = np.linspace(-1.0, 5.0, 200)
        q = est.query(u)
        assert np.all(np.diff(q) >= 0)
        assert np.all((q >= 1e-8) & (q <= 9.0))

    @given(arrays(float, st.integers(1, 6), elements=st.floats(-5.0, 5.0)).map(np.sort),
           st.floats(-10.0, 10.0))
    def test_query_is_largest_knot_at_or_below(self, grid, u):
        est = VarianceEstimate(grid, np.arange(grid.size, dtype=float), 1e-9)
        below = [i for i, g in enumerate(grid) if g <= u]
        assert est.query(u) == (below[-1] if below else 0)

    @settings(max_examples=200)
    @given(st.integers(2, 512), st.floats(-8.0, 8.0), st.floats(-1e9, 1e9),
           st.integers(0, 2**32 - 1))
    @example(256, -6.0, 1e9, 0)  # a span of a few ulps: 9 distinct knots repeated
    def test_query_matches_searchsorted_on_linspace_grids(self, size, log_span, offset, seed):
        # the grids the fit builds; u on and within 2 ulps of every knot,
        # outside the grid and at ±inf
        grid = np.linspace(offset, offset + 10.0 ** log_span, size)
        est = VarianceEstimate(grid, np.arange(size) + 0.5, 1e-9)
        near = [grid]
        for towards in (np.inf, -np.inf):
            step = grid
            for _ in range(2):
                step = np.nextafter(step, towards)
                near.append(step)
        span = grid[-1] - grid[0]
        u = np.concatenate(near + [[grid[0] - span - 1.0, grid[-1] + span + 1.0,
                                    0.5 * (grid[0] + grid[-1]), np.inf, -np.inf]])
        u = np.random.default_rng(seed).permutation(u).reshape(-1, 5)  # 5 (size + 1) values
        expected = est.values[np.searchsorted(grid[1:], u, side="right")]
        np.testing.assert_array_equal(est.query(u), expected)
        for v, e in zip(u[:, 0].tolist(), expected[:, 0].tolist()):
            assert est.query(v) == e

    @settings(max_examples=150)
    @given(st.one_of(
        arrays(float, st.integers(1, 8), elements=st.floats(-5.0, 5.0)).map(np.sort),
        st.tuples(st.integers(2, 300), st.floats(-8.0, 3.0), st.floats(-1e9, 1e9)).map(
            lambda a: np.linspace(a[2], a[2] + 10.0 ** a[1], a[0]))),
        st.integers(0, 2**32 - 1), st.sampled_from([(), (0,), (7,), (3, 5)]))
    def test_query_bit_identical_to_searchsorted(self, grid, seed, shape):
        est = VarianceEstimate(grid, np.arange(grid.size) + 0.5, 1e-9)
        rng = np.random.default_rng(seed)
        pool = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
                               [np.nan, np.inf, -np.inf, grid[0] - 1.0, grid[-1] + 1.0]])
        u = rng.choice(pool, size=shape)
        got = est.query(u)
        assert got.shape == shape
        assert got.tobytes() == query_oracle(est, u).tobytes()
        for v in pool.tolist():
            assert np.float64(est.query(v)).tobytes() == query_oracle(est, v).tobytes()

    @settings(max_examples=150)
    @given(st.one_of(
        arrays(float, st.integers(1, 8), elements=st.floats(-5.0, 5.0)).map(np.sort),
        st.tuples(st.integers(2, 300), st.floats(-8.0, 3.0), st.floats(-1e9, 1e9)).map(
            lambda a: np.linspace(a[2], a[2] + 10.0 ** a[1], a[0]))),
        st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (7,), (3, 5)]))
    def test_step_index_is_searchsorted(self, grid, seed, shape):
        # u on every knot and one ulp to either side, outside the grid and at ±inf
        est = VarianceEstimate(grid, np.arange(grid.size) + 0.5, 1e-9)
        pool = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
                               [np.inf, -np.inf, grid[0] - 1.0, grid[-1] + 1.0]])
        u = np.random.default_rng(seed).choice(pool, size=shape)
        got = est.step_index(u)
        assert got.shape == shape and got.dtype == np.intp
        np.testing.assert_array_equal(got, np.searchsorted(grid[1:], u, side="right"))
        np.testing.assert_array_equal(est.step_index(pool),
                                      np.searchsorted(grid[1:], pool, side="right"))
        assert est.step_index(np.array([np.nan, grid[-1]])).tolist() == [0, grid.size - 1]
        # a grid bound after the lookup constants were built: mirrored and twice as wide
        est.grid_u = new = 2.0 * (grid[-1] - grid[::-1]) - 1.0
        pool = np.concatenate([pool, new, np.nextafter(new, np.inf), np.nextafter(new, -np.inf)])
        np.testing.assert_array_equal(est.step_index(pool),
                                      np.searchsorted(new[1:], pool, side="right"))

    def test_query_on_zero_span_grid(self):
        # constant data gives a grid of equal knots: the top value from the knot up
        est = VarianceEstimate(np.linspace(3.0, 3.0, 256), np.arange(256.0), 1e-9)
        u = np.array([[-np.inf, 2.0, np.nextafter(3.0, 0.0)], [3.0, 4.0, np.inf]])
        np.testing.assert_array_equal(est.query(u), [[0.0, 0.0, 0.0], [255.0, 255.0, 255.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning
            assert est.query(3.0) == 255.0

    def test_query_nan_gives_nan(self):
        est = VarianceEstimate(np.linspace(0.0, 1.0, 5), np.arange(5.0), 1e-9)
        assert np.isnan(est.query(float("nan")))
        q = est.query(np.array([[0.3, np.nan], [np.nan, 2.0]]))
        np.testing.assert_array_equal(q, [[1.0, np.nan], [np.nan, 4.0]])

    def test_pava_stage_identity_on_monotone_grid(self):
        v = np.array([0.5, 0.5, 1.0, 2.0, 2.0, 3.5])
        np.testing.assert_array_equal(pava_isotone(v), v)

    def test_poisson_recovery_single_seed(self):
        truth = make_blocks(2048, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(41, 1))
        est = estimate_variance_function(x, VarFnConfig(half_window=3))
        fit = running_mean(x, 3)
        for q in np.quantile(fit, [0.25, 0.5, 0.75]):
            assert abs(est.query(q) - q) / q < 0.25

    def test_serialization_round_trip(self):
        truth = make_blocks(512, 1.0, 8.0)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(42, 1))
        est = estimate_variance_function(x)
        lines = "".join(est.as_lines()).splitlines()
        assert lines[:3] == [f"# floor_eps {est.floor_eps:.17g}",
                             f"# bandwidth {est.bandwidth:.17g}", "# half_window 3"]
        assert float(lines[0].split()[2]) == est.floor_eps
        assert float(lines[1].split()[2]) == est.bandwidth
        grid, values = np.loadtxt(lines, unpack=True)
        assert grid.tobytes() == est.grid_u.tobytes()
        assert values.tobytes() == est.values.tobytes()

    def test_overflowing_kernel_sums_rejected(self):
        # every squared residual, 16/9 (5e153)^2, is finite; their kernel sums are not
        x = 5e153 * (-1.0) ** np.arange(64)
        with pytest.raises(ValueError, match="^smoothed variance is not finite"):
            estimate_variance_function(x, VarFnConfig(half_window=1))

    def test_overflowing_kernel_sums_rejected_in_a_direct_call(self):
        # nw_variance_raw is public: it raises the fit's error itself, with no numpy warning
        fit = preliminary_fit(5e153 * (-1.0) ** np.arange(64), 1)
        grid = np.linspace(fit.alpha_hat.min(), fit.alpha_hat.max(), 256)
        with pytest.raises(ValueError, match="^smoothed variance is not finite"):
            nw_variance_raw(fit, default_bandwidth(fit.alpha_hat), grid)

    def test_overflowing_residuals_rejected(self):
        truth = make_blocks(256, 1.0, 22.6)
        x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(43, 1)) * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning before the error
            with pytest.raises(ValueError, match="not finite"):
                estimate_variance_function(x)

    def test_fit_memory_is_linear(self):
        n = 1 << 18
        x = sample_noise(make_bumps(n, 3.0, 23.21), NoiseModel("exponential"), SeedSpec(44, 1))
        tracemalloc.start()
        try:
            estimate_variance_function(x, VarFnConfig(half_window=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * n  # a grid x n kernel matrix alone is 256 arrays of n doubles

    def test_fit_memory_is_linear_when_every_window_holds_all_samples(self):
        n = 1 << 16
        x = sample_noise(make_bumps(n, 3.0, 23.21), NoiseModel("exponential"), SeedSpec(44, 1))
        tracemalloc.start()
        try:
            est = estimate_variance_function(x, VarFnConfig(half_window=1, bandwidth=1e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.bandwidth > est.grid_u[-1] - est.grid_u[0]
        assert peak <= 16 * 8 * n  # the 256 windows gathered at once are 256 arrays of n doubles

    def test_too_short_for_window_rejected(self):
        with pytest.raises(ValueError, match=r"length 4 .* M = 3 .* 2M\+1 = 7"):
            estimate_variance_function(np.arange(1.0, 5.0), VarFnConfig(half_window=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VarFnConfig(half_window=-1)
        with pytest.raises(ValueError):
            VarFnConfig(grid_size=1)
        with pytest.raises(ValueError):
            VarFnConfig(bandwidth=-2.0)
        with pytest.raises(ValueError):
            VarFnConfig(bandwidth="plugin")

    @pytest.mark.parametrize("field", ["half_window", "grid_size"])
    def test_integer_fields_must_be_integers(self, field):
        # 1.5 used to run as half-window 1 (running_mean truncates); 10.5 failed in linspace
        bad = {"half_window": 1.5, "grid_size": 10.5}[field]
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {bad}$"):
            VarFnConfig(**{field: bad})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            VarFnConfig(**{field: "3"})
        cfg = VarFnConfig(**{field: np.int64(3)})  # numpy integers pass
        assert getattr(cfg, field) == 3
