"""Estimation of the mean-to-variance map from a single noisy signal.

Pipeline: a short periodic running mean gives a rough fit of the signal;
squared residuals from that fit are kernel-smoothed against the fitted
values (Nadaraya-Watson with a triangular kernel), evaluated on a fixed
grid spanning the fitted range; the grid values are made nondecreasing by
pool-adjacent-violators regression and floored away from zero. The result
is a step function that can be queried at any mean value.

The kernel has compact support of width b, so the smoother sorts the
fitted values once and weights, at each grid point, only the sorted
slice that falls in its window (the compact-support case of Fan & Marron
1994, *Fast implementations of nonparametric curve estimators*): O(n log n)
time and O(n) memory, with no grid × n array and no Python loop per grid
point.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .signals import as_signal
from .textio import format_blocks

__all__ = [
    "triangular_kernel",
    "PreliminaryFit",
    "VarFnConfig",
    "VarianceEstimate",
    "running_mean",
    "preliminary_fit",
    "nw_variance_raw",
    "pava_isotone",
    "default_bandwidth",
    "estimate_variance_function",
]

_TINY_FLOOR = 1e-20
_SHORT_BLOCK = np.arange(7)[:, None]  # np.add.reduce sums up to 7 values left to right


def triangular_kernel(v) -> np.ndarray:
    """Triangle on [-1/2, 1/2]: peak 2 at the origin, unit integral."""
    k = np.abs(np.asarray(v, dtype=float), out=np.empty(np.shape(v)))
    with np.errstate(over="ignore"):  # 4|v| = inf beyond 4.5e307, where the kernel is 0
        k *= 4.0
    np.subtract(2.0, k, out=k)
    return np.fmax(k, 0.0, out=k)  # max(2 - 4|v|, 0); fmax also sends NaN to 0


def running_mean(x, half_window: int) -> np.ndarray:
    """Periodic moving average with window ``2*half_window + 1``."""
    x = np.asarray(x, dtype=float)
    m = int(half_window)
    if m < 0:
        raise ValueError(f"half_window must be >= 0, got {half_window}")
    w = 2 * m + 1
    if w > x.size:
        raise ValueError(f"window {w} exceeds signal length {x.size}")
    if m == 0:
        return x.copy()
    padded = np.concatenate([x[-m:], x, x[:m]])
    return np.convolve(padded, np.full(w, 1.0 / w), mode="valid")


@dataclass
class PreliminaryFit:
    """Running-mean fit of a signal plus its squared residuals."""

    alpha_hat: np.ndarray
    residuals_sq: np.ndarray


def preliminary_fit(x, half_window: int) -> PreliminaryFit:
    x = as_signal(x)
    fit = running_mean(x, half_window)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals_sq = (x - fit) ** 2
    if not np.all(np.isfinite(residuals_sq)):
        raise ValueError("squared residuals are not finite: they overflow at this data scale")
    return PreliminaryFit(fit, residuals_sq)


def _stable_order(a: np.ndarray) -> np.ndarray:
    """``np.argsort(a, kind="stable")`` of NaN-free ``a``: one unstable sort, then
    the keys group · n + index sorted, a group being equal values (±0.0 alike)."""
    order = np.argsort(a)
    s = a[order]
    group = np.cumsum(s != np.append(s[:1], s[:-1])) * a.size
    return np.sort(order + group) - group


@np.errstate(over="ignore")  # an overflowing kernel sum is reported as one ValueError
def nw_variance_raw(fit: PreliminaryFit, bandwidth: float,
                    grid_u) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted mean of squared residuals at each grid point.

    Returns the values and the mask of grid points that received kernel
    mass. Each grid point takes the value of its nearest populated one (the
    left one on a tie, itself if populated): one ``searchsorted`` of the
    grid indices among the midpoints between populated neighbours.

    The fitted values are sorted once, residuals carried along, in the
    stable order, which :func:`_stable_order` builds from one unstable sort;
    each grid point u weights only the slice found by ``searchsorted`` for
    [u - b/2, u + b/2]. A block of grid points gathers its slices into one
    array of at most max(n, 2**13) samples (at n = 2048, blocks that stay in
    cache), weighted by one kernel call and summed per slice by
    ``np.add.reduceat``: O(n log n) time and O(n) memory, also when every
    window holds all n samples. Slices are summed on their own, never as
    differences of prefix sums, which cancel when a window is small next to
    the total. Kernel sums that overflow raise ValueError, with no numpy
    warning.
    """
    if not bandwidth > 0:  # also rejects NaN
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    grid_u = np.asarray(grid_u, dtype=float)
    order = _stable_order(fit.alpha_hat)
    alpha, resid_sq = fit.alpha_hat[order], fit.residuals_sq[order]
    # The rounded ends u ± b/2 already hold every sample the kernel weights
    # nonzero (rounding is monotone and b/2 exact); a few ulps of u and of b
    # more keep that true if the kernel argument ever rounds differently.
    # The kernel gives the extra samples weight 0.
    reach = 0.5 * bandwidth * (1.0 + 16 * np.finfo(float).eps) + 4 * np.spacing(np.abs(grid_u))
    lo = np.searchsorted(alpha, grid_u - reach, side="left")
    hi = np.searchsorted(alpha, grid_u + reach, side="right")
    counts = hi - lo
    ends = np.cumsum(counts)
    block = max(alpha.size, 1 << 13)
    mass = np.zeros(grid_u.size)
    num = np.zeros(grid_u.size)
    g0 = 0
    while g0 < grid_u.size:
        # Grid points up to ``block`` samples, at least one (a window holds
        # at most n); reduceat would give an empty window an element, not 0.
        g1 = max(int(np.searchsorted(ends, ends[g0] - counts[g0] + block, side="right")), g0 + 1)
        full = g0 + np.flatnonzero(counts[g0:g1])
        size = counts[full]
        starts = np.cumsum(size) - size
        idx = np.arange(size.sum())
        idx += np.repeat(lo[full] - starts, size)
        arg = alpha[idx]
        arg -= np.repeat(grid_u[full], size)
        w = triangular_kernel(np.divide(arg, bandwidth, out=arg))
        mass[full] = np.add.reduceat(w, starts)
        w *= resid_sq[idx]
        num[full] = np.add.reduceat(w, starts)
        g0 = g1
    populated = mass > 0
    donors = np.flatnonzero(populated)
    if grid_u.size and not donors.size:
        raise ValueError("no grid point received kernel mass")
    nearest = donors[np.searchsorted((donors[1:] + donors[:-1]) / 2, np.arange(grid_u.size))]
    raw = num[nearest] / mass[nearest]
    if not np.all(np.isfinite(raw)):
        raise ValueError("smoothed variance is not finite: kernel sums of squared residuals "
                         "overflow at this data scale")
    return raw, populated


def pava_isotone(values, weights=None) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing vectors.

    Classic pool-adjacent-violators: scan left to right on Python floats,
    merging any block whose mean drops below its predecessor's. The block
    means are then summed from the data as ``np.add.reduce`` sums a block:
    fewer than 8 values left to right from 0.0, here for all such blocks at
    once, and more pairwise, by one call per block. Weighted sums that
    overflow raise ValueError.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != values.shape:
            raise ValueError(f"length mismatch: {values.shape} values vs {weights.shape} weights")
        if not np.all((weights > 0) & (weights < np.inf)):  # also rejects NaN
            raise ValueError("weights must be finite and strictly positive")
    # Blocks as (end_exclusive, weight_sum, weighted_value_sum): the newest in e, bw, bs, the
    # older ones on three stacks, bottom first. The first block is an empty sentinel whose
    # cross product -inf * w pools with nothing; the new value's block merges in w, s.
    ends, wsum, wvsum = [], [], []
    e, bw, bs = 0, 1.0, -np.inf
    for end, (v, w) in enumerate(zip(values.tolist(), weights.tolist()), 1):
        s = w * v
        # Cross products that are the same infinity compare by the means instead.
        while (a := bs * w) > (c := s * bw) or a == c and abs(a) == np.inf and bs / bw > s / w:
            w += bw
            s = bs + s
            e, bw, bs = ends.pop(), wsum.pop(), wvsum.pop()
        ends.append(e)
        wsum.append(bw)
        wvsum.append(bs)
        e, bw, bs = end, w, s
    ends.append(e)
    bounds = np.array(ends)
    sizes = np.diff(bounds)
    pair = np.zeros((2, values.size + 1))  # weighted values and weights, then a +0.0 pad
    at = bounds[:-1] + _SHORT_BLOCK
    at[_SHORT_BLOCK >= sizes] = -1
    sums = np.zeros((sizes.size, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        pair[:, :-1] = weights * values, weights
        for column in pair.T[at]:  # a sum from +0.0 is never -0.0, so the pad changes none
            sums += column
        for b in np.flatnonzero(sizes > _SHORT_BLOCK.size).tolist():
            block = slice(bounds[b], bounds[b + 1])
            sums[b] = np.add.reduce(pair[0, block]), np.add.reduce(pair[1, block])
    if not np.all(np.isfinite(sums)):
        raise ValueError("weighted sums overflow: scale the values or the weights down")
    return np.repeat(sums[:, 0] / sums[:, 1], sizes)


def default_bandwidth(alpha_hat, grid_size: int = 256) -> float:
    """Range-based bandwidth ~ 0.2 * range * n^(-1/5), at least one grid cell."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    spread = float(alpha_hat.max() - alpha_hat.min())
    if spread <= 0:
        return 0.2 * (abs(float(alpha_hat[0])) + 1.0)
    return max(0.2 * spread * alpha_hat.size ** -0.2, spread / grid_size)


def _check_integers(cfg, *names: str) -> None:
    """Reject config fields that are not integers (1.5, "3"); numpy integers pass."""
    for name in names:
        try:
            operator.index(getattr(cfg, name))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {getattr(cfg, name)}") from None


@dataclass
class VarFnConfig:
    """Knobs for :func:`estimate_variance_function`.

    ``half_window`` is the running-mean half width (3 is a good standalone
    default; the denoiser passes 1). ``bandwidth`` may be a number or
    "auto".
    """

    half_window: int = 3
    bandwidth: Union[float, str] = "auto"
    grid_size: int = 256

    def __post_init__(self):
        _check_integers(self, "half_window", "grid_size")
        if self.half_window < 0:
            raise ValueError("half_window must be >= 0")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError(f"bandwidth must be a number or 'auto', got {self.bandwidth!r}")
        elif not self.bandwidth > 0:  # also rejects NaN
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def check_length(self, n: int) -> None:
        """Reject a signal length below 2M + 1, the shortest the running mean can fit."""
        min_len = 2 * self.half_window + 1
        if n < min_len:
            raise ValueError(f"signal of length {n} is too short for the variance fit: "
                             f"half-window M = {self.half_window} needs at least 2M+1 = "
                             f"{min_len} samples")


@dataclass
class VarianceEstimate:
    """Nondecreasing step estimate of the mean-to-variance map.

    ``grid_u`` holds the left knots; queries clamp to the end values
    outside the grid. A fit's values are all >= ``floor_eps`` > 0.

    The knots must be finite and nondecreasing, one value per knot, and
    ``floor_eps`` finite and >= 0; the values themselves are checked where a
    lookup uses them. ``grid_u`` is stored as a read-only float copy, and
    binding a new one resets the lookup constants built from it.
    """

    grid_u: np.ndarray
    values: np.ndarray
    floor_eps: float
    bandwidth: float = float("nan")
    half_window: int = -1
    populated: Optional[np.ndarray] = None

    def __setattr__(self, name, value):
        if name == "grid_u":
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            super().__setattr__("_lookup", None)
        super().__setattr__(name, value)

    def __post_init__(self):
        g = self.grid_u
        self.values = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or not g.size or self.values.shape != g.shape:
            raise ValueError("grid_u and values must be 1-D and of the same nonzero length, "
                             f"got shapes {g.shape} and {self.values.shape}")
        if not np.isfinite(g).all():
            raise ValueError("grid_u must be finite")
        if (g[1:] < g[:-1]).any():
            raise ValueError("grid_u must be nondecreasing")
        if not 0 <= self.floor_eps < np.inf:  # also rejects NaN
            raise ValueError(f"floor_eps must be finite and >= 0, got {self.floor_eps}")

    def _step_lookup(self) -> tuple:
        """The constants of :meth:`step_index` for the bound ``grid_u``, built on first use.

        Knot i bounds step i from below and step i - 1 from above. The -inf
        below step 0 and the NaN above step G - 1 compare false, so the end
        steps never miss outward, and a NaN u never misses.
        """
        if self._lookup is None:
            g = self.grid_u
            last = g.size - 1
            span = g[last] - g[0]
            knots = np.empty(g.size + 1)
            knots[0], knots[1:-1], knots[-1] = -np.inf, g[1:], np.nan
            with np.errstate(over="ignore"):
                scale = last / span if span > 0 else None
            self._lookup = g[0], scale, last, knots, knots[1:]
        return self._lookup

    def step_index(self, u) -> np.ndarray:
        """``np.searchsorted(grid_u[1:], u, side="right")`` on any sorted grid, 0 where u is NaN.

        The index is guessed as if the knots were evenly spaced, floor((u -
        u_0) (G - 1) / (u_last - u_0)) clamped to the grid, and checked once
        against grid_u[i] <= u < grid_u[i + 1]; ``searchsorted`` finds the
        entries that miss, almost none on the ``np.linspace`` grids of a fit.
        A value costs O(1) work, not a binary search. The padded knots and
        the guess scale are built once per bound grid (:meth:`_step_lookup`).
        """
        flat = np.asarray(u, dtype=float).reshape(-1)
        u0, scale, last, below, above = self._step_lookup()
        with np.errstate(over="ignore", invalid="ignore"):
            guess = (flat - u0) * scale if scale is not None else (flat >= u0) * float(last)
        # fmax and fmin also send a NaN guess to step 0
        np.fmax(guess, 0.0, out=guess)
        idx = np.fmin(guess, last, out=guess).astype(np.intp)
        miss = (below[idx] > flat) | (above[idx] <= flat)
        if np.count_nonzero(miss):
            idx[miss] = np.searchsorted(above[:-1], flat[miss], side="right")
        return idx.reshape(np.shape(u))

    def query(self, u):
        """Step lookup ``values[step_index(u)]``, clamped at the ends; NaN where u is NaN."""
        flat = np.asarray(u, dtype=float).reshape(-1)
        out = self.values[self.step_index(flat)]
        nan = np.isnan(flat)
        if np.count_nonzero(nan):
            out[nan] = np.nan
        return float(out[0]) if np.isscalar(u) else out.reshape(np.shape(u))

    def as_lines(self) -> Iterator[str]:
        """Yield the step file's text: three header lines, then ``u value`` blocks, LF-ended."""
        yield f"# floor_eps {self.floor_eps:.17g}\n"
        yield f"# bandwidth {self.bandwidth:.17g}\n"
        yield f"# half_window {self.half_window}\n"
        yield from format_blocks("%.17g %.17g", self.grid_u, self.values)


def estimate_variance_function(x, cfg: VarFnConfig | None = None) -> VarianceEstimate:
    """Fit the full variance-function pipeline to one signal."""
    cfg = cfg or VarFnConfig()
    x = as_signal(x)
    cfg.check_length(x.size)
    fit = preliminary_fit(x, cfg.half_window)
    grid = np.linspace(fit.alpha_hat.min(), fit.alpha_hat.max(), cfg.grid_size)
    if isinstance(cfg.bandwidth, str):
        bandwidth = default_bandwidth(fit.alpha_hat, cfg.grid_size)
    else:
        bandwidth = float(cfg.bandwidth)
    raw, populated = nw_variance_raw(fit, bandwidth, grid)
    iso = pava_isotone(raw)
    peak = float(raw.max())
    floor_eps = max(1e-10 * peak, np.nextafter(0.0, 1.0)) if peak > 0 else _TINY_FLOOR
    return VarianceEstimate(grid, np.maximum(iso, floor_eps), floor_eps,
                            bandwidth=bandwidth, half_window=cfg.half_window,
                            populated=populated)
