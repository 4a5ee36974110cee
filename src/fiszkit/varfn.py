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
time and O(n) memory, with no grid × n array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .signals import as_signal
from .textio import format_rows

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


def triangular_kernel(v) -> np.ndarray:
    """Triangle on [-1/2, 1/2]: peak 2 at the origin, unit integral."""
    v = np.abs(np.asarray(v, dtype=float))
    return np.where(v <= 0.5, 2.0 - 4.0 * v, 0.0)


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
    half_window: int


def preliminary_fit(x, half_window: int) -> PreliminaryFit:
    x = as_signal(x)
    fit = running_mean(x, half_window)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals_sq = (x - fit) ** 2
    if not np.all(np.isfinite(residuals_sq)):
        raise ValueError("squared residuals are not finite: they overflow at this data scale")
    return PreliminaryFit(fit, residuals_sq, half_window)


def _fill_from_nearest(values: np.ndarray, populated: np.ndarray) -> np.ndarray:
    """Replace unpopulated entries by the nearest populated one (left on ties)."""
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


def nw_variance_raw(fit: PreliminaryFit, bandwidth: float,
                    grid_u) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted mean of squared residuals at each grid point.

    Returns the values and the mask of grid points that received kernel
    mass; the others are filled from the nearest populated neighbour.

    The fitted values are sorted once (stably, residuals carried along);
    each grid point u weights only the slice found by ``searchsorted`` for
    [u - b/2, u + b/2]. One sort plus ``grid_u.size`` slices: O(n log n)
    time and O(n) memory. Slices are summed on their own, never as
    differences of prefix sums, which cancel when a window is small next
    to the total.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    grid_u = np.asarray(grid_u, dtype=float)
    order = np.argsort(fit.alpha_hat, kind="stable")
    alpha, resid_sq = fit.alpha_hat[order], fit.residuals_sq[order]
    # The rounded ends u ± b/2 already hold every sample the kernel weights
    # nonzero (rounding is monotone and b/2 exact); a few ulps of u and of b
    # more keep that true if the kernel argument ever rounds differently.
    # The kernel gives the extra samples weight 0.
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
    raw = np.zeros(mass.size)
    raw[populated] = num[populated] / mass[populated]
    return _fill_from_nearest(raw, populated), populated


def pava_isotone(values, weights=None) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing vectors.

    Classic pool-adjacent-violators: scan left to right, merging any block
    whose mean drops below its predecessor's. Block means are recomputed
    from the original data once the partition is fixed.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != values.shape:
            raise ValueError(f"length mismatch: {values.shape} values vs {weights.shape} weights")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
    # blocks as (end_exclusive, weight_sum, weighted_value_sum)
    ends, wsum, wvsum = [], [], []
    for i, (v, w) in enumerate(zip(values, weights)):
        ends.append(i + 1)
        wsum.append(w)
        wvsum.append(w * v)
        while len(ends) > 1 and wvsum[-2] * wsum[-1] > wvsum[-1] * wsum[-2]:
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


def default_bandwidth(alpha_hat, grid_size: int = 256) -> float:
    """Range-based bandwidth ~ 0.2 * range * n^(-1/5), at least one grid cell."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    spread = float(alpha_hat.max() - alpha_hat.min())
    if spread <= 0:
        return 0.2 * (abs(float(alpha_hat.mean())) + 1.0)
    return max(0.2 * spread * alpha_hat.size ** -0.2, spread / grid_size)


@dataclass
class VarFnConfig:
    """Knobs for :func:`estimate_variance_function`.

    ``half_window`` is the running-mean half width (3 is a good standalone
    default; the denoiser passes 1). ``bandwidth`` may be a number or
    "auto". ``floor_eps`` of None picks 1e-10 times the largest raw grid
    value, with a tiny positive fallback when the residuals vanish.
    """

    half_window: int = 3
    bandwidth: Union[float, str] = "auto"
    grid_size: int = 256
    floor_eps: Optional[float] = None

    def __post_init__(self):
        if self.half_window < 0:
            raise ValueError("half_window must be >= 0")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError(f"bandwidth must be a number or 'auto', got {self.bandwidth!r}")
        elif self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass
class VarianceEstimate:
    """Nondecreasing step estimate of the mean-to-variance map.

    ``grid_u`` holds the left knots; queries clamp to the end values
    outside the grid. All values are >= ``floor_eps`` > 0.
    """

    grid_u: np.ndarray
    values: np.ndarray
    floor_eps: float
    bandwidth: float = float("nan")
    half_window: int = -1
    populated: Optional[np.ndarray] = None

    def query(self, u):
        """Step lookup: value at the largest knot <= u, clamped at the ends."""
        # Searching the knots after the first sends every u below the second
        # knot, including u below the grid, to index 0.
        idx = np.searchsorted(self.grid_u[1:], np.asarray(u, dtype=float), side="right")
        out = self.values[idx]
        return float(out) if np.isscalar(u) else out

    def as_lines(self) -> list[str]:
        lines = [f"# floor_eps {self.floor_eps:.17g}",
                 f"# bandwidth {self.bandwidth:.17g}",
                 f"# half_window {self.half_window}"]
        return lines + format_rows("%.17g %.17g", self.grid_u, self.values).splitlines()

    @classmethod
    def from_lines(cls, lines) -> "VarianceEstimate":
        grid, values = [], []
        meta = {"floor_eps": None, "bandwidth": float("nan"), "half_window": -1}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] in meta:
                    meta[parts[0]] = float(parts[1])
                continue
            u_s, v_s = line.split()
            grid.append(float(u_s))
            values.append(float(v_s))
        if not grid:
            raise ValueError("empty variance-estimate file")
        values_arr = np.asarray(values)
        floor_eps = meta["floor_eps"] if meta["floor_eps"] is not None else float(values_arr.min())
        return cls(np.asarray(grid), values_arr, floor_eps,
                   bandwidth=meta["bandwidth"], half_window=int(meta["half_window"]))


def estimate_variance_function(x, cfg: VarFnConfig | None = None) -> VarianceEstimate:
    """Fit the full variance-function pipeline to one signal."""
    cfg = cfg or VarFnConfig()
    x = as_signal(x)
    min_len = 2 * cfg.half_window + 1
    if x.size < min_len:
        raise ValueError(f"signal of length {x.size} is too short for the variance fit: "
                         f"half-window M = {cfg.half_window} needs at least 2M+1 = {min_len} "
                         "samples")
    fit = preliminary_fit(x, cfg.half_window)
    grid = np.linspace(fit.alpha_hat.min(), fit.alpha_hat.max(), cfg.grid_size)
    if isinstance(cfg.bandwidth, str):
        bandwidth = default_bandwidth(fit.alpha_hat, cfg.grid_size)
    else:
        bandwidth = float(cfg.bandwidth)
    raw, populated = nw_variance_raw(fit, bandwidth, grid)
    if not np.all(np.isfinite(raw)):
        raise ValueError("smoothed variance is not finite: kernel sums of squared residuals "
                         "overflow at this data scale")
    iso = pava_isotone(raw)
    if cfg.floor_eps is not None:
        floor_eps = float(cfg.floor_eps)
    else:
        peak = float(raw.max())
        floor_eps = 1e-10 * peak if peak > 0 else _TINY_FLOOR
    return VarianceEstimate(grid, np.maximum(iso, floor_eps), floor_eps,
                            bandwidth=bandwidth, half_window=cfg.half_window,
                            populated=populated)
