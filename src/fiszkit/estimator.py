"""Wavelet denoising with thresholds tied to the local mean of the data.

Each detail coefficient at the coarse levels j < max_level is compared
against its own threshold sqrt(h(local mean)) * sqrt(2 log N), where N is
the number of coefficients at those levels and h is either a known
closed-form mean-to-variance map or the step estimate fitted by
:mod:`fiszkit.varfn`. Finer levels are zeroed outright; the smooth
coefficient always passes through.

Translation invariance comes from averaging over the first n/shift_stride
circular shifts. :func:`fiszkit.wavelet.cycle_spin` does this exactly, for
any shift count, with a translation-invariant table in O(n log n) time
and memory instead of one transform per shift; with
``translation_invariant=False`` the same engine runs the single unshifted
pass. The local means, and h, are evaluated only at the coefficients the
table holds. The fitted h is a step function, so each ``estimate`` call
builds one table of step thresholds, sqrt(h) * sqrt(2 log N), and each level
gathers its thresholds from that table at the steps of its local means
(:meth:`fiszkit.varfn.VarianceEstimate.step_index`).

A running-MAD comparator shares the same pipeline but derives thresholds
from a robust per-level scale estimate of the coefficients themselves,
ignoring any mean-variance link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import log, sqrt
from typing import Callable, Optional, Union

import numpy as np

from .signals import as_signal
from .varfn import VarFnConfig, VarianceEstimate, _check_integers, estimate_variance_function
from .wavelet import (CoeffPyramid, WaveletBasis, _checked_thresholds, cycle_spin, haar,
                      shifted_local_means)

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "universal_factor",
    "soft_threshold",
    "hard_threshold",
    "coefficient_sd",
    "thresholds_known_h",
    "thresholds_data_driven",
    "apply_threshold",
    "estimate",
    "baseline_mad_estimate",
]

MAD_TO_SIGMA = 1.4826  # normal-consistency constant for the MAD


@cache  # every thresholded level of every call asks for it
def universal_factor(max_level: int) -> float:
    """sqrt(2 log N) for the N = 2^max_level - 1 detail coefficients of levels < max_level.

    One level gives sqrt(2 log 1) = 0. The range check against a signal's
    depth is the engine's (:func:`fiszkit.wavelet.cycle_spin`).
    """
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    return sqrt(2.0 * log((1 << max_level) - 1))


def soft_threshold(y, lam):
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def hard_threshold(y, lam):
    return np.where(np.abs(y) >= lam, y, 0.0)


_RULES = {"soft": soft_threshold, "hard": hard_threshold}


@dataclass
class EstimatorConfig:
    """Configuration of the denoiser.

    ``max_level`` of None resolves to J-2 at run time (floored at 1).
    ``known_variance``, when given, is a vectorised mean-to-variance map
    used directly in the thresholds; otherwise the map is estimated from
    the data once (on the unshifted signal) with ``varfn``.
    ``shift_stride`` divides the cycle-spinning budget: only the first
    n/shift_stride circular shifts are averaged.
    """

    max_level: Optional[int] = None
    rule: str = "hard"
    translation_invariant: bool = True
    shift_stride: int = 1
    basis: WaveletBasis = field(default_factory=haar)
    known_variance: Optional[Callable[[np.ndarray], np.ndarray]] = None
    varfn: VarFnConfig = field(default_factory=lambda: VarFnConfig(half_window=1))

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ValueError(f"rule must be one of {sorted(_RULES)}, got {self.rule!r}")
        _check_integers(self, "shift_stride", *(() if self.max_level is None else ("max_level",)))
        if self.shift_stride < 1:
            raise ValueError("shift_stride must be >= 1")
        if self.max_level is not None and self.max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {self.max_level}")

    def resolve_max_level(self, depth: int) -> int:
        """``max_level``, or max(1, depth - 2) if None; :func:`cycle_spin` checks the range."""
        return self.max_level if self.max_level is not None else max(1, depth - 2)


@dataclass
class EstimateResult:
    """Denoised signal plus the thresholding evidence of the unshifted pass.

    ``survivors[j]`` marks the level-j coefficients that are nonzero after
    thresholding. For a threshold lam > 0 that is |d| >= lam under the hard
    rule and |d| > lam under the soft rule.
    """

    values: np.ndarray
    thresholds: list[np.ndarray]
    survivors: list[np.ndarray]
    variance_fn: Union[VarianceEstimate, Callable, None]
    shifts_averaged: int


def coefficient_sd(lm, h: Callable, level: int) -> np.ndarray:
    """Noise sd sqrt(h(local mean)) of level-``level`` coefficients with local means ``lm``."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the checks below
        hv = np.asarray(h(lm), dtype=float)
        sd = np.sqrt(hv)
    if hv.shape != np.shape(lm):
        raise ValueError(f"variance map returned shape {hv.shape} at level {level}, "
                         f"expected {np.shape(lm)}")
    if not np.maximum.reduce(sd, axis=None) < np.inf:  # a negative variance's NaN sd propagates
        raise ValueError(f"variance map returned negative or non-finite values at level {level}")
    return sd


def thresholds_known_h(lm: list[np.ndarray], h: Callable, max_level: int) -> list[np.ndarray]:
    """Per-coefficient thresholds sqrt(h(local mean)) * sqrt(2 log N)."""
    factor = universal_factor(max_level)
    return [coefficient_sd(lm[j], h, j) * factor for j in range(max_level)]


def thresholds_data_driven(lm: list[np.ndarray], hhat: VarianceEstimate,
                           max_level: int) -> list[np.ndarray]:
    """:func:`thresholds_known_h` with the fitted step function."""
    return thresholds_known_h(lm, hhat.query, max_level)


def apply_threshold(p: CoeffPyramid, thresholds: list[np.ndarray], rule: str,
                    max_level: int) -> CoeffPyramid:
    """Threshold levels below ``max_level``, zero the rest, keep the smooth."""
    shrink = _RULES[rule]
    if max_level > len(p.details):
        raise ValueError(f"max_level {max_level} exceeds pyramid depth {len(p.details)}")
    if len(thresholds) < max_level:
        raise ValueError(f"need thresholds for {max_level} levels, got {len(thresholds)}")
    details = [shrink(d, _checked_thresholds(j, thresholds[j], d)) if j < max_level
               else np.zeros_like(d) for j, d in enumerate(p.details)]
    return CoeffPyramid(details, p.smooth)


def _denoise(x: np.ndarray, cfg: EstimatorConfig, level_thresholds: Callable):
    """Shift-averaged thresholding at ``level_thresholds(j, rows, factor)``, the level-j
    sds times factor = sqrt(2 log N).

    Returns the estimate, the thresholds and survivor masks of the unshifted
    pass, and the number of shifts averaged.
    """
    n = x.size
    max_level = cfg.resolve_max_level(n.bit_length() - 1)
    # Thinning keeps the first n/stride consecutive shifts: they cover every
    # alignment of the fine levels, where the averaging matters; strided
    # shifts would leave those levels aligned identically in every pass.
    shifts = max(1, n // cfg.shift_stride) if cfg.translation_invariant else 1

    def threshold_fn(j, rows):  # called only after cycle_spin has checked max_level
        return level_thresholds(j, rows, universal_factor(max_level))

    values, thr, shrunk = cycle_spin(x, cfg.basis, shifts, max_level, threshold_fn,
                                     _RULES[cfg.rule])
    return values, thr, [d != 0 for d in shrunk], shifts


def estimate(x, cfg: EstimatorConfig | None = None) -> EstimateResult:
    """Denoise ``x``; thresholds from a known or data-estimated variance map.

    The variance map, when estimated, is fitted once on the unshifted data
    and reused across all shifts.
    """
    cfg = cfg or EstimatorConfig()
    x = as_signal(x)
    known = cfg.known_variance
    fitted = None if known is not None else estimate_variance_function(x, cfg.varfn)
    means = shifted_local_means(x, cfg.basis)
    # No range check on the fitted sd: its table is finite (PAVA checks) and >= floor_eps > 0
    # (the fit floors it), and the local means are finite (as_signal, the prefix-sum check).
    table = None  # the threshold of each fitted step, sqrt(values) * factor

    def level_thresholds(j, rows, factor):
        nonlocal table
        lm = means(j, rows.shape[0])
        if known is not None:
            return coefficient_sd(lm, known, j) * factor
        if table is None:  # the factor is the same at every level
            table = np.sqrt(fitted.values) * factor
        return table[fitted.step_index(lm)]

    values, thr, surv, shifts = _denoise(x, cfg, level_thresholds)
    return EstimateResult(values, thr, surv, fitted if known is None else known, shifts)


def _running_mad(values: np.ndarray, window: int) -> np.ndarray:
    """Median absolute deviation over a periodic window, along the last axis.

    The windows are taken a block of columns at a time, at most
    max(8 * values.size, 2**16) values per block, so memory stays O(n)
    where a full window stack would hold window × n values; at the default
    depth, every level of a signal of n <= 2048 takes one block. Each
    position's MAD depends only on its own window, so blocking does not
    change the result. Each window is sorted once, O(n w log w) time for
    windows of w values, and its MAD selected from the two ascending runs
    of deviations in O(w) (:func:`_mad_of_deviations`). Windows of up to
    ``_NETWORK_WIDTH`` values are sorted all at once by a compare-exchange
    network over w shifted views (:func:`_mad_of_columns`), wider ones
    gathered and sorted row by row (:func:`_mad_in_place`). Windows of two
    values, every level j <= 4 at the default depth, need no sort and no
    blocks: their median (a + b) / 2 and their MAD (|a - med| + |b - med|) / 2
    are the same bits in either order, NaN included.
    """
    m = values.shape[-1]
    w = min(window, m)
    lead = w // 2
    padded = np.concatenate([values[..., m - lead:], values, values[..., :w - 1 - lead]], axis=-1)
    if w == 2:  # the window at p is (values[p - 1], values[p])
        a = padded[..., :m]
        med = a + values
        med /= 2
        mad = a - med
        np.abs(mad, out=mad)
        dev = np.subtract(values, med, out=med)
        mad += np.abs(dev, out=dev)
        mad /= 2
        return mad
    block_cols = max(1, max(8 * values.size, 1 << 16) // (w * (values.size // m)))
    out = np.empty(values.shape)
    for c in range(0, m, block_cols):
        stop = min(c + block_cols, m)
        if w <= _NETWORK_WIDTH:
            out[..., c:stop] = _mad_of_columns([padded[..., c + i:stop + i] for i in range(w)])
        else:
            windows = np.lib.stride_tricks.sliding_window_view(padded[..., c:], w, axis=-1)
            out[..., c:stop] = _mad_in_place(windows[..., :stop - c, :].copy())
    return out


# numpy's sort costs about 40 ns per row on top of the comparisons, most of
# the cost for windows of 2 to 5 values; at 9 values a network of w(w-1)/2
# compare-exchanges over n-arrays is already slower at n = 2**17
_NETWORK_WIDTH = 5


def _middle(cols) -> np.ndarray:
    """Median of sorted windows whose i-th smallest values are ``cols[i]``.

    Even windows average their two middle values, as ``np.median`` does;
    the result is a new array.
    """
    k = len(cols) // 2
    if len(cols) % 2:
        return cols[k].copy()
    return (cols[k - 1] + cols[k]) / 2


def _mad_in_place(windows: np.ndarray) -> np.ndarray:
    """MAD along the last axis; sorts ``windows`` and overwrites it with the deviations.

    The median is the middle of the sorted window, and the MAD is selected
    from its deviations by :func:`_mad_of_deviations`, so the result is
    bit-identical to ``np.median`` of the window stack.
    """
    cols = np.moveaxis(windows, -1, 0)
    windows.sort(axis=-1)
    np.abs(np.subtract(windows, _middle(cols)[..., None], out=windows), out=windows)
    return _mad_of_deviations(cols)


def _sort_columns(cols: list) -> None:
    """Odd-even transposition sort across the arrays of ``cols``, elementwise.

    After len(cols) rounds of compare-exchanges of neighbours (Knuth,
    TAOCP vol. 3, 5.3.4), cols[i] holds the i-th smallest value at every
    position. A NaN makes both outputs of an exchange NaN, and in a sorting
    network every input reaches every output, so a NaN leaves its window
    NaN in every array.
    """
    for r in range(len(cols)):
        for i in range(r % 2, len(cols) - 1, 2):
            a, b = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(a, b), np.maximum(a, b)


def _mad_of_columns(cols: list) -> np.ndarray:
    """MAD of the windows whose values are ``cols[0] .. cols[w-1]``; as :func:`_mad_in_place`."""
    _sort_columns(cols)
    med = _middle(cols)
    return _mad_of_deviations([np.abs(c - med) for c in cols])


def _mad_of_deviations(devs) -> np.ndarray:
    """Median of the deviations ``devs[0] .. devs[w-1]`` of sorted windows from their medians.

    The deviations form two ascending runs, devs[c-1], .., devs[0] and
    devs[c], .., devs[w-1] with c = w // 2. The k-th smallest of two
    ascending runs a and b is the min over splits i of max(a_i, b_{k-i}),
    with a_0 = b_0 = -inf (Knuth, TAOCP vol. 3, 5.3.3); here a split is
    max(devs[t], devs[t + k - 1]), t = 0 .. w - k, the larger end deviation
    of k consecutive sorted values, and every deviation enters one. ``max``
    and ``min`` select without arithmetic and no deviation is -0.0, so the
    middle values are a sort's, bit for bit, and NaN where a deviation is
    NaN, as in ``np.median``. The splits are taken one at a time when a
    block holds at least as many positions as there are splits, else in one
    ``np.maximum``: fewer numpy calls for wide windows over few positions.
    """
    w = len(devs)
    middle = []
    for k in range((w + 1) // 2, w // 2 + 2):  # the middle one or two
        splits = w - k + 1
        if devs[0].shape[-1] < splits:
            middle.append(np.maximum(devs[:splits], devs[k - 1:]).min(axis=0))
            continue
        out = np.maximum(devs[0], devs[k - 1])
        pair = np.empty_like(out)
        for t in range(1, splits):
            np.minimum(out, np.maximum(devs[t], devs[t + k - 1], out=pair), out=out)
        middle.append(out)
    return middle[0] if w % 2 else (middle[0] + middle[1]) / 2


def _mad_window(j: int) -> int:
    return (1 << max(0, j - 4)) + 1


def baseline_mad_estimate(x, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """Comparator: same pipeline, thresholds from a running MAD per level.

    The scale of each coefficient is estimated robustly from its level
    neighbours in the same shift (window grows with level), times
    sqrt(2 log N); no use is made of the mean-variance link.
    """
    cfg = cfg or EstimatorConfig()

    def level_thresholds(j, rows, factor):
        return MAD_TO_SIGMA * _running_mad(rows, _mad_window(j)) * factor

    return _denoise(as_signal(x), cfg, level_thresholds)[0]
