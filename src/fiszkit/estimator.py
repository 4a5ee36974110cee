"""Wavelet denoising with thresholds tied to the local mean of the data.

Each detail coefficient at the coarse levels j < max_level is compared
against its own threshold sqrt(h(local mean)) * sqrt(2 log N), where N is
the number of coefficients at those levels and h is either a known
closed-form mean-to-variance map or the step estimate fitted by
:mod:`fiszkit.varfn`. Finer levels are zeroed outright; the smooth
coefficient always passes through.

Translation invariance comes from averaging over the first n/shift_stride
circular shifts, exactly, in O(n log n) time and memory
(:func:`fiszkit.wavelet.cycle_spin`); with ``translation_invariant=False``
the same engine runs the single unshifted pass. The fitted h is a step
function: each level gathers the sds of its steps (``VarianceEstimate.sd``)
at the steps of its local means (:meth:`fiszkit.varfn.VarianceEstimate.step_index`)
and scales them by sqrt(2 log N).

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

from .signals import _as_integer, as_signal
from .varfn import VarFnConfig, VarianceEstimate, estimate_variance_function
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


def universal_factor(max_level: int) -> float:
    """sqrt(2 log N) for the N = 2^max_level - 1 detail coefficients of levels < max_level.

    One level gives sqrt(2 log 1) = 0. The range check against a signal's
    depth is :meth:`EstimatorConfig.resolve_max_level`'s.
    """
    max_level = _as_integer("max_level", max_level, 1)
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
        self.shift_stride = _as_integer("shift_stride", self.shift_stride, 1)
        if self.max_level is not None:
            self.max_level = _as_integer("max_level", self.max_level, 1)

    def resolve_max_level(self, depth: int) -> int:
        """``max_level``, or max(1, depth - 2) if None; more than ``depth`` is an error."""
        max_level = self.max_level if self.max_level is not None else max(1, depth - 2)
        return _as_integer("max_level", max_level, 1, depth)


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


def _denoise(x: np.ndarray, cfg: EstimatorConfig, level_sds: Callable):
    """Shift-averaged thresholding at ``level_sds(j, rows)`` times sqrt(2 log N).

    ``level_sds`` returns a new array of the level-j sds, which is scaled in place.

    Returns the estimate, the thresholds and survivor masks of the unshifted
    pass, and the number of shifts averaged.
    """
    n = x.size
    max_level = cfg.resolve_max_level(n.bit_length() - 1)
    # Thinning keeps the first n/stride consecutive shifts: they cover every
    # alignment of the fine levels, where the averaging matters; strided
    # shifts would leave those levels aligned identically in every pass.
    shifts = max(1, n // cfg.shift_stride) if cfg.translation_invariant else 1
    factor = universal_factor(max_level)

    def threshold_fn(j, rows):
        lam = level_sds(j, rows)
        lam *= factor
        return lam

    values, thr, shrunk = cycle_spin(x, cfg.basis, shifts, max_level, threshold_fn,
                                     _RULES[cfg.rule])
    return values, thr, [d != 0 for d in shrunk], shifts


def estimate(x, cfg: EstimatorConfig | None = None) -> EstimateResult:
    """Denoise ``x``; thresholds from a known or data-estimated variance map.

    An estimated map is fitted once, on the unshifted data.
    """
    cfg = cfg or EstimatorConfig()
    x = as_signal(x)
    known = cfg.known_variance
    fitted = None if known is not None else estimate_variance_function(x, cfg.varfn)
    means = shifted_local_means(x, cfg.basis)
    # No range check on the fitted sd: its steps are finite (PAVA checks) and >= floor_eps > 0
    # (the fit floors them), and the local means are finite (as_signal, the prefix-sum check).

    def level_sds(j, rows):
        lm = means(j, rows.shape[0])
        if known is not None:
            return coefficient_sd(lm, known, j)
        return fitted.sd[fitted.step_index(lm)]

    values, thr, surv, shifts = _denoise(x, cfg, level_sds)
    return EstimateResult(values, thr, surv, fitted if known is None else known, shifts)


def _running_mad(values: np.ndarray, j: int) -> np.ndarray:
    """Median absolute deviation of level-``j`` coefficients over a periodic window.

    Along the last axis, bit-identical to ``np.median`` of the window stack.
    The window grows with the level: level 0 holds one coefficient, whose
    MAD is |v - v|; levels 1 to 4 take two values, which need no sort: their
    median (a + b) / 2 and their MAD (|a - med| + |b - med|) / 2 are the same
    bits in either order, NaN included. Level j > 4 takes the odd window of
    w = 2^(j-4) + 1 values centred on each position, which must not exceed
    the row. Those are sorted once, by a network up to 17 values
    (:func:`_mad_of_columns`, blocks of 2**16 values) and by ``np.sort``
    beyond (blocks of max(8 * values.size, 2**16) values), and their MAD is
    selected from the deviations in O(w) (:func:`_mad_of_deviations`).
    """
    if j == 0:
        return np.abs(values - values)
    if j <= 4:  # the window at p is (values[p - 1], values[p])
        a = np.concatenate([values[..., -1:], values[..., :-1]], axis=-1)  # np.roll costs more
        med = a + values
        med /= 2
        mad = a - med
        np.abs(mad, out=mad)
        dev = np.subtract(values, med, out=med)
        mad += np.abs(dev, out=dev)
        mad /= 2
        return mad
    m, w = values.shape[-1], (1 << (j - 4)) + 1
    lead = w // 2
    padded = np.concatenate([values[..., m - lead:], values, values[..., :lead]], axis=-1)
    network = w <= _NETWORK_WIDTH
    block = (1 << 16) // (w + 1) if network else max(8 * values.size, 1 << 16) // w
    block_cols = max(1, block // (values.size // m))
    out = np.empty(values.shape)
    for c in range(0, m, block_cols):
        stop = min(c + block_cols, m)
        if network:
            buf = np.empty((w + 1, *values.shape[:-1], stop - c))
            for i in range(w):
                buf[i] = padded[..., c + i:stop + i]
            out[..., c:stop] = _mad_of_columns(buf)
        else:
            windows = np.lib.stride_tricks.sliding_window_view(padded[..., c:], w, axis=-1)
            out[..., c:stop] = _mad_in_place(windows[..., :stop - c, :].copy())
    return out


# numpy's sort costs about 40 ns per row on top of the comparisons; a network in a
# buffer that stays in cache took 1.5-3.3x less time at 3 to 17 values on (1, 2**17)
# rows (2-core Xeon VM, numpy 2.4.6). 17 is the default depth's widest at n = 2048.
_NETWORK_WIDTH = 17


def _mad_in_place(windows: np.ndarray) -> np.ndarray:
    """MAD along the last axis; sorts ``windows`` and overwrites it with the deviations."""
    cols = np.moveaxis(windows, -1, 0)
    windows.sort(axis=-1)
    med = cols[len(cols) // 2].copy()
    np.abs(np.subtract(windows, med[..., None], out=windows), out=windows)
    return _mad_of_deviations(cols)


@cache
def _merge_exchange(w: int) -> tuple:
    """The compare-exchanges (i, j), i < j, of Batcher's merge-exchange sort of w values.

    Knuth, TAOCP vol. 3, 5.2.2, Algorithm M: 3, 9, 26 and 74 exchanges at
    w = 3, 5, 9 and 17, against w(w-1)/2 for odd-even transposition.
    """
    pairs, t = [], (w - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while d:  # d = q - p is 0 after the pass with q = p
            pairs += [(i, i + d) for i in range(w - d) if i & p == r]
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _mad_of_columns(buf: np.ndarray) -> np.ndarray:
    """MAD of the windows whose values are ``buf[0] .. buf[w-1]``; as :func:`_mad_in_place`.

    ``buf[w]`` is a spare row. Each exchange of :func:`_merge_exchange` writes
    its min into the spare and its max over its larger row; its smaller row
    becomes the spare. A NaN makes both outputs NaN, and in a sorting network
    every input reaches every output, so a NaN leaves its window NaN in every
    row. The rows, the spare's window values too, end as the deviations.
    """
    rows = list(buf)
    w = len(rows) - 1
    slot, spare = list(range(w)), w  # rows[slot[i]] holds the i-th smallest values
    for i, j in _merge_exchange(w):
        a, b = rows[slot[i]], rows[slot[j]]
        np.minimum(a, b, out=rows[spare])
        np.maximum(a, b, out=b)
        slot[i], spare = spare, slot[i]
    cols = [rows[s] for s in slot]
    np.abs(np.subtract(buf, cols[w // 2].copy(), out=buf), out=buf)
    return _mad_of_deviations(cols)


def _mad_of_deviations(devs) -> np.ndarray:
    """Median of the deviations ``devs[0] .. devs[w-1]`` of sorted odd windows from their medians.

    The deviations form two ascending runs, devs[c-1], .., devs[0] and
    devs[c], .., devs[w-1] with c = w // 2, and their median is the k-th
    smallest, k = c + 1. The k-th smallest of two ascending runs a and b is
    the min over splits i of max(a_i, b_{k-i}), with a_0 = b_0 = -inf
    (Knuth, TAOCP vol. 3, 5.3.3); here a split is max(devs[t], devs[t + c]),
    t = 0 .. c, the larger end deviation of k consecutive sorted values, and
    every deviation enters one. ``max`` and ``min`` select without
    arithmetic and no deviation is -0.0, so the median is a sort's, bit for
    bit, and NaN where a deviation is NaN, as in ``np.median``.
    """
    c = len(devs) // 2
    if devs[0].shape[-1] <= c:  # wide windows over few positions: fewer numpy calls
        return np.maximum(devs[:c + 1], devs[c:]).min(axis=0)
    out = np.maximum(devs[0], devs[c])
    pair = np.empty_like(out)
    for t in range(1, c + 1):
        np.minimum(out, np.maximum(devs[t], devs[t + c], out=pair), out=out)
    return out


def baseline_mad_estimate(x, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """Comparator: same pipeline, thresholds from a running MAD per level.

    The scale of each coefficient is estimated robustly from its level
    neighbours in the same shift (window grows with level), times
    sqrt(2 log N); no use is made of the mean-variance link.
    """
    cfg = cfg or EstimatorConfig()

    def level_sds(j, rows):
        mad = _running_mad(rows, j)
        mad *= MAD_TO_SIGMA
        return mad

    return _denoise(as_signal(x), cfg, level_sds)[0]
