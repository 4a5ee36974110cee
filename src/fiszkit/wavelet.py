"""Orthonormal discrete wavelet transform with periodic boundaries.

The transform decomposes a length-2^J signal fully, down to a single
smooth coefficient. Detail levels are indexed coarse-first: level j holds
2^j coefficients, j = 0 (coarsest) .. J-1 (finest). Periodisation keeps
the overall matrix exactly orthonormal at every depth, which is what the
round-trip and energy-preservation guarantees rely on.

The bases, :data:`BASIS_NAMES`, are one fixed table of extremal-phase scaling
filters, large taps first (Daubechies 1992, *Ten Lectures on Wavelets*, section 6.4,
Table 6.1). Each tap is the double float64 spectral factorisation gives, kept bit for
bit: daub4's second tap is one ulp below the correctly rounded (3 + sqrt 3) / (4 sqrt 2),
and re-rounding to the published decimals would move every output.

:func:`local_means` gives, for every detail coefficient, the uniform
average of the data over the support of its wavelet vector, which starts
at the coefficient's first sample, (k - 1) 2^(J-j). For Haar the means are
rescaled scaling coefficients.

:func:`cycle_spin` is the one shift-averaging engine: it applies a caller's
level rule to the detail rows of every circular shift of a signal and
averages the results through a translation-invariant table of O(n log n)
size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import _as_integer, as_signal

__all__ = [
    "WaveletBasis",
    "haar",
    "CoeffPyramid",
    "dwt_forward",
    "dwt_inverse",
    "local_means",
    "shifted_local_means",
    "cycle_spin",
    "BASIS_NAMES",
]

# basis name -> lowpass taps, the one table of bases (see the module docstring)
_LOWPASS = {
    "haar": (0.7071067811865475, 0.7071067811865475),
    "daub4": (0.48296291314453416, 0.8365163037378078, 0.2241438680420134,
              -0.12940952255126037),
    "daub6": (0.33267055295008285, 0.8068915093110931, 0.4598775021184915,
              -0.13501102001025503, -0.08544127388202687, 0.03522629188570955),
    "daub8": (0.23037781330889612, 0.7148465705529147, 0.6308807679298586,
              -0.02798376941685872, -0.1870348117190923, 0.030841381835560698,
              0.03288301166688511, -0.010597401785069),
}
BASIS_NAMES = tuple(_LOWPASS)


@dataclass(frozen=True)
class WaveletBasis:
    """A compactly supported orthonormal wavelet filter pair."""

    name: str
    lowpass: tuple[float, ...]

    def __post_init__(self):
        g = np.asarray(self.lowpass)
        if g.size < 2 or g.size % 2:
            raise ValueError("filter length must be even and >= 2")
        if abs(np.sum(g**2) - 1.0) > 1e-10:
            raise ValueError(f"filter {self.name!r} is not normalised: sum of squares != 1")
        for s in range(1, g.size // 2 + 1):
            if abs(np.dot(g[: -2 * s], g[2 * s:])) > 1e-10:
                raise ValueError(f"filter {self.name!r} violates even-shift orthogonality")

    def filter_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (lowpass, highpass) as arrays; highpass is the alternating flip."""
        g = np.asarray(self.lowpass, dtype=float)
        h = g[::-1].copy()
        h[1::2] *= -1.0
        return g, h


_BASES = {name: WaveletBasis(name, taps) for name, taps in _LOWPASS.items()}


def haar() -> WaveletBasis:
    """The two-tap basis; the package default."""
    return _BASES["haar"]


def basis_by_name(name: str) -> WaveletBasis:
    """The one shared, validated basis of that name; the class is frozen, so sharing is safe."""
    if name not in _BASES:
        raise ValueError(f"unknown wavelet basis {name!r}, choose from {list(BASIS_NAMES)}")
    return _BASES[name]


@dataclass(eq=False)
class CoeffPyramid:
    """Wavelet coefficients of a length-2^J signal.

    ``details[j]`` holds the 2^j detail coefficients of level j (coarse
    first); ``smooth`` is the single remaining scaling coefficient.
    """

    details: list[np.ndarray] = field(default_factory=list)
    smooth: float = 0.0

    def __post_init__(self):
        self.details = [np.asarray(d, dtype=float) for d in self.details]
        for j, d in enumerate(self.details):
            if d.shape != (1 << j,):
                raise ValueError(f"level {j} must hold {1 << j} coefficients, got shape {d.shape}")

    def energy(self) -> float:
        return self.smooth**2 + sum(float(np.sum(d**2)) for d in self.details)


def _analysis_step(approx: np.ndarray, g: np.ndarray, h: np.ndarray | None, out=None):
    """One periodic analysis step along the last axis of ``approx``.

    Returns the approximation and the detail, or the approximation alone
    when ``h`` is None. The approximation is written into ``out`` when it
    is given, an array of its shape. Longer filters take the polyphase form (Vetterli &
    Kovacevic 1995, ch. 3): periodic step-2 windows times ``g``, and times ``h``.
    """
    m = approx.shape[-1]
    if g.size == 2:
        a, b = approx[..., 0::2], approx[..., 1::2]
        lo = np.add(a, b, out=out)
        lo *= g[0]
        if h is None:
            return lo
        hi = a * h[0]
        hi += b * h[1]
        return lo, hi
    k = g.size - 2  # extend the row periodically by k samples, wrapping while m < k
    ext = np.concatenate([approx] * (1 + k // m) + [approx[..., :k % m]], axis=-1)
    win = sliding_window_view(ext, g.size, axis=-1)[..., ::2, :]
    lo = np.matmul(win, g, out=out)  # its own product: a zeroed level gets the full step's bits
    return lo if h is None else (lo, win @ h)


def _synthesis_rows(approx: np.ndarray, detail: np.ndarray, g: np.ndarray, h: np.ndarray):
    """The transpose of :func:`_analysis_step` along the last axis, as one new C array of
    2 * ``approx.shape[-1]`` columns; ``detail`` may be a scalar. For L > 2, output pair
    (2k, 2k + 1) is the periodic width-L/2 window ending at coefficient k times the reversed taps.
    """
    half = approx.shape[-1]
    shape = approx.shape[:-1] + (2 * half,)
    if g.size == 2:
        out = np.empty(shape)
        acc = approx + detail
        acc *= g[0]
        out[..., 0::2] = acc
        np.multiply(approx, g[1], out=acc)
        acc += detail * h[1]
        out[..., 1::2] = acc
        return out
    k = g.size // 2 - 1  # extend in front by k samples, wrapping while half < k

    def windowed(c, f):
        ext = np.concatenate([c[..., half - k % half:]] + [c] * (1 + k // half), axis=-1)
        return sliding_window_view(ext, k + 1, axis=-1) @ f.reshape(-1, 2)[::-1]
    out = windowed(approx, g)
    if not (np.isscalar(detail) and detail == 0):
        out += windowed(np.broadcast_to(detail, approx.shape), h)
    return out.reshape(shape)


def dwt_forward(x, basis: WaveletBasis | None = None) -> CoeffPyramid:
    """Full orthonormal decomposition of ``x`` (periodic boundaries)."""
    x = as_signal(x)
    g, h = (basis or haar()).filter_pair()
    approx = x
    fine_first = []
    while approx.size > 1:
        approx, detail = _analysis_step(approx, g, h)
        fine_first.append(detail)
    return CoeffPyramid(fine_first[::-1], float(approx[0]))


def dwt_inverse(p: CoeffPyramid, basis: WaveletBasis | None = None) -> np.ndarray:
    """Invert :func:`dwt_forward`; exact transpose of the analysis cascade."""
    g, h = (basis or haar()).filter_pair()
    approx = np.array([p.smooth])
    for detail in p.details:
        if detail.size != approx.size:
            raise ValueError("malformed pyramid: level sizes must double")
        approx = _synthesis_rows(approx, detail, g, h)
    return approx


@lru_cache(maxsize=None)
def _support_lengths(basis: WaveletBasis, n: int) -> tuple[int, ...]:
    """Per level j: the support length of the k=1 wavelet vector, which starts at sample 0.

    The vector, synthesised from the one-hot level-j detail over a zero approximation
    (coarser levels would only add exact zeros), runs to its last entry above 1e-12 x
    the peak. Coefficient k's support is the same one rotated by (k - 1) 2^(J-j).
    """
    g, h = basis.filter_pair()
    lengths = []
    for j in range(n.bit_length() - 1):
        v = np.zeros(1 << j)
        detail = v.copy()
        detail[0] = 1.0
        while v.size < n:
            v = _synthesis_rows(v, detail, g, h)
            detail = 0.0
        v = np.abs(v)
        lengths.append(int(np.flatnonzero(v > 1e-12 * np.max(v))[-1]) + 1)
    return tuple(lengths)


def shifted_local_means(x, basis: WaveletBasis | None = None):
    """Return ``means(j, count)``, the level-j local means of the first ``count`` shifts of ``x``.

    Row s of ``means(j, count)`` equals ``local_means(np.roll(x, s))[j]``:
    coefficient (j, k) of the shift-s signal averages ``x`` over the cyclic
    window of level j's support length that starts at sample
    (k - 1) 2^(J-j) - s, and ``count`` must lie in [1, p], p = 2^(J-j). Every
    mean is a difference of two entries of one prefix sum of ``x`` repeated twice.
    """
    x = as_signal(x)
    n = x.size
    lengths = _support_lengths(basis or haar(), n)
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.concatenate([[0.0], np.cumsum(np.concatenate([x, x]))])
        # every mean is a difference of two partial sums, so a finite range
        # keeps them all finite
        finite = np.ptp(csum) < np.inf
    if not finite:
        raise ValueError("local means overflow at this data scale")

    def means(j: int, count: int) -> np.ndarray:
        p, width = n >> j, lengths[j]
        if not 1 <= count <= p:
            raise ValueError(f"level {j} has {p} distinct shifts, got count {count}")
        # [k - 1, count - 1 - s] holds the partial sum at p k - s (or p k - s + width)
        lo, hi = (csum[a:a + n].reshape(-1, p)[:, p - count:] for a in (1, 1 + width))
        block = np.empty((1 + (1 << j), count))  # row k: start p k - s; row 0 repeats row 2^j
        np.subtract(hi, lo, out=block[1:])
        block[1:] /= width
        block[0] = block[-1]
        out = np.ascontiguousarray(block[:-1, ::-1].T)  # a view already when count is 1
        out[0, 0] = (csum[width] - csum[0]) / width
        return out
    return means


def local_means(x, basis: WaveletBasis | None = None) -> list[np.ndarray]:
    """Uniform-weight data averages over each detail coefficient's support.

    Returns one array per level, aligned with ``dwt_forward`` details. For
    Haar, entry (j, k) is the scaling coefficient at (j, k) divided by
    2^((J-j)/2).
    """
    x = as_signal(x)
    means = shifted_local_means(x, basis)
    return [means(j, 1)[0] for j in range(x.size.bit_length() - 1)]


_COEFF_OVERFLOW = "wavelet coefficients overflow at this data scale"


def _rotate_into_children(rows: np.ndarray, parents: int) -> None:
    """Fill the rows from ``parents`` on with their parents rotated by one sample."""
    odd, width = rows.shape[0] - parents, rows.shape[1]
    flat = rows.reshape(-1)
    flat[parents * width + 1:] = flat[:odd * width - 1]  # row by row, column c to c + 1
    rows[parents:, 0] = rows[:odd, -1]  # the wrap, where the flat copy crossed rows


def _weigh(y: np.ndarray, q: int, m: int, stop: int, op) -> None:
    """``op`` in place: rows below m of ``y`` by q + 1 shifts, rows m .. stop - 1 by q.

    With ``q, m = divmod(shifts, span)`` and ``stop = min(shifts, span)``, rows
    m .. stop - 1 exist only if q >= 1. Factors of 1 are skipped, as x * 1 and
    x / 1 are x.
    """
    if m and q:
        rows = y[:m]
        op(rows, q + 1, out=rows)
    if q > 1:
        rows = y[m:stop]
        op(rows, q, out=rows)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as one ValueError
def cycle_spin(x, basis: WaveletBasis, shifts: int, max_level: int, level_fn) -> np.ndarray:
    """Apply ``level_fn`` to every circular shift s < ``shifts`` of ``x`` and average the results.

    The result equals the mean over s of ``np.roll(y_s, -s)``, where ``y_s``
    is ``np.roll(x, s)`` analysed, with the details of each level
    j < ``max_level`` replaced by the rule's, the finer levels zeroed and the
    smooth kept, then synthesised. ``level_fn(j, rows)`` receives the level-j
    detail rows, row s holding shift s, and returns the rows that replace
    them, of the same shape. The engine knows no thresholds: the denoiser's
    rule shrinks, and one pass with ``shifts=1`` that divides is the VST.

    Shifts congruent modulo 2^d share their depth-d coefficients up to a
    rotation, so the transform is a table (Coifman & Donoho 1995): depth d
    keeps one row per residue r = s mod 2^d present among the shifts, the
    approximation of ``np.roll(x, r)``, and the residue r + 2^d child is
    analysed from its parent rotated by one sample. Synthesis goes back up
    the table and merges sibling rows, weighted by their shift counts: for
    q, m = divmod(shifts, 2^(d+1)), rows below m hold q + 1 shifts and the
    rest q, and each merged parent is divided by its own count. Where m is 0,
    every child holds q shifts and every parent 2q; both weights are first
    divided by q's largest power-of-two factor, which scales each sum by a
    power of two and changes no bit unless the unscaled sum would overflow.
    Each depth holds at most n values: O(n log n) time and memory for any
    ``shifts``.

    Returns the averaged signal. Coefficients or averages that overflow raise
    one ValueError, and no numpy overflow or invalid warning, the rule's included.
    """
    x = as_signal(x)
    n = x.size
    depth = n.bit_length() - 1
    shifts = _as_integer("shift count", shifts, 1, n)
    max_level = _as_integer("max_level", max_level, 1, depth)
    g, h = basis.filter_pair()
    rows = x[None, :] if shifts == 1 else np.stack([x, x])  # row 1: the child, built below
    kept = []  # per depth: the rule's detail rows, or 0.0 where the level is zeroed
    for d in range(depth):
        j = depth - 1 - d
        parents = min(shifts, 1 << d)
        if rows.shape[0] > parents:  # rows r + 2^d still below shifts
            _rotate_into_children(rows, parents)
        # depth d + 1's table; the analysis writes its parents, these rows' approximations
        table = np.empty((min(shifts, 4 << d), rows.shape[1] // 2))
        ruled = j < max_level
        step = _analysis_step(rows, g, h if ruled else None, out=table[:rows.shape[0]])
        rows = table  # the analysed rows are freed before the rule runs
        kept.append(level_fn(j, step[1]) if ruled else 0.0)
    for d in reversed(range(depth)):
        y = _synthesis_rows(rows, kept[d], g, h)
        parents = min(shifts, 1 << d)
        odd = y.shape[0] - parents
        q, m = divmod(shifts, 2 << d)
        total = divmod(shifts, 1 << d)
        if not m:  # equal classes of q shifts: q and 2q over q's power-of-two factor, exactly
            p = q & -q
            q, total = q // p, (2 * q // p, 0)
        _weigh(y, q, m, y.shape[0], np.multiply)
        if odd:  # each child rotated back onto its parent
            wrap = y[:odd, -1] + y[parents:, 0]
            w = y.shape[1]  # column c + 1 onto c over whole rows
            flat = y.reshape(-1)
            flat[:odd * w - 1] += flat[parents * w + 1:(parents + odd) * w]
            y[:odd, -1] = wrap  # where the flat add crossed rows
        _weigh(y, *total, parents, np.divide)
        rows = y[:parents]
    if not np.all(np.isfinite(rows[0])):
        raise ValueError(_COEFF_OVERFLOW)
    return rows[0]
