"""Wavelet-domain variance stabilisation driven by the fitted variance map.

The forward transform divides every detail coefficient by the estimated
standard deviation of that coefficient (square root of the fitted
variance map evaluated at the coefficient's local data mean), leaving the
smooth coefficient alone, and returns to the time domain. The transform
is exactly invertible given the recorded divisors, and composing it with
plain universal-threshold shrinkage reproduces the mean-linked denoiser
coefficient for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimator import EstimatorConfig, apply_threshold, coefficient_sd, universal_factor
from .signals import as_signal
from .textio import (data_rows, first_rejected, format_rows, level_index, row_blocks,
                     row_line)
from .varfn import VarianceEstimate, estimate_variance_function
from .wavelet import (CoeffPyramid, WaveletBasis, basis_by_name, dwt_forward,
                      dwt_inverse, haar, local_means)

__all__ = ["VstState", "forward_vst", "inverse_vst", "denoise_via_vst",
           "divisors_as_lines", "divisors_from_lines"]


@dataclass
class VstState:
    """Everything needed to undo a forward stabilisation pass."""

    divisors: list[np.ndarray]
    basis: WaveletBasis
    variance_fn: Optional[VarianceEstimate] = None

    def __post_init__(self):
        for j, d in enumerate(self.divisors):
            d = np.asarray(d, dtype=float)
            if d.shape != (1 << j,):
                raise ValueError(f"divisor level {j} must hold {1 << j} values")
            if not np.all(d > 0):
                raise ValueError(f"divisors must be strictly positive (level {j})")
            self.divisors[j] = d


def forward_vst(x, hhat: VarianceEstimate,
                basis: WaveletBasis | None = None) -> tuple[np.ndarray, VstState]:
    """Divide every detail coefficient by its estimated standard deviation."""
    x = as_signal(x)
    basis = basis or haar()
    p = dwt_forward(x, basis)
    lm = local_means(x, basis)
    floor = np.sqrt(hhat.floor_eps)
    divisors = [np.maximum(coefficient_sd(lm[j], hhat.query, j), floor)
                for j in range(p.n_levels)]
    q = CoeffPyramid([d / div for d, div in zip(p.details, divisors)], p.smooth)
    return dwt_inverse(q, basis), VstState(divisors, basis, hhat)


def inverse_vst(y, state: VstState) -> np.ndarray:
    """Multiply the detail coefficients of ``y`` back by the recorded divisors."""
    y = as_signal(y)
    if y.size != 1 << len(state.divisors):
        raise ValueError(f"length {y.size} does not match recorded divisors "
                         f"({1 << len(state.divisors)})")
    p = dwt_forward(y, state.basis)
    q = CoeffPyramid([d * div for d, div in zip(p.details, state.divisors)], p.smooth)
    return dwt_inverse(q, state.basis)


def denoise_via_vst(x, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """Three-step route: stabilise, universal-threshold, unstabilise.

    Equals :func:`fiszkit.estimator.estimate` with translation invariance
    off, coefficient for coefficient; kept separate because the
    stabilised signal can also be handed to any homoscedastic smoother.
    """
    cfg = cfg or EstimatorConfig()
    if cfg.known_variance is not None:
        raise ValueError("the stabilised route requires a data-estimated variance map")
    x = as_signal(x)
    max_level = cfg.resolve_max_level(x.size.bit_length() - 1)
    hhat = estimate_variance_function(x, cfg.varfn)
    xt, state = forward_vst(x, hhat, cfg.basis)
    p = dwt_forward(xt, cfg.basis)
    lam = universal_factor(max_level)
    thresholds = [np.full(1 << j, lam) for j in range(max_level)]
    q = apply_threshold(p, thresholds, cfg.rule, max_level)
    return inverse_vst(dwt_inverse(q, cfg.basis), state)


def divisors_as_lines(state: VstState) -> list[str]:
    """Serialise divisors as ``j k value`` lines with a basis header."""
    j, k = level_index(len(state.divisors))
    rows = format_rows("%d %d %.17g", j, k, np.concatenate(state.divisors))
    return [f"# basis {state.basis.name}", *rows.splitlines()]


_MAX_LEVEL = 62  # deepest level whose 2^j positions fit an int64


def _divisor_row(s: str) -> None:
    """Check one ``j k value`` row on its own: the rule every row must pass."""
    fields = s.split()
    if len(fields) != 3:
        raise ValueError(f"expected 3 fields 'j k value', found {len(fields)}")
    j, k = int(fields[0]), int(fields[1])
    float(fields[2])
    if not (0 <= j <= _MAX_LEVEL and 1 <= k <= 1 << j):
        raise ValueError(f"({j}, {k}) names no divisor: "
                         f"need 0 <= j <= {_MAX_LEVEL} and 1 <= k <= 2^j")


def _divisor_columns(rows: list[str]):
    """The ``j``, ``k`` and value columns, or None if any row fails ``_divisor_row``."""
    if set(map(len, map(str.split, rows))) != {3}:
        return None
    blocks = []
    for b in row_blocks(len(rows)):
        tokens = " ".join(rows[b]).split()
        try:
            blocks.append((np.array(tokens[0::3], dtype=np.int64),
                           np.array(tokens[1::3], dtype=np.int64),
                           np.array(tokens[2::3], dtype=float)))
        except (ValueError, OverflowError):
            return None
    j, k, values = map(np.concatenate, zip(*blocks))
    in_range = (j >= 0) & (j <= _MAX_LEVEL) & (k >= 1)
    return (j, k, values) if np.all(in_range & (k <= 1 << np.where(in_range, j, 0))) else None


def divisors_from_lines(lines) -> VstState:
    """Parse a divisor file: a ``# basis NAME`` header and ``j k value`` lines.

    Levels run from 0 to the deepest ``j`` listed, and every ``(j, k)`` with
    1 <= k <= 2^j must appear exactly once, in any order. A line that is
    not ``int int float``, names no such index or repeats one is rejected
    with its line number; a missing index as ``missing divisor (j, k)``.
    """
    source = getattr(lines, "name", "divisor file")
    stripped, rows = data_rows(lines)
    basis_name = "haar"
    for parts in [s[1:].split() for s in stripped if s[:1] == "#"]:
        if len(parts) == 2 and parts[0] == "basis":
            basis_name = parts[1]
    if not rows:
        raise ValueError("empty divisor file")
    columns = _divisor_columns(rows)
    if columns is None:
        row, exc = first_rejected(rows, _divisor_row)
        raise ValueError(f"{source}:{row_line(stripped, row)}: cannot read {rows[row]!r} "
                         f"as a divisor: {exc}")
    j, k, values = columns
    flat = (1 << j) - 2 + k
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1])
    if repeats.size:
        row = int(order[repeats + 1].min())
        raise ValueError(f"{source}:{row_line(stripped, row)}: duplicate divisor "
                         f"({j[row]}, {k[row]})")
    n_levels = int(j.max()) + 1
    if ranked.size < (1 << n_levels) - 1:
        # Entries are distinct and in range, so the first flat index that
        # differs from its rank is the first one missing.
        gaps = np.flatnonzero(ranked != np.arange(ranked.size))
        f = int(gaps[0]) if gaps.size else ranked.size
        level = (f + 1).bit_length() - 1
        raise ValueError(f"missing divisor ({level}, {f + 2 - (1 << level)})")
    divisors = np.split(values[order], (1 << np.arange(1, n_levels)) - 1)
    return VstState(divisors, basis_by_name(basis_name))
