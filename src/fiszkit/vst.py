"""Wavelet-domain variance stabilisation driven by the fitted variance map.

The forward transform divides every detail coefficient by the estimated
standard deviation of that coefficient (square root of the fitted
variance map at the coefficient's local data mean), leaving the smooth
coefficient alone: one unshifted :func:`fiszkit.wavelet.cycle_spin` pass
that divides where the denoiser shrinks. Each level gathers its divisors
from the floored sds of the fitted steps, ``VarianceEstimate.sd``, the ones
the fitted thresholds scale. Multiplying back by the recorded divisors
inverts it exactly, and composing it with universal-threshold shrinkage
reproduces the mean-linked denoiser coefficient for coefficient.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .estimator import EstimatorConfig, estimate
from .signals import as_signal
from .textio import data_rows, first_rejected, level_blocks, line_blocks
from .varfn import VarianceEstimate, estimate_variance_function
from .wavelet import WaveletBasis, basis_by_name, cycle_spin, haar, shifted_local_means

__all__ = ["VstState", "forward_vst", "inverse_vst", "denoise_via_vst",
           "divisors_as_lines", "divisors_from_lines"]


@dataclass
class VstState:
    """Everything needed to undo a forward stabilisation pass."""

    divisors: list[np.ndarray]
    basis: WaveletBasis

    def __post_init__(self):
        self.divisors = [np.asarray(d, dtype=float) for d in self.divisors]
        for j, d in enumerate(self.divisors):
            if d.shape != (1 << j,):
                raise ValueError(f"divisor level {j} must hold {1 << j} values")
            if not np.all(d > 0):
                raise ValueError(f"divisors must be strictly positive (level {j})")


def forward_vst(x, hhat: VarianceEstimate,
                basis: WaveletBasis | None = None) -> tuple[np.ndarray, VstState]:
    """Divide every detail coefficient by its estimated standard deviation."""
    x = as_signal(x)
    basis = basis or haar()
    means = shifted_local_means(x, basis)

    def divisors(j, _rows):
        d = hhat.sd[hhat.step_index(means(j, 1))]  # one gather, as the fitted thresholds
        if not d.max() < np.inf:  # max propagates NaN
            raise ValueError(f"variance map returned negative or non-finite values at level {j}")
        if not d.min() > 0:  # checked before the division, which would warn
            raise ValueError(f"divisors must be strictly positive (level {j})")
        return d

    xt, divs, _ = cycle_spin(x, basis, 1, x.size.bit_length() - 1, divisors, np.divide)
    return xt, VstState(divs, basis)


def inverse_vst(y, state: VstState) -> np.ndarray:
    """Multiply the detail coefficients of ``y`` back by the recorded divisors."""
    y = as_signal(y)
    if y.size != 1 << len(state.divisors):
        raise ValueError(f"length {y.size} does not match recorded divisors "
                         f"({1 << len(state.divisors)})")
    return cycle_spin(y, state.basis, 1, len(state.divisors),
                      lambda j, _rows: state.divisors[j][None], np.multiply)[0]


def denoise_via_vst(x, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """Three-step route: stabilise, universal-threshold, unstabilise.

    Equals :func:`fiszkit.estimator.estimate` with translation invariance
    off, coefficient for coefficient; kept separate because the
    stabilised signal can also be handed to any homoscedastic smoother.
    """
    cfg = cfg or EstimatorConfig()
    if cfg.known_variance is not None:
        raise ValueError("the stabilised route requires a data-estimated variance map")
    xt, state = forward_vst(x, estimate_variance_function(x, cfg.varfn), cfg.basis)
    unit = replace(cfg, translation_invariant=False, known_variance=np.ones_like)
    return inverse_vst(estimate(xt, unit).values, state)


def divisors_as_lines(state: VstState) -> Iterator[str]:
    """Yield the divisor file's text in blocks: a basis header, then ``j k value`` lines.

    A block holds up to ``BLOCK_ROWS`` LF-ended lines, not one line; write
    them to a file before ``divisors_from_lines`` reads them back.
    """
    yield f"# basis {state.basis.name}\n"
    yield from level_blocks("%.17g", state.divisors)


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
    """Flat indices 2^j - 2 + k and values, or None if any row fails ``_divisor_row``."""
    # ";" converts as no number. Once the fields convert below, 4m - 1
    # tokens put the m - 1 separators at every fourth token, which gives
    # every row three fields.
    tokens = " ; ".join(rows).split()
    if len(tokens) != 4 * len(rows) - 1:
        return None
    try:
        j, k = (np.array(tokens[i::4], dtype=np.int64) for i in (0, 1))
        values = np.array(tokens[2::4], dtype=float)
    except (ValueError, OverflowError):
        return None
    in_range = (j >= 0) & (j <= _MAX_LEVEL) & (k >= 1)
    if not np.all(in_range & (k <= 1 << np.where(in_range, j, 0))):
        return None
    return (1 << j) - 2 + k, values


def _position(f: int) -> tuple[int, int]:
    """The ``(j, k)`` at flat index ``f`` = 2^j - 2 + k."""
    j = (f + 1).bit_length() - 1
    return j, f + 2 - (1 << j)


def _basis_comments(source, lines, start: int, basis):
    """Check the ``# basis`` comments of ``lines`` (line ``start`` first) against ``basis``.

    Returns the first (name, line number) so far.
    """
    for number, line in [(i, s.strip()) for i, s in enumerate(lines, start)
                         if s.lstrip()[:1] == "#"]:
        words = line[1:].split()
        if words[:1] != ["basis"]:
            continue
        if len(words) != 2:
            raise ValueError(f"{source}:{number}: expected '# basis NAME', found {line!r}")
        if basis and basis[0] != words[1]:
            raise ValueError(f"{source}:{number}: basis {words[1]} conflicts with "
                             f"basis {basis[0]} on line {basis[1]}")
        basis = basis or (words[1], number)
    return basis


def divisors_from_lines(lines) -> VstState:
    """Parse a divisor file: a ``# basis NAME`` header and ``j k value`` lines.

    Levels run from 0 to the deepest ``j`` listed, and every ``(j, k)`` with
    1 <= k <= 2^j must appear exactly once, in any order. A line that is
    not ``int int float``, names no such index or repeats one is rejected
    with its line number; a missing index as ``missing divisor (j, k)``.
    A comment whose first word is ``basis`` must be ``# basis NAME``, and
    every such line must name the same basis; a file without one is haar.
    """
    source = getattr(lines, "name", "divisor file")
    basis, blocks, numbers = None, [], []  # basis: the first (name, line number)
    for start, block in line_blocks(lines):
        columns, block_numbers = _divisor_columns(block), range(start, start + len(block))
        if columns is None:
            rows, block_numbers = data_rows(block, start)
            columns = _divisor_columns(rows)
            if columns is None and rows:  # a fault above the first bad row is reported first
                row, exc = first_rejected(rows, _divisor_row)
                _basis_comments(source, block[:block_numbers[row] - start], start, basis)
                raise ValueError(f"{source}:{block_numbers[row]}: cannot read {rows[row]!r} "
                                 f"as a divisor: {exc}")
            basis = _basis_comments(source, block, start, basis)
            if not rows:
                continue
        blocks.append(columns)
        numbers.append(block_numbers)
    if not blocks:
        raise ValueError("empty divisor file")
    flat, values = map(np.concatenate, zip(*blocks))
    order = np.argsort(flat, kind="stable")
    ranked, values = flat[order], values[order]
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1])
    if repeats.size:
        row = int(order[repeats + 1].min())
        line = next(islice(chain.from_iterable(numbers), row, None))
        raise ValueError(f"{source}:{line}: duplicate divisor {_position(int(flat[row]))}")
    n_levels = _position(int(ranked[-1]))[0] + 1
    if ranked.size < (1 << n_levels) - 1:
        # Entries are distinct and in range, so the first flat index that
        # differs from its rank is the first one missing.
        gaps = np.flatnonzero(ranked != np.arange(ranked.size))
        first = int(gaps[0]) if gaps.size else ranked.size
        raise ValueError(f"missing divisor {_position(first)}")
    divisors = np.split(values, (1 << np.arange(1, n_levels)) - 1)
    return VstState(divisors, basis_by_name(basis[0] if basis else "haar"))
