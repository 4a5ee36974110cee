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
    lines = [f"# basis {state.basis.name}"]
    for j, d in enumerate(state.divisors):
        lines.extend(f"{j} {k} {v:.17g}" for k, v in enumerate(d.tolist(), start=1))
    return lines


def divisors_from_lines(lines) -> VstState:
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
    if not entries:
        raise ValueError("empty divisor file")
    n_levels = 1 + max(j for j, _ in entries)
    divisors = []
    for j in range(n_levels):
        d = np.empty(1 << j)
        for k in range(1 << j):
            try:
                d[k] = entries[(j, k + 1)]
            except KeyError:
                raise ValueError(f"missing divisor ({j}, {k + 1})") from None
        divisors.append(d)
    return VstState(divisors, basis_by_name(basis_name))
