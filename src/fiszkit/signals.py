"""Benchmark test signals and mean-linked noise models.

The generators produce the classic piecewise-constant / bump-train test
signals on the grid t/n, t = 1..n, affinely rescaled to a requested range.
The breakpoint/height/width constants are the standard published ones and
are recorded in ``docs/signal_constants.md``.

Noise models share one contract: draws are independent with
``E(X_t) = truth[t]`` and ``Var(X_t) = variance(truth[t])`` where the
mean-to-variance map is ``u`` (poisson), ``u**2`` (exponential
multiplicative) or a constant ``sigma**2`` (additive gaussian).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedSpec",
    "NoiseModel",
    "POISSON",
    "EXPONENTIAL",
    "GAUSSIAN",
    "NOISE_KINDS",
    "make_blocks",
    "make_bumps",
    "make_doppler",
    "make_heavisine",
    "rescale_to_range",
    "sample_noise",
    "true_variance_function",
    "as_signal",
    "SIGNAL_GENERATORS",
]

_MASK64 = (1 << 64) - 1

POISSON = "poisson"
EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
NOISE_KINDS = (POISSON, EXPONENTIAL, GAUSSIAN)

# Breakpoints shared by the blocks and bumps signals.
_T_J = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])


def _as_integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high] (None: no bound); numpy integers pass, 2.0 and "3" not."""
    try:
        value = operator.index(value)  # np.int64(r) << 64 would wrap to 0
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if high is None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _check_length(n: int) -> None:
    """The one dyadic-length rule: signals, generators and the CLI's ``--n`` share it."""
    n = _as_integer("signal length", n, 2)
    if n & (n - 1):
        raise ValueError(f"signal length must be a power of two >= 2, got {n}")


def as_signal(x) -> np.ndarray:
    """Validate and return ``x`` as a float64 signal of dyadic length."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {x.shape}")
    _check_length(x.size)
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


def rescale_to_range(x, min_val: float, max_val: float) -> np.ndarray:
    """Affinely map ``x`` so its minimum is ``min_val`` and maximum ``max_val``."""
    if not min_val < max_val:
        raise ValueError(f"need min_val < max_val, got [{min_val}, {max_val}]")
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(), x.max()
    if hi == lo:
        raise ValueError("cannot rescale a constant signal to a nondegenerate range")
    with np.errstate(over="ignore"):
        out = min_val + (max_val - min_val) * (x - lo) / (hi - lo)
    big = np.isinf(out)  # the span times the spread overflows: divide first only there
    out[big] = min_val + (max_val - min_val) * ((x[big] - lo) / (hi - lo))
    return out


def _grid(n: int) -> np.ndarray:
    _check_length(n)
    return np.arange(1, n + 1) / n


def make_blocks(n: int, min_val: float, max_val: float) -> np.ndarray:
    """Piecewise-constant benchmark signal, rescaled to [min_val, max_val]."""
    t = _grid(n)
    raw = np.sum(_BLOCKS_H * (1 + np.sign(t[:, None] - _T_J)) / 2, axis=1)
    return rescale_to_range(raw, min_val, max_val)


def make_bumps(n: int, min_val: float, max_val: float) -> np.ndarray:
    """Train-of-bumps benchmark signal, rescaled to [min_val, max_val]."""
    t = _grid(n)
    raw = np.sum(_BUMPS_H * (1 + np.abs((t[:, None] - _T_J) / _BUMPS_W)) ** -4, axis=1)
    return rescale_to_range(raw, min_val, max_val)


def make_doppler(n: int, min_val: float, max_val: float) -> np.ndarray:
    """Chirp-like benchmark signal, rescaled to [min_val, max_val]."""
    t = _grid(n)
    raw = np.sqrt(t * (1 - t)) * np.sin(2 * np.pi * 1.05 / (t + 0.05))
    return rescale_to_range(raw, min_val, max_val)


def make_heavisine(n: int, min_val: float, max_val: float) -> np.ndarray:
    """Sine with two jumps, rescaled to [min_val, max_val]."""
    t = _grid(n)
    raw = 4 * np.sin(4 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)
    return rescale_to_range(raw, min_val, max_val)


SIGNAL_GENERATORS = {
    "blocks": make_blocks,
    "bumps": make_bumps,
    "doppler": make_doppler,
    "heavisine": make_heavisine,
}


@dataclass(frozen=True)
class SeedSpec:
    """Key for a counter-based random stream.

    Distinct (master_seed, replication_index) pairs map to distinct Philox
    keys, so replications get statistically independent streams with no
    shared state. Both fields are stored as Python ints, so numpy integers
    key the same stream as their Python twins.
    """

    master_seed: int
    replication_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "replication_index"):
            object.__setattr__(self, name, _as_integer(name, getattr(self, name), 0, _MASK64))

    def generator(self) -> np.random.Generator:
        key = (self.replication_index << 64) | self.master_seed
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseModel:
    """One of the supported mean-linked noise laws.

    ``sigma`` is only meaningful for the gaussian model, where it must be
    finite and >= 0; ``sigma=0`` makes sampling return the truth exactly.
    """

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if self.kind == GAUSSIAN and not 0 <= self.sigma < np.inf:  # also rejects NaN
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def true_variance_function(model: NoiseModel, u):
    """Variance of an observation whose mean is ``u`` under ``model``; poisson needs ``u >= 0``."""
    u_arr = np.asarray(u, dtype=float)
    if model.kind == POISSON:
        if np.any(u_arr < 0):
            raise ValueError("poisson mean argument must be nonnegative")
        out = u_arr
    elif model.kind == EXPONENTIAL:
        out = u_arr**2
    else:
        out = np.full_like(u_arr, model.sigma**2)
    return float(out) if np.isscalar(u) else out


def sample_noise(truth, model: NoiseModel, seed: SeedSpec) -> np.ndarray:
    """Draw one noisy realisation of ``truth`` under ``model``.

    Deterministic given ``seed``. Poisson uses numpy's exact sampler;
    exponential draws come from inverse-CDF of the uniform stream, so the
    realisation is a fixed function of the counter-based stream.
    """
    truth = as_signal(truth)
    rng = seed.generator()
    if model.kind != GAUSSIAN and np.any(truth <= 0):
        raise ValueError(f"{model.kind} noise requires a strictly positive truth")
    overflow = f"{model.kind} noise overflows at this scale: "
    with np.errstate(over="ignore"):
        if model.kind == GAUSSIAN:
            x = truth + model.sigma * rng.standard_normal(truth.size)
        elif model.kind == POISSON:
            try:
                x = rng.poisson(truth).astype(float)
            except ValueError:  # numpy's sampler takes means up to about 9.2e18
                raise ValueError(overflow + "a mean is beyond the sampler's range") from None
        else:  # exponential multiplicative: X = truth * Exp(1)
            x = truth * -np.log1p(-rng.random(truth.size))
        if not np.all(np.isfinite(x)):
            raise ValueError(overflow + "a draw is not finite")
    return x
