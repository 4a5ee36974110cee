"""Output fingerprints and the tolerance check against recorded references.

A fingerprint of a vector is a set of 32 block sums of the vector weighted
by a fixed Gaussian vector, plus one scale (the mean block sum of the
absolute weighted values). Random weights make every coefficient of the
output count, so a level that is zeroed, a threshold that moves, or one
perturbed sample all change some block sum; unweighted block sums would
miss fine Haar details, whose sum over a block vanishes. A scalar output
is its own fingerprint with scale ``abs(value)``.

``RTOL`` bounds the accepted change of a block sum relative to the
reference scale. Reordered floating point (a stationary-transform rewrite
of the shift loop moved single samples by at most 1.6e-13) stays several
orders of magnitude below it; a wrong threshold, a dropped level or a
sample perturbed by one part in 1e5 lands far above it (see
``test_perfbench.py``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

RTOL = 1e-9
BLOCKS = 32
WEIGHT_SEED = 20070711
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    w = np.random.default_rng(WEIGHT_SEED).standard_normal(n)
    w.setflags(write=False)
    return w


def fingerprint(y) -> dict:
    """Weighted block sums and their scale; see the module docstring."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 1:
        v = float(y[0])
        return {"sums": [v], "scale": abs(v)}
    prod = _weights(y.size) * y
    edges = (np.arange(min(BLOCKS, y.size)) * y.size) // min(BLOCKS, y.size)
    sums = np.add.reduceat(prod, edges)
    return {"sums": sums.tolist(), "scale": float(np.abs(prod).sum() / sums.size)}


def compare(got: dict, ref: dict) -> str | None:
    """None when ``got`` matches ``ref`` within RTOL, else the reason."""
    g = np.asarray(got["sums"], dtype=float)
    r = np.asarray(ref["sums"], dtype=float)
    if g.shape != r.shape:
        return f"fingerprint has {g.size} sums, reference has {r.size}"
    if not np.all(np.isfinite(g)):
        return "output is not finite"
    err = float(np.max(np.abs(g - r)))
    tol = RTOL * ref["scale"]
    if err > tol:
        return f"differs from reference by {err:.3g} (tolerance {tol:.3g})"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)
