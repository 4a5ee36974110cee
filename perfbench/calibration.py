"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared machine the speed available to one process drifts by tens of
percent over minutes: one default ``estimate`` call at n = 2048 took from
1.1 s to 2.0 s within three minutes on a 2-core Xeon VM, with process CPU
time equal to wall time, so the slowdown was not descheduling. The
benchmark runs a calibration pass before every op and reports op times
divided by the pass's speed factor, i.e. times on a machine where every
part of the pass takes its reference time.

The kernel has three parts, one per kind of work fiszkit does: many numpy
calls on small arrays (the shift loop and the MAD comparator), float text
formatting and parsing (the command line) and a dense 256 x 2**15
triangular-kernel matrix, larger than the caches and so bound by memory
bandwidth like the variance fit at large n. The speed factor is the mean
over the workload's parts of each part's time over its reference, so
every part weighs the same. Each workload uses the parts whose speed
tracked its own; see README.md. The kernel never calls fiszkit, so no
change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Typical seconds of each part on a 2-core Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = {"small": 0.008, "text": 0.0025, "kernel": 0.12}


class Calibration:
    def __init__(self, parts: tuple[str, ...]):
        self.parts = [(getattr(self, f"_{name}"), REFERENCE_S[name]) for name in parts]
        rng = np.random.default_rng(20071106)
        self.small = rng.random(2048)
        self.grid = np.sort(rng.random(64))
        self.knots = np.linspace(0.0, 1.0, 256)
        self.large = rng.random(1 << 15)
        self.text = "\n".join(f"{v:.17g}" for v in rng.random(1500))

    def _small(self):
        x = self.small
        for s in range(40):
            b = np.roll(x, s)
            c = np.cumsum(np.concatenate([b, b]))
            k = np.searchsorted(self.grid, b)
            x = np.where(k > 32, np.sqrt(c[s:s + 2048] / (s + 1)), b) % 1.0

    def _text(self):
        values = [float(v) for v in self.text.split()]
        "\n".join(f"{v:.17g}" for v in values)

    def _kernel(self):
        v = np.abs((self.large[None, :] - self.knots[:, None]) / 0.05)
        w = np.where(v <= 0.5, 2.0 - 4.0 * v, 0.0)
        w.sum(axis=1), w @ self.large

    def _pass(self) -> float:
        ratios = []
        for part, reference_s in self.parts:
            t0 = perf_counter()
            part()
            ratios.append((perf_counter() - t0) / reference_s)
        return sum(ratios) / len(ratios)

    def factor(self, passes: int = 1) -> float:
        """Median speed factor of ``passes`` passes: above 1 when the machine is slow."""
        return float(np.median([self._pass() for _ in range(passes)]))
