"""The benchmark's workloads: seeded inputs, one op each, and the op's check.

Every workload draws its ops from fixed pools of inputs whose outputs were
recorded at the seed commit (``reference.json``, written by
``record_reference.py``). ``--seed`` chooses the order in which each pool
is visited, so the same seed replays the same inputs and every input has a
reference to be checked against. Op kinds alternate in a fixed cycle; a
run starts ops until its time is used, so it stays long after speed-ups.

- ``ti-denoise``: one default ``estimate`` call, full cycle spinning, Haar,
  n = 2048. Kinds alternate between Poisson blocks with the variance law
  fitted from the data and exponential bumps with the known law u**2, so
  both threshold builders run. The O(n^2) shift loop dominates.
- ``large-pass``: one n = 2**17 exponential-bumps file through three
  in-process ``fiszkit.cli.main`` calls (``estimate --no-ti``, ``vst
  forward``, ``vst inverse``), alternating haar and daub8. The dense
  kernel matrix of the variance fit and the text codecs dominate; there is
  no shift loop.
- ``mc-table``: one replication of one cell of the seeded Monte-Carlo
  table at the acceptance configuration (n = 2048, haar, stride 16):
  ``make_*`` + ``sample_noise`` + ``estimate`` + ``baseline_mad_estimate``.
  The MAD comparator dominates.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from checks import compare, fingerprint, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"  # scratch files of running workloads


class MissingProgram(RuntimeError):
    """The checkout holds no fiszkit sources to benchmark."""


class OpFailed(RuntimeError):
    """An op finished but its outputs cannot be checked."""


def import_fiszkit():
    """Import fiszkit from this checkout's ``src/`` and nowhere else."""
    init = SRC / "fiszkit" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no fiszkit sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fiszkit
    import fiszkit.cli  # noqa: F401  (large-pass drives the command line in-process)
    if Path(fiszkit.__file__).resolve() != init.resolve():
        raise MissingProgram(f"fiszkit imported from {fiszkit.__file__}, not {init}")
    return fiszkit


def _square(u):
    return np.asarray(u, dtype=float) ** 2


@dataclass(frozen=True)
class Op:
    kind: str
    rep: int
    input: object
    run: Callable[[], object]


class Workload:
    """Seeded pool order, op cycle and output check shared by all workloads."""

    name: str
    kinds: tuple[str, ...]
    pool: int
    calibration: tuple[str, ...]  # parts of calibration.Calibration that track its speed

    def __init__(self, seed: int, workdir: Path):
        self.fz = import_fiszkit()
        self.workdir = Path(workdir)
        rng = random.Random(seed)
        self.order = {k: rng.sample(range(1, self.pool + 1), self.pool) for k in self.kinds}
        self.make_inputs()

    @cached_property
    def reference(self) -> dict:
        return load_reference()[self.name]

    def make_inputs(self) -> None:
        """Generate what the ops read; runs once, as part of set-up."""

    def make_op(self, kind: str, rep: int) -> Op:
        raise NotImplementedError

    def outputs(self, op: Op, raw) -> dict:
        """Named output arrays of one op, as fingerprinted in the reference."""
        return raw

    def ops(self) -> Iterator[Op]:
        """Endless op sequence: the kinds in turn, each walking its pool order."""
        k = len(self.kinds)
        for i in itertools.count():
            kind = self.kinds[i % k]
            yield self.make_op(kind, self.order[kind][(i // k) % self.pool])

    def check(self, op: Op, raw) -> str | None:
        """None when every output matches its reference, else the reason."""
        ref = self.reference[f"{op.kind}/{op.rep}"]
        try:
            outs = self.outputs(op, raw)
        except (OSError, ValueError, OpFailed) as exc:
            return f"{op.kind}/{op.rep}: {exc}"
        if set(outs) != set(ref):
            return f"{op.kind}/{op.rep}: outputs {sorted(outs)}, reference {sorted(ref)}"
        for name, value in outs.items():
            reason = compare(fingerprint(value), ref[name])
            if reason:
                return f"{op.kind}/{op.rep} {name}: {reason}"
        return None


class TiDenoise(Workload):
    name = "ti-denoise"
    kinds = ("poisson-blocks", "exponential-bumps")
    pool = 16
    calibration = ("small", "text")
    n = 2048

    def make_inputs(self):
        fz = self.fz
        blocks = fz.make_blocks(self.n, 1.0, 22.6)
        bumps = fz.make_bumps(self.n, 3.0, 23.21)
        self.inputs = {}
        for rep in range(1, self.pool + 1):
            self.inputs["poisson-blocks", rep] = fz.sample_noise(
                blocks, fz.NoiseModel("poisson"), fz.SeedSpec(101, rep))
            self.inputs["exponential-bumps", rep] = fz.sample_noise(
                bumps, fz.NoiseModel("exponential"), fz.SeedSpec(102, rep))

    def make_op(self, kind, rep):
        fz, x = self.fz, self.inputs[kind, rep]
        if kind == "poisson-blocks":
            def run():
                return {"values": fz.estimate(x).values}
        else:
            def run():
                return {"values": fz.estimate(x, fz.EstimatorConfig(known_variance=_square)).values}
        return Op(kind, rep, x, run)


class LargePass(Workload):
    name = "large-pass"
    kinds = ("haar", "daub8")
    pool = 4
    calibration = ("small", "kernel")
    n = 1 << 17

    def make_inputs(self):
        fz = self.fz
        bumps = fz.make_bumps(self.n, 3.0, 23.21)
        self.inputs = {}
        for rep in range(1, self.pool + 1):
            x = fz.sample_noise(bumps, fz.NoiseModel("exponential"), fz.SeedSpec(103, rep))
            path = self.workdir / f"in_{rep}.txt"
            fz.cli.write_series(path, x)
            self.inputs[rep] = (path, x)

    def _paths(self, kind):
        return {tag: str(self.workdir / f"{kind}_{tag}.txt")
                for tag in ("est", "xt", "div", "back")}

    def make_op(self, kind, rep):
        fz, (src, _) = self.fz, self.inputs[rep]
        p = self._paths(kind)

        def run():
            return [
                fz.cli.main(["estimate", "--in", str(src), "--out", p["est"],
                             "--no-ti", "--basis", kind]),
                fz.cli.main(["vst", "forward", "--in", str(src), "--out", p["xt"],
                             "--divisors", p["div"], "--basis", kind]),
                fz.cli.main(["vst", "inverse", "--in", p["xt"], "--out", p["back"],
                             "--divisors", p["div"]]),
            ]
        return Op(kind, rep, src, run)

    def outputs(self, op, raw):
        if raw != [0, 0, 0]:
            raise OpFailed(f"exit codes {raw}")
        p = self._paths(op.kind)
        x = self.inputs[op.rep][1]
        back = np.loadtxt(p["back"], ndmin=1)
        if back.shape != x.shape or np.max(np.abs(back - x)) > 1e-9 * np.max(np.abs(x)):
            raise OpFailed("vst inverse does not give back the input")
        return {"estimate": np.loadtxt(p["est"], ndmin=1),
                "vst_forward": np.loadtxt(p["xt"], ndmin=1)}


class McTable(Workload):
    name = "mc-table"
    kinds = ("blocks-exponential", "blocks-poisson", "bumps-exponential", "bumps-poisson")
    pool = 100
    calibration = ("small", "text")
    n = 2048
    ranges = {"blocks": (1.0, 22.6), "bumps": (3.0, 23.21)}

    def make_op(self, kind, rep):
        fz = self.fz
        signal, noise = kind.split("-")
        lo, hi = self.ranges[signal]

        def run():
            truth = getattr(fz, f"make_{signal}")(self.n, lo, hi)
            x = fz.sample_noise(truth, fz.NoiseModel(noise), fz.SeedSpec(1, rep))
            cfg = fz.EstimatorConfig(shift_stride=16)
            wf = fz.estimate(x, cfg).values
            base = fz.baseline_mad_estimate(x, cfg)
            return {"mse_wavefisz": np.mean((wf - truth) ** 2),
                    "mse_baseline": np.mean((base - truth) ** 2)}
        return Op(kind, rep, (kind, rep), run)


WORKLOADS = {w.name: w for w in (TiDenoise, LargePass, McTable)}
