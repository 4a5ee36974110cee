"""One workload in a fresh interpreter; ``run.py`` starts it and reads its result.

Set-up is everything from process start to the first timed op: imports,
input generation and one untimed, checked warm-up op. Then, by ``--mode``:

- ``probe``: stop after set-up (``run.py`` repeats set-up in fresh
  processes and reports the median);
- ``measure``: one caller, one thread, a closed loop that starts whole
  cycles of op kinds until ``--seconds`` have passed;
- ``trace``: half the time untraced, half traced (see ``tracing.py``), then
  one more cycle with tracemalloc around the variance fit.

Every op is preceded by one pass of the calibration kernel, and its time
is divided by that pass's speed factor (see ``calibration.py``); set-up
time is divided by the median factor of five passes run right after it.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from calibration import Calibration
from tracing import Tracer, peak_alloc
from workloads import WORK_ROOT, WORKLOADS

MAX_REPORTED_FAILURES = 5


@dataclass
class Loop:
    """Ops of one loop: scaled durations by kind, speed factors, failures."""

    durations: dict = field(default_factory=lambda: defaultdict(list))
    factors: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, kind: str, seconds: float, factor: float, failure: str | None) -> None:
        self.durations[kind].append(seconds / factor)
        self.factors.append(factor)
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    def absorb(self, other: "Loop") -> None:
        self.attempted += other.attempted
        self.failures += other.failures

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(sum(d) for d in self.durations.values())

    @property
    def op_p50_ms(self) -> float:
        # Kinds differ in cost, so the median of the mixed sample would jump
        # between them with the parity of the op count: take each kind's
        # median and average those.
        return 1000.0 * statistics.fmean(statistics.median(d) for d in self.durations.values())


def run_op(wl, op, calib: Calibration, loop: Loop, on_op=None) -> None:
    """Calibrate, then run, time and check one op, and record it in ``loop``."""
    factor = calib.factor()
    t0 = perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        loop.record(op.kind, perf_counter() - t0, factor, f"{op.kind}/{op.rep}: {exc!r}")
        return
    dt = perf_counter() - t0
    if on_op:
        on_op(dt)
    loop.record(op.kind, dt, factor, wl.check(op, raw))


def run_loop(wl, ops, calib: Calibration, seconds: float, on_op=None) -> Loop:
    """Start whole cycles of op kinds until ``seconds`` have passed."""
    loop = Loop()
    start = perf_counter()
    while perf_counter() - start < seconds:
        for _ in wl.kinds:
            run_op(wl, next(ops), calib, loop, on_op)
    return loop


def run(args) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        ops = wl.ops()
        calib = Calibration(wl.calibration)
        checked = Loop()
        run_op(wl, next(ops), calib, checked)
        setup_raw = time.monotonic() - args.launched
        setup_factor = calib.factor(passes=5)
        result = {"setup_s": setup_raw / setup_factor, "setup_raw_s": setup_raw}
        if args.mode == "measure":
            loop = run_loop(wl, ops, calib, args.seconds)
            result.update(ops_per_s=loop.ops_per_s, op_p50_ms=loop.op_p50_ms,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          speed_factor=statistics.median(loop.factors))
            checked.absorb(loop)
        elif args.mode == "trace":
            half = args.seconds / 2
            untraced = run_loop(wl, ops, calib, half)
            with Tracer() as tracer:
                traced = run_loop(wl, ops, calib, half, tracer.end_op)
            with peak_alloc() as peaks:
                for _ in wl.kinds:
                    run_op(wl, next(ops), calib, checked)
            result["layers"] = tracer.metrics(statistics.median(traced.factors),
                                              traced.ops_per_s / untraced.ops_per_s,
                                              max(peaks, default=0))
            checked.absorb(untraced)
            checked.absorb(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in checked.failures[:MAX_REPORTED_FAILURES]:
        print(f"{args.workload}: failed op: {reason}", file=sys.stderr)
    result.update(attempted=checked.attempted, failed=len(checked.failures))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    print(json.dumps(run(p.parse_args())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
