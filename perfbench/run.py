"""fiszkit benchmark: run one workload (or all) and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ti-denoise --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in fresh interpreters (``worker.py``) with the BLAS
thread pool pinned to one thread. ``--trace 0`` reports the end-to-end
metrics: ``setup_s`` is the median of ``SETUP_RUNS`` set-ups, each in its
own process, the last of which goes on to the timed loop. Times are
scaled by an interleaved calibration kernel (``calibration.py``). ``--trace 1``
reports the per-layer metrics of a traced run instead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts and each metric by name with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import PER_LAYER_SPECS
from workloads import ROOT, SRC, WORK_ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170.0
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                         text=True, timeout=30, check=False)
    return out.stdout if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def machine_facts() -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(), "blas_threads": BLAS_PINS,
            "git_commit": commit.strip() if commit else "unknown",
            "git_dirty": bool(status.strip()) if status is not None else "unknown"}


def start_worker(workload: str, mode: str, args, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, **BLAS_PINS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--launched", repr(time.monotonic())]
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} {mode}: no result within {RUN_TIMEOUT_S:.0f} s") from None
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} {mode}: worker exited with code {out.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> tuple[dict, int, int, dict]:
    """Metrics as {name: (value, unit)}, attempted, failed, and raw figures."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        res = start_worker(workload, "trace", args, deadline)
        layers = res["layers"]
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER_SPECS}
        return metrics, res["attempted"], res["failed"], {}
    runs = [start_worker(workload, "probe", args, deadline) for _ in range(SETUP_RUNS - 1)]
    runs.append(start_worker(workload, "measure", args, deadline))
    last = runs[-1]
    values = dict(last, setup_s=statistics.median(r["setup_s"] for r in runs))
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    raw = {"setup_raw_s": statistics.median(r["setup_raw_s"] for r in runs),
           "speed_factor": last["speed_factor"]}
    return metrics, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs), raw


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "fiszkit" / "__init__.py").is_file():
        print(f"perfbench: no fiszkit sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine_facts()))
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f, raw = run_workload(name, args)
            print(f"workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
            for metric, (value, unit) in m.items():
                print(f"  {metric} {value:.6g} {unit}")
            for key, value in raw.items():
                print(f"  ({key} {value:.6g}, unscaled)")
            print(f"  error_rate {f / a:.6g} ratio ({f} failed / {a} attempted)")
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
            attempted += a
            failed += f
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
