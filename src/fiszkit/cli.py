"""Command-line surface: simulate, estimate, varfn, vst, bench.

File conventions (see ``fiszkit.textio``): one decimal value per line, '.'
decimal separator, LF endings (CRLF is read too), whole-line '#' comments.
A UTF-8 byte-order mark at the start of a file is skipped. Every file is
written by ``write_lines``, from LF-ended lines or blocks of lines.

Exit codes: 0 success, 2 usage error, 3 data error. ``FISZKIT_THREADS``
caps how many worker processes the benchmark may use; results are
independent of that setting.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from math import inf
from pathlib import Path

import numpy as np

from .estimator import _RULES, EstimatorConfig, baseline_mad_estimate, estimate
from .signals import (GAUSSIAN, NOISE_KINDS, SIGNAL_GENERATORS, NoiseModel, SeedSpec,
                      _as_integer, _check_length, sample_noise, true_variance_function)
from .textio import format_blocks, level_blocks, line_blocks
from .varfn import VarFnConfig, VarianceEstimate, estimate_variance_function
from .vst import divisors_as_lines, divisors_from_lines, forward_vst, inverse_vst
from .wavelet import BASIS_NAMES, basis_by_name

__all__ = ["main", "read_series", "write_series", "run_bench", "BenchReport"]

BENCH_RANGES = {"blocks": (1.0, 22.6), "bumps": (3.0, 23.21)}
BENCH_CELLS = (("blocks", "exponential"), ("blocks", "poisson"),
               ("bumps", "exponential"), ("bumps", "poisson"))
BENCH_METHODS = ("mad-baseline", "wavefisz")


# ----------------------------------------------------------------- file I/O

def read_series(path) -> np.ndarray:
    """Read a one-value-per-line series; a parse error names the first faulty line.

    Each line is stripped of surrounding whitespace; blank lines and
    whole-line ``#`` comments are skipped; every other line must be one
    number as Python's ``float`` reads it. Each block of lines is converted
    in one call, and read line by line, in file order, only if that fails.
    """
    with open(path, encoding="utf-8-sig") as f:
        blocks = [_series_block(path, start, block) for start, block in line_blocks(f)]
    if not sum(map(len, blocks)):
        raise ValueError(f"{path}: no data lines")
    return np.concatenate(blocks)


def _series_block(path, start: int, block: list[str]) -> np.ndarray:
    """The values of one block; read line by line, in file order, if its one conversion fails."""
    try:
        return np.array(block, dtype=float)
    except ValueError:
        pass  # a comment, a blank line or a bad row
    values = []
    for number, line in enumerate(map(str.strip, block), start):
        if line and line[0] != "#":
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{number}: cannot parse {line!r} as a number") from None
    return np.array(values, dtype=float)


def write_series(path, values, header=()) -> None:
    write_lines(path, chain([f"# {line}\n" for line in header],
                            format_blocks("%.17g", np.asarray(values, dtype=float))))


def write_lines(path, texts) -> None:
    """Write LF-ended texts, single lines or blocks of them, as one UTF-8 file."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(texts)


def _sidecar(out_path, tag: str) -> Path:
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + "_" + tag + out_path.suffix)


# ------------------------------------------------------------ flag parsing

def _bandwidth(text: str):
    return text if text == "auto" else float(text)  # VarFnConfig checks the value


def _varfn_config(args) -> VarFnConfig:
    return VarFnConfig(half_window=args.M, bandwidth=args.bandwidth, grid_size=args.grid)


def _sigma(args, law, law_flag: str) -> float:
    if args.sigma is not None and law != GAUSSIAN:  # no other law has a free sd
        raise ValueError(f"--sigma needs {law_flag} gaussian")
    return 1.0 if args.sigma is None else args.sigma


def _estimator_config(args) -> EstimatorConfig:
    if args.baseline and args.emit_plots:  # the comparator has no thresholds to write
        raise ValueError("--emit-plots and --baseline exclude each other")
    if not args.ti and args.stride != 1:  # the one unshifted pass has no shifts to thin
        raise ValueError("--stride and --no-ti exclude each other")
    sigma = _sigma(args, args.known_h, "--known-h")
    known = args.known_h and partial(true_variance_function, NoiseModel(args.known_h, sigma=sigma))
    cfg = EstimatorConfig(
        max_level=args.jstar,
        rule=args.rule,
        translation_invariant=args.ti,
        shift_stride=args.stride,
        basis=basis_by_name(args.basis),
        known_variance=known,
        varfn=_varfn_config(args),
    )
    if (args.known_h or args.baseline) and cfg.varfn != EstimatorConfig().varfn:
        raise ValueError("--M, --bandwidth and --grid tune the variance fit, "
                         "which --known-h and --baseline skip")
    return cfg


def _simulate_config(args) -> tuple[NoiseModel, SeedSpec]:
    _check_length(args.n)
    if not 0 < args.max - args.min < inf:  # also rejects NaN and infinities
        raise ValueError("need --min < --max a finite distance apart, "
                         f"got [{args.min}, {args.max}]")
    if args.noise != GAUSSIAN and not args.min > 0:
        raise ValueError(f"{args.noise} noise needs --min > 0, got {args.min}")
    sigma = _sigma(args, args.noise, "--noise")
    return NoiseModel(args.noise, sigma=sigma), SeedSpec(args.seed, args.rep)


def _bench_config(args) -> EstimatorConfig:
    _as_integer("reps", args.reps, 1)  # run_bench's own check, here a usage error (exit 2)
    _check_length(args.n)
    SeedSpec(args.seed)  # rejects a master seed outside the stream keys
    cfg = _estimator_config(args)
    # bench reads no file, so a length its fit or its levels cannot take is a usage error
    cfg.varfn.check_length(args.n)
    cfg.resolve_max_level(args.n.bit_length() - 1)
    return cfg


def _add_estimator_flags(p: argparse.ArgumentParser, default_m: int) -> None:
    p.add_argument("--rule", choices=sorted(_RULES), default="hard")
    p.add_argument("--ti", action=argparse.BooleanOptionalAction, default=True,
                   help="average over circular shifts (translation invariance)")
    p.add_argument("--jstar", type=int, default=None,
                   help="number of thresholded coarse levels (default: depth - 2)")
    p.add_argument("--stride", type=int, default=1,
                   help="average only the first n/stride consecutive circular shifts")
    p.add_argument("--basis", default="haar", choices=BASIS_NAMES)
    _add_varfn_flags(p, default_m)


def _add_varfn_flags(p: argparse.ArgumentParser, default_m: int) -> None:
    p.add_argument("--M", type=int, default=default_m,
                   help="running-mean half width of the variance fit")
    p.add_argument("--bandwidth", type=_bandwidth, default="auto")
    p.add_argument("--grid", type=int, default=256,
                   help="grid size of the variance step function")


# --------------------------------------------------------------- commands

def cmd_simulate(args, cfg) -> int:
    noise, seed = cfg
    truth = SIGNAL_GENERATORS[args.signal](args.n, args.min, args.max)
    noisy = sample_noise(truth, noise, seed)
    prefix = Path(args.out)
    header = [f"signal={args.signal} n={args.n} min={args.min} max={args.max}",
              f"noise={args.noise} sigma={noise.sigma} seed={args.seed} rep={args.rep}"]
    write_series(prefix.with_name(prefix.name + "_truth.txt"), truth, header)
    write_series(prefix.with_name(prefix.name + "_noisy.txt"), noisy, header)
    return 0


def cmd_estimate(args, cfg: EstimatorConfig) -> int:
    x = read_series(args.input)
    if args.baseline:
        write_series(args.out, baseline_mad_estimate(x, cfg))
        return 0
    res = estimate(x, cfg)
    write_series(args.out, res.values)
    if args.emit_plots:
        write_lines(_sidecar(args.out, "thresholds"),
                    level_blocks("%.17g %d", res.thresholds, res.survivors))
        if isinstance(res.variance_fn, VarianceEstimate):
            write_lines(_sidecar(args.out, "varfn"), res.variance_fn.as_lines())
        n = x.size
        grid = np.arange(1, n + 1) / n
        write_lines(_sidecar(args.out, "plot_estimate"),
                    format_blocks("%.17g %.17g", grid, res.values))
        write_lines(_sidecar(args.out, "plot_input"), format_blocks("%.17g %.17g", grid, x))
    return 0


def cmd_varfn(args, cfg: VarFnConfig) -> int:
    x = read_series(args.input)
    est = estimate_variance_function(x, cfg)
    write_lines(args.out, est.as_lines())
    if args.emit_plots:
        write_lines(_sidecar(args.out, "sqrt"),
                    format_blocks("%.17g %.17g", est.grid_u, np.sqrt(est.values)))
    return 0


def cmd_vst_forward(args, cfg: VarFnConfig) -> int:
    x = read_series(args.input)
    hhat = estimate_variance_function(x, cfg)
    xt, state = forward_vst(x, hhat, basis_by_name(args.basis))
    write_series(args.out, xt)
    write_lines(args.divisors, divisors_as_lines(state))
    return 0


def cmd_vst_inverse(args, _cfg: None) -> int:
    y = read_series(args.input)
    with open(args.divisors, encoding="utf-8-sig") as f:
        state = divisors_from_lines(f)
    write_series(args.out, inverse_vst(y, state))
    return 0


# -------------------------------------------------------------- benchmark

@dataclass(eq=False)
class BenchReport:
    """Per-cell mean squared errors of the two methods, with standard errors."""

    reps: int
    n: int
    master_seed: int
    mse: dict  # (signal, noise, method) -> np.ndarray of per-rep MSEs

    def cell_stats(self, signal, noise, method):
        vals = self.mse[(signal, noise, method)]
        se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        return float(np.mean(vals)), se

    def as_lines(self) -> list[str]:
        """The table as LF-ended lines: a header, the mean of each cell, then its standard error."""
        lines = [f"# bench reps={self.reps} n={self.n} master_seed={self.master_seed}\n",
                 "# per-point mean squared error against the true signal\n",
                 "method " + " ".join(f"{s}_{m[:4]}" for s, m in BENCH_CELLS) + "\n"]
        for stat, suffix in enumerate(("", "_se")):
            for method in BENCH_METHODS:
                cells = [self.cell_stats(s, m, method)[stat] for s, m in BENCH_CELLS]
                lines.append(method + suffix + " " + " ".join(f"{v:.6f}" for v in cells) + "\n")
        return lines


def _bench_worker(task) -> tuple[float, float]:
    truth, noise, master_seed, rep, cfg = task
    x = sample_noise(truth, NoiseModel(noise), SeedSpec(master_seed, rep))
    wf = estimate(x, cfg).values
    base = baseline_mad_estimate(x, cfg)
    return float(np.mean((wf - truth) ** 2)), float(np.mean((base - truth) ** 2))


def worker_count() -> int:
    return max(1, int(os.environ.get("FISZKIT_THREADS", "1")))


def run_bench(reps: int, n: int, master_seed: int, cfg: EstimatorConfig) -> BenchReport:
    """Run all four cells; deterministic regardless of worker count.

    Replication r uses the stream keyed by (master_seed, r), r = 1..reps,
    and results are gathered by task order, so parallelism cannot change
    the report.
    """
    reps = _as_integer("reps", reps, 1)
    truths = {signal: SIGNAL_GENERATORS[signal](n, lo, hi)
              for signal, (lo, hi) in BENCH_RANGES.items()}
    tasks = [(truths[signal], noise, master_seed, rep, cfg)
             for signal, noise in BENCH_CELLS
             for rep in range(1, reps + 1)]
    workers = worker_count()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, so only here
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_bench_worker, tasks, chunksize=4))
    else:
        results = [_bench_worker(t) for t in tasks]
    mse = {}
    for i, (signal, noise) in enumerate(BENCH_CELLS):
        cell = results[i * reps:(i + 1) * reps]
        mse[(signal, noise, "wavefisz")] = np.array([r[0] for r in cell])
        mse[(signal, noise, "mad-baseline")] = np.array([r[1] for r in cell])
    return BenchReport(reps, n, master_seed, mse)


def cmd_bench(args, cfg: EstimatorConfig) -> int:
    report = run_bench(args.reps, args.n, args.seed, cfg)
    write_lines(args.out, report.as_lines())
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fiszkit",
                                     description="Wavelet denoising with mean-linked thresholds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a benchmark signal and a noisy sample")
    p.add_argument("--signal", choices=sorted(SIGNAL_GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--noise", choices=NOISE_KINDS, required=True)
    p.add_argument("--sigma", type=float, default=None, help="noise sd for --noise gaussian")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix (writes <out>_truth.txt, <out>_noisy.txt)")
    p.set_defaults(func=cmd_simulate, config=_simulate_config)

    p = sub.add_parser("estimate", help="denoise a series from a file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    law = p.add_mutually_exclusive_group()  # the MAD comparator takes no variance law
    law.add_argument("--known-h", choices=NOISE_KINDS, default=None)
    p.add_argument("--sigma", type=float, default=None, help="noise sd for --known-h gaussian")
    law.add_argument("--baseline", action="store_true",
                     help="use the running-MAD comparator instead")
    p.add_argument("--emit-plots", action="store_true")
    _add_estimator_flags(p, default_m=1)
    p.set_defaults(func=cmd_estimate, config=_estimator_config)

    p = sub.add_parser("varfn", help="estimate the mean-to-variance step function")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-plots", action="store_true",
                   help="also write the square-root step function")
    _add_varfn_flags(p, default_m=3)
    p.set_defaults(func=cmd_varfn, config=_varfn_config)

    vst = sub.add_parser("vst", help="variance-stabilise a series, or undo it")
    modes = vst.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("forward", help="divide each detail coefficient by its fitted sd")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--divisors", required=True, help="divisor file to write")
    p.add_argument("--basis", default="haar", choices=BASIS_NAMES)
    _add_varfn_flags(p, default_m=1)
    p.set_defaults(func=cmd_vst_forward, config=_varfn_config)
    p = modes.add_parser("inverse", help="multiply the coefficients back by recorded divisors")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--divisors", required=True, help="divisor file written by vst forward")
    p.set_defaults(func=cmd_vst_inverse, config=lambda _args: None)

    p = sub.add_parser("bench", help="mean-squared-error table over seeded replications")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_estimator_flags(p, default_m=1)
    p.set_defaults(func=cmd_bench, config=_bench_config,  # the fitted law, no sidecars
                   known_h=None, sigma=None, baseline=False, emit_plots=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Flags are turned into config objects before any file is read, so a
    # value the configs reject is a usage error (exit 2), not a data error.
    try:
        cfg = args.config(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args, cfg)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"fiszkit: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
