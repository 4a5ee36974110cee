"""Check that this checkout computes the same bits as another tree.

Usage: python .github/scripts/identity.py --against REV|DIR [--min-n N] [--max-n N]

REV is a git revision of this repository, exported with ``git archive``; DIR
is a directory that holds ``src/fiszkit``. Each tree runs in its own process
and imports fiszkit from its own ``src/`` only. Both run this file's cases on
the same seeded inputs and stream every output array to this process, which
compares them byte for byte as they arrive. Nothing is hashed or stored, so
the check does not depend on the platform or the numpy version.

The cases, at n = 2^3 ... 2^14 by default (``--max-n`` up to 2^17), for
Poisson blocks and exponential bumps:

- the variance fit of ``estimate`` (M = 1) and of ``fiszkit varfn`` (M = 3):
  every ``VarianceEstimate`` array and number;
- for each of the four bases, under full averaging, stride 16 and
  ``--no-ti``: ``estimate`` values, thresholds and survivors with the fitted
  and the known law, hard and soft, and ``baseline_mad_estimate``;
- for each basis: ``forward_vst`` output and divisors, and ``inverse_vst``
  of that output;
- the bytes of every file the CLI writes, run through ``cli.main`` in a
  temporary directory of each tree on the series ``write_series`` wrote:
  ``estimate`` plain, with ``--emit-plots``, with ``--baseline`` and with
  ``--known-h`` set to the input's law; ``varfn``; ``vst forward`` and
  ``vst inverse``. Each file is a ``uint8`` array named by its command line.

A case that raises ValueError, or a CLI run that exits non-zero, is compared
by its message. Every array that differs is printed with its largest relative
difference, entry by entry, and its largest absolute difference over its
largest finite |value|, which stays at rounding level where an entry near
zero makes the first figure large.
Their count follows; the exit code is 1 if any differ, 0 with no difference,
and 2 on a usage or set-up error. A change that moves outputs on purpose
quotes that list.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import zip_longest
from math import prod
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
INPUTS = (("blocks", "poisson", 1.0, 22.6), ("bumps", "exponential", 3.0, 23.21))
MODES = {"full": {}, "stride16": {"shift_stride": 16}, "no-ti": {"translation_invariant": False}}


# ------------------------------------------------------------------ one tree

def cases(fz, n: int):
    """Yield (name, array or ValueError) for every output of one size."""
    from functools import partial

    for k, (signal, noise, lo, hi) in enumerate(INPUTS):
        truth = getattr(fz, f"make_{signal}")(n, lo, hi)
        x = fz.sample_noise(truth, fz.NoiseModel(noise), fz.SeedSpec(25, k + n))
        tag = f"n={n} {signal}-{noise}"
        fits = {}
        for m in (1, 3):
            name = f"{tag} varfn M={m}"
            try:
                fits[m] = est = fz.estimate_variance_function(x, fz.VarFnConfig(half_window=m))
            except ValueError as exc:
                yield name, exc
                continue
            for field in ("grid_u", "values", "populated", "floor_eps", "bandwidth",
                          "half_window"):
                yield f"{name} {field}", np.asarray(getattr(est, field))
        known = partial(fz.true_variance_function, fz.NoiseModel(noise))
        for basis_name in fz.wavelet.BASIS_NAMES:
            basis = fz.wavelet.basis_by_name(basis_name)
            for mode, opts in MODES.items():
                for law in ("fitted", "known"):
                    for rule in ("hard", "soft"):
                        cfg = fz.EstimatorConfig(basis=basis, rule=rule, **opts,
                                                 known_variance=known if law == "known" else None)
                        yield from _estimate(fz, x, cfg, f"{tag} {basis_name} {mode} {law} {rule}")
                name = f"{tag} {basis_name} {mode} mad"
                try:
                    yield name, fz.baseline_mad_estimate(x, fz.EstimatorConfig(basis=basis, **opts))
                except ValueError as exc:
                    yield name, exc
            yield from _vst(fz, x, fits.get(1), basis, f"{tag} {basis_name} vst")
        yield from _cli(fz, x, noise, f"{tag} cli")


def _estimate(fz, x, cfg, name):
    try:
        res = fz.estimate(x, cfg)
    except ValueError as exc:
        yield name, exc
        return
    yield f"{name} values", res.values
    for j, (thr, surv) in enumerate(zip(res.thresholds, res.survivors)):
        yield f"{name} thresholds[{j}]", thr
        yield f"{name} survivors[{j}]", surv


def _vst(fz, x, fit, basis, name):
    if fit is None:
        return
    try:
        xt, state = fz.forward_vst(x, fit, basis)
    except ValueError as exc:
        yield name, exc
        return
    yield f"{name} forward", xt
    for j, d in enumerate(state.divisors):
        yield f"{name} divisors[{j}]", d
    try:
        yield f"{name} inverse", fz.inverse_vst(xt, state)
    except ValueError as exc:
        yield f"{name} inverse", exc


def _cli(fz, x, law: str, name):
    """Run each CLI command on ``x`` written to a file; yield the bytes of every file it writes.

    Each command writes into its own numbered directory; ``vst inverse``
    reads what ``vst forward`` wrote. Paths are named relative to the
    temporary directory, so both trees give the same names.
    """
    cli = importlib.import_module(fz.__name__ + ".cli")
    commands = [["estimate", "--in", "x.txt", "--out", "0/out.txt"],
                ["estimate", "--in", "x.txt", "--out", "1/out.txt", "--emit-plots"],
                ["estimate", "--in", "x.txt", "--out", "2/out.txt", "--baseline"],
                ["estimate", "--in", "x.txt", "--out", "3/out.txt", "--known-h", law],
                ["varfn", "--in", "x.txt", "--out", "4/out.txt"],
                ["vst", "forward", "--in", "x.txt", "--out", "5/out.txt",
                 "--divisors", "5/div.txt"],
                ["vst", "inverse", "--in", "5/out.txt", "--out", "6/out.txt",
                 "--divisors", "5/div.txt"]]
    with tempfile.TemporaryDirectory(prefix="identity-cli-") as tmp:
        tmp = Path(tmp)
        cli.write_series(tmp / "x.txt", x)
        for i, argv in enumerate(commands):
            (tmp / str(i)).mkdir()
            label = f"{name} {' '.join(argv)}"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([str(tmp / a) if a.endswith(".txt") else a for a in argv])
                except SystemExit as exc:
                    code = exc.code
            if code:
                yield label, ValueError(f"exit {code}: {stderr.getvalue().replace(str(tmp), '')}")
                continue
            for path in sorted((tmp / str(i)).iterdir()):
                yield f"{label}: {i}/{path.name}", np.frombuffer(path.read_bytes(), np.uint8)


def emit(tree: Path, sizes: list[int]) -> int:
    """Write every case of ``tree``'s fiszkit to stdout: a JSON head line, then the raw bytes."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import fiszkit as fz
    if Path(fz.__file__).resolve().parent != src / "fiszkit":
        print(f"identity: fiszkit imported from {fz.__file__}, not {src}", file=sys.stderr)
        return 2
    out = sys.stdout.buffer
    for n in sizes:
        for name, value in cases(fz, n):
            if isinstance(value, ValueError):
                out.write(json.dumps({"name": name, "error": str(value)}).encode() + b"\n")
                continue
            value = np.ascontiguousarray(value)
            head = {"name": name, "dtype": value.dtype.str, "shape": value.shape}
            out.write(json.dumps(head).encode() + b"\n")
            out.write(value.tobytes())
        out.flush()
    return 0


# ------------------------------------------------------------ the comparison

def records(stream):
    """Yield (name, array or error message) from one tree's output stream."""
    while line := stream.readline():
        head = json.loads(line)
        if "error" in head:
            yield head["name"], head["error"]
            continue
        dtype, shape = np.dtype(head["dtype"]), tuple(head["shape"])
        data = stream.read(dtype.itemsize * prod(shape))
        yield head["name"], np.frombuffer(data, dtype).reshape(shape)


def difference(a, b) -> str | None:
    """None where ``a`` and ``b`` hold the same bits, else how they differ.

    A string is the message of a case that raised ValueError.
    """
    if isinstance(a, str) and isinstance(b, str):
        return None if a == b else f"raises {a!r} here, {b!r} there"
    if isinstance(a, str) or isinstance(b, str):
        return f"raises {a if isinstance(a, str) else b!r} in one tree only"
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} here, {b.dtype}{list(b.shape)} there"
    if a.tobytes() == b.tobytes():
        return None
    if a.dtype.kind != "f":
        return f"{np.count_nonzero(a != b)} of {a.size} entries differ"
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return "NaN at different entries"
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        diff = np.where((a == b) | np.isnan(a), 0.0, np.abs(a - b))  # NaN sits at the same entries
        if not diff.any():
            return "same values, different bits (signed zeros or NaN payloads)"
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=diff > 0)
        rel[np.isnan(rel)] = np.inf  # inf / inf: an infinity against another value
        top = np.max(scale, where=np.isfinite(scale), initial=0.0)
        return (f"largest relative difference {np.max(rel):.3g}, "
                f"largest difference {np.max(diff) / top:.3g} of the largest finite |value|")


def walk(streams, label: str):
    """Walk both record streams in step; return (identical arrays, differing arrays, problem).

    Each differing array is printed as it is found. The problem, or None, is
    what stopped the walk early: a stream that ended early or a different
    case order.
    """
    count, differ, size, t0 = 0, 0, None, time.perf_counter()
    for here, there in zip_longest(*(records(s) for s in streams)):
        if here is None or there is None:
            side = "this checkout" if here is None else label
            return count, differ, f"{side} stopped before {(here or there)[0]!r}"
        (name, a), (name_there, b) = here, there
        if name != name_there:
            return count, differ, f"case order differs: {name!r} here, {name_there!r} there"
        n = name.split()[0]
        if size not in (None, n):
            print(f"{size} done: {count} arrays identical ({time.perf_counter() - t0:.1f} s)",
                  flush=True)
        size = n
        reason = difference(a, b)
        if not reason:
            count += 1
        else:
            print(f"DIFFERS: {name}: {reason}", flush=True)
            differ += 1
    print(f"{size} done: {count} arrays identical ({time.perf_counter() - t0:.1f} s)")
    return count, differ, None


def compare(here: Path, there: Path, sizes: list[int], label: str) -> int:
    procs = [subprocess.Popen([sys.executable, __file__, "--emit", str(tree),
                               "--sizes", ",".join(map(str, sizes))], stdout=subprocess.PIPE)
             for tree in (here, there)]
    count, differ, problem = 0, 0, "interrupted"
    try:
        count, differ, problem = walk([p.stdout for p in procs], label)
    finally:
        for p in procs:
            if problem:  # a tree still writing would block on its full pipe
                p.kill()
            p.wait()
            p.stdout.close()
    if not problem and any(p.returncode for p in procs):
        problem = f"a tree exited with {[p.returncode for p in procs]}"
    if problem:
        print(f"{problem} (after {count} identical arrays)")
        return 1
    if differ:
        print(f"{differ} arrays differ against {label}, {count} identical, "
              f"at n = {sizes[0]} ... {sizes[-1]}")
        return 1
    print(f"no difference against {label}: {count} arrays at n = {sizes[0]} ... {sizes[-1]}")
    return 0


def export(rev: str, dest: Path) -> Path:
    """``git archive`` of ``rev``'s ``src/`` under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", help="git revision or directory holding src/fiszkit")
    parser.add_argument("--min-n", type=int, default=1 << 3)
    parser.add_argument("--max-n", type=int, default=1 << 14)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--sizes", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        return emit(args.emit, [int(s) for s in args.sizes.split(",")])
    if not args.against:
        parser.error("--against is required")
    if not 8 <= args.min_n <= args.max_n <= 1 << 17:
        parser.error("need 8 <= --min-n <= --max-n <= 2^17")
    sizes = [1 << k for k in range(args.min_n.bit_length() - 1, args.max_n.bit_length())]
    if Path(args.against).is_dir():
        tree = Path(args.against)
        if not (tree / "src" / "fiszkit" / "__init__.py").is_file():
            parser.error(f"no src/fiszkit under {tree}")
        return compare(ROOT, tree, sizes, str(tree))
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        try:
            tree = export(args.against, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"identity: git archive {args.against}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        return compare(ROOT, tree, sizes, args.against)


if __name__ == "__main__":
    sys.exit(main())
