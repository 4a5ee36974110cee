"""Per-layer spans of fiszkit functions, installed from outside the package.

A traced function is replaced at every name a caller can look it up by:
``estimator`` does ``from .wavelet import dwt_forward``, so the wrapper
must sit at ``fiszkit.estimator.dwt_forward`` as well as at
``fiszkit.wavelet.dwt_forward``. A method is replaced on its class. All
originals are put back when the tracer exits.

Spans live in memory as ``[label index, start, end, parent index]``.
``Tracer.end_op`` folds one op's spans into per-function totals and drops
them, so memory stays bounded by one op however fast the program gets.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from contextlib import ExitStack, contextmanager
from time import perf_counter

TARGETS = {
    "wavelet": ("dwt_forward", "dwt_inverse", "local_means"),
    "varfn": ("estimate_variance_function", "preliminary_fit", "pava_isotone",
              "VarianceEstimate.query"),
    "estimator": ("estimate", "baseline_mad_estimate", "thresholds_data_driven",
                  "thresholds_known_h", "apply_threshold"),
    "vst": ("forward_vst", "inverse_vst", "divisors_as_lines", "divisors_from_lines"),
    "signals": ("sample_noise",),
    "cli": ("main", "read_series", "write_series", "write_lines"),
}
LABELS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
ALLOC_LABEL = "varfn.estimate_variance_function"

# (suffix, unit, better) of the four metrics recorded for every label.
PER_FUNCTION = (("calls", "1/op", "lower"), ("self_s", "s/op", "lower"),
                ("share", "ratio", "lower"), ("errors", "count", "lower"))
EXTRA = ((f"{ALLOC_LABEL}.peak_alloc_mb", "MB", "lower"),
         ("estimator.transforms_per_call", "ratio", "lower"),
         ("estimator.survivor_fraction", "ratio", "higher"),
         ("trace.overhead", "ratio", "higher"),
         ("trace.coverage", "ratio", "higher"))
PER_LAYER_SPECS = tuple((f"{label}.{suffix}", unit, better)
                        for label in LABELS
                        for suffix, unit, better in PER_FUNCTION) + EXTRA


def _original(label: str):
    mod, _, path = label.partition(".")
    obj = sys.modules[f"fiszkit.{mod}"]
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.rsplit(".", 1)[-1], obj


def _bindings(label: str) -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, original) through which callers reach ``label``."""
    owner, attr, fn = _original(label)
    if isinstance(owner, type):
        return [(owner, attr, fn)]
    return [(mod, name, fn)
            for modname, mod in list(sys.modules.items())
            if modname == "fiszkit" or modname.startswith("fiszkit.")
            for name, value in list(vars(mod).items()) if value is fn]


@contextmanager
def patched(label: str, make_wrapper):
    """Replace ``label`` by ``make_wrapper(original)`` at every binding."""
    bindings = _bindings(label)
    wrapper = make_wrapper(bindings[0][2])
    try:
        for ns, name, _ in bindings:
            setattr(ns, name, wrapper)
        yield
    finally:
        for ns, name, fn in bindings:
            setattr(ns, name, fn)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Context manager that wraps every label in ``LABELS`` with a span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls = [0] * len(LABELS)
        self.self_s = [0.0] * len(LABELS)
        self.errors = [0] * len(LABELS)
        self.survivors = [0, 0]  # kept, thresholded (unshifted pass of each estimate)
        self.ops = 0
        self.op_wall = 0.0
        self._patches = ExitStack()

    def __enter__(self):
        try:
            for i, label in enumerate(LABELS):
                self._patches.enter_context(patched(label, functools.partial(self._wrap, i)))
        except BaseException:
            self._patches.close()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.close()

    def _wrap(self, idx: int, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        on_return = self._count_survivors if LABELS[idx] == "estimator.estimate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([idx, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                errors[idx] += 1
                raise
            finally:
                stack.pop()
                spans[i][2] = perf_counter()
            if on_return:
                on_return(out)
            return out
        return wrapper

    def _count_survivors(self, result) -> None:
        for mask in result.survivors:
            self.survivors[0] += int(mask.sum())
            self.survivors[1] += mask.size

    def end_op(self, wall: float) -> None:
        """Fold the spans of the op that just ended (``wall`` seconds) into totals."""
        for (idx, *_), s in zip(self.spans, self_times(self.spans)):
            self.calls[idx] += 1
            self.self_s[idx] += s
        self.spans.clear()
        self.ops += 1
        self.op_wall += wall

    def metrics(self, speed_factor: float, overhead: float, peak_alloc_bytes: float) -> dict:
        """Every metric of ``PER_LAYER_SPECS``, by name.

        Self times are divided by the traced loop's calibration ``speed_factor``,
        like every op time of the benchmark; ``overhead`` is traced over
        untraced ``ops_per_s``.
        """
        ops = max(self.ops, 1)
        wall = self.op_wall or float("nan")
        out = {}
        for i, label in enumerate(LABELS):
            out[f"{label}.calls"] = self.calls[i] / ops
            out[f"{label}.self_s"] = self.self_s[i] / speed_factor / ops
            out[f"{label}.share"] = self.self_s[i] / wall
            out[f"{label}.errors"] = self.errors[i]
        calls = dict(zip(LABELS, self.calls))
        denom = calls["estimator.estimate"] + calls["estimator.baseline_mad_estimate"]
        out[f"{ALLOC_LABEL}.peak_alloc_mb"] = peak_alloc_bytes / 2**20
        out["estimator.transforms_per_call"] = calls["wavelet.dwt_forward"] / denom if denom else 0.0
        kept, seen = self.survivors
        out["estimator.survivor_fraction"] = kept / seen if seen else 0.0
        out["trace.overhead"] = overhead
        out["trace.coverage"] = sum(self.self_s) / wall
        return out


@contextmanager
def peak_alloc():
    """Yield a list that receives the tracemalloc peak (bytes) of each variance fit."""
    peaks: list[int] = []

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    with patched(ALLOC_LABEL, make):
        yield peaks
