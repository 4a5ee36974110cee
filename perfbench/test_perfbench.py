"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys

import numpy as np
import pytest

import tracing
from run import END_TO_END
from workloads import ROOT, WORKLOADS, TiDenoise, import_fiszkit

fz = import_fiszkit()


def test_self_times_subtract_child_coverage():
    spans = [
        [0, 0.0, 10.0, -1],   # root
        [1, 1.0, 3.0, 0],     # child
        [2, 1.5, 2.5, 1],     # grandchild: counts against the child only
        [3, 2.0, 4.0, 0],     # overlaps the first child: [1, 4] is covered once
        [4, 9.0, 12.0, 0],    # runs past the root: only [9, 10] is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0, 3.0])


def _all_bindings():
    return {label: tracing._bindings(label) for label in tracing.LABELS}


def test_tracer_wraps_callers_names_and_restores_them():
    before = _all_bindings()
    # estimator looks dwt_forward up in its own namespace; that is where it must be wrapped
    assert any(ns is fz.estimator for ns, _, _ in before["wavelet.dwt_forward"])
    x = fz.sample_noise(fz.make_blocks(64, 1.0, 22.6), fz.NoiseModel("poisson"), fz.SeedSpec(3, 1))
    original = fz.estimator.dwt_forward
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert fz.estimator.dwt_forward is not original
            fz.estimate(x)
            tracer.end_op(1.0)
            raise RuntimeError("leave the tracer by an exception")
    calls = dict(zip(tracing.LABELS, tracer.calls))
    assert calls["estimator.estimate"] == 1
    assert calls["wavelet.dwt_forward"] == 64  # one per circular shift
    assert calls["varfn.VarianceEstimate.query"] == 64 * 4  # one per shift and thresholded level
    for label, bindings in before.items():
        for ns, name, fn in bindings:
            assert getattr(ns, name) is fn, f"{label} still wrapped at {ns}.{name}"
    assert _all_bindings() == before


def test_peak_alloc_sees_the_kernel_matrix_and_restores():
    x = fz.sample_noise(fz.make_bumps(4096, 3.0, 23.21), fz.NoiseModel("exponential"),
                        fz.SeedSpec(3, 1))
    original = fz.estimator.estimate_variance_function
    with tracing.peak_alloc() as peaks:
        fz.estimate(x, fz.EstimatorConfig(translation_invariant=False))
    assert fz.estimator.estimate_variance_function is original
    assert len(peaks) == 1 and peaks[0] >= 256 * 4096 * 8  # the dense grid x n weights


@pytest.fixture(scope="module")
def ti(tmp_path_factory):
    return TiDenoise(1, tmp_path_factory.mktemp("ti"))


def test_check_accepts_reordering_noise_and_rejects_real_changes(ti):
    op = ti.make_op("exponential-bumps", 1)
    good = op.run()["values"]
    assert ti.check(op, {"values": good}) is None
    rng = np.random.default_rng(0)
    reordered = good + 1.6e-13 * rng.choice([-1.0, 1.0], good.size)
    assert ti.check(op, {"values": reordered}) is None
    one_sample = good.copy()
    one_sample[777] *= 1 + 1e-5
    assert ti.check(op, {"values": one_sample}) is not None
    x = op.input
    wrong_threshold = fz.estimate(x, fz.EstimatorConfig(
        known_variance=lambda u: 1.02 * np.asarray(u, dtype=float) ** 2)).values
    assert ti.check(op, {"values": wrong_threshold}) is not None
    default_levels = x.size.bit_length() - 1 - 2
    dropped_level = fz.estimate(x, fz.EstimatorConfig(
        max_level=default_levels - 1,
        known_variance=lambda u: np.asarray(u, dtype=float) ** 2)).values
    assert ti.check(op, {"values": dropped_level}) is not None


def test_check_rejects_a_perturbed_mse(tmp_path):
    mc = WORKLOADS["mc-table"](1, tmp_path)
    op = mc.make_op("bumps-poisson", 7)
    out = op.run()
    assert mc.check(op, out) is None
    assert mc.check(op, dict(out, mse_baseline=out["mse_baseline"] * (1 + 1e-7))) is not None


def _content(x):
    return x.read_bytes() if hasattr(x, "read_bytes") else np.asarray(x).tobytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name, tmp_path):
    def first_ops(seed, run):
        workdir = tmp_path / f"{seed}-{run}"
        workdir.mkdir()
        wl = WORKLOADS[name](seed, workdir)
        return [(op.kind, op.rep, _content(op.input)) for _, op in zip(range(8), wl.ops())]

    a, b, c = first_ops(5, "a"), first_ops(5, "b"), first_ops(6, "a")
    assert a == b
    assert a != c


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER_SPECS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-table",
                          "--seed", "4", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _ in END_TO_END] if trace == 0 else [n for n, _, _ in tracing.PER_LAYER_SPECS]
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
