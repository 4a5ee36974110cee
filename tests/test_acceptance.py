"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The benchmark table
(criteria 1-2) honours FISZKIT_THREADS, so exporting it speeds this module
up without changing any number in it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from fiszkit import (EstimatorConfig, NoiseModel, SeedSpec, VarFnConfig,
                     baseline_mad_estimate, denoise_via_vst, dwt_forward,
                     dwt_inverse, estimate, estimate_variance_function,
                     forward_vst, make_blocks, make_bumps, pava_isotone,
                     running_mean, sample_noise)
from fiszkit.cli import BENCH_CELLS, run_bench
from test_varfn import pava_oracle

TABLE_TARGETS = {("blocks", "exponential"): 4.02, ("blocks", "poisson"): 0.52,
                 ("bumps", "exponential"): 2.51, ("bumps", "poisson"): 0.54}


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bench_report():
    # seeds 1..100 via replication streams keyed off master seed 1; shift
    # thinning (128 of 2048 shifts) keeps the run inside the time budget
    return run_bench(reps=100, n=2048, master_seed=1, cfg=EstimatorConfig(shift_stride=16))


def test_criterion_1_benchmark_ordering(bench_report):
    rows = []
    ok = True
    for signal, noise in BENCH_CELLS:
        wf = bench_report.cell_stats(signal, noise, "wavefisz")[0]
        base = bench_report.cell_stats(signal, noise, "mad-baseline")[0]
        ok &= wf < base
        rows.append(f"{signal}/{noise}: {wf:.3f} < {base:.3f}")
    report(1, ok, "mean-linked estimator beats MAD baseline in every cell -- "
           + "; ".join(rows))


def test_criterion_2_benchmark_magnitudes(bench_report):
    rows = []
    ok = True
    for (signal, noise), target in TABLE_TARGETS.items():
        got = bench_report.cell_stats(signal, noise, "wavefisz")[0]
        ratio = got / target
        ok &= 1 / 1.5 <= ratio <= 1.5
        rows.append(f"{signal}/{noise}: {got:.3f} (target {target}, x{ratio:.2f})")
    report(2, ok, "cell means within factor 1.5 of published values -- " + "; ".join(rows))


def test_criterion_3_exact_numerics():
    rng = np.random.default_rng(1003)
    worst_rt, worst_pv = 0.0, 0.0
    for n in (8, 64, 2048):
        for _ in range(100):
            x = rng.normal(scale=3.0, size=n)
            p = dwt_forward(x)
            worst_rt = max(worst_rt, float(np.max(np.abs(dwt_inverse(p) - x))))
            energy = float(np.sum(x**2))
            worst_pv = max(worst_pv, abs(p.energy() - energy) / energy)
    report(3, worst_rt < 1e-10 and worst_pv < 1e-12,
           f"round-trip sup {worst_rt:.2e} < 1e-10, energy rel err {worst_pv:.2e} < 1e-12")


def test_criterion_4_pava_oracle_equivalence():
    rng = np.random.default_rng(1004)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 5.0, size=n)
        if not np.array_equal(pava_isotone(v, w), pava_oracle(v, w)):
            mismatches += 1
    report(4, mismatches == 0,
           f"{500 - mismatches}/500 random inputs equal the exhaustive minimizer exactly")


def test_criterion_5_three_step_decomposition():
    cfg = EstimatorConfig(translation_invariant=False)
    worst = 0.0
    for n in (256, 2048):
        truth = make_blocks(n, 1.0, 22.6)
        for seed in range(1, 26):
            x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(1005, seed))
            direct = estimate(x, cfg).values
            via = denoise_via_vst(x, cfg)
            worst = max(worst, float(np.max(np.abs(direct - via))))
    report(5, worst < 1e-9,
           f"stabilise-threshold-invert equals the direct estimator, sup diff {worst:.2e} < 1e-9")


def test_criterion_6_variance_function_recovery():
    # Poisson blocks: relative error of the fitted map at the fit-value quartiles
    truth_b = make_blocks(2048, 1.0, 22.6)
    rel = np.zeros(3)
    for seed in range(1, 21):
        x = sample_noise(truth_b, NoiseModel("poisson"), SeedSpec(1006, seed))
        est = estimate_variance_function(x, VarFnConfig(half_window=3))
        fit = running_mean(x, 3)
        qs = np.quantile(fit, [0.25, 0.5, 0.75])
        rel += np.array([abs(est.query(q) - q) / q for q in qs])
    rel /= 20

    # Exponential bumps: sqrt of the fitted map tracks the mean linearly.
    # The smoothing bandwidth is fixed at 6.0 here: the automatic rule is a
    # deliberately crude stand-in, and the squared residuals of this model
    # are heavy-tailed enough that an analyst would smooth much harder.
    truth_m = make_bumps(2048, 3.0, 23.21)
    corrs = []
    for seed in range(1, 21):
        x = sample_noise(truth_m, NoiseModel("exponential"), SeedSpec(1006, seed))
        est = estimate_variance_function(x, VarFnConfig(half_window=3, bandwidth=6.0))
        m = est.populated
        corrs.append(np.corrcoef(np.sqrt(est.values[m]), est.grid_u[m])[0, 1])
    corr = float(np.mean(corrs))
    ok = bool(np.all(rel < 0.25) and corr > 0.95)
    report(6, ok, f"poisson quartile rel err {np.round(rel, 3).tolist()} < 0.25; "
           f"exponential sqrt-map correlation {corr:.4f} > 0.95")


def _pooled_level_stds(signals, max_level):
    per_level = [[] for _ in range(max_level)]
    for s in signals:
        p = dwt_forward(s)
        for j in range(max_level):
            per_level[j].extend(p.details[j].tolist())
    return np.array([np.std(v) for v in per_level])


def test_criterion_7_variance_stabilisation():
    # constant truth: stabilised detail spread near-equal across levels
    const = np.full(2048, 10.0)
    transformed = []
    for seed in range(1, 21):
        x = sample_noise(const, NoiseModel("exponential"), SeedSpec(1007, seed))
        hhat = estimate_variance_function(x, VarFnConfig(half_window=1))
        transformed.append(forward_vst(x, hhat)[0])
    stds = _pooled_level_stds(transformed, 9)
    const_ratio = float(stds.max() / stds.min())

    # two-level step: group coefficients by which half they sit in; the raw
    # data are strongly heteroscedastic across groups, the transform is not
    step = np.where(np.arange(2048) < 1024, 3.0, 20.0)
    ratios = {"raw": [], "stabilised": []}
    for seed in range(1, 21):
        x = sample_noise(step, NoiseModel("exponential"), SeedSpec(1008, seed))
        hhat = estimate_variance_function(x, VarFnConfig(half_window=1))
        xt = forward_vst(x, hhat)[0]
        for label, sig in (("raw", x), ("stabilised", xt)):
            p = dwt_forward(sig)
            lo, hi = [], []
            for j in range(5, 9):
                block = 2048 >> j
                ks = np.arange(1 << j)
                lo.extend(p.details[j][(ks + 1) * block <= 1024].tolist())
                hi.extend(p.details[j][ks * block >= 1024].tolist())
            ratios[label].append(np.std(hi) / np.std(lo))
    raw_ratio = float(np.mean(ratios["raw"]))
    vst_ratio = float(np.mean(ratios["stabilised"]))
    ok = const_ratio <= 2.0 and raw_ratio > 4.0 and vst_ratio <= 2.0 and raw_ratio > vst_ratio
    report(7, ok, f"constant-truth level-std ratio {const_ratio:.2f} <= 2; step signal: "
           f"raw group ratio {raw_ratio:.2f} > 4 vs stabilised {vst_ratio:.2f} <= 2")


def test_criterion_8_error_decreases_with_length():
    means = []
    for n in (512, 2048, 8192):
        truth = make_blocks(n, 1.0, 22.6)
        cfg = EstimatorConfig(shift_stride=max(1, n // 64))
        mses = []
        for seed in range(1, 31):
            x = sample_noise(truth, NoiseModel("poisson"), SeedSpec(1009, seed))
            mses.append(float(np.mean((estimate(x, cfg).values - truth) ** 2)))
        means.append(float(np.mean(mses)))
    ok = means[0] > means[1] > means[2]
    report(8, ok, "mean MSE strictly decreases with n: "
           + " > ".join(f"{m:.4f}" for m in means))


def test_criterion_9_scale_equivariance():
    truth = make_bumps(2048, 3.0, 23.21)
    cfg = EstimatorConfig(known_variance=lambda u: np.asarray(u, float) ** 2,
                          rule="hard", translation_invariant=False)
    masks_equal = True
    worst = 0.0
    for seed in range(1, 21):
        x = sample_noise(truth, NoiseModel("exponential"), SeedSpec(1010, seed))
        r1 = estimate(x, cfg)
        r3 = estimate(3.0 * x, cfg)
        for a, b in zip(r1.survivors, r3.survivors):
            masks_equal &= bool(np.array_equal(a, b))
        scale = float(np.max(np.abs(r1.values)))
        worst = max(worst, float(np.max(np.abs(r3.values - 3.0 * r1.values))) / (3.0 * scale))
    report(9, masks_equal and worst < 1e-9,
           f"survivor masks identical under x -> 3x; outputs scale by 3 "
           f"(worst rel dev {worst:.2e} < 1e-9)")


def test_criterion_10_benchmark_thread_determinism(tmp_path):
    outputs = []
    for threads in ("1", "8"):
        out = tmp_path / f"report_{threads}.txt"
        env = dict(os.environ, FISZKIT_THREADS=threads)
        subprocess.run([sys.executable, "-m", "fiszkit.cli", "bench",
                        "--reps", "3", "--n", "256", "--seed", "5",
                        "--stride", "8", "--out", str(out)],
                       check=True, env=env)
        outputs.append(out.read_bytes())
    report(10, outputs[0] == outputs[1],
           "bench reports byte-identical with FISZKIT_THREADS=1 and =8")
