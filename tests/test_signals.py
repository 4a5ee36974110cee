import math
import re

import numpy as np
import pytest

from fiszkit import (EXPONENTIAL, GAUSSIAN, POISSON, EstimatorConfig, NoiseModel, SeedSpec,
                     VarFnConfig, default_bandwidth, hard_threshold, make_blocks, make_bumps,
                     make_doppler, make_heavisine, rescale_to_range, running_mean, sample_noise,
                     true_variance_function, universal_factor)
from fiszkit.cli import run_bench
from fiszkit.signals import as_signal
from fiszkit.wavelet import cycle_spin, haar

# Independent scalar evaluation of the published signal formulas; kept as
# plain loops so the generators are checked against a second code path.
T_J = [0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81]
BLOCKS_H = [4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2]
BUMPS_H = [4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2]
BUMPS_W = [0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005]


def sign(v):
    return 0.0 if v == 0 else (1.0 if v > 0 else -1.0)


def blocks_raw_scalar(t):
    return sum(h * (1 + sign(t - tj)) / 2 for h, tj in zip(BLOCKS_H, T_J))


def bumps_raw_scalar(t):
    return sum(h * (1 + abs((t - tj) / w)) ** -4
               for h, tj, w in zip(BUMPS_H, T_J, BUMPS_W))


def doppler_raw_scalar(t):
    return math.sqrt(t * (1 - t)) * math.sin(2 * math.pi * 1.05 / (t + 0.05))


def heavisine_raw_scalar(t):
    return 4 * math.sin(4 * math.pi * t) - sign(t - 0.3) - sign(0.72 - t)


def rescaled_scalar(raw, lo, hi):
    """The rescaling formula of ``docs/signal_constants.md``, value by value."""
    f_min, f_max = min(raw), max(raw)
    return [lo + (hi - lo) * (f - f_min) / (f_max - f_min) for f in raw]


class TestGenerators:
    def test_blocks_range(self):
        s = make_blocks(2048, 1.0, 22.6)
        assert s.size == 2048
        assert s.min() == pytest.approx(1.0)
        assert s.max() == pytest.approx(22.6)

    def test_bumps_range(self):
        s = make_bumps(2048, 3.0, 23.21)
        assert s.min() == pytest.approx(3.0)
        assert s.max() == pytest.approx(23.21)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            make_blocks(8, 5.0, 5.0)
        with pytest.raises(ValueError):
            make_bumps(8, 3.0, 3.0)
        with pytest.raises(ValueError):
            make_blocks(8, 7.0, 2.0)

    def test_non_dyadic_length_rejected(self):
        for n in (0, 1, 3, 2047):
            with pytest.raises(ValueError):
                make_blocks(n, 0.0, 1.0)

    def test_blocks_midpoint_against_scalar_formula(self):
        n = 2048
        raw = [blocks_raw_scalar(i / n) for i in range(1, n + 1)]
        lo, hi = min(raw), max(raw)
        expected = 1.0 + (22.6 - 1.0) * (raw[1023] - lo) / (hi - lo)
        s = make_blocks(n, 1.0, 22.6)
        assert s[1023] == pytest.approx(expected, rel=1e-12)

    def test_bumps_argmax_against_scalar_formula(self):
        n = 2048
        raw = [bumps_raw_scalar(i / n) for i in range(1, n + 1)]
        s = make_bumps(n, 3.0, 23.21)
        assert int(np.argmax(s)) == int(np.argmax(raw))

    @pytest.mark.parametrize("make, raw_scalar", [(make_doppler, doppler_raw_scalar),
                                                  (make_heavisine, heavisine_raw_scalar)],
                             ids=["doppler", "heavisine"])
    def test_extra_signals_against_scalar_formula(self, make, raw_scalar):
        n = 1024
        want = rescaled_scalar([raw_scalar(i / n) for i in range(1, n + 1)], 2.0, 9.0)
        got = make(n, 2.0, 9.0)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got.min() == 2.0 and got.max() == 9.0

    def test_constant_signal_cannot_be_rescaled(self):
        with pytest.raises(ValueError, match="cannot rescale a constant signal"):
            rescale_to_range(np.full(8, 3.0), 0.0, 1.0)

    def test_signal_must_be_one_dimensional(self):
        message = "signal must be one-dimensional, got shape (2, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            as_signal(np.ones((2, 4)))

    def test_affine_rescale_composes(self):
        s = make_bumps(256, 0.0, 1.0)
        twice = rescale_to_range(rescale_to_range(s, 2.0, 9.0), -1.0, 4.5)
        direct = rescale_to_range(s, -1.0, 4.5)
        np.testing.assert_allclose(twice, direct, rtol=0, atol=1e-12)


class TestVarianceFunction:
    def test_poisson_is_identity(self):
        assert true_variance_function(NoiseModel(POISSON), 7.0) == 7.0

    def test_exponential_is_square(self):
        assert true_variance_function(NoiseModel(EXPONENTIAL), 0.0) == 0.0
        assert true_variance_function(NoiseModel(EXPONENTIAL), 3.0) == 9.0
        assert true_variance_function(NoiseModel(EXPONENTIAL), -3.0) == 9.0

    def test_gaussian_is_constant(self):
        m = NoiseModel(GAUSSIAN, sigma=2.0)
        for u in (-5.0, 0.0, 1.0, 123.4):
            assert true_variance_function(m, u) == 4.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            true_variance_function(NoiseModel(POISSON), -1.0)


class TestSampling:
    def test_gaussian_sigma_zero_is_exact(self):
        truth = make_blocks(64, 1.0, 5.0)
        out = sample_noise(truth, NoiseModel(GAUSSIAN, sigma=0.0), SeedSpec(3))
        np.testing.assert_array_equal(out, truth)

    def test_bit_reproducible(self):
        truth = make_bumps(128, 3.0, 23.21)
        for kind in (POISSON, EXPONENTIAL, GAUSSIAN):
            a = sample_noise(truth, NoiseModel(kind), SeedSpec(42, 5))
            b = sample_noise(truth, NoiseModel(kind), SeedSpec(42, 5))
            np.testing.assert_array_equal(a, b)

    def test_distinct_replications_differ(self):
        truth = make_bumps(128, 3.0, 23.21)
        a = sample_noise(truth, NoiseModel(POISSON), SeedSpec(42, 1))
        b = sample_noise(truth, NoiseModel(POISSON), SeedSpec(42, 2))
        assert not np.array_equal(a, b)

    def test_positive_truth_required(self):
        bad = np.zeros(8)
        for kind in (POISSON, EXPONENTIAL):
            with pytest.raises(ValueError):
                sample_noise(bad, NoiseModel(kind), SeedSpec(1))

    def test_poisson_mean_moment(self):
        # constant truth 10; one long dyadic draw stands in for 1e5 repeats
        n = 1 << 17
        truth = np.full(n, 10.0)
        x = sample_noise(truth, NoiseModel(POISSON), SeedSpec(11))
        assert abs(x.mean() - 10.0) < 3 * np.sqrt(10.0 / n)

    def test_exponential_variance_moment(self):
        n = 1 << 17
        truth = np.full(n, 5.0)
        x = sample_noise(truth, NoiseModel(EXPONENTIAL), SeedSpec(12))
        assert abs(x.var() - 25.0) < 0.1 * 25.0

    @pytest.mark.parametrize("kind,sigma", [(POISSON, None), (EXPONENTIAL, None),
                                            (GAUSSIAN, 1.5)])
    def test_replication_average_converges(self, kind, sigma):
        # per-point mean and variance over 1e4 seeded replications match the
        # model within 3 standard errors
        reps = 10_000
        truth = make_blocks(8, 2.0, 9.0)
        model = NoiseModel(kind) if sigma is None else NoiseModel(kind, sigma=sigma)
        draws = np.stack([sample_noise(truth, model, SeedSpec(21, r)) for r in range(reps)])
        var_true = true_variance_function(model, truth)
        se_mean = np.sqrt(var_true / reps)
        assert np.all(np.abs(draws.mean(axis=0) - truth) < 3 * se_mean)
        resid = draws - truth
        m4 = np.mean(resid**4, axis=0)
        se_var = np.sqrt(np.maximum(m4 - var_true**2, 0) / reps)
        assert np.all(np.abs(draws.var(axis=0) - var_true) < 3 * se_var)


class TestSeedSpec:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(1 << 64)
        with pytest.raises(ValueError):
            SeedSpec(0, -2)

    def test_numpy_integers_key_the_python_stream(self):
        # np.int64(r) << 64 wraps to 0, so every replication used to draw replication 0
        truth = make_bumps(64, 3.0, 23.21)
        draws = []
        for r in np.arange(4):
            a = sample_noise(truth, NoiseModel(POISSON), SeedSpec(np.int64(1), r)).tobytes()
            assert a == sample_noise(truth, NoiseModel(POISSON), SeedSpec(1, int(r))).tobytes()
            draws.append(a)
        assert len(set(draws)) == 4
        spec = SeedSpec(np.uint64(2**64 - 1), np.int32(2))
        assert spec == SeedSpec(2**64 - 1, 2)
        assert type(spec.master_seed) is int and type(spec.replication_index) is int
        assert spec.generator().random() == SeedSpec(2**64 - 1, 2).generator().random()

    @pytest.mark.parametrize("bad", [1.5, "3", np.float64(2.0)])
    def test_non_integers_rejected(self, bad):
        message = f"master_seed must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SeedSpec(bad)
        with pytest.raises(ValueError, match="^replication_index must be an integer"):
            SeedSpec(1, bad)

    def test_noise_kind_validated(self):
        with pytest.raises(ValueError):
            NoiseModel("cauchy")

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf, -np.inf])
    def test_gaussian_sigma_validated(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            NoiseModel(GAUSSIAN, sigma=sigma)


def _resolved(max_level):
    cfg = EstimatorConfig()
    cfg.max_level = max_level  # set after __post_init__, so resolve_max_level sees it unchecked
    return cfg.resolve_max_level(3)


def _spin(shifts, max_level):
    return cycle_spin(np.arange(1.0, 17.0), haar(), shifts, max_level,
                      lambda j, rows: hard_threshold(rows, np.zeros_like(rows)))


# site: (call of one integer, its name in messages, low, high or None, a valid value)
INTEGER_SITES = {
    "SeedSpec master_seed": (SeedSpec, "master_seed", 0, 2**64 - 1, 7),
    "SeedSpec replication_index": (lambda v: SeedSpec(1, v), "replication_index",
                                   0, 2**64 - 1, 7),
    "make_blocks": (lambda v: make_blocks(v, 1, 2), "signal length", 2, None, 16),
    "running_mean": (lambda v: running_mean(np.arange(8.0), v), "half_window", 0, None, 1),
    "VarFnConfig half_window": (lambda v: VarFnConfig(half_window=v), "half_window", 0, None, 1),
    "VarFnConfig grid_size": (lambda v: VarFnConfig(grid_size=v), "grid_size", 2, None, 16),
    "default_bandwidth": (lambda v: default_bandwidth(np.linspace(1.0, 5.0, 64), v), "grid_size",
                          2, None, 16),
    "EstimatorConfig shift_stride": (lambda v: EstimatorConfig(shift_stride=v), "shift_stride",
                                     1, None, 2),
    "EstimatorConfig max_level": (lambda v: EstimatorConfig(max_level=v), "max_level",
                                  1, None, 2),
    "universal_factor": (universal_factor, "max_level", 1, None, 2),
    "resolve_max_level": (_resolved, "max_level", 1, 3, 2),
    "cycle_spin shifts": (lambda v: _spin(v, 2), "shift count", 1, 16, 2),
    "cycle_spin max_level": (lambda v: _spin(2, v), "max_level", 1, 4, 2),
    "run_bench": (lambda v: run_bench(v, 16, 1, EstimatorConfig()), "reps", 1, None, 1),
}


def _integer_cases():
    for site, (_, name, low, high, valid) in INTEGER_SITES.items():
        for bad in (2.5, float(valid), "3"):
            yield site, bad, f"{name} must be an integer, got {bad!r}"
        for bad in (low - 1,) if high is None else (low - 1, high + 1):
            yield site, bad, (f"{name} must be >= {low}, got {bad}" if high is None
                              else f"{name} must be in [{low}, {high}], got {bad}")
        yield site, np.int64(valid), None


@pytest.mark.parametrize("site, value, message", list(_integer_cases()),
                         ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_every_integer_site_takes_the_one_rule(site, value, message):
    """Each count, level, length and seed: an int in its range, numpy integers too, or one message.

    Before the rule, ``run_bench(0, ...)`` returned an all-NaN table, a float
    such as 2.0 raised TypeError in ``make_blocks``, ``universal_factor``,
    ``run_bench`` and ``cycle_spin``'s shift count, and ran as ``cycle_spin``'s
    max_level. ``default_bandwidth`` divided by a grid size of 0, and took 2.5 or -3.
    """
    call = INTEGER_SITES[site][0]
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    else:  # a numpy integer gives what its Python twin gives, stored as a Python int
        assert repr(call(value)) == repr(call(int(value)))
