import re
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fiszkit
from fiszkit import (CoeffPyramid, EstimatorConfig, NoiseModel, SeedSpec, baseline_mad_estimate,
                     cli, dwt_forward, dwt_inverse, estimate, estimate_variance_function,
                     estimator, forward_vst, haar, inverse_vst, local_means, make_blocks,
                     sample_noise, vst)
from fiszkit import wavelet as wavelet_module
from fiszkit.wavelet import (BASIS_NAMES, WaveletBasis, _analysis_step, _support_lengths,
                             _synthesis_rows, basis_by_name, shifted_local_means)

ALL_BASES = [basis_by_name(name) for name in BASIS_NAMES]


def wavelet_vector(basis, n, j, k):
    """Oracle: the discrete basis vector of detail coefficient (j, k), k 1-based, by
    :func:`dwt_inverse` of a one-hot pyramid."""
    details = [np.zeros(1 << level) for level in range(n.bit_length() - 1)]
    details[j][k - 1] = 1.0
    return dwt_inverse(CoeffPyramid(details), basis)


def min_cyclic_support(v):
    """Oracle: (start, length) of the minimal cyclic interval holding the entries of ``v``
    above 1e-12 x its peak."""
    n = v.size
    idx = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
    if idx.size == n:
        return 0, n
    gaps = np.diff(np.append(idx, idx[0] + n))
    w = int(np.argmax(gaps))
    return int(idx[(w + 1) % idx.size]), n - int(gaps[w]) + 1


def flatten(p):
    return np.concatenate([[p.smooth], *p.details])


def transform_matrix(n, lowpass):
    """Oracle: the full transform as an explicit product of step matrices."""
    g = np.asarray(lowpass)
    L = g.size
    h = g[::-1].copy()
    h[1::2] *= -1
    total = np.eye(n)
    m = n
    while m > 1:
        step = np.zeros((n, n))
        for i in range(m // 2):
            for k in range(L):
                step[i, (2 * i + k) % m] += g[k]
                step[m // 2 + i, (2 * i + k) % m] += h[k]
        for r in range(m, n):
            step[r, r] = 1.0
        total = step @ total
        m //= 2
    return total  # row order: smooth, then levels coarse to fine


def daubechies_lowpass_oracle(taps):
    """Oracle: the extremal-phase scaling filter by spectral factorisation.

    Daubechies (1992), Ten Lectures on Wavelets, section 6.4: the roots of
    q(z) = z^(p-1) P((2 - z - 1/z) / 4), P(y) = sum_k C(p-1+k, k) y^k, inside
    the unit circle, times (1 + z)^p, scaled to sum sqrt(2), large taps first.
    """
    p = taps // 2
    yz = np.array([-0.25, 0.5, -0.25])  # y*z as a polynomial in z, lowest degree first
    q = np.zeros(2 * p - 1)
    for k in range(p):
        term = np.array([float(comb(p - 1 + k, k))])
        for _ in range(k):
            term = np.convolve(term, yz)
        q[p - 1 - k:p - 1 - k + term.size] += term
    roots = np.roots(q[::-1])
    h = np.array([1.0])
    for _ in range(p):
        h = np.convolve(h, [1.0, 1.0])  # (1 + z)^p
    for r in roots[np.abs(roots) < 1]:
        h = np.convolve(h, [-r, 1.0])  # minimum-phase factor
    h = np.real(h)
    h *= np.sqrt(2.0) / h.sum()
    return h[::-1] if abs(h[0]) < abs(h[-1]) else h


def analysis_step_gather(approx, g, h):
    """Oracle: one analysis step as a (rows, m/2, L) gather of periodic windows."""
    m = approx.shape[-1]
    idx = (2 * np.arange(m // 2)[:, None] + np.arange(g.size)) % m
    win = approx[..., idx]
    return win @ g, win @ h


def synthesis_step_scatter(approx, detail, g, h):
    """Oracle: the transposed step, tap i of coefficient k added at 2k + i (mod 2 * half)."""
    half = approx.shape[-1]
    out = np.zeros(approx.shape[:-1] + (2 * half,))
    pos = 2 * np.arange(half)
    for i in range(g.size):
        out[..., (pos + i) % (2 * half)] += approx * g[i] + detail * h[i]
    return out


class TestTransform:
    def test_two_point_example(self):
        p = dwt_forward(np.array([1.0, -1.0]))
        assert p.smooth == pytest.approx(0.0)
        assert p.details[0][0] == pytest.approx(np.sqrt(2.0))

    def test_constant_signal(self):
        n = 64
        p = dwt_forward(np.full(n, 3.5))
        assert p.smooth == pytest.approx(3.5 * np.sqrt(n))
        for d in p.details:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    @pytest.mark.parametrize("n", [8, 64, 2048])
    def test_round_trip_and_parseval(self, basis, n):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=n)
            p = dwt_forward(x, basis)
            np.testing.assert_allclose(dwt_inverse(p, basis), x, rtol=0, atol=1e-10)
            energy = np.sum(x**2)
            assert abs(p.energy() - energy) / energy < 1e-12

    @given(st.sampled_from(ALL_BASES),
           st.integers(1, 10).flatmap(lambda depth: arrays(
               float, 1 << depth, elements=st.floats(-1e3, 1e3, allow_subnormal=False))))
    def test_round_trip_and_energy_property(self, basis, x):
        p = dwt_forward(x, basis)
        scale = max(1.0, float(np.max(np.abs(x))))
        np.testing.assert_allclose(dwt_inverse(p, basis), x, rtol=0, atol=1e-10 * scale)
        energy = float(np.sum(x**2))
        assert abs(p.energy() - energy) <= 1e-12 * energy + 1e-300

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_matches_matrix_oracle(self, basis):
        n = 32
        rng = np.random.default_rng(5)
        w = transform_matrix(n, basis.lowpass)
        np.testing.assert_allclose(w @ w.T, np.eye(n), atol=1e-12)
        x = rng.normal(size=n)
        np.testing.assert_allclose(flatten(dwt_forward(x, basis)), w @ x, atol=1e-10)

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_inverse_matches_transpose_oracle(self, basis):
        n = 16
        rng = np.random.default_rng(6)
        w = transform_matrix(n, basis.lowpass)
        coeffs = rng.normal(size=n)
        p = CoeffPyramid([coeffs[1 << j:1 << (j + 1)] for j in range(4)], coeffs[0])
        np.testing.assert_allclose(dwt_inverse(p, basis), w.T @ coeffs, atol=1e-10)

    def test_inverse_of_smooth_only(self):
        n = 16
        p = CoeffPyramid([np.zeros(1 << j) for j in range(4)], 2.0 * np.sqrt(n))
        np.testing.assert_allclose(dwt_inverse(p), np.full(n, 2.0), atol=1e-12)

    def test_blocks_round_trip(self):
        x = make_blocks(2048, 1.0, 22.6)
        xr = dwt_inverse(dwt_forward(x))
        assert np.max(np.abs(xr - x)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=64), rng.normal(size=64)
        a, b = 2.5, -1.25
        p = dwt_forward(a * x + b * y)
        px, py = dwt_forward(x), dwt_forward(y)
        np.testing.assert_allclose(flatten(p), a * flatten(px) + b * flatten(py), atol=1e-10)

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_strided_steps_match_gather_oracle(self, basis):
        # rows shorter than L - 2 (daub6 and daub8 at m = 2, 4) wrap the
        # periodic extension more than once; synthesis returns exactly 2 m columns
        g, h = basis.filter_pair()
        rng = np.random.default_rng(67)
        sizes = list(range(2, 17, 2)) + [1 << k for k in range(5, 11)]
        for shape in [(m,) for m in sizes] + [(r, m) for r in (1, 2, 3) for m in sizes]:
            x, y = rng.uniform(-30.0, 30.0, shape), rng.uniform(-30.0, 30.0, shape)
            step = _analysis_step(x, g, h)
            for got, want in zip(step, analysis_step_gather(x, g, h)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(x))
            assert _analysis_step(x, g, None).tobytes() == step[0].tobytes()  # a zeroed level
            got = _synthesis_rows(x, y, g, h)
            want = synthesis_step_scatter(x, y, g, h)
            assert got.shape == want.shape == shape[:-1] + (2 * shape[-1],)
            assert got.flags.c_contiguous  # the engine's flat row moves need a view
            assert np.max(np.abs(got - want)) <= 1e-15 * max(np.max(np.abs(x)), np.max(np.abs(y)))
            got = _synthesis_rows(x, 0.5, g, h)  # a scalar detail stands for a constant row
            want = synthesis_step_scatter(x, np.full(shape, 0.5), g, h)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(x))

    def test_malformed_pyramid_rejected(self):
        with pytest.raises(ValueError):
            CoeffPyramid([np.zeros(2)], 0.0)
        p = dwt_forward(np.arange(8.0))
        p.details[1] = p.details[1][:1]
        with pytest.raises(ValueError):
            dwt_inverse(p)

    def test_pyramid_leaves_the_callers_list_alone(self):
        details = [[2.0], [1.0, 3.0]]
        p = CoeffPyramid(details, 0.5)
        assert [type(d) for d in details] == [list, list]
        assert details == [[2.0], [1.0, 3.0]]
        assert [d.tolist() for d in p.details] == details

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            dwt_forward(np.arange(6.0))


class TestLocalMeans:
    def test_constant_signal(self):
        lm = local_means(np.full(32, 4.2))
        for arr in lm:
            np.testing.assert_allclose(arr, 4.2, atol=1e-12)

    def test_haar_hand_values(self):
        lm = local_means(np.array([1.0, 2.0, 3.0, 4.0]))
        assert lm[0][0] == pytest.approx(2.5)  # coarsest: whole signal
        np.testing.assert_allclose(lm[1], [1.5, 3.5])  # finest: pairs

    def test_haar_matches_scaling_coefficients(self):
        # for Haar the means are scaling coefficients divided by 2^((J-j)/2)
        rng = np.random.default_rng(9)
        x = rng.uniform(1.0, 5.0, size=64)
        J = 6
        lm = local_means(x)
        approx = x.copy()
        scaling = {J: approx}
        while approx.size > 1:
            approx = (approx[0::2] + approx[1::2]) / np.sqrt(2.0)
            scaling[int(np.log2(approx.size))] = approx
        for j in range(J):
            np.testing.assert_allclose(lm[j], scaling[j] / 2 ** ((J - j) / 2), atol=1e-10)

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_bounds_for_positive_signal(self, basis):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.5, 9.0, size=128)
        for arr in local_means(x, basis):
            assert np.all(arr > 0)
            assert np.all(arr >= x.min() - 1e-9)
            assert np.all(arr <= x.max() + 1e-9)

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_supports_rotate_with_k(self, basis):
        # coefficient k's vector is coefficient 1's vector rotated by (k-1)*2^(J-j)
        n = 64
        for j in (1, 3, 5):
            base = wavelet_vector(basis, n, j, 1)
            step = n >> j
            for k in (2, (1 << j) // 2 + 1, 1 << j):
                rotated = np.roll(base, (k - 1) * step)
                np.testing.assert_allclose(wavelet_vector(basis, n, j, k), rotated, atol=1e-10)

    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_means_average_over_wavelet_support(self, basis):
        rng = np.random.default_rng(11)
        n = 64
        x = rng.uniform(1.0, 3.0, size=n)
        lm = local_means(x, basis)
        for j in (0, 2, 5):
            for k in (1, (1 << j) // 2 + 1):
                start, length = min_cyclic_support(wavelet_vector(basis, n, j, k))
                expected = np.roll(x, -start)[:length].mean()
                assert lm[j][k - 1] == pytest.approx(expected, rel=1e-10)
        # the k = 1 support starts at sample 0 and has the cached length, at every size
        for n in (1 << J for J in range(1, 15)):
            supports = [min_cyclic_support(wavelet_vector(basis, n, j, 1))
                        for j in range(n.bit_length() - 1)]
            assert supports == [(0, length) for length in _support_lengths(basis, n)], n


def test_production_paths_never_use_the_pyramid_api(tmp_path, monkeypatch):
    # each call starts from an empty support cache, so the support search runs too
    def refuse(*args, **kwargs):
        raise AssertionError("a production path used the pyramid API")

    for module in (fiszkit, wavelet_module, estimator, vst, cli):
        for name in ("CoeffPyramid", "dwt_forward", "dwt_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    x = sample_noise(make_blocks(512, 1.0, 22.6), NoiseModel("poisson"), SeedSpec(3))
    path = tmp_path / "x.txt"
    cli.write_series(path, x)

    def cli_estimate(basis):
        assert cli.main(["estimate", "--in", str(path), "--out", str(tmp_path / "y.txt"),
                         "--basis", basis.name]) == 0

    for basis in ALL_BASES:
        for call in (lambda: estimate(x, EstimatorConfig(basis=basis)),
                     lambda: baseline_mad_estimate(x, EstimatorConfig(basis=basis)),
                     lambda: inverse_vst(*forward_vst(x, estimate_variance_function(x), basis)),
                     lambda: cli_estimate(basis)):
            _support_lengths.cache_clear()
            call()


def gather_means_oracle(x, basis):
    """``shifted_local_means`` as a gather: every window start (p k - s) mod n as an index."""
    n = x.size
    lengths = _support_lengths(basis, n)
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([x, x]))])

    def means(j, count):
        s = ((n >> j) * np.arange(1 << j) - np.arange(count)[:, None]) % n
        return (csum[s + lengths[j]] - csum[s]) / lengths[j]
    return means


class TestShiftedLocalMeans:
    @pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.name)
    def test_slices_match_gather_oracle(self, basis):
        rng = np.random.default_rng(12)
        for J in range(1, 13):
            n = 1 << J
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5, size=n)
            means, oracle = shifted_local_means(x, basis), gather_means_oracle(x, basis)
            for j in range(J):
                p = n >> j
                for count in sorted({1, 2, p // 3, min(128, p), p} & set(range(1, p + 1))):
                    got = means(j, count)
                    assert got.flags.c_contiguous and got.shape == (count, 1 << j)
                    assert got.tobytes() == oracle(j, count).tobytes(), (n, j, count)
                for count in (0, p + 1):
                    with pytest.raises(ValueError, match=f"level {j} has {p} distinct shifts"):
                        means(j, count)

    def test_rows_are_local_means_of_the_shifts(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(1.0, 9.0, size=64)
        for basis in ALL_BASES:
            means = shifted_local_means(x, basis)
            for j in range(6):
                rows = means(j, 64 >> j)
                for s in range(rows.shape[0]):
                    assert rows[s].tobytes() == means(j, s + 1)[s].tobytes()
                    np.testing.assert_allclose(rows[s], local_means(np.roll(x, s), basis)[j],
                                               rtol=1e-12)


class TestBasis:
    def test_filters_are_orthonormal(self):
        for basis in ALL_BASES:
            g = np.asarray(basis.lowpass)
            assert abs(np.sum(g**2) - 1.0) < 1e-12
            assert abs(np.sum(g) - np.sqrt(2.0)) < 1e-12

    def test_bad_filter_rejected(self):
        with pytest.raises(ValueError):
            WaveletBasis("broken", (0.9, 0.1))
        for taps in ((1.0,), (0.6, 0.0, 0.8)):
            with pytest.raises(ValueError, match="^filter length must be even and >= 2$"):
                WaveletBasis("odd", taps)
        # normalised, but orthogonal to no even shift of itself
        with pytest.raises(ValueError, match="^filter 'flat' violates even-shift orthogonality$"):
            WaveletBasis("flat", (0.5, 0.5, 0.5, 0.5))

    def test_unknown_names_rejected(self):
        for name in ("sym5", "daub2", "daub04", "daub"):
            with pytest.raises(ValueError, match="unknown wavelet basis"):
                basis_by_name(name)

    def test_basis_names_and_messages(self):
        assert BASIS_NAMES == ("haar", "daub4", "daub6", "daub8")
        assert [len(basis_by_name(name).lowpass) for name in BASIS_NAMES] == [2, 4, 6, 8]
        with pytest.raises(ValueError, match=re.escape(
                "unknown wavelet basis 'sym5', choose from ['haar', 'daub4', 'daub6', 'daub8']")):
            basis_by_name("sym5")

    @pytest.mark.parametrize("name", BASIS_NAMES)
    def test_taps_match_spectral_factorisation(self, name):
        # within 2 ulp, not bit for bit: the oracle's roots come from the local LAPACK
        g = np.array(basis_by_name(name).lowpass)
        want = daubechies_lowpass_oracle(g.size)
        assert np.all(np.abs(g - want) <= 2 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("name", BASIS_NAMES)
    def test_vanishing_moments(self, name):
        # the highpass (-1)^k g_k annihilates the polynomials of degree < L/2
        g = np.array(basis_by_name(name).lowpass)
        k = np.arange(g.size, dtype=float)
        for m in range(g.size // 2):
            terms = (-1.0) ** k * k**m * g
            assert abs(terms.sum()) <= 1e-13 * np.abs(terms).sum()
