import codecs
import contextlib
import copy
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiszkit import (CoeffPyramid, EstimateResult, EstimatorConfig, NoiseModel, PreliminaryFit,
                     SeedSpec, VarianceEstimate, VstState, estimate, haar, make_blocks,
                     make_bumps, make_doppler, make_heavisine, sample_noise, textio)
from fiszkit.cli import BenchReport, main, read_series, write_series
from fiszkit.signals import NOISE_KINDS
from fiszkit.vst import divisors_from_lines
from fiszkit.wavelet import BASIS_NAMES


def run_cli(args):
    return main([str(a) for a in args])


def read_series_oracle(path):
    """The per-line reader that the whole-file ``read_series`` replaces."""
    values = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            try:
                values.append(float(s))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse {s!r} as a number") from None
    if not values:
        raise ValueError(f"{path}: no data lines")
    return np.asarray(values)


def outcome(read, path):
    """Bytes of what ``read`` returns, or the message it raises."""
    try:
        return read(path).tobytes()
    except ValueError as exc:
        return str(exc)


HEADER_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                      max_size=12)
FILLER = st.sampled_from(["", "   ", "\t", "#", "# c", "  # indented comment", "#1.5"])
# Blocks this short put comments, blank lines and bad rows on, before and
# after a block edge; the last entry is the default block size.
BLOCK_EDGES = (1, 2, 3, 7, textio.BLOCK_ROWS)


class TestSeriesCodec:
    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.lists(HEADER_TEXT, max_size=3),
           st.lists(st.tuples(st.integers(0, 60), FILLER), max_size=6),
           st.booleans())
    @example(np.array([-0.0, 5e-324, 2.2250738585072009e-308, 1.7e308, -1.7976931348623157e308]),
             [], [], True)
    def test_write_then_read_is_bit_exact(self, tmp_path_factory, values, header, filler, crlf):
        path = tmp_path_factory.mktemp("series") / "x.txt"
        write_series(path, values, header)
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        for at, filler_line in filler:
            lines.insert(min(at, len(lines)), filler_line)
        noisy = path.with_name("noisy.txt")
        noisy.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
        for block_rows in BLOCK_EDGES:
            with mock.patch.object(textio, "BLOCK_ROWS", block_rows):
                write_series(path, values, header)
                assert path.read_text(encoding="utf-8") == text, block_rows
                assert read_series(noisy).tobytes() == values.tobytes(), block_rows

    @given(st.lists(st.one_of(
        st.floats().map(repr),
        st.sampled_from(["1_0", "１２", " 2.5 ", "", "# c", "1.5 # c", "1 2", "abc",
                         "-0", "1e400", "\u30002\u3000", "1__0", "\x1c2\x1f"])), max_size=12),
        st.booleans())
    def test_accepts_and_rejects_what_the_line_loop_does(self, tmp_path_factory, lines, crlf):
        path = tmp_path_factory.mktemp("series") / "x.txt"
        path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
        want = outcome(read_series_oracle, path)
        for block_rows in BLOCK_EDGES:
            with mock.patch.object(textio, "BLOCK_ROWS", block_rows):
                assert outcome(read_series, path) == want, block_rows

    def test_memory_is_a_few_arrays_of_n_doubles(self, tmp_path):
        # At n = 2^16 the whole-file codec peaked at 11.5 (read), 4.8 (write)
        # and 22.8 (divisor read) arrays of n doubles; the block codec at
        # 3.3, 1.1 and 8.9, mostly one block's strings.
        n = 1 << 16
        x = sample_noise(make_bumps(n, 3.0, 23.21), NoiseModel("exponential"), SeedSpec(103, 1))
        series, divisors = tmp_path / "x.txt", tmp_path / "div.txt"
        write_series(series, x, ["a header"])
        assert run_cli(["vst", "forward", "--in", series, "--out", tmp_path / "xt.txt",
                        "--divisors", divisors]) == 0

        def read_divisors():
            with open(divisors, encoding="utf-8") as f:
                divisors_from_lines(f)

        routes = {"read_series": (lambda: read_series(series), 5.0),
                  "write_series": (lambda: write_series(tmp_path / "y.txt", x, ["h"]), 1.75),
                  "divisors_from_lines": (read_divisors, 13.5)}
        for name, (route, bound) in routes.items():
            tracemalloc.start()
            try:
                route()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 8 * n, (name, peak / (8 * n))

    @pytest.mark.parametrize("text", ["1.5\n-2.25\n", "# header\n1.5\n-2.25\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert read_series(marked).tobytes() == read_series(plain).tobytes()


@pytest.fixture
def poisson_file(tmp_path):
    code = run_cli(["simulate", "--signal", "blocks", "--n", 256, "--min", 1,
                    "--max", 22.6, "--noise", "poisson", "--seed", 7,
                    "--out", tmp_path / "sim"])
    assert code == 0
    return tmp_path / "sim_noisy.txt"


class TestSimulate:
    def test_writes_truth_and_noisy(self, tmp_path):
        assert run_cli(["simulate", "--signal", "blocks", "--n", 2048, "--min", 1,
                        "--max", 22.6, "--noise", "poisson", "--seed", 7,
                        "--out", tmp_path / "a"]) == 0
        truth = read_series(tmp_path / "a_truth.txt")
        noisy = read_series(tmp_path / "a_noisy.txt")
        assert truth.size == noisy.size == 2048
        assert truth.min() == pytest.approx(1.0)
        assert truth.max() == pytest.approx(22.6)

    @pytest.mark.parametrize("signal, make", [("doppler", make_doppler),
                                              ("heavisine", make_heavisine)])
    def test_extra_signals_match_the_library(self, signal, make, tmp_path):
        assert run_cli(["simulate", "--signal", signal, "--n", 256, "--min", 2, "--max", 9,
                        "--noise", "poisson", "--seed", 5, "--rep", 1,
                        "--out", tmp_path / "a"]) == 0
        truth = make(256, 2.0, 9.0)
        assert read_series(tmp_path / "a_truth.txt").tobytes() == truth.tobytes()
        noisy = sample_noise(truth, NoiseModel("poisson"), SeedSpec(5, 1))
        assert read_series(tmp_path / "a_noisy.txt").tobytes() == noisy.tobytes()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--signal", "bumps", "--n", 512, "--min", 3,
                "--max", 23.21, "--noise", "exponential", "--seed", 9]
        run_cli(args + ["--out", tmp_path / "x"])
        run_cli(args + ["--out", tmp_path / "y"])
        assert (tmp_path / "x_noisy.txt").read_bytes() == (tmp_path / "y_noisy.txt").read_bytes()

    def test_range_near_float_max_ends_exactly_at_its_bounds(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on the way
            assert run_cli(["simulate", "--signal", "blocks", "--n", 64, "--min", 1,
                            "--max", 1e308, "--noise", "gaussian", "--seed", 1,
                            "--out", tmp_path / "a"]) == 0
        truth = read_series(tmp_path / "a_truth.txt")
        assert (truth.min(), truth.max()) == (1.0, 1e308)
        assert np.all(np.isfinite(read_series(tmp_path / "a_noisy.txt")))

    @pytest.mark.parametrize("noise, flags, sigma", [
        ("poisson", [], "1.0"), ("gaussian", [], "1.0"), ("gaussian", ["--sigma", 2.5], "2.5")])
    def test_header_records_sigma(self, noise, flags, sigma, tmp_path):
        assert run_cli(["simulate", "--signal", "blocks", "--n", 64, "--min", 1, "--max", 2,
                        "--noise", noise, "--seed", 1, *flags, "--out", tmp_path / "a"]) == 0
        header = (tmp_path / "a_noisy.txt").read_text().splitlines()[1]
        assert header == f"# noise={noise} sigma={sigma} seed=1 rep=0"

    def test_non_dyadic_length_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--signal", "blocks", "--n", 2047, "--min", 1,
                     "--max", 2, "--noise", "poisson", "--seed", 1,
                     "--out", tmp_path / "z"])
        assert exc.value.code == 2


class TestEstimate:
    def test_output_shape(self, tmp_path):
        run_cli(["simulate", "--signal", "blocks", "--n", 2048, "--min", 1,
                 "--max", 22.6, "--noise", "poisson", "--seed", 7,
                 "--out", tmp_path / "sim"])
        assert run_cli(["estimate", "--in", tmp_path / "sim_noisy.txt",
                        "--out", tmp_path / "est.txt", "--stride", 32]) == 0
        assert read_series(tmp_path / "est.txt").size == 2048

    def test_matches_library_call(self, poisson_file, tmp_path):
        assert run_cli(["estimate", "--in", poisson_file, "--out", tmp_path / "est.txt",
                        "--rule", "soft", "--no-ti"]) == 0
        got = read_series(tmp_path / "est.txt")
        want = estimate(read_series(poisson_file),
                        EstimatorConfig(rule="soft", translation_invariant=False)).values
        np.testing.assert_array_equal(got, want)

    def test_known_h_poisson_path(self, poisson_file, tmp_path):
        assert run_cli(["estimate", "--in", poisson_file, "--out", tmp_path / "est.txt",
                        "--known-h", "poisson", "--no-ti"]) == 0
        got = read_series(tmp_path / "est.txt")
        want = estimate(read_series(poisson_file),
                        EstimatorConfig(known_variance=lambda u: np.asarray(u, float),
                                        translation_invariant=False)).values
        np.testing.assert_array_equal(got, want)

    def test_emit_plots_sidecars(self, poisson_file, tmp_path):
        out = tmp_path / "est.txt"
        assert run_cli(["estimate", "--in", poisson_file, "--out", out,
                        "--no-ti", "--emit-plots"]) == 0
        thr = (tmp_path / "est_thresholds.txt").read_text().strip().splitlines()
        assert len(thr) == 63  # levels 0..5 of a 256-point signal
        j, k, lam, surv = thr[0].split()
        assert (int(j), int(k)) == (0, 1) and float(lam) > 0 and surv in "01"
        assert (tmp_path / "est_varfn.txt").exists()
        plot = (tmp_path / "est_plot_estimate.txt").read_text().strip().splitlines()
        assert len(plot) == 256 and len(plot[0].split()) == 2

    def test_non_dyadic_input_is_data_error(self, tmp_path):
        write_series(tmp_path / "bad.txt", np.arange(100.0))
        assert run_cli(["estimate", "--in", tmp_path / "bad.txt",
                        "--out", tmp_path / "o.txt"]) == 3

    def test_parse_error_reports_line(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("1.0\nnot-a-number\n2.0\n")
        assert run_cli(["estimate", "--in", tmp_path / "bad.txt",
                        "--out", tmp_path / "o.txt"]) == 3
        assert ":2:" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(["estimate", "--in", tmp_path / "nope.txt",
                        "--out", tmp_path / "o.txt"]) == 3

    def test_two_samples_too_short_for_variance_fit(self, tmp_path, capsys):
        (tmp_path / "two.txt").write_text("1.0\n3.0\n")
        assert run_cli(["estimate", "--in", tmp_path / "two.txt",
                        "--out", tmp_path / "o.txt"]) == 3
        assert "half-window M = 1 needs at least 2M+1 = 3 samples" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    def test_baseline_flag(self, poisson_file, tmp_path):
        assert run_cli(["estimate", "--in", poisson_file, "--out", tmp_path / "b.txt",
                        "--baseline", "--stride", 16]) == 0
        assert read_series(tmp_path / "b.txt").size == 256


INVALID_FLAGS = [
    ["simulate", "--signal", "blocks", "--n", 64, "--min", 1, "--max", 2,
     "--noise", "poisson", "--seed", -1],
    ["simulate", "--signal", "blocks", "--n", 64, "--min", 1, "--max", 2,
     "--noise", "poisson", "--seed", 1, "--rep", -1],
    ["estimate", "--stride", 0],
    ["estimate", "--jstar", 0],
    ["estimate", "--grid", 1],
    ["estimate", "--M", -1],
    ["varfn", "--M", -1],
    ["estimate", "--bandwidth", "nan"],
    ["varfn", "--bandwidth", "nan"],
    *[[*cmd, "--bandwidth", b] for b in (0, -1)  # VarFnConfig alone rejects the value
      for cmd in (["estimate"], ["varfn"], ["vst", "forward", "--divisors", "d.txt"],
                  ["bench", "--reps", 1, "--seed", 1])],
    ["estimate", "--baseline", "--known-h", "exponential"],  # the comparator takes no law
    ["estimate", "--baseline", "--emit-plots"],  # nor has it thresholds to write
    # --sigma sets the sd of the gaussian law only
    *[["estimate", *flags, "--sigma", 5] for flags in (
        [], ["--baseline"], ["--known-h", "poisson"], ["--known-h", "exponential"])],
    *[["simulate", "--signal", "blocks", "--n", 64, "--min", 1, "--max", 2,
       "--noise", noise, "--seed", 1, "--sigma", 7] for noise in ("poisson", "exponential")],
    ["vst", "forward", "--divisors", "d.txt", "--grid", 1],
    *[["vst", "inverse", "--divisors", "d.txt", *flag]  # only forward fits or picks a basis
      for flag in (["--basis", "daub8"], ["--M", 3], ["--bandwidth", 1], ["--grid", 64])],
    *[["simulate", "--signal", "blocks", "--n", 64, "--min", 1, "--max", 2,
       "--noise", "gaussian", "--seed", 1, "--sigma", sigma] for sigma in (-1, "nan", "inf")],
    *[["estimate", "--known-h", "gaussian", "--sigma", sigma] for sigma in (-1, "nan", "inf")],
    *[["simulate", "--signal", "blocks", "--n", 64, f"--min={lo}", "--max", hi,
       "--noise", noise, "--seed", 1]
      for lo, hi, noise in ((5, 1, "gaussian"), (1, 1, "gaussian"), (1, "inf", "gaussian"),
                            ("nan", 2, "gaussian"), (-1.7e308, 1.7e308, "gaussian"),
                            (-1, 2, "poisson"), (0, 2, "exponential"))],
    ["bench", "--reps", 0, "--seed", 1],
    ["bench", "--reps", 1, "--seed", -1],
    ["bench", "--reps", 1, "--seed", 1, "--stride", 0],
    # bench reads no file: its --n must suit the variance fit and --jstar
    ["bench", "--reps", 1, "--seed", 1, "--n", 2],
    ["bench", "--reps", 1, "--seed", 1, "--n", 4, "--M", 2],
    ["bench", "--reps", 1, "--seed", 1, "--n", 8, "--jstar", 5],
    # one unshifted pass has no shifts for --stride to thin
    ["estimate", "--no-ti", "--stride", 16],
    ["bench", "--reps", 1, "--seed", 1, "--no-ti", "--stride", 16],
    # the fit flags tune a fit that a known law or the comparator skips
    *[["estimate", *law, *flag] for law in (["--known-h", "poisson"], ["--baseline"])
      for flag in (["--M", 3], ["--bandwidth", 0.5], ["--grid", 16])],
]


@pytest.mark.parametrize("argv", INVALID_FLAGS, ids=lambda a: " ".join(map(str, a)))
def test_invalid_flag_value_is_usage_error(argv, tmp_path):
    argv = list(argv) + ["--out", tmp_path / "out"]
    if argv[0] in ("estimate", "varfn", "vst"):
        argv += ["--in", tmp_path / "missing.txt"]  # flags are checked before any read
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_bench_jstar_beyond_the_depth_names_the_range(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--reps", 1, "--seed", 1, "--n", 8, "--jstar", 5,
                 "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "fiszkit: error: max_level must be in [1, 3], got 5"


def test_bench_reps_below_one_is_a_usage_error(tmp_path, capsys):
    with mock.patch("fiszkit.cli._bench_worker") as worker, pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--reps", 0, "--seed", 1, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "fiszkit: error: reps must be >= 1, got 0"
    assert not worker.called and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, same_as", [
    (["--no-ti", "--stride", 1], ["--no-ti"]),
    (["--known-h", "poisson", "--M", 1, "--bandwidth", "auto", "--grid", 256],
     ["--known-h", "poisson"]),
    (["--baseline", "--M", 1], ["--baseline"]),
], ids=lambda a: " ".join(map(str, a)))
def test_flags_at_their_defaults_stay_accepted(flags, same_as, poisson_file, tmp_path):
    assert run_cli(["estimate", "--in", poisson_file, "--out", tmp_path / "a.txt", *flags]) == 0
    assert run_cli(["estimate", "--in", poisson_file, "--out", tmp_path / "b.txt", *same_as]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_jstar_deeper_than_input_is_data_error(poisson_file, tmp_path):
    assert run_cli(["estimate", "--in", poisson_file, "--out", tmp_path / "o.txt",
                    "--jstar", 99]) == 3


@pytest.mark.parametrize("argv", [
    ["estimate", "--no-ti"],
    ["estimate", "--no-ti", "--known-h", "exponential"],
    ["varfn"],
    ["vst", "forward", "--divisors", "div.txt"],
], ids=" ".join)
def test_overflowing_data_is_data_error(argv, poisson_file, tmp_path):
    huge = tmp_path / "in" / "huge.txt"
    huge.parent.mkdir()
    write_series(huge, read_series(poisson_file) * 1e300)
    out = tmp_path / "out"
    out.mkdir()
    argv = [a if a != "div.txt" else out / a for a in argv]
    assert run_cli(argv + ["--in", huge, "--out", out / "o.txt"]) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--baseline"], "wavelet coefficients overflow"),
    (["--baseline", "--no-ti"], "wavelet coefficients overflow"),
    (["--known-h", "poisson"], "local means overflow"),
    (["--known-h", "exponential"], "local means overflow"),
    (["vst", "inverse", "--divisors", "unit.txt"], "wavelet coefficients overflow"),
    (["simulate", "--signal", "blocks", "--n", "64", "--min", "1", "--max", "2",
      "--noise", "gaussian", "--sigma", "1e308", "--seed", "1"], "gaussian noise overflows"),
    (["simulate", "--signal", "blocks", "--n", "64", "--min", "1", "--max", "1e308",
      "--noise", "poisson", "--seed", "1"], "poisson noise overflows"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_data_near_float_max_is_overflow_error(flags, message, tmp_path, capsys):
    x = np.full(64, 1.5e308)
    x[::5] = 1.0
    write_series(tmp_path / "huge.txt", x)
    unit = tmp_path / "unit.txt"
    unit.write_text("# basis haar\n" + "".join(f"{j} {k} 1\n" for j in range(6)
                                                 for k in range(1, (1 << j) + 1)))
    argv = flags if flags[0] in ("vst", "simulate") else ["estimate", *flags]
    argv = [unit if a == "unit.txt" else a for a in argv]
    if argv[0] != "simulate":  # simulate draws its own data
        argv += ["--in", tmp_path / "huge.txt"]
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line is the only report
        assert run_cli(argv + ["--out", out / "o.txt"]) == 3
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["estimate"],
    ["vst", "forward", "--divisors", "div.txt"],
], ids=" ".join)
def test_constant_data_near_float_max_is_overflow_error(argv, tmp_path, capsys):
    write_series(tmp_path / "const.txt", np.full(64, 1.5e308))
    out = tmp_path / "out"
    out.mkdir()
    argv = [out / a if a == "div.txt" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line is the only report
        assert run_cli(argv + ["--in", tmp_path / "const.txt", "--out", out / "o.txt"]) == 3
    assert "local means overflow" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_constant_data_near_float_max_has_finite_bandwidth(tmp_path):
    write_series(tmp_path / "const.txt", np.full(64, 1.5e308))
    out = tmp_path / "h.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in a mean of the fitted values
        assert run_cli(["varfn", "--M", 1, "--in", tmp_path / "const.txt", "--out", out]) == 0
    assert out.read_text().splitlines()[1] == f"# bandwidth {0.2 * (1.5e308 + 1.0):.17g}"


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                  "and data type float64"),
     "Unable to allocate 745. GiB for an array with shape (100000000000,) "
     "and data type float64"),
    (MemoryError(), "MemoryError"),
])
def test_out_of_memory_is_data_error(error, message, poisson_file, tmp_path, capsys):
    # stands in for the allocation of a huge --grid, which a test must not make
    def fit(*_args):
        raise error

    with mock.patch("fiszkit.cli.estimate_variance_function", fit):
        assert run_cli(["varfn", "--in", poisson_file, "--out", tmp_path / "v.txt",
                        "--grid", 100000000000]) == 3
    assert capsys.readouterr().err == f"fiszkit: error: {message}\n"
    assert not (tmp_path / "v.txt").exists()


class TestVarfn:
    def test_step_function_round_trips(self, poisson_file, tmp_path):
        out = tmp_path / "h.txt"
        assert run_cli(["varfn", "--in", poisson_file, "--out", out, "--emit-plots"]) == 0
        head = out.read_text().splitlines()[:3]
        assert [line.split()[:2] for line in head] == [
            ["#", "floor_eps"], ["#", "bandwidth"], ["#", "half_window"]]
        assert float(head[0].split()[2]) > 0 and float(head[1].split()[2]) > 0
        assert head[2] == "# half_window 3"
        grid, values = np.loadtxt(out, unpack=True)
        assert grid.size == 256
        assert np.all(np.diff(grid) > 0) and np.all(np.diff(values) >= 0)
        sqrt_lines = (tmp_path / "h_sqrt.txt").read_text().strip().splitlines()
        u0, s0 = map(float, sqrt_lines[0].split())
        assert s0 == pytest.approx(np.sqrt(values[0]))


class TestVst:
    def test_forward_then_inverse_recovers_input(self, poisson_file, tmp_path):
        assert run_cli(["vst", "forward", "--in", poisson_file,
                        "--out", tmp_path / "xt.txt",
                        "--divisors", tmp_path / "div.txt"]) == 0
        assert run_cli(["vst", "inverse", "--in", tmp_path / "xt.txt",
                        "--out", tmp_path / "back.txt",
                        "--divisors", tmp_path / "div.txt"]) == 0
        x = read_series(poisson_file)
        back = read_series(tmp_path / "back.txt")
        assert np.max(np.abs(back - x)) < 1e-10

    def test_daub8_divisor_file_matches_fixture(self, tmp_path):
        # The fixture was written by this same call. It pins the writer's
        # format and the last digit of every divisor, so a deliberate change
        # to the fit's arithmetic means writing it again.
        assert run_cli(["simulate", "--signal", "bumps", "--n", 1024, "--min", 3,
                        "--max", 23.21, "--noise", "exponential", "--seed", 11,
                        "--out", tmp_path / "sim"]) == 0
        assert run_cli(["vst", "forward", "--basis", "daub8", "--in", tmp_path / "sim_noisy.txt",
                        "--out", tmp_path / "xt.txt", "--divisors", tmp_path / "div.txt"]) == 0
        fixture = Path(__file__).parent / "data" / "vst_daub8_n1024_divisors.txt"
        assert (tmp_path / "div.txt").read_bytes() == fixture.read_bytes()

    def test_forward_where_the_variance_floor_underflows(self, tmp_path):
        # 1e-10 times the fitted peak variance is below the smallest double here
        write_series(tmp_path / "tiny.txt", make_blocks(256, 1.0, 22.6) * 1e-160)
        assert run_cli(["vst", "forward", "--in", tmp_path / "tiny.txt",
                        "--out", tmp_path / "xt.txt", "--divisors", tmp_path / "div.txt"]) == 0

    def test_inverse_skips_byte_order_mark_of_divisor_file(self, poisson_file, tmp_path):
        div, marked = tmp_path / "div.txt", tmp_path / "marked.txt"
        assert run_cli(["vst", "forward", "--in", poisson_file, "--out", tmp_path / "xt.txt",
                        "--divisors", div]) == 0
        marked.write_bytes(codecs.BOM_UTF8 + div.read_bytes())
        for name, divisors in (("back.txt", div), ("back_marked.txt", marked)):
            assert run_cli(["vst", "inverse", "--in", tmp_path / "xt.txt",
                            "--out", tmp_path / name, "--divisors", divisors]) == 0
        assert (tmp_path / "back_marked.txt").read_bytes() == (tmp_path / "back.txt").read_bytes()

    def test_inverse_with_bad_divisor_file_is_data_error(self, poisson_file, tmp_path, capsys):
        div = tmp_path / "div.txt"
        div.write_text("# basis haar\n0 1 1.0\n0 5 9.0\n")
        assert run_cli(["vst", "inverse", "--in", poisson_file, "--out", tmp_path / "o.txt",
                        "--divisors", div]) == 3
        assert f"{div}:3: cannot read '0 5 9.0' as a divisor" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    def test_inverse_with_two_bases_is_data_error(self, poisson_file, tmp_path, capsys):
        div = tmp_path / "div.txt"
        assert run_cli(["vst", "forward", "--basis", "daub8", "--in", poisson_file,
                        "--out", tmp_path / "xt.txt", "--divisors", div]) == 0
        div.write_text(div.read_text() + "# basis haar\n")  # this used to invert with haar
        lines = div.read_text().count("\n")
        assert run_cli(["vst", "inverse", "--in", tmp_path / "xt.txt", "--out", tmp_path / "o.txt",
                        "--divisors", div]) == 3
        assert capsys.readouterr().err == (f"fiszkit: error: {div}:{lines}: basis haar conflicts "
                                           f"with basis daub8 on line 1\n")
        assert not (tmp_path / "o.txt").exists()


def test_outputs_match_golden_fixtures(tmp_path):
    # The fixtures were written by these same calls. They pin the bench
    # table, the estimate, its thresholds and the variance step function to
    # the last digit, so a deliberate change to the arithmetic means writing
    # them again.
    data = Path(__file__).parent / "data"
    assert run_cli(["bench", "--reps", 3, "--n", 256, "--seed", 5, "--stride", 8,
                    "--out", tmp_path / "bench.txt"]) == 0
    assert run_cli(["simulate", "--signal", "blocks", "--n", 256, "--min", 1, "--max", 22.6,
                    "--noise", "poisson", "--seed", 5, "--out", tmp_path / "sim"]) == 0
    assert run_cli(["estimate", "--in", tmp_path / "sim_noisy.txt", "--out", tmp_path / "est.txt",
                    "--basis", "haar", "--emit-plots"]) == 0
    assert run_cli(["varfn", "--in", tmp_path / "sim_noisy.txt", "--out", tmp_path / "h.txt"]) == 0
    for got, name in (("bench.txt", "bench_reps3_n256_seed5_stride8.txt"),
                      ("est.txt", "estimate_blocks_poisson_n256_seed5.txt"),
                      ("est_thresholds.txt", "estimate_blocks_poisson_n256_seed5_thresholds.txt"),
                      ("h.txt", "varfn_blocks_poisson_n256_seed5.txt")):
        assert (tmp_path / got).read_bytes() == (data / name).read_bytes(), name


class TestBench:
    def test_single_rep_smoke(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli(["bench", "--reps", 1, "--n", 256, "--seed", 3,
                        "--stride", 8, "--out", out]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header.split()[0] == "method"
        mse_rows = [r for r in rows if not r.split()[0].endswith("_se")]
        values = [float(v) for r in mse_rows for v in r.split()[1:]]
        assert len(values) == 8  # 4 cells x 2 methods
        assert all(v >= 0 for v in values)

    def test_report_deterministic_across_workers(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"report_{threads}.txt"
            env = dict(os.environ, FISZKIT_THREADS=threads)
            subprocess.run([sys.executable, "-m", "fiszkit.cli", "bench",
                            "--reps", "2", "--n", "256", "--seed", "3",
                            "--stride", "8", "--out", str(out)],
                           check=True, env=env)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_import_leaves_the_process_pool_unloaded():
    # Only `bench` with FISZKIT_THREADS > 1 imports the pool, and only then.
    code = ("import sys, fiszkit.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


ARRAY_HOLDERS = {
    "VstState": lambda: VstState([np.ones(1), np.ones(2)], haar()),
    "VarianceEstimate": lambda: VarianceEstimate([0.0, 1.0], [1.0, 2.0], 1e-9),
    "EstimateResult": lambda: EstimateResult(np.ones(2), [np.ones(1)], [np.ones(1, bool)],
                                             None, 1),
    "CoeffPyramid": lambda: CoeffPyramid([np.ones(1), np.ones(2)], 1.0),
    "PreliminaryFit": lambda: PreliminaryFit(np.ones(2), np.ones(2)),
    "BenchReport": lambda: BenchReport(2, 8, 0, {("blocks", "poisson", "fisz"): np.ones(2)}),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(make):
    # comparing with a copy used to raise ValueError (an array's truth value), hashing TypeError
    obj = make()
    twin = copy.deepcopy(obj)
    assert obj == obj and twin != obj and obj != dataclasses.replace(obj)
    assert len({obj, twin, obj}) == 2


ESTIMATE_FLAGS = st.tuples(
    st.sampled_from(BASIS_NAMES).map(lambda b: ["--basis", b]),
    st.sampled_from([[], ["--rule", "soft"]]),
    st.sampled_from([[], ["--no-ti"], ["--stride", "16"]]),
    st.sampled_from([[], ["--baseline"], *(["--known-h", law] for law in NOISE_KINDS)]),
).map(lambda parts: ["estimate", *(flag for part in parts for flag in part)])
CLI_RUNS = st.one_of(ESTIMATE_FLAGS, st.just(["varfn"]), st.just(["vst"]))
# n values of one sign and scale: equal, uniform over [0.5, 30) or of mixed sign
SERIES = st.tuples(
    st.one_of(st.integers(1, 10).map(lambda k: 1 << k), st.just(12)),
    st.sampled_from(["constant", "uniform", "mixed"]),
    st.sampled_from([1.0, 5e-324, 1e-310, 1e300, -1e300, 1e305, -1e305]),
    st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf])),  # one injected value
    st.integers(0, 2**32 - 1),
)


def _series(n, shape, scale, injected, seed):
    rng = np.random.default_rng(seed)
    x = np.full(n, 7.0) if shape == "constant" else rng.uniform(0.5, 30.0, size=n)
    if shape == "mixed":
        x *= rng.choice([-1.0, 1.0], size=n)
    x *= scale
    if injected is not None:
        x[rng.integers(n)] = injected
    return x


def _written_values(path):
    """Every number of a written file, '#' lines skipped, as one flat array."""
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]
    return np.array([float(v) for row in rows for v in row])


@settings(max_examples=300)
@given(CLI_RUNS, SERIES)
@example(["estimate", "--known-h", "poisson"], (64, "mixed", 1.0, None, 0))
@example(["vst"], (1024, "uniform", 1e300, None, 0))
@example(["estimate", "--basis", "daub8", "--stride", "16"], (1024, "uniform", 1e305, None, 1))
def test_any_run_exits_cleanly_with_finite_series(run, series):
    # Every run of main ends in exit 0, 2 or 3 with no traceback. After exit 0
    # every written series is finite and as long as the input. How well vst
    # inverse recovers its input is not checked here.
    x = _series(*series)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_series(tmp / "in.txt", x)
        inverse = None
        if run == ["vst"]:
            run = ["vst", "forward", "--divisors", tmp / "div.txt"]
            inverse = ["vst", "inverse", "--in", tmp / "out.txt", "--divisors", tmp / "div.txt",
                       "--out", tmp / "back.txt"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _exit_code([*run, "--in", tmp / "in.txt", "--out", tmp / "out.txt"])
            if code == 0 and inverse:
                code = _exit_code(inverse)
        event(f"{run[0]} exit {code}")
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            return
        series = {"estimate": ["out.txt"], "varfn": [], "vst": ["out.txt", "back.txt"]}[run[0]]
        for name in series:
            assert read_series(tmp / name).shape == x.shape, name
        for name in {"estimate": series, "varfn": ["out.txt"], "vst": [*series, "div.txt"]}[run[0]]:
            assert np.all(np.isfinite(_written_values(tmp / name))), name


def _exit_code(argv):
    try:
        return run_cli(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code
