import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiszkit import EstimatorConfig, VarianceEstimate, estimate
from fiszkit.cli import main, read_series, write_series


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
        lines = path.read_text(encoding="utf-8").split("\n")
        for at, text in filler:
            lines.insert(min(at, len(lines)), text)
        path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
        assert read_series(path).tobytes() == values.tobytes()

    @given(st.lists(st.one_of(
        st.floats().map(repr),
        st.sampled_from(["1_0", "１２", " 2.5 ", "", "# c", "1.5 # c", "1 2", "abc",
                         "-0", "1e400", "\u30002\u3000", "1__0"])), max_size=12),
        st.booleans())
    def test_accepts_and_rejects_what_the_line_loop_does(self, tmp_path_factory, lines, crlf):
        path = tmp_path_factory.mktemp("series") / "x.txt"
        path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
        assert outcome(read_series, path) == outcome(read_series_oracle, path)


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

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--signal", "bumps", "--n", 512, "--min", 3,
                "--max", 23.21, "--noise", "exponential", "--seed", 9]
        run_cli(args + ["--out", tmp_path / "x"])
        run_cli(args + ["--out", tmp_path / "y"])
        assert (tmp_path / "x_noisy.txt").read_bytes() == (tmp_path / "y_noisy.txt").read_bytes()

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
    ["vst", "forward", "--divisors", "d.txt", "--grid", 1],
    ["bench", "--reps", 0, "--seed", 1],
    ["bench", "--reps", 1, "--seed", -1],
    ["bench", "--reps", 1, "--seed", 1, "--stride", 0],
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


class TestVarfn:
    def test_step_function_round_trips(self, poisson_file, tmp_path):
        out = tmp_path / "h.txt"
        assert run_cli(["varfn", "--in", poisson_file, "--out", out, "--emit-plots"]) == 0
        with open(out) as f:
            est = VarianceEstimate.from_lines(f)
        assert est.grid_u.size == 256
        assert np.all(np.diff(est.values) >= 0)
        sqrt_lines = (tmp_path / "h_sqrt.txt").read_text().strip().splitlines()
        u0, s0 = map(float, sqrt_lines[0].split())
        assert s0 == pytest.approx(np.sqrt(est.values[0]))


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

    def test_inverse_with_bad_divisor_file_is_data_error(self, poisson_file, tmp_path, capsys):
        div = tmp_path / "div.txt"
        div.write_text("# basis haar\n0 1 1.0\n0 5 9.0\n")
        assert run_cli(["vst", "inverse", "--in", poisson_file, "--out", tmp_path / "o.txt",
                        "--divisors", div]) == 3
        assert f"{div}:3: cannot read '0 5 9.0' as a divisor" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()


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
        import os
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
