"""The committed output identity check, ``.github/scripts/identity.py``, on small sizes."""

import importlib.util
import re
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_identity():
    spec = importlib.util.spec_from_file_location("identity",
                                                  ROOT / ".github" / "scripts" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_finds_no_difference_in_a_copy_and_one_in_a_perturbed_tap(tmp_path, capsys):
    identity = load_identity()
    same, tap = tmp_path / "same", tmp_path / "tap"
    for tree in (same, tap):
        shutil.copytree(ROOT / "src" / "fiszkit", tree / "src" / "fiszkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
    wavelet = tap / "src" / "fiszkit" / "wavelet.py"
    text = wavelet.read_text()
    first = "0.48296291314453416"  # daub4's first tap, moved up by one ulp
    assert text.count(first) == 1
    wavelet.write_text(text.replace(first, repr(float(np.nextafter(float(first), 1.0)))))

    assert identity.main(["--against", str(same), "--max-n", "256"]) == 0
    assert "no difference against" in capsys.readouterr().out
    assert identity.main(["--against", str(tap), "--max-n", "256"]) == 1
    out = capsys.readouterr().out
    differs = re.findall(r"^DIFFERS: (n=\d+ \S+ (\w+) .*): largest relative difference (\S+), "
                         r"largest difference \S+ of the largest finite \|value\|$", out, re.M)
    assert len(differs) > 1  # the walk goes on past the first difference
    assert differs[0][0] == "n=8 blocks-poisson daub4 full fitted hard values"
    assert f"{len(differs)} arrays differ against {tap}" in out
    assert "n=256 bumps-exponential daub4 full fitted hard values" in [d[0] for d in differs]
    assert {d[1] for d in differs} == {"daub4"}  # only the perturbed basis moves
    assert all(float(d[2]) > 0 for d in differs)


def test_difference_gives_the_largest_difference_over_the_largest_value():
    difference = load_identity().difference
    a = np.array([1.0, 1e-20, -3.0])
    b = np.array([1.0, -1e-20, -3.0])  # one entry near zero flips its sign
    assert difference(a, b) == ("largest relative difference 2, "
                                "largest difference 6.67e-21 of the largest finite |value|")
    # an infinity on one side only is a difference, not the same value
    assert difference(np.array([np.inf, 1.0]), np.array([0.0, 1.0])) == (
        "largest relative difference inf, largest difference inf of the largest finite |value|")
    assert difference(np.array([0.0, np.nan]), np.array([-0.0, np.nan])) == (
        "same values, different bits (signed zeros or NaN payloads)")


def test_identity_lists_the_cli_files_of_a_tree_that_writes_fewer_digits(tmp_path, capsys):
    identity = load_identity()
    tree = tmp_path / "digits16"
    shutil.copytree(ROOT / "src" / "fiszkit", tree / "src" / "fiszkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    textio = tree / "src" / "fiszkit" / "textio.py"
    text = textio.read_text()
    line = 'yield (fmt + "\\n") * len(values[0]) % tuple(flat)'
    assert text.count(line) == 1
    textio.write_text(text.replace(line, line.replace("fmt +", 'fmt.replace("%.17g", "%.16g") +')))

    assert identity.main(["--against", str(tree), "--max-n", "16"]) == 1
    out = capsys.readouterr().out
    differs = re.findall(r"^DIFFERS: (n=\d+ \S+ (\S+) (.*)): ", out, re.M)
    assert differs and {d[1] for d in differs} == {"cli"}  # no library array moves
    names = {d[2].split(": ")[-1] for d in differs}
    assert {"0/out.txt", "1/out_thresholds.txt", "1/out_varfn.txt", "1/out_plot_estimate.txt",
            "2/out.txt", "3/out.txt", "4/out.txt", "5/out.txt", "5/div.txt",
            "6/out.txt"} <= names
    assert "n=8 blocks-poisson cli estimate --in x.txt --out 0/out.txt: 0/out.txt" in \
        [d[0] for d in differs]
