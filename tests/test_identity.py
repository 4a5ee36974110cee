"""The committed output identity check, ``.github/scripts/identity.py``, on small sizes."""

import importlib.util
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
    assert "DIFFERS: n=8 blocks-poisson daub4 full fitted hard values: largest relative " \
           "difference" in out
