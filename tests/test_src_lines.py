"""The CI line counter, ``.github/scripts/src_lines.py``, on two small packages."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines",
                                                  ROOT / ".github" / "scripts" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_prints_base_head_and_the_signed_difference(tmp_path, capsys):
    src_lines = load_src_lines()
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "a.py").write_text('"""Doc."""\n\n# note\nx = 1\ny = 2\n')
    (base / "gone.py").write_text("z = 3\n")
    (head / "a.py").write_text('"""Doc\n\ntwo lines."""\n\nx = 1\n')
    (head / "new.py").write_text("# only a comment\n")

    assert src_lines.main(["src_lines.py", str(head), "--against", str(base)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"base {base}:"
    assert out[out.index(f"head {head}:") - 1].split() == ["total", "3", "1", "1", "1", "6"]
    delta = out[out.index("head - base:") + 1:]
    rows = {line.split()[0]: line.split()[1:] for line in delta[1:]}
    # columns: code, docstring, comment, blank, lines
    assert rows == {"a.py": ["-1", "+2", "-1", "+0", "+0"],
                    "gone.py": ["-1", "+0", "+0", "+0", "-1"],
                    "new.py": ["+0", "+0", "+1", "+0", "+1"],
                    "total": ["-2", "+2", "+0", "+0", "+0"]}


def test_without_against_prints_one_table(tmp_path, capsys):
    src_lines = load_src_lines()
    (tmp_path / "m.py").write_text("def f():\n    '''Doc.'''\n    return 1\n")
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out[1:]] == [["m.py", "2", "1", "0", "0", "3"],
                                                  ["total", "2", "1", "0", "0", "3"]]
    assert src_lines.main(["src_lines.py", str(tmp_path / "none")]) == 1
