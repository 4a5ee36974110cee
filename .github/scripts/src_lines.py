"""Count the lines of src/fiszkit by kind: code, docstring, comment and blank.

Prints one row per module and a total row; every line falls in exactly one
column. Docstring lines are the whole line span of each module, class and
function docstring, blank lines inside it included. Comment lines hold only
a comment, and blank lines only whitespace; every other line is code.

Usage: python .github/scripts/src_lines.py [PACKAGE_DIR]  (default: src/fiszkit)
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/fiszkit")
    rows = [(path.name, count(path)) for path in sorted(root.glob("*.py"))]
    if not rows:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 1
    total = {kind: sum(c[kind] for _, c in rows) for kind in KINDS}
    rows.append(("total", total))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  " + "  ".join(f"{k:>9}" for k in (*KINDS, "lines")))
    for name, c in rows:
        print(f"{name:<{width}}  " + "  ".join(f"{c[k]:>9}" for k in KINDS)
              + f"  {sum(c.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
