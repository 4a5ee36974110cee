"""Count the lines of src/fiszkit by kind: code, docstring, comment and blank.

Prints one row per module and a total row; every line falls in exactly one
column. Docstring lines are the whole line span of each module, class and
function docstring, blank lines inside it included. Comment lines hold only
a comment, and blank lines only whitespace; every other line is code.

Usage: python .github/scripts/src_lines.py [PACKAGE_DIR] [--against BASE_DIR]

PACKAGE_DIR defaults to src/fiszkit. With ``--against``, BASE_DIR is another
package directory, such as the base commit's src/fiszkit exported with
``git archive``: the base table, this table and their difference per column
are printed, a module missing on one side counting as zero there.
"""

import argparse
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


def table(root: Path) -> dict[str, dict[str, int]]:
    """Counts per module of ``root`` and their ``total``; empty if it holds no module."""
    rows = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    if rows:
        rows["total"] = {kind: sum(c[kind] for c in rows.values()) for kind in KINDS}
    return rows


def show(rows: dict[str, dict[str, int]], sign: str = "") -> None:
    width = max(len(name) for name in rows)
    print(f"{'module':<{width}}  " + "  ".join(f"{k:>9}" for k in (*KINDS, "lines")))
    for name, c in rows.items():
        print(f"{name:<{width}}  " + "  ".join(f"{c[k]:>{sign}9}" for k in KINDS)
              + f"  {sum(c.values()):>{sign}9}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of a package by kind.")
    parser.add_argument("package", nargs="?", default="src/fiszkit", type=Path)
    parser.add_argument("--against", type=Path, metavar="BASE_DIR",
                        help="also print this package's table and the difference from it")
    args = parser.parse_args(argv[1:])
    roots = [args.package] if args.against is None else [args.against, args.package]
    tables = [table(root) for root in roots]
    for root, rows in zip(roots, tables):
        if not rows:
            print(f"no Python modules under {root}", file=sys.stderr)
            return 1
    if args.against is None:
        show(tables[0])
        return 0
    base, head = tables
    names = [*sorted((base.keys() | head.keys()) - {"total"}), "total"]
    zero = dict.fromkeys(KINDS, 0)
    for title, rows in ((f"base {args.against}:", base), (f"head {args.package}:", head)):
        print(title)
        show(rows)
    print("head - base:")
    show({name: {k: head.get(name, zero)[k] - base.get(name, zero)[k] for k in KINDS}
          for name in names}, sign="+")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
