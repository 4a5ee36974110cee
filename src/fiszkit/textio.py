"""Plain-text tables: the one formatter and line reader behind every fiszkit file.

Files are UTF-8 with LF endings. Numbers are written as ``%.17g``, which
reads back bit-exactly. Readers also take CRLF (and CR) endings, strip
surrounding whitespace from every line, and skip blank lines and lines
whose first non-blank character is ``#``. A ``#`` after a number is not a
comment, so ``1.5 # c`` is a parse error.

Each function works on whole columns, one formatting or conversion call
per block of ``BLOCK_ROWS`` rows, so the Python objects alive at once stay
bounded however long the file is. Naming the line of a parse error is the
only per-line loop, and it runs only once a whole-column conversion has
failed.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["row_blocks", "format_rows", "level_index", "data_rows", "row_line",
           "first_rejected"]

BLOCK_ROWS = 1 << 13


def row_blocks(n_rows: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK_ROWS`` rows covering ``n_rows`` rows."""
    return [slice(i, i + BLOCK_ROWS) for i in range(0, n_rows, BLOCK_ROWS)]


def format_rows(fmt: str, *columns) -> str:
    """``fmt % row`` for every row of the equal-length ``columns``, each line ending in LF."""
    cols = [np.asarray(c) for c in columns]
    return "".join(_format_block(fmt + "\n", [c[b] for c in cols])
                   for b in row_blocks(len(cols[0])))


def _format_block(line: str, columns) -> str:
    values = [c.tolist() for c in columns]
    flat = values[0] if len(values) == 1 else chain.from_iterable(zip(*values))
    return line * len(values[0]) % tuple(flat)


def level_index(n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Level ``j`` and 1-based position ``k`` of every entry of levels 0..n_levels-1.

    Entries are listed level by level, level ``j`` holding 2^j of them, so
    entry ``(j, k)`` sits at flat index 2^j - 2 + k.
    """
    j = np.repeat(np.arange(n_levels), 1 << np.arange(n_levels))
    return j, np.arange(j.size) + 2 - (1 << j)


def data_rows(lines) -> tuple[list[str], list[str]]:
    """Strip every line; return all of them and the data rows among them.

    A data row is a stripped line that is neither empty nor starts with ``#``.
    """
    stripped = list(map(str.strip, lines))
    return stripped, [s for s in stripped if s and s[0] != "#"]


def row_line(stripped: list[str], row: int) -> int:
    """1-based line number of data row ``row`` among the ``stripped`` lines."""
    return [i for i, s in enumerate(stripped, start=1) if s and s[0] != "#"][row]


def first_rejected(rows: list[str], check) -> tuple[int, Exception]:
    """Index of the first row that ``check`` raises on, and what it raised.

    The per-row scan that names a bad line once a whole-column conversion
    has failed; ``check`` is the one-row definition that conversion follows.
    """
    for i, s in enumerate(rows):
        try:
            check(s)
        except (ValueError, OverflowError) as exc:
            return i, exc
    raise AssertionError("a whole-column conversion failed on rows that all pass alone")
