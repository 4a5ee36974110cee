"""Plain-text tables: the one formatter and line reader behind every fiszkit file.

Files are UTF-8 with LF endings. Numbers are written as ``%.17g``, which
reads back bit-exactly. Readers also take CRLF (and CR) endings, strip
surrounding whitespace from every line, and skip blank lines and lines
whose first non-blank character is ``#``. A ``#`` after a number is not a
comment, so ``1.5 # c`` is a parse error.

Files stream through blocks of ``BLOCK_ROWS`` raw lines, one conversion or
formatting call per block, so O(``BLOCK_ROWS``) strings are alive at once.
The per-line passes run only inside a block whose one call failed: one
with a comment (a file's header costs one block), a blank line or a bad
row. ``float`` strips a subset of what ``str.strip`` does, so a block it
accepts whole reads as its stripped rows do.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

__all__ = ["line_blocks", "format_blocks", "level_blocks", "data_rows", "first_rejected"]

BLOCK_ROWS = 1 << 13


def line_blocks(lines):
    """Yield ``(start, block)``: up to ``BLOCK_ROWS`` lines, the first being line ``start``."""
    lines, start = iter(lines), 1
    while block := list(islice(lines, BLOCK_ROWS)):
        yield start, block
        start += len(block)


def format_blocks(fmt: str, *columns):
    """Yield ``fmt % row`` for every row of the equal-length ``columns``, LF-ended, per block."""
    cols = [np.asarray(c) for c in columns]
    for i in range(0, len(cols[0]), BLOCK_ROWS):
        values = [c[i:i + BLOCK_ROWS].tolist() for c in cols]
        flat = values[0] if len(values) == 1 else chain.from_iterable(zip(*values))
        yield (fmt + "\n") * len(values[0]) % tuple(flat)


def level_blocks(fmt: str, *levels):
    """Yield ``j k`` and ``fmt`` rows of lists of per-level columns, level ``j`` holding 2^j."""
    for j, cols in enumerate(zip(*levels)):
        yield from format_blocks(f"{j} %d {fmt}", np.arange(1, cols[0].size + 1), *cols)


def data_rows(lines, start: int) -> tuple[list[str], list[int]]:
    """The data rows among ``lines``, stripped, and their line numbers (the first is ``start``).

    A data row is a stripped line that is neither empty nor starts with ``#``.
    """
    numbered = [(s, i) for i, s in enumerate(map(str.strip, lines), start) if s and s[0] != "#"]
    return [s for s, _ in numbered], [i for _, i in numbered]


def first_rejected(rows: list[str], check) -> tuple[int, Exception]:
    """Index of the first row that ``check`` raises on, and what it raised.

    The per-row scan that names a bad line once a whole-block conversion
    has failed; ``check`` is the one-row definition that conversion follows.
    """
    for i, s in enumerate(rows):
        try:
            check(s)
        except (ValueError, OverflowError) as exc:
            return i, exc
    raise AssertionError("a whole-block conversion failed on rows that all pass alone")
