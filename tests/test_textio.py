from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiszkit import textio
from fiszkit.textio import format_blocks, level_blocks, line_blocks

ANY_FLOAT = st.floats(width=64)


def format_rows(fmt, *columns):
    return "".join(format_blocks(fmt, *columns))


class TestFormatRows:
    @given(arrays(np.float64, st.integers(0, 30), elements=ANY_FLOAT))
    def test_one_column_matches_per_value_fstrings(self, x):
        assert format_rows("%.17g", x) == "".join(f"{v:.17g}\n" for v in x)

    @given(st.integers(1, 6), st.data())
    def test_level_table_matches_per_value_fstrings(self, n_levels, data):
        t = [data.draw(arrays(np.float64, 1 << j, elements=ANY_FLOAT)) for j in range(n_levels)]
        s = [data.draw(arrays(np.bool_, 1 << j)) for j in range(n_levels)]
        want = "".join(f"{j} {k} {c:.17g} {int(d)}\n" for j in range(n_levels)
                       for k, c, d in zip(range(1, (1 << j) + 1), t[j], s[j]))
        for block_rows in (1, 3, textio.BLOCK_ROWS):
            with mock.patch.object(textio, "BLOCK_ROWS", block_rows):
                assert "".join(level_blocks("%.17g %d", t, s)) == want, block_rows

    def test_empty_columns_give_no_text(self):
        assert format_rows("%.17g %.17g", np.array([]), np.array([])) == ""

    def test_blocks_hold_block_rows_lines(self):
        with mock.patch.object(textio, "BLOCK_ROWS", 3):
            assert list(format_blocks("%d", np.arange(7))) == ["0\n1\n2\n", "3\n4\n5\n", "6\n"]


class TestLevelBlocks:
    def test_lists_levels_in_order_with_flat_index(self):
        for n_levels in range(1, 11):
            rows = "".join(level_blocks("%d", [np.zeros(1 << j, int) for j in range(n_levels)]))
            j, k = np.array([line.split()[:2] for line in rows.splitlines()], dtype=int).T
            want = [(a, b) for a in range(n_levels) for b in range(1, (1 << a) + 1)]
            assert list(zip(j.tolist(), k.tolist())) == want
            np.testing.assert_array_equal((1 << j) - 2 + k, np.arange(j.size))


class TestDataRows:
    def test_line_blocks_number_their_first_lines(self):
        lines = [f"{i}\n" for i in range(1, 8)]
        with mock.patch.object(textio, "BLOCK_ROWS", 3):
            blocks = list(line_blocks(lines))
        assert blocks == [(1, lines[:3]), (4, lines[3:6]), (7, lines[6:])]
        assert list(line_blocks([])) == []
