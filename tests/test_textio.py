import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiszkit.textio import data_rows, format_rows, level_index, row_line

ANY_FLOAT = st.floats(width=64)


class TestFormatRows:
    @given(arrays(np.float64, st.integers(0, 30), elements=ANY_FLOAT))
    def test_one_column_matches_per_value_fstrings(self, x):
        assert format_rows("%.17g", x) == "".join(f"{v:.17g}\n" for v in x)

    @given(st.integers(1, 6), st.data())
    def test_level_table_matches_per_value_fstrings(self, n_levels, data):
        j, k = level_index(n_levels)
        t = data.draw(arrays(np.float64, j.size, elements=ANY_FLOAT))
        s = data.draw(arrays(np.bool_, j.size))
        want = "".join(f"{a} {b} {c:.17g} {int(d)}\n" for a, b, c, d in zip(j, k, t, s))
        assert format_rows("%d %d %.17g %d", j, k, t, s) == want

    def test_empty_columns_give_no_text(self):
        assert format_rows("%.17g %.17g", np.array([]), np.array([])) == ""


class TestLevelIndex:
    def test_lists_levels_in_order_with_flat_index(self):
        for n_levels in range(1, 11):
            j, k = level_index(n_levels)
            want = [(a, b) for a in range(n_levels) for b in range(1, (1 << a) + 1)]
            assert list(zip(j.tolist(), k.tolist())) == want
            np.testing.assert_array_equal((1 << j) - 2 + k, np.arange(j.size))


class TestDataRows:
    def test_skips_blank_and_comment_lines_and_numbers_the_rest(self):
        lines = ["# h\n", " 1.5 \r\n", "\n", "  # c\n", "\t\n", "2 # not a comment\n", "3"]
        stripped, rows = data_rows(lines)
        assert rows == ["1.5", "2 # not a comment", "3"]
        assert [row_line(stripped, r) for r in range(3)] == [2, 6, 7]
