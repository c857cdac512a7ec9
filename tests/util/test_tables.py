"""Tests for text-table rendering."""

import pytest

from repro.util.tables import TextTable, format_grid


class TestTextTable:
    def test_renders_aligned(self):
        table = TextTable(["name", "value"], title="demo")
        table.add_row(["alpha", 1])
        table.add_row(["b", 23456])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in lines[3]  # title, header, separator, first row
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to equal width

    def test_wrong_arity_rejected(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_none_renders_dash(self):
        table = TextTable(["a"])
        table.add_row([None])
        assert table.render().splitlines()[-1].strip() == "-"

    def test_float_formatting(self):
        table = TextTable(["a"])
        table.add_row([3.14159265])
        assert "3.142" in table.render()


class TestFormatGrid:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            format_grid(["r1"], ["c1"], [[1], [2]])
        with pytest.raises(ValueError):
            format_grid(["r1"], ["c1", "c2"], [[1]])

    def test_contains_labels(self):
        text = format_grid([600, 1200], [2, 3], [[75, 57], [80, 70]], corner="b\\k")
        assert "b\\k" in text
        assert "1200" in text
