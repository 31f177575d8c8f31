import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdfa import (
    BoolFn,
    CANONICAL_TABLES,
    NAMED_TABLES,
    is_proper,
    proper_functions,
)


def truth_rows(f):
    return [f(x, y) for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))]


class TestBoolFn:
    def test_named_tables(self):
        # table bits are f(0,0) f(0,1) f(1,0) f(1,1), most significant first
        assert BoolFn.by_name("and").table == 0b0001
        assert BoolFn.by_name("or").table == 0b0111
        assert BoolFn.by_name("xor").table == 0b0110
        assert BoolFn.by_name("nand").table == 0b1110
        assert BoolFn.by_name("nor").table == 0b1000
        assert BoolFn.by_name("xnor").table == 0b1001
        assert BoolFn.by_name("diff").table == 0b0010
        assert BoolFn.by_name("rdiff").table == 0b0100
        assert BoolFn.by_name("impl").table == 0b1101
        assert BoolFn.by_name("rimpl").table == 0b1011
        assert len(NAMED_TABLES) == 10

    def test_evaluation(self):
        assert truth_rows(BoolFn.by_name("and")) == [0, 0, 0, 1]
        assert truth_rows(BoolFn.by_name("xor")) == [0, 1, 1, 0]
        assert truth_rows(BoolFn.by_name("impl")) == [1, 1, 0, 1]
        assert truth_rows(BoolFn.by_name("diff")) == [0, 0, 1, 0]

    @given(st.integers(0, 15))
    def test_table_round_trip(self, table):
        f = BoolFn.by_table(table)
        bits = "".join(str(int(v)) for v in truth_rows(f))
        assert int(bits, 2) == table
        assert f.bits() == format(table, "04b")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            BoolFn.by_name("nope")

    def test_table_range(self):
        with pytest.raises(ValueError):
            BoolFn.by_table(16)
        with pytest.raises(ValueError):
            BoolFn.by_table(-1)

    def test_parse(self):
        assert BoolFn.parse("xor").table == 0b0110
        assert BoolFn.parse("0110").table == 0b0110
        assert BoolFn.parse("1111").table == 0b1111
        with pytest.raises(ValueError):
            BoolFn.parse("01102")
        with pytest.raises(ValueError):
            BoolFn.parse("")

    def test_label(self):
        assert BoolFn.by_name("xor").label() == "xor"
        assert BoolFn.by_table(0b0000).label() == "0000"

    @given(st.integers(0, 15))
    def test_complement(self, table):
        f = BoolFn.by_table(table)
        g = BoolFn.by_table(f.table ^ 0b1111)
        for x, y in itertools.product((0, 1), repeat=2):
            assert g(x, y) == (not f(x, y))


class TestProperness:
    def test_exactly_ten(self):
        props = proper_functions()
        assert len(props) == 10
        assert [f.table for f in props] == sorted(f.table for f in props)
        assert {f.table for f in props} == set(NAMED_TABLES.values())

    def test_improper_examples(self):
        # constants and the four one-argument projections
        for table in (0b0000, 0b1111, 0b0011, 0b1100, 0b0101, 0b1010):
            assert not is_proper(BoolFn.by_table(table))

    @given(st.integers(0, 15))
    def test_proper_means_both_arguments_matter(self, table):
        f = BoolFn.by_table(table)
        dep_x = any(f(0, y) != f(1, y) for y in (0, 1))
        dep_y = any(f(x, 0) != f(x, 1) for x in (0, 1))
        constant = len({f(x, y) for x in (0, 1) for y in (0, 1)}) == 1
        assert is_proper(f) == (dep_x and dep_y and not constant)


class TestRepresentative:
    def test_canonical_set(self):
        assert CANONICAL_TABLES == (0b0001, 0b0010, 0b0100, 0b0110, 0b0111)

    def test_collapse(self):
        assert BoolFn.by_name("nand").table ^ 0b1111 == 0b0001
        assert BoolFn.by_name("nor").table ^ 0b1111 == 0b0111
        assert BoolFn.by_name("xnor").table ^ 0b1111 == 0b0110
        assert BoolFn.by_name("impl").table ^ 0b1111 == 0b0010
        assert BoolFn.by_name("rimpl").table ^ 0b1111 == 0b0100

    def test_every_proper_lands_in_canonical(self):
        for f in proper_functions():
            hits = [t in CANONICAL_TABLES for t in (f.table, f.table ^ 0b1111)]
            assert hits.count(True) == 1, f
