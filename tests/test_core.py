"""Spec modeling, vertex partitions, runs, cycle structure, and the package's exported names."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import companion_exponents
from companion_exponents import (
    BoolMatrix,
    CompanionSpec,
    NotPrimitiveError,
    ReducibleError,
    companion_matrix,
    cycle_lengths,
    exponent,
    imprimitivity_index,
    is_irreducible,
    is_primitive,
    longest_run,
    oracle_exponent,
    vertex_partition,
    wielandt_bound,
)
from helpers import as_lists, digraph_cycle_lengths, irreducible_rows, longest_consecutive_run


class TestCompanionSpec:
    def test_row_string_round_trip(self):
        spec = CompanionSpec(8, "10011000")
        assert spec.row == (1, 0, 0, 1, 1, 0, 0, 0)
        assert spec.row_string == "10011000"

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            CompanionSpec(1, "1")

    def test_accepts_order_two(self):
        spec = CompanionSpec(2, "11")
        assert is_primitive(spec)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            CompanionSpec(3, (1, 2, 0))

    def test_tuple_row(self):
        assert CompanionSpec(8, (1, 0, 0, 1, 1, 0, 0, 0)) == CompanionSpec(8, "10011000")

    def test_tuple_row_stores_ints(self):
        # 1.0 and True equal 1, so they pass the bit check; the spec keeps the ints
        spec = CompanionSpec(3, (1, 0, 1.0))
        assert spec == CompanionSpec(3, (True, False, True)) == CompanionSpec(3, "101")
        assert all(type(b) is int for b in spec.row)
        assert spec.row_string == "101"
        assert companion_matrix(spec) == companion_matrix(CompanionSpec(3, "101"))
        assert exponent(spec) == exponent(CompanionSpec(3, "101"))

    # int() accepts the fullwidth digit "１" (and "+1", " 1"), so the parser must refuse them itself
    @pytest.mark.parametrize("row", ["", "1 01", " 101", "101\n", "012", "+1", "\uff110"])
    def test_rejects_row_strings_int_would_read(self, row):
        message = f"row must be a nonempty string over 0/1, got {row!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CompanionSpec(3, row)


class TestBuildMatrix:
    def test_order_three(self):
        m = companion_matrix(CompanionSpec(3, "101"))
        assert as_lists(m) == [[0, 1, 0], [0, 0, 1], [1, 0, 1]]

    def test_order_two(self):
        m = companion_matrix(CompanionSpec(2, "11"))
        assert as_lists(m) == [[0, 1], [1, 1]]

    def test_last_row_columns(self):
        m = companion_matrix(CompanionSpec(8, "10101010"))
        ones = {j for j in range(1, 9) if m.rows[7] >> (j - 1) & 1}
        assert ones == {1, 3, 5, 7}

    def test_superdiagonal(self):
        m = companion_matrix(CompanionSpec(6, "100110"))
        for i in range(1, 6):
            assert [j for j in range(1, 7) if m.rows[i - 1] >> (j - 1) & 1] == [i + 1]

    def test_injective_on_order_five(self):
        matrices = {companion_matrix(CompanionSpec(5, format(v, "05b"))) for v in range(32)}
        assert len(matrices) == 32


class TestBoolMatrix:
    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="need exactly n=3 row bitmasks, got 2"):
            BoolMatrix(3, (1, 2))

    @pytest.mark.parametrize("row", [-1, 8])
    def test_rejects_out_of_range_row(self, row):
        with pytest.raises(ValueError, match="row bitmask out of range"):
            BoolMatrix(3, (1, 2, row))

    def test_ones_and_identity(self):
        assert as_lists(BoolMatrix(3, (0b111,) * 3)) == [[1] * 3] * 3
        assert as_lists(BoolMatrix.identity(3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestPartition:
    def test_worked_example(self):
        part = vertex_partition(CompanionSpec(10, "1010101000"))
        assert part.support == {1, 3, 5, 7}
        assert part.zeros == {2, 4, 6, 8, 9, 10}

    def test_all_ones(self):
        part = vertex_partition(CompanionSpec(5, "11111"))
        assert part.zeros == frozenset()

    def test_single_support(self):
        part = vertex_partition(CompanionSpec(6, "100000"))
        assert part.support == {1}


class TestLongestRun:
    def test_worked_example(self):
        assert longest_run({2, 3, 5, 7, 8, 9, 10, 13, 14}) == 4

    def test_empty(self):
        assert longest_run(set()) == 0

    def test_partition_example(self):
        part = vertex_partition(CompanionSpec(10, "1010101000"))
        assert longest_run(part.zeros) == 3

    @given(st.integers(1, 40), st.integers(0, 10))
    def test_interval(self, a, extra):
        assert longest_run(range(a, a + extra + 1)) == extra + 1

    @given(st.sets(st.integers(1, 40)))
    def test_against_scan(self, indices):
        assert longest_run(indices) == longest_consecutive_run(indices)

    @given(st.sets(st.integers(1, 40)))
    def test_zero_iff_empty(self, indices):
        assert (longest_run(indices) == 0) == (not indices)


class TestCycleLengths:
    def test_imprimitive_example(self):
        assert cycle_lengths(CompanionSpec(8, "10101010")) == (2, 4, 6, 8)

    def test_wide_example(self):
        spec = CompanionSpec(16, "1101100100010010")
        assert cycle_lengths(spec) == (2, 5, 9, 12, 13, 15, 16)

    def test_all_ones(self):
        assert cycle_lengths(CompanionSpec(6, "111111")) == (1, 2, 3, 4, 5, 6)

    def test_reducible_raises(self):
        with pytest.raises(ReducibleError):
            cycle_lengths(CompanionSpec(4, "0101"))

    @given(st.integers(2, 64).flatmap(lambda n: st.integers(0, (1 << (n - 1)) - 1).map(
        lambda y: "1" + format(y, f"0{n - 1}b"))))
    def test_ascending_from_the_support(self, row):
        n = len(row)
        expected = tuple(sorted({n - i + 1 for i in range(1, n + 1) if row[i - 1] == "1"}))
        assert cycle_lengths(CompanionSpec(n, row)) == expected

    def test_matches_generic_enumeration(self):
        for n in range(2, 8):
            for row in irreducible_rows(n):
                spec = CompanionSpec(n, row)
                lengths = cycle_lengths(spec)
                assert lengths == digraph_cycle_lengths(as_lists(companion_matrix(spec)))
                assert len(lengths) == len(vertex_partition(spec).support)
                assert lengths[-1] == n


class TestPrimitivity:
    def test_is_irreducible(self):
        assert not is_irreducible(CompanionSpec(5, "01010"))
        assert is_irreducible(CompanionSpec(8, "10000000"))
        assert is_irreducible(CompanionSpec(4, "1111"))

    def test_imprimitivity_index(self):
        assert imprimitivity_index(CompanionSpec(8, "10101010")) == 2
        assert imprimitivity_index(CompanionSpec(8, "11000000")) == 1
        assert imprimitivity_index(CompanionSpec(8, "10000000")) == 8

    def test_index_reducible_raises(self):
        with pytest.raises(ReducibleError):
            imprimitivity_index(CompanionSpec(8, "00000001"))

    def test_is_primitive_examples(self):
        assert is_primitive(CompanionSpec(7, "1100000"))
        assert not is_primitive(CompanionSpec(8, "10000000"))
        assert not is_primitive(CompanionSpec(5, "01111"))

    def test_order_ten_has_seventeen_imprimitive(self):
        imprimitive = [row for row in irreducible_rows(10)
                       if not is_primitive(CompanionSpec(10, row))]
        assert len(imprimitive) == 17

    def test_gcd_test_matches_power_test_exhaustively(self):
        # primitivity via cycle gcd against all-positive power at the cutoff
        for n in range(2, 11):
            for row in irreducible_rows(n):
                spec = CompanionSpec(n, row)
                if is_primitive(spec):
                    assert oracle_exponent(companion_matrix(spec)) <= wielandt_bound(n)
                else:
                    with pytest.raises(NotPrimitiveError):
                        oracle_exponent(companion_matrix(spec))


def test_wielandt_bound_values():
    assert wielandt_bound(3) == 5
    assert wielandt_bound(5) == 17
    assert wielandt_bound(8) == 50


def imported_from_package(path: Path) -> set[str]:
    """Names a source file imports with `from companion_exponents import ...`."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "companion_exponents"
            for alias in node.names}


class TestPublicApi:
    ROOT = Path(__file__).resolve().parents[1]

    def test_every_exported_name_resolves_once(self):
        names = companion_exponents.__all__
        assert len(names) == len(set(names))
        assert [name for name in names if not hasattr(companion_exponents, name)] == []

    @pytest.mark.parametrize("user", ["perfbench/make_reference.py", "tests/test_acceptance.py"])
    def test_exports_every_name_the_benchmark_and_criteria_import(self, user):
        imported = imported_from_package(self.ROOT / user)
        assert imported and imported <= set(companion_exponents.__all__)
