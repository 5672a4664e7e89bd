"""Boolean powering oracle: products, exponents, local exponents, stopping rule, order caps."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from companion_exponents import (
    BoolMatrix,
    CompanionSpec,
    LocalExponentTable,
    NotPrimitiveError,
    bool_product,
    companion_matrix,
    counting,
    is_primitive,
    local_exponent,
    local_exponent_table,
    local_exponents_from_last,
    oracle,
    oracle_exponent,
    wielandt_bound,
)
from helpers import (
    as_lists,
    bit_slice,
    column_batch_exponents,
    irreducible_rows,
    local_exponent_from_last,
    naive_bool_product,
    stabilization_point,
    structural_exponent,
    walk_exists,
)


matrices = st.integers(1, 16).flatmap(
    lambda n: st.builds(
        BoolMatrix,
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n).map(tuple),
    )
)


@st.composite
def general_matrices(draw, max_order, min_order=1):
    """Random matrices of order min_order..max_order, often on a random n-cycle.

    Each row ANDs 1-4 random masks; half the time the edges of a random
    Hamiltonian cycle are added.  That mixes dense matrices, sparse
    strongly connected ones with long exponents, and imprimitive or
    reducible ones.
    """
    n = draw(st.integers(min_order, max_order))
    masks = st.integers(0, (1 << n) - 1)
    thin = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        row = (1 << n) - 1
        for _ in range(thin):
            row &= draw(masks)
        rows.append(row)
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a] |= 1 << b
    return BoolMatrix(n, tuple(rows))


@st.composite
def primitive_companion_rows(draw, min_order, max_order):
    """Irreducible primitive rows; a drawn row that is not primitive gets a cycle of length n - 1."""
    n = draw(st.integers(min_order, max_order))
    row = "1" + format(draw(st.integers(0, (1 << (n - 1)) - 1)), f"0{n - 1}b")
    if not is_primitive(CompanionSpec(n, row)):
        row = "11" + row[2:]
    return row


def primitive_specs(orders):
    for n in orders:
        for row in irreducible_rows(n):
            spec = CompanionSpec(n, row)
            if is_primitive(spec):
                yield spec


def naive_powers(m):
    """m**1 .. m**bound as nested lists, by repeated triple-loop products."""
    entries = as_lists(m)
    out = [entries]
    for _ in range(wielandt_bound(m.n) - 1):
        out.append(naive_bool_product(out[-1], entries))
    return out


def product_chain(m):
    """m**1 .. m**bound, each power the bool_product of the one before and m."""
    powers = [m]
    for _ in range(wielandt_bound(m.n) - 1):
        powers.append(bool_product(powers[-1], m))
    return powers


class TestBoolProduct:
    @given(matrices)
    def test_identity(self, m):
        eye = BoolMatrix.identity(m.n)
        assert bool_product(eye, m) == m
        assert bool_product(m, eye) == m

    def test_all_ones_idempotent(self):
        j = BoolMatrix(4, (0b1111,) * 4)
        assert bool_product(j, j) == j

    def test_companion_square_order_three(self):
        m = companion_matrix(CompanionSpec(3, "111"))
        sq = bool_product(m, m)
        assert as_lists(sq)[2] == [1, 1, 1]

    @given(matrices, st.randoms(use_true_random=False))
    def test_matches_naive(self, x, rng):
        y = BoolMatrix(x.n, tuple(rng.randrange(1 << x.n) for _ in range(x.n)))
        expected = naive_bool_product(as_lists(x), as_lists(y))
        assert as_lists(bool_product(x, y)) == expected

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            bool_product(BoolMatrix.identity(2), BoolMatrix.identity(3))


class TestExponent:
    def test_all_ones(self):
        assert oracle_exponent(BoolMatrix(4, (0b1111,) * 4)) == 1

    def test_wielandt_sharp_example(self):
        assert oracle_exponent(companion_matrix(CompanionSpec(5, "11000"))) == 17

    def test_full_row_order_three(self):
        assert oracle_exponent(companion_matrix(CompanionSpec(3, "111"))) == 3

    def test_order_two(self):
        assert oracle_exponent(companion_matrix(CompanionSpec(2, "11"))) == 2

    def test_imprimitive_raises(self):
        with pytest.raises(NotPrimitiveError):
            oracle_exponent(companion_matrix(CompanionSpec(8, "10101010")))

    def test_reducible_raises(self):
        with pytest.raises(NotPrimitiveError):
            oracle_exponent(companion_matrix(CompanionSpec(8, "01111111")))


class TestGeneralMatrices:
    """The packed kernel against triple-loop products and frontier walks."""

    @given(general_matrices(8))
    @settings(deadline=None)
    def test_exponent_matches_naive_powers(self, m):
        positive = [k for k, p in enumerate(naive_powers(m), 1) if all(map(all, p))]
        if positive:
            assert oracle_exponent(m) == positive[0]
        else:
            with pytest.raises(NotPrimitiveError):
                oracle_exponent(m)

    @given(general_matrices(8))
    @settings(deadline=None)
    def test_bool_product_chain_matches_naive_powers(self, m):
        assert [as_lists(p) for p in product_chain(m)] == naive_powers(m)

    @given(general_matrices(16))
    @example(BoolMatrix(1, (0,)))
    @example(BoolMatrix(1, (1,)))
    @example(BoolMatrix(2, (0b10, 0b01)))
    @example(BoolMatrix(2, (0b10, 0b11)))
    @settings(deadline=None)
    def test_positive_power_by_squaring_matches_power_at_bound(self, m):
        at_bound = set(product_chain(m)[-1].rows) == {(1 << m.n) - 1}
        try:
            oracle_exponent(m)
        except NotPrimitiveError:
            assert not at_bound
        else:
            assert at_bound

    @given(general_matrices(6))
    @settings(max_examples=60, deadline=None)
    def test_local_exponents_match_frontier_walks(self, m):
        n = m.n
        entries = as_lists(m)
        bound = wielandt_bound(n)
        if not all(walk_exists(entries, i, j, bound) for i in range(1, n + 1) for j in range(1, n + 1)):
            with pytest.raises(NotPrimitiveError):
                local_exponent_table(m)
            return
        table = local_exponent_table(m)
        for i in range(1, n + 1):
            expected = [stabilization_point(entries, i, j, bound) for j in range(1, n + 1)]
            assert list(table.values[i - 1]) == expected


batches = st.integers(1, 8).flatmap(lambda n: st.lists(general_matrices(n, n), min_size=1, max_size=12))


@st.composite
def sliced_batches(draw):
    """Bit-sliced batches of 1-64 matrices of order 1-7, drawn entry by entry.

    Each row is zero, one all-ones entry (a row the kernel copies) or random
    entries.  Then the members in a random mask are overwritten with the
    n-cycle permutation matrix, which is irreducible but not primitive
    for n >= 2.
    """
    n, count = draw(st.integers(1, 7)), draw(st.integers(1, 64))
    ones = (1 << count) - 1
    entries = st.integers(0, ones)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zero", "copy", "random")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "copy":
            l = draw(st.integers(0, n - 1))
            rows.append([ones if j == l else 0 for j in range(n)])
        else:
            rows.append([draw(entries) for _ in range(n)])
    cyclic = draw(entries)
    return [[e & ~cyclic | (cyclic if j == (i + 1) % n else 0) for j, e in enumerate(row)]
            for i, row in enumerate(rows)]


class TestBatchExponents:
    """The bit-sliced batch kernel against per-matrix packed powering."""

    @given(batches)
    @example([BoolMatrix(1, (0,))])
    @example([BoolMatrix(1, (1,))])
    @example([BoolMatrix(1, (0,)), BoolMatrix(1, (1,))])
    @example([BoolMatrix(2, (0b10, 0b01)), BoolMatrix(2, (0b10, 0b11)), BoolMatrix(2, (0b11, 0b00))])
    @example([companion_matrix(CompanionSpec(8, "11000000"))])
    @settings(deadline=None)
    def test_matches_per_matrix_exponent(self, batch):
        masks = oracle.batch_exponents(bit_slice(batch))
        assert list(masks) == sorted(masks)
        for r, m in enumerate(batch):
            found = [e for e, mask in masks.items() if mask >> r & 1]
            try:
                assert found == [oracle_exponent(m)]
            except NotPrimitiveError:
                assert found == []
        assert sum(masks.values()) < 1 << len(batch)

    @given(sliced_batches())
    @example([[0]])
    @example([[1]])
    @example([[0, 0b11], [0b11, 0]])  # two copies of the 2-cycle: imprimitive
    @example([[0, 0b11], [0b11, 0b01]])  # the second row is no copy; member 0 is primitive, member 1 not
    @settings(deadline=None, max_examples=300)
    def test_matches_column_order_kernel(self, batch):
        assert oracle.batch_exponents(batch) == column_batch_exponents(batch)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_companion_batches_match_column_order_kernel_and_walk(self, n):
        batch = bit_slice([companion_matrix(CompanionSpec(n, row)) for row in irreducible_rows(n)])
        assert oracle.batch_exponents(batch) == column_batch_exponents(batch) == counting._walk(n)

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_POWERING_ORDER", 8)
        wielandt = [companion_matrix(CompanionSpec(n, "11" + "0" * (n - 2))) for n in (8, 9)]
        assert oracle.batch_exponents(bit_slice(wielandt[:1])) == {wielandt_bound(8): 1}
        with pytest.raises(ValueError, match="MAX_POWERING_ORDER"):
            oracle.batch_exponents(bit_slice(wielandt[1:]))


class TestLocalExponent:
    def test_worked_values_order_eight(self):
        m = companion_matrix(CompanionSpec(8, "10011000"))
        assert local_exponent(m, 1, 4) == 15
        assert local_exponent(m, 1, 5) == 16

    def test_worked_values_order_sixteen(self):
        m = companion_matrix(CompanionSpec(16, "1101100100010010"))
        assert local_exponent(m, 1, 15) == 18
        assert local_exponent(m, 1, 12) == 20

    def test_loop_vertex_hits_support_immediately(self):
        # positive trace: the loop at n makes every length reach supported columns
        spec = CompanionSpec(8, "10011001")
        m = companion_matrix(spec)
        for j in (1, 4, 5, 8):
            assert local_exponent(m, 8, j) == 1

    def test_requires_primitive(self):
        with pytest.raises(NotPrimitiveError):
            local_exponent(companion_matrix(CompanionSpec(8, "10101010")), 1, 1)

    def test_vertex_bounds(self):
        m = companion_matrix(CompanionSpec(3, "111"))
        with pytest.raises(ValueError):
            local_exponent(m, 0, 1)
        with pytest.raises(ValueError):
            local_exponent(m, 1, 4)

    def test_table_refuses_vertices_outside_the_order(self):
        # Python indexing would read row 0 as row 4 and raise IndexError at row 5
        table = local_exponent_table(companion_matrix(CompanionSpec(4, "1100")))
        assert (table.get(1, 1), table.get(4, 1)) == (10, 7)
        for i, j in ((0, 1), (5, 1), (1, 0), (1, 5), (-1, -1)):
            with pytest.raises(ValueError, match=r"out of \[1, 4\]"):
                table.get(i, j)


class TestRowExponent:
    """Row i of m**k, and of every later power, is all-positive from the row's largest local exponent on."""

    def test_all_ones_row(self):
        m = companion_matrix(CompanionSpec(5, "11111"))
        assert max(local_exponent_table(m).values[4]) == 1

    def test_top_row_equals_exponent_for_zero_trace(self):
        spec = CompanionSpec(16, "1101100100010010")
        m = companion_matrix(spec)
        assert max(local_exponent_table(m).values[0]) == oracle_exponent(m) == 22
        assert 15 + max(local_exponents_from_last(spec)) == 22


class TestExponentMaxima:
    def test_exponent_is_max_of_locals_and_rows(self):
        for n in range(2, 9):
            for row in irreducible_rows(n):
                spec = CompanionSpec(n, row)
                if not is_primitive(spec):
                    continue
                m = companion_matrix(spec)
                table = local_exponent_table(m)
                overall = oracle_exponent(m)
                assert overall == max(
                    table.get(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                )
                assert all(
                    1 <= table.get(i, j) <= wielandt_bound(n)
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                )


class TestOrderingProperties:
    def test_monotone_under_adding_support(self):
        # turning a zero bit on never increases the exponent
        for n in range(3, 8):
            for row in irreducible_rows(n):
                spec = CompanionSpec(n, row)
                if not is_primitive(spec):
                    continue
                base = oracle_exponent(companion_matrix(spec))
                for pos in range(1, n + 1):
                    if spec.row[pos - 1] == 1:
                        continue
                    bigger = row[: pos - 1] + "1" + row[pos:]
                    assert oracle_exponent(companion_matrix(CompanionSpec(n, bigger))) <= base

    def test_zero_trace_row_exponents_strictly_decrease(self):
        for n in range(3, 8):
            for row in irreducible_rows(n):
                if row[-1] == "1":
                    continue
                spec = CompanionSpec(n, row)
                if not is_primitive(spec):
                    continue
                m = companion_matrix(spec)
                rows = [max(values) for values in local_exponent_table(m).values]
                assert all(rows[i] > rows[i + 1] for i in range(n - 1))


class TestWalkSemantics:
    def test_powers_match_frontier_walks(self):
        for n in range(2, 6):
            for row in irreducible_rows(n):
                m = companion_matrix(CompanionSpec(n, row))
                entries = as_lists(m)
                for k, power in enumerate(product_chain(m), 1):
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            assert bool(power.rows[i - 1] >> (j - 1) & 1) == walk_exists(entries, i, j, k)

    def test_table_type(self):
        table = local_exponent_table(companion_matrix(CompanionSpec(4, "1110")))
        assert isinstance(table, LocalExponentTable)
        assert table.n == 4


class TestStoppingRule:
    """Every scan stops at the first all-positive power; only non-primitive input reaches the bound."""

    @given(general_matrices(10))
    @settings(deadline=None)
    def test_exponent_takes_exp_minus_one_products(self, m):
        calls = Counter()
        real = oracle._times

        def counted(p, rows, slots):
            calls["product"] += 1
            return real(p, rows, slots)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_times", counted)
            try:
                value = oracle_exponent(m)
            except NotPrimitiveError:
                value = wielandt_bound(m.n)  # the sequence runs to the bound to certify it
            assert calls["product"] == value - 1

    def test_table_holds_exp_powers(self, monkeypatch):
        real = oracle._powers
        held = []

        def recorded(m):
            held.clear()
            for power in real(m):
                held.append(power)
                yield power

        monkeypatch.setattr(oracle, "_powers", recorded)
        for spec in primitive_specs(range(2, 8)):
            m = companion_matrix(spec)
            local_exponent_table(m)
            assert len(held) == oracle_exponent(m)


class TestStructuralWalk:
    """The per-row reach-set walk of tests/helpers.py against powering."""

    def test_exponent_matches_powering(self):
        for spec in primitive_specs(range(3, 11)):
            assert structural_exponent(spec.row_string) == oracle_exponent(companion_matrix(spec))

    def test_imprimitive_row_refused(self):
        with pytest.raises(ValueError):
            structural_exponent("10101010")

    @given(primitive_companion_rows(17, 64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_local_exponent_is_forced_steps_plus_walk_from_n(self, row, data):
        # e(n -> j) from the residue table against the reach sets from vertex n
        j = data.draw(st.integers(1, len(row)))
        assert local_exponents_from_last(CompanionSpec(len(row), row))[j - 1] == local_exponent_from_last(row, j)


class TestOrderCaps:
    """Every per-matrix oracle question refuses orders above the powering cap before doing any work."""

    @staticmethod
    def wielandt(n):
        return companion_matrix(CompanionSpec(n, "11" + "0" * (n - 2)))

    def test_powering_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_POWERING_ORDER", 8)
        m = self.wielandt(8)
        assert oracle_exponent(m) == local_exponent_table(m).get(1, 1) == wielandt_bound(8)
        for call in (oracle_exponent, local_exponent_table):
            with pytest.raises(ValueError, match="MAX_POWERING_ORDER"):
                call(self.wielandt(9))

    def test_row_walk_cap(self, monkeypatch):
        # local_exponent reads the whole power sequence, so the powering cap is its only cap
        monkeypatch.setattr(oracle, "MAX_POWERING_ORDER", 8)
        assert local_exponent(self.wielandt(8), 1, 1) == wielandt_bound(8)
        with pytest.raises(ValueError, match="MAX_POWERING_ORDER"):
            local_exponent(self.wielandt(9), 1, 1)

    def test_caps_stay_above_the_benchmarked_orders(self):
        assert oracle.MAX_POWERING_ORDER > 64
