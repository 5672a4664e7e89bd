"""Conductor computations: residue shortest paths, pair and progression formulas, against a sieve."""

import math
import timeit
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from companion_exponents import (
    CompanionSpec,
    GeneratorSet,
    NotCoprimeError,
    conductor,
    pair_conductor,
    progression_conductor,
    representable,
)
from companion_exponents import formulas, frobenius
from companion_exponents.frobenius import MAX_CONDUCTOR_WORK
from helpers import (
    coefficient_search_representable,
    least_residues_reference,
    local_exponent_from_last,
    representable_sieve,
    scan_conductor,
)

coprime_sets = (
    st.sets(st.integers(2, 24), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda g: math.gcd(*g) == 1)
)


class TestGeneratorSet:
    def test_normalizes(self):
        g = GeneratorSet.of([6, 4, 6, 10])
        assert g.values == (4, 6, 10)
        assert g.gcd == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GeneratorSet.of([0, 3])
        with pytest.raises(ValueError):
            GeneratorSet.of([])

    def test_idempotent(self):
        g = GeneratorSet.of([3, 5])
        assert GeneratorSet.of(g) is g


class TestRepresentable:
    def test_zero_always(self):
        assert representable(0, (5, 6, 7))
        assert representable(0, (2,))

    def test_known_misses(self):
        assert not representable(9, (5, 6, 7))
        assert not representable(7, (3, 5))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            representable(-1, (2, 3))

    @given(st.integers(0, 60), st.sets(st.integers(2, 15), min_size=1, max_size=3))
    def test_matches_coefficient_search(self, x, gens):
        assert representable(x, gens) == coefficient_search_representable(x, tuple(gens))

    @given(st.sets(st.integers(1, 40), min_size=1, max_size=6), st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_matches_sieve(self, gens, limit):
        # any gcd: classes the generators cannot reach stay unrepresentable
        assert [representable(x, gens) for x in range(limit + 1)] == representable_sieve(gens, limit)

    def test_generators_above_x_are_not_folded(self):
        # 1000 residue classes modulo 5000 would be over MAX_CONDUCTOR_WORK, but none is <= 3
        assert not representable(3, range(5000, 6000))
        assert representable(5001, range(5000, 6000))

    def test_huge_x_reads_one_entry(self):
        assert representable(10**18, (2, 3)) and not representable(10**18 + 1, (2, 4))
        assert min(timeit.repeat(lambda: representable(10**18, (2, 3)), number=1, repeat=5)) < 1e-3
        tracemalloc.start()
        try:
            representable(10**18, (2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_work_limit_counts_residue_classes(self, monkeypatch):
        monkeypatch.setattr(frobenius, "MAX_CONDUCTOR_WORK", 20)
        assert representable(89, (10, 11, 21, 31, 41)) is False  # two classes modulo 10
        with pytest.raises(ValueError, match="MAX_CONDUCTOR_WORK"):
            representable(89, (10, 11, 12))


class TestLeastResidues:
    @given(st.integers(1, 3), st.sets(st.integers(1, 15), min_size=1, max_size=4),
           st.lists(st.integers(0, 60), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_sieve_from_any_start(self, g, base, values):
        # g > 1 leaves classes no start reaches at inf; the values fall in several classes
        gens = {g * b for b in base}
        a = min(gens)
        start = [(d % a, d) for d in values]
        assert frobenius.least_residues(gens, start) == least_residues_reference(gens, start)
        assert frobenius.least_residues(gens) == least_residues_reference(gens, [(0, 0)])

    def test_refuses_before_reading_start(self, monkeypatch):
        def start():
            raise AssertionError("start read before the cap check")
            yield

        monkeypatch.setattr(frobenius, "MAX_CONDUCTOR_WORK", 20)
        with pytest.raises(ValueError, match="smallest generator 10 times 3 generators"):
            frobenius.least_residues((10, 11, 12), start())


class TestPairConductor:
    def test_small_pairs(self):
        assert pair_conductor(2, 3) == 2
        assert pair_conductor(3, 5) == 8
        assert pair_conductor(8, 7) == 42

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            pair_conductor(4, 6)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            pair_conductor(1, 5)

    def test_matches_sieve_spot(self):
        for a, b in [(2, 3), (3, 4), (4, 9), (5, 7), (11, 13)]:
            assert pair_conductor(a, b) == conductor((a, b))

    @given(st.integers(2, 10_000), st.integers(2, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_residue_paths(self, a, b):
        assume(math.gcd(a, b) == 1)
        assert pair_conductor(a, b) == conductor((a, b))


class TestProgressionConductor:
    def test_examples(self):
        assert progression_conductor(5, 1, 2) == 10   # generators 5, 6, 7
        assert progression_conductor(4, 1, 2) == 8    # generators 4, 5, 6
        assert progression_conductor(2, 1, 1) == 2    # generators 2, 3

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            progression_conductor(4, 2, 1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            progression_conductor(1, 1, 1)
        with pytest.raises(ValueError):
            progression_conductor(5, 0, 2)
        with pytest.raises(ValueError):
            progression_conductor(5, 1, 0)


class TestConductor:
    def test_unit_generator(self):
        assert conductor((1,)) == 0
        assert conductor((3, 1)) == 0

    def test_worked_set(self):
        assert conductor((8, 5, 4)) == 12

    def test_no_coprime_pair_needed(self):
        assert conductor((6, 10, 15)) == scan_conductor((6, 10, 15)) == 30

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            conductor((4, 6))
        with pytest.raises(NotCoprimeError):
            conductor((2,))

    def test_repeated_classes_fold_once(self, monkeypatch):
        # 21, 31, .. are 11 plus multiples of 10: they add nothing, and the work is 10 * 2
        monkeypatch.setattr(frobenius, "MAX_CONDUCTOR_WORK", 20)
        assert conductor((10, 11, 21, 31, 41, 30)) == 90
        with pytest.raises(ValueError, match="smallest generator 10 times 3 generators exceeds the limit 20 "):
            conductor((10, 11, 21, 32))
        # least_residues counts classes too; the all-vertex fold refuses a * (cycle lengths) itself
        assert frobenius.least_residues((10, 11, 21)) == frobenius.least_residues((10, 11))
        spec = CompanionSpec(21, "1" + "0" * 9 + "11" + "0" * 9)  # cycle lengths 10, 11 and 21
        assert formulas.exponent_from_last(spec, 1) == local_exponent_from_last(spec.row_string, 1)
        with pytest.raises(ValueError, match="smallest generator 10 times 3 generators exceeds the limit 20 "):
            formulas.local_exponents_from_last(spec)

    def test_work_limit(self, monkeypatch):
        a = MAX_CONDUCTOR_WORK // 2
        with pytest.raises(ValueError, match="MAX_CONDUCTOR_WORK"):
            conductor((a + 1, a + 2))
        with pytest.raises(ValueError, match="MAX_CONDUCTOR_WORK"):
            conductor((a, a + 1, a + 2))
        monkeypatch.setattr(frobenius, "MAX_CONDUCTOR_WORK", 20)
        assert conductor((10, 11)) == 90
        with pytest.raises(ValueError, match="MAX_CONDUCTOR_WORK"):
            conductor((11, 12))

    @given(coprime_sets)
    @settings(max_examples=60, deadline=None)
    def test_matches_upward_scan(self, gens):
        assert conductor(gens) == scan_conductor(gens)

    @given(coprime_sets)
    @settings(max_examples=60, deadline=None)
    def test_certification_window(self, gens):
        c = conductor(gens)
        table = representable_sieve(gens, c + max(gens))
        if c > 0:
            assert not table[c - 1] and not representable(c - 1, gens)
        assert all(table[c:])
        assert all(representable(x, gens) for x in range(c, c + max(gens) + 1))

    @given(coprime_sets, st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_extra_generator_never_hurts(self, gens, extra):
        assert conductor(tuple(gens) + (extra,)) <= conductor(gens)
