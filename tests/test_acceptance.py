"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Every expected value below was
computed with the stated independent route (powering oracle, exhaustive
enumeration, representability sieve) before being frozen here.
"""

import math
import time
from collections import Counter

from companion_exponents import (
    CompanionSpec,
    companion_matrix,
    conductor,
    count_imprimitive,
    count_primitive,
    cycle_lengths,
    exponent,
    f_strings,
    imprimitivity_index,
    is_primitive,
    list_imprimitive,
    local_exponent,
    oracle_exponent,
    pair_conductor,
    progression_conductor,
    representable,
    string_count_table,
    t_runs,
    vertex_partition,
    wielandt_bound,
)
from companion_exponents.core import longest_run
from helpers import binary_strings, irreducible_rows, longest_zero_run, representable_sieve

KNOWN_IMPRIMITIVE_TAILS_8 = {
    "0000000", "0100000", "0001000", "0000010",
    "0101000", "0100010", "0001010", "0101010",
}


def primitive_specs(n):
    for row in irreducible_rows(n):
        spec = CompanionSpec(n, row)
        if is_primitive(spec):
            yield spec


def report(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_01_imprimitive_counts():
    start = time.perf_counter()
    assert count_imprimitive(8) == 8
    assert {row[1:] for row in list_imprimitive(8)} == KNOWN_IMPRIMITIVE_TAILS_8
    assert count_imprimitive(10) == 17
    assert count_primitive(8) == 120
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"imprimitive counts 8/17 and |CP_8|=120 in {elapsed:.3f}s")


def test_criterion_02_formula_vs_enumeration():
    start = time.perf_counter()
    for n in range(3, 13):
        enumerated = sum(
            1 for row in irreducible_rows(n)
            if imprimitivity_index(CompanionSpec(n, row)) > 1
        )
        assert count_imprimitive(n) == enumerated
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"inclusion-exclusion matches enumeration for n=3..12 in {elapsed:.1f}s")


def test_criterion_03_dispatch_soundness():
    start = time.perf_counter()
    checked = 0
    for n in range(3, 11):
        for spec in primitive_specs(n):
            assert exponent(spec).value == oracle_exponent(companion_matrix(spec))
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(3, f"dispatch equals oracle on {checked} primitive specs (n=3..10) in {elapsed:.1f}s")


def test_criterion_04_wielandt_sharpness_and_uniqueness(census_cache):
    for n in range(3, 11):
        top_spec = CompanionSpec(n, "11" + "0" * (n - 2))
        bound = wielandt_bound(n)
        assert oracle_exponent(companion_matrix(top_spec)) == bound
        record = census_cache(n)
        assert record.histogram[n] == 1
        assert record.witnesses[n] == "1" * n
        assert record.histogram[bound] == 1
        assert record.witnesses[bound] == top_spec.row_string
    report(4, "Wielandt bound attained exactly once per order, as is the minimum n")


def test_criterion_05_positive_trace_rule():
    for n in range(3, 11):
        for spec in primitive_specs(n):
            if spec.row[-1] != 1:
                continue
            expected = n + longest_run(vertex_partition(spec).zeros)
            assert oracle_exponent(companion_matrix(spec)) == expected
    positive_trace_11 = sum(
        1 for spec in primitive_specs(8)
        if spec.row[-1] == 1 and oracle_exponent(companion_matrix(spec)) == 11
    )
    assert positive_trace_11 == 12
    assert sum(f_strings(6, x, 3) for x in range(3, 7)) == 12
    report(5, "positive-trace exponents equal n + longest zero run; 12 specs hit 11 at n=8")


def test_criterion_06_two_cycle_rule():
    checked = 0
    for n in range(3, 13):
        for s in range(2, n):
            if math.gcd(n, s) != 1:
                continue
            row = ["0"] * n
            row[0] = "1"
            row[n - s] = "1"  # support {1, n-s+1}
            spec = CompanionSpec(n, "".join(row))
            assert cycle_lengths(spec) == (s, n)
            assert oracle_exponent(companion_matrix(spec)) == n + s * (n - 2)
            checked += 1
    report(6, f"two-cycle exponents match n + s(n-2) for {checked} (n, s) pairs")


def test_criterion_07_origin_local_exponent():
    for n in range(3, 11):
        for spec in primitive_specs(n):
            if spec.row[-1] != 0:
                continue
            expected = n + conductor(cycle_lengths(spec))
            assert local_exponent(companion_matrix(spec), 1, 1) == expected
    report(7, "exp(1 -> 1) equals n + conductor(cycle lengths) for zero trace, n=3..10")


def test_criterion_08_known_local_exponents():
    m8 = companion_matrix(CompanionSpec(8, "10011000"))
    assert local_exponent(m8, 1, 4) == 15
    assert local_exponent(m8, 1, 5) == 16
    m16 = companion_matrix(CompanionSpec(16, "1101100100010010"))
    assert local_exponent(m16, 1, 15) == 18
    assert local_exponent(m16, 1, 12) == 20
    report(8, "known local exponents 15/16 (n=8) and 18/20 (n=16) reproduced")


def test_criterion_09_membership_claims(census_cache):
    record10 = census_cache(10)
    assert all(t in record10.histogram for t in range(10, 19))
    assert 21 in record10.histogram and 22 in record10.histogram
    start = time.perf_counter()
    record15 = census_cache(15)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    member, witness = record15.membership(33)
    assert member and witness is not None
    assert oracle_exponent(companion_matrix(CompanionSpec(15, witness))) == 33
    report(9, f"[10,18] and {{21,22}} inside E(CP_10); 33 in E(CP_15) "
              f"(witness {witness}, census in {elapsed:.1f}s)")


def test_criterion_10_string_counts():
    exact = {s for s in binary_strings(6) if s.count("0") == 4 and longest_zero_run(s) == 2}
    assert exact == {"100100", "010100", "010010", "001100", "001010", "001001"}
    assert f_strings(6, 4, 2) == 6
    avoiding = {s for s in binary_strings(3) if "11" not in s}
    assert avoiding == {"000", "101", "001", "100", "010"}
    assert t_runs(2, 3) == 5
    for n in range(0, 13):
        table = string_count_table(n)
        assert sum(table.count(x, k) for x in range(n + 1) for k in range(n + 1)) == 1 << n
        brute = Counter((s.count("0"), longest_zero_run(s)) for s in binary_strings(n))
        for (x, k), count in brute.items():
            assert f_strings(n, x, k) == count
    report(10, "string counts match explicit sets and exhaustive enumeration for n<=12")


def certify_window(c, gens):
    """c - 1 is not representable and the next max(gens) + 1 integers are, by the
    test sieve and by `representable`; the window then covers every larger integer."""
    table = representable_sieve(gens, c + max(gens))
    if c > 0:
        assert not table[c - 1] and not representable(c - 1, gens)
    assert all(table[c:])
    assert all(representable(x, gens) for x in range(c, c + max(gens) + 1))


def test_criterion_11_conductor_formulas():
    pairs = 0
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if math.gcd(a, b) != 1:
                continue
            c = pair_conductor(a, b)
            assert c == conductor((a, b))
            certify_window(c, (a, b))
            pairs += 1
    progressions = 0
    for start in range(2, 13):
        for step in range(1, 4):
            if math.gcd(start, step) != 1:
                continue
            for steps in range(1, 5):
                gens = tuple(start + j * step for j in range(steps + 1))
                c = progression_conductor(start, step, steps)
                assert c == conductor(gens)
                certify_window(c, gens)
                progressions += 1
    report(11, f"pair and progression formulas match conductor() "
               f"({pairs} pairs, {progressions} progressions), windows certified by the sieve")


def test_criterion_12_smallest_cycle_two_bounds(census_cache):
    for n in range(5, 14, 2):
        for spec in primitive_specs(n):
            if spec.row[-1] != 0 or cycle_lengths(spec)[0] != 2:
                continue
            assert n <= exponent(spec).value <= 3 * n - 4
    for n in range(4, 13, 2):
        for spec in primitive_specs(n):
            if spec.row[-1] != 0 or cycle_lengths(spec)[0] != 2:
                continue
            assert exponent(spec).value <= 2 * n - 2
    for n in range(5, 14, 2):
        record = census_cache(n)
        for x in range((n - 3) // 2 + 1):
            assert 2 * n - 1 + 2 * x in record.histogram
    report(12, "smallest-cycle-2 exponents bounded ([n,3n-4] odd, <=2n-2 even); "
               "odd orders attain 2n-1+2x")
