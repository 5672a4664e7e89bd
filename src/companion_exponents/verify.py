"""Cross-validation suites behind the `verify` CLI command.

Each family re-derives a batch of facts two independent ways (closed form
against enumeration, gcd test against powering) and reports one PASS/FAIL
line.  Each order has one census walk (`counting._walk`) and one bit-sliced
powering batch (`counting.powered_census`), both masks of rows by exponent.
Primitivity holds one mask per order, of the rows whose cycle lengths have
gcd 1, against the batch.  Local-exponent-maxima reads the batch too: it
holds each exponent against the local-exponent table and n - 1 plus the
largest walk exponent from vertex n, after the published local exponents.
Dispatch-soundness is the census's own three-way check of every primitive
row's walk exponent against that batch and against the closed-form rule,
where one applies.  Counting and membership read the walk masks, which
dispatch-soundness has checked, so the count formulas are compared with an
enumeration that does not assume the rule they were derived from; the
run-avoidance counts are held against all 2**n strings bit-sliced (Biham,
FSE 1997), and the block-prefix bound against the zero runs of each row.
Conductors certifies seven conductors by powering: closed walks at vertex n have the lengths
of the cycle-length semigroup, so on the row with those cycles exp(n -> n) = max(1, conductor).
Cycle-structure's walk counter holds each vertex's frontier as a bitmask,
stepped along the edges, and stops each spec at its first repeated power:
the frontiers matched it at both steps, so every later step of both
walks repeats one already compared.  That power is all-positive exactly
when the spec is primitive, which certifies `core.is_primitive`.  Families
honor the requested maximum order but keep their own caps where the work
grows too fast to be useful at the command line.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import NamedTuple

from . import counting, formulas, frobenius, oracle
from .core import (
    BoolMatrix,
    CompanionSpec,
    companion_matrix,
    cycle_lengths,
    is_primitive,
    wielandt_bound,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


_Specs = dict[int, tuple[CompanionSpec, ...]]
_Records = dict[int, counting.CensusRecord]
_Masks = dict[int, dict[int, int]]  # order -> exponent -> mask of its rows, bit y for "1" + (n-1 bits of y)
_Lengths = dict[int, tuple[tuple[int, ...], ...]]  # order -> each irreducible spec's cycle lengths, in spec order


def _check_cycle_structure(irreducible: _Specs, lengths: _Lengths) -> CheckResult:
    n_max = max(irreducible)
    for n, specs in irreducible.items():
        for spec, found in zip(specs, lengths[n]):
            if len(found) != spec.row.count(1) or max(found) != n:
                return CheckResult("cycle-structure", False, f"bad lengths for {spec.n} {spec.row_string}")
    # walk counter: row i of the k-th power == the ends of i -> * walks of length k, held as a
    # bitmask (bit j - 1 for vertex j): the union, over the first steps i -> w, of w's frontier
    for n in range(3, min(n_max, 6) + 1):
        for spec in irreducible[n]:
            m = companion_matrix(spec)
            steps = [[w for w in range(n) if edges >> w & 1] for edges in m.rows]
            power, seen = BoolMatrix.identity(n), set()
            frontiers = power.rows
            for k in range(1, wielandt_bound(n) + 1):
                power = oracle.bool_product(power, m)
                frontiers = tuple(reduce(or_, map(frontiers.__getitem__, first), 0) for first in steps)
                if frontiers != power.rows:
                    i = next(i for i in range(n) if frontiers[i] != power.rows[i])
                    diff = frontiers[i] ^ power.rows[i]
                    return CheckResult(
                        "cycle-structure", False,
                        f"walk mismatch at {spec.n} {spec.row_string} ({i + 1},{(diff & -diff).bit_length()},{k})")
                if power.rows in seen:  # frontiers repeat with it, so every later step repeats a checked one
                    break
                seen.add(power.rows)
            if is_primitive(spec) != (power.rows == ((1 << n) - 1,) * n):  # all-positive: n ones in every row
                return CheckResult(
                    "cycle-structure", False, f"is_primitive disagrees with the walk on {spec.n} {spec.row_string}")
    checked = sum(map(len, irreducible.values()))
    return CheckResult("cycle-structure", True, f"{checked} specs, walk counter to order {min(n_max, 6)}")


def _check_primitivity(irreducible: _Specs, coprime: dict[int, list[bool]], powered: _Masks) -> CheckResult:
    for n, specs in irreducible.items():
        disagree = sum(flag << y for y, flag in enumerate(coprime[n])) ^ sum(powered[n].values())
        if disagree:
            spec = specs[(disagree & -disagree).bit_length() - 1]
            return CheckResult("primitivity", False, f"gcd test and power test disagree on {spec.n} {spec.row_string}")
    checked = sum(map(len, irreducible.values()))
    return CheckResult("primitivity", True, f"{checked} irreducible specs to order {max(irreducible)}")


# j -> exp(1 -> j) for the rows whose local exponents the paper works out
_PUBLISHED = {"10011000": {4: 15, 5: 16}, "1101100100010010": {15: 18, 12: 20}}


def _check_local_exponent_maxima(primitive: _Specs, powered: _Masks) -> CheckResult:
    for row, published in _PUBLISHED.items():
        spec = CompanionSpec(len(row), row)
        m = companion_matrix(spec)
        for j, value in published.items():
            found = {oracle.local_exponent(m, 1, j), spec.n - 1 + formulas.exponent_from_last(spec, j)}
            if found != {value}:
                return CheckResult("local-exponent-maxima", False,
                                   f"{spec.n} {row}: exp(1 -> {j}) in {sorted(found)}, published {value}")
    for n, specs in primitive.items():
        for spec in specs:
            table = oracle.local_exponent_table(companion_matrix(spec))
            y = int(spec.row_string[1:], 2)
            overall = next((e for e, mask in powered[n].items() if mask >> y & 1), None)
            max_local = max(map(max, table.values))
            from_last = n - 1 + max(formulas.local_exponents_from_last(spec))
            if not overall == max_local == from_last:
                return CheckResult(
                    "local-exponent-maxima", False,
                    f"{spec.n} {spec.row_string}: exp={overall} max_local={max_local} from_last={from_last}")
    checked = sum(map(len, primitive.values()))
    return CheckResult("local-exponent-maxima", True, f"{checked} primitive specs to order {max(primitive)}")


def _check_dispatch(irreducible: _Specs, walks: _Masks, powered: _Masks) -> CheckResult:
    checked = 0
    for n, masks in walks.items():
        try:
            counting._check_exponents(irreducible[n], masks, powered[n])
        except counting.DispatchMismatchError as exc:
            return CheckResult("dispatch-soundness", False, str(exc))
        checked += sum(mask.bit_count() for mask in masks.values())
    return CheckResult("dispatch-soundness", True, f"{checked} primitive specs to order {max(walks)}")


def _check_range_uniqueness(records: _Records) -> CheckResult:
    for n, record in records.items():
        bound = wielandt_bound(n)
        if record.exponent_set[0] != n or record.exponent_set[-1] > bound:
            return CheckResult("range-uniqueness", False, f"exponent set out of range at order {n}")
        if record.histogram[n] != 1 or record.witnesses[n] != "1" * n:
            return CheckResult("range-uniqueness", False, f"exponent {n} not unique at order {n}")
        expected_top = "11" + "0" * (n - 2)
        if record.histogram.get(bound) != 1 or record.witnesses.get(bound) != expected_top:
            return CheckResult("range-uniqueness", False, f"Wielandt bound not uniquely attained at order {n}")
    return CheckResult("range-uniqueness", True, f"orders 3..{max(records)}")


def _check_conductors() -> CheckResult:
    pairs = 0
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if math.gcd(a, b) != 1:
                continue
            if frobenius.pair_conductor(a, b) != frobenius.conductor((a, b)):
                return CheckResult("conductors", False, f"pair formula off at ({a}, {b})")
            pairs += 1
    progressions = 0
    for start in range(2, 13):
        for step in range(1, 4):
            if math.gcd(start, step) != 1:
                continue
            for steps in range(1, 5):
                gens = tuple(start + j * step for j in range(steps + 1))
                if frobenius.progression_conductor(start, step, steps) != frobenius.conductor(gens):
                    return CheckResult("conductors", False, f"progression formula off at {gens}")
                progressions += 1
    for gens in [(2, 3), (3, 5), (4, 5, 8), (5, 6, 7), (6, 10, 15), (7, 11), (9, 12, 13)]:
        c, n = frobenius.conductor(gens), max(gens)  # vertex n + 1 - g closes the cycle of length g
        m = companion_matrix(CompanionSpec(n, tuple(int(n + 1 - v in gens) for v in range(1, n + 1))))
        if (walked := oracle.local_exponent(m, n, n)) != max(1, c):
            return CheckResult("conductors", False, f"{gens}: conductor {c}, exp({n} -> {n}) = {walked}")
    return CheckResult("conductors", True, f"{pairs} pairs, {progressions} progressions, windows")


def _check_counting(irreducible: _Specs, primitive: _Specs, walks: _Masks) -> CheckResult:
    n_max = max(irreducible)
    for n, specs in irreducible.items():
        if counting.count_imprimitive(n) != len(specs) - len(primitive[n]):
            return CheckResult("counting", False, f"imprimitive count off at order {n}")
    for n in range(0, min(n_max, 10) + 1):
        table = counting.string_count_table(n)
        if sum(table.count(x, k) for x in range(n + 1) for k in range(n + 1)) != 1 << n:
            return CheckResult("counting", False, f"string counts do not sum to 2^{n}")
    # all strings v at once, bit v of position[p] for bit p of v: runs of r ones are r-fold ANDs
    length = min(n_max, 10)
    everything = (1 << (1 << length)) - 1
    position = [everything // ((1 << (2 << p)) - 1) * (((1 << (1 << p)) - 1) << (1 << p)) for p in range(length)]
    for r in range(2, 6):
        runs = 0
        for n in range(0, length + 1):
            runs |= reduce(and_, position[n - r:n]) if n >= r else 0
            brute = (1 << n) - (runs & ((1 << (1 << n)) - 1)).bit_count()
            if counting.t_runs(r, n) != brute:
                return CheckResult("counting", False, f"run-avoidance count off at r={r}, n={n}")
    for n in range(3, min(n_max, 10) + 1):
        positive_trace = int("10" * (1 << (n - 2)), 2)  # rows with vertex n in the support: y odd
        for t in range(n, 2 * (n - 1) + 1):
            if counting.count_positive_trace_with_exponent(n, t) != (walks[n].get(t, 0) & positive_trace).bit_count():
                return CheckResult("counting", False, f"positive-trace count off at n={n}, t={t}")
    return CheckResult("counting", True, f"orders 3..{n_max}")


def _check_membership(records: _Records, primitive: _Specs, walks: _Masks) -> CheckResult:
    n_max = max(primitive)
    for n, record in records.items():
        missing = [t for t in range(n, 2 * (n - 1) + 1) if t not in record.histogram]
        if missing:
            return CheckResult("membership", False, f"[{n}, {2 * (n - 1)}] not covered at order {n}: {missing}")
    for n in range(4, n_max + 1):
        top = 3 * n - 4 if n % 2 else 2 * n - 2
        cycle_2 = int("0100" * (1 << (n - 3)), 2)  # vertex n clear, vertex n - 1 set: y = 2 (mod 4)
        failing = [(e, mask & cycle_2) for e, mask in walks[n].items() if mask & cycle_2 and not n <= e <= top]
        if failing:
            y, value = min(((bad & -bad).bit_length() - 1, e) for e, bad in failing)
            return CheckResult(
                "membership", False,
                f"smallest-cycle-2 exponent {value} outside [{n}, {top}] at {counting._row(n, y)}")
        if n % 2:
            for x in range((n - 3) // 2 + 1):
                if 2 * n - 1 + 2 * x not in records[n].histogram:
                    return CheckResult("membership", False, f"{2 * n - 1 + 2 * x} missing from order {n}")
    for n in range(5, n_max + 1):
        enumerated = 0
        for spec in primitive[n]:
            if spec.row[-1] != 0:
                continue
            zero_runs = bytes(spec.row).split(b"\1")  # zero_runs[1] starts at vertex 2
            if len(zero_runs[1]) == max(map(len, zero_runs)):
                enumerated += 1
        if counting.block_prefix_upper_count(n) < enumerated:
            return CheckResult("membership", False, f"block-prefix bound below enumeration at order {n}")
    return CheckResult("membership", True, f"orders 3..{n_max}")


def run_all(n_max: int) -> list[CheckResult]:
    """Run every family up to the requested order (3 <= n_max <= 12), all of
    them on one enumeration of each order's irreducible and primitive specs,
    the cycle lengths of each irreducible spec, read once, one census walk and
    one powered census batch per order."""
    if not 3 <= n_max <= 12:
        raise ValueError(f"n-max must be in [3, 12], got {n_max}")
    irreducible = {n: tuple(CompanionSpec(n, counting._row(n, y)) for y in range(1 << (n - 1)))
                   for n in range(3, n_max + 1)}
    lengths = {n: tuple(map(cycle_lengths, specs)) for n, specs in irreducible.items()}
    coprime = {n: [math.gcd(*l) == 1 for l in order] for n, order in lengths.items()}  # is_primitive's test
    primitive = {n: tuple(compress(irreducible[n], flags)) for n, flags in coprime.items()}
    walks = {n: counting._walk(n) for n in irreducible}
    records = {n: counting._record(n, masks) for n, masks in walks.items()}
    powered = {n: counting.powered_census(n) for n in irreducible}
    return [
        _check_cycle_structure(irreducible, lengths),
        _check_primitivity(irreducible, coprime, powered),
        _check_local_exponent_maxima({n: primitive[n] for n in range(3, min(n_max, 8) + 1)}, powered),
        _check_dispatch(irreducible, walks, powered),
        _check_range_uniqueness(records),
        _check_conductors(),
        _check_counting(irreducible, primitive, walks),
        _check_membership(records, primitive, walks),
    ]
