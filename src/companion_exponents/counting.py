"""Counting formulas and the exhaustive exponent census over companion specs.

The census covers every irreducible last row of a given order (there
are 2**(n-1) of them).  One bit-sliced walk of the reach sets from
vertex n, with one bit per row, gives the exponent of each primitive
row, and the census aggregates an exponent histogram, the attained
exponent set, and one lexicographically smallest witness row per
exponent.  Output is deterministic: the CSV and JSON emitters produce
byte-identical text for identical inputs and tool version.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from . import formulas, oracle
from ._version import __version__
from .core import CompanionSpec, wielandt_bound
from .frobenius import conductor

MAX_CENSUS_ORDER = 20
MAX_CHECKED_CENSUS_ORDER = 16  # census with check_oracle: under 1 s (0.66-0.73 s; 1.1-1.4 s at 17), mostly rules
MAX_STRING_TABLE_LENGTH = 76  # longest length for f_strings: the table takes about 1 s
MAX_RUN_AVOIDING_LENGTH = 14_000  # longest length for t_runs: 2**n has at most 4300 digits
MAX_IMPRIMITIVE_ORDER = 28_000  # the count stays below 2**(n/2), which prints in at most 4300 digits
MAX_IMPRIMITIVE_LIST_ORDER = 24  # the list holds fewer than 2**(n/2) rows


class DispatchMismatchError(AssertionError):
    """The walk, the closed-form rules and the powering oracle disagreed on some spec."""


def _distinct_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def count_imprimitive(n: int) -> int:
    """Number of irreducible specs of order n whose cycle lengths share a factor.

    Inclusion-exclusion over the distinct prime factors p of n: the specs
    with every cycle length divisible by p are those whose support sits
    among the n/p vertices congruent to 1 mod p, giving 2**(n/p - 1) per
    prime (vertex 1 is always in the support).
    """
    if n > MAX_IMPRIMITIVE_ORDER:
        raise ValueError(f"order {n} above MAX_IMPRIMITIVE_ORDER = {MAX_IMPRIMITIVE_ORDER}")
    if n < 3:
        raise ValueError(f"order must be >= 3, got {n}")
    primes = _distinct_prime_factors(n)
    total = 0
    for mask in range(1, 1 << len(primes)):
        prod = 1
        for idx, p in enumerate(primes):
            if mask >> idx & 1:
                prod *= p
        term = 1 << (n // prod - 1)
        total += term if bin(mask).count("1") % 2 else -term
    return total


def count_primitive(n: int) -> int:
    """Number of primitive specs of order n: 2**(n-1) - count_imprimitive(n)."""
    return (1 << (n - 1)) - count_imprimitive(n)


def list_imprimitive(n: int) -> list[str]:
    """All irreducible last rows (full n-bit strings) with cycle-length gcd > 1, sorted.

    These are the rows count_imprimitive counts: for each prime p | n,
    every row whose support lies among the vertices 1, 1 + p, 1 + 2p, ...
    """
    if not 3 <= n <= MAX_IMPRIMITIVE_LIST_ORDER:
        raise ValueError(f"order must be in [3, {MAX_IMPRIMITIVE_LIST_ORDER}], got {n}")
    found: set[int] = set()
    for p in _distinct_prime_factors(n):
        # y holds vertex i at bit n - i; vertex 1 is the leading "1"
        rows = {0}
        for i in range(1 + p, n + 1, p):
            rows |= {y | 1 << (n - i) for y in rows}
        found |= rows
    return ["1" + format(y, f"0{n - 1}b") for y in sorted(found)]


class StringCountTable(NamedTuple):
    """counts[x][k]: length-n binary strings with x zeros and longest zero run exactly k."""

    n: int
    counts: tuple[tuple[int, ...], ...]

    def count(self, x: int, k: int) -> int:
        if x < 0 or k < 0 or k > x or x > self.n:
            return 0
        return self.counts[x][k]


def string_count_table(n: int) -> StringCountTable:
    """Tabulate all (zeros, longest-zero-run) counts for length n in one DP pass.

    The scan state is (zeros so far, current zero run, best run so far);
    appending a 1 resets the run, appending a 0 extends it.
    """
    if n > MAX_STRING_TABLE_LENGTH:
        raise ValueError(f"length {n} above MAX_STRING_TABLE_LENGTH = {MAX_STRING_TABLE_LENGTH}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    states: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int, int], int] = {}
        for (zeros, run, best), c in states.items():
            one = (zeros, 0, best)
            nxt[one] = nxt.get(one, 0) + c
            zero = (zeros + 1, run + 1, max(best, run + 1))
            nxt[zero] = nxt.get(zero, 0) + c
        states = nxt
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for (zeros, _run, best), c in states.items():
        counts[zeros][best] += c
    return StringCountTable(n, tuple(tuple(row) for row in counts))


def f_strings(n: int, x: int, k: int) -> int:
    """Number of length-n binary strings with x zeros whose longest zero run is exactly k.

    Returns 0 outside 0 <= k <= x <= n; raises ValueError for n > MAX_STRING_TABLE_LENGTH.
    """
    if 0 <= k <= x <= n or n > MAX_STRING_TABLE_LENGTH:
        return string_count_table(n).count(x, k)
    return 0


def _runs_avoiding(r: int, n: int) -> int:
    """T(n), the length-n strings with no r ones in a row: T(m) = 2**m for
    m < r, T(r) = 2**r - 1 and T(m) = 2T(m-1) - T(m-r-1), the subtracted
    strings being the ones whose first run of r ones is the last r bits."""
    if r > n:
        return 1 << n
    window = deque([1 << m for m in range(r)] + [(1 << r) - 1], maxlen=r + 1)
    for _ in range(n - r):
        window.append(2 * window[-1] - window[0])
    return window[-1]


def t_runs(r: int, n: int) -> int:
    """Number of length-n binary strings containing no run of r consecutive ones (r >= 2)."""
    if n > MAX_RUN_AVOIDING_LENGTH:
        raise ValueError(f"length {n} above MAX_RUN_AVOIDING_LENGTH = {MAX_RUN_AVOIDING_LENGTH}")
    if r < 2:
        raise ValueError(f"run length must be >= 2, got {r}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return _runs_avoiding(r, n)


def count_positive_trace_with_exponent(n: int, t: int) -> int:
    """Number of positive-trace primitive specs of order n with exponent t.

    A positive-trace spec has exponent n + (longest zero run), and only
    the n-2 bits in columns 2..n-1 are free, so this counts the
    (n-2)-bit strings whose longest zero run is exactly k = t - n: those
    with no k + 1 zeros in a row less those with no k zeros in a row.
    """
    if n - 2 > MAX_RUN_AVOIDING_LENGTH:
        raise ValueError(f"order {n} above MAX_RUN_AVOIDING_LENGTH + 2 = {MAX_RUN_AVOIDING_LENGTH + 2}")
    if n < 3:
        raise ValueError(f"order must be >= 3, got {n}")
    if not n <= t <= 2 * (n - 1):
        raise ValueError(f"exponent {t} outside [{n}, {2 * (n - 1)}]")
    k = t - n
    return _runs_avoiding(k + 1, n - 2) - _runs_avoiding(k, n - 2)


def block_prefix_upper_count(n: int) -> int:
    """Run-avoidance sum bounding the specs the block-prefix rule covers.

    Sum over m of T_{m+1}(n - m - 3), with the r = 1 boundary taken as
    T_1(length) = 1 (only the all-zeros string avoids every single 1).
    The sum ignores how trailing zeros merge with the fixed zero at
    vertex n, so direct enumeration can come in under it; tests pin the
    bound direction.
    """
    if n < 3:
        raise ValueError(f"order must be >= 3, got {n}")
    return sum(_runs_avoiding(m + 1, n - m - 3) for m in range(n - 2))


def two_coprime_exponent_claim(n: int, s: int, t: int) -> int:
    """Predicted attained exponent 2(n-s) + t(s-1) from a two-coprime-cycle construction.

    Requires gcd(s, t) = 1 with s > t >= 1, order n at least the
    conductor of {s, t}, and n - s dominating both s - t and t.  The
    value is a membership claim for the exponent set of order n; it is
    checked against the census rather than built from an explicit row.
    """
    if not s > t >= 1:
        raise ValueError(f"need s > t >= 1, got s={s}, t={t}")
    if math.gcd(s, t) != 1:
        raise ValueError(f"gcd({s}, {t}) must be 1")
    if max(s - t, t, n - s) != n - s:
        raise ValueError(f"n - s = {n - s} must dominate s - t and t")
    if n < conductor((s, t)):
        raise ValueError(f"order {n} below the conductor of {{{s}, {t}}}")
    return 2 * (n - s) + t * (s - 1)


def gap_progression_exponent_claim(n: int, smallest_cycle: int, start: int) -> int:
    """Predicted attained exponent n + q*l + (start - 2), q = floor((l-2)/(n-l-start+1)) + 1.

    `l` is the smallest cycle length and `start` the first generator of
    the underlying progression, with l + 1 <= start <= n - l so the
    divisor stays positive.  Like the two-coprime claim, this is a
    census-checked membership value, not a dispatch rule.
    """
    l = smallest_cycle
    if not l + 1 <= start <= n - l:
        raise ValueError(f"start must lie in [{l + 1}, {n - l}], got {start}")
    q = (l - 2) // (n - l - start + 1) + 1
    if n < q * l:
        raise ValueError(f"order {n} below q*l = {q * l}")
    return n + q * l + (start - 2)


class CensusRecord(NamedTuple):
    """Exhaustive exponent census of the irreducible specs of one order."""

    n: int
    histogram: dict[int, int]
    exponent_set: tuple[int, ...]
    witnesses: dict[int, str]
    imprimitive_count: int

    @property
    def total_irreducible(self) -> int:
        return 1 << (self.n - 1)

    @property
    def primitive_count(self) -> int:
        return sum(self.histogram.values())

    def membership(self, m: int) -> tuple[bool, str | None]:
        """Is m an attained exponent, plus the smallest witness row when it is."""
        return m in self.histogram, self.witnesses.get(m)

    def to_csv(self) -> str:
        lines = ["n,exponent,count,witness_row"]
        for e in self.exponent_set:
            lines.append(f"{self.n},{e},{self.histogram[e]},{self.witnesses[e]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # only JSON output needs it, so the package imports without it
        payload = {
            "n": self.n,
            "total_irreducible": self.total_irreducible,
            "imprimitive_count": self.imprimitive_count,
            "histogram": {str(e): self.histogram[e] for e in self.exponent_set},
            "exponent_set": list(self.exponent_set),
            "witnesses": {str(e): self.witnesses[e] for e in self.exponent_set},
            "tool_version": __version__,
        }
        return json.dumps(payload, indent=2) + "\n"


def _walk(n: int) -> dict[int, int]:
    """Exponent -> mask of the rows attaining it, for every primitive row of order n.

    Bit y of each mask stands for the irreducible row "1" + (n-1 bits of
    y, MSB first).  reach[v] holds the rows whose walks of length k from
    vertex n can end at vertex v + 1.  A walk from vertex i reaches n
    after n - i forced steps, so a row has exponent n - 1 + k for the
    first k at which its reach set covers 1..n; imprimitive rows never
    get there.  Rows get exponents in increasing order, so the dict is
    sorted.
    """
    everything = (1 << (1 << (n - 1))) - 1
    support, mask = [], everything
    for c in range(2, n + 1):
        # rows with bit n - c of y set: runs of h = 2**(n - c) ones after as
        # many zeros, from the previous mask's runs of 2h XOR their shift by h
        mask ^= mask >> (1 << (n - c))
        support.append(mask)
    reach = [0] * (n - 1) + [everything]
    done = 0
    masks: dict[int, int] = {}
    for k in range(1, wielandt_bound(n) - n + 2):
        last = reach[-1]
        reach = [last] + [prev | (last & sup) for prev, sup in zip(reach, support)]
        full = everything
        for r in reach:
            full &= r
        new = full & ~done
        if new:
            masks[n - 1 + k] = new
            done |= new
    return masks


def powered_census(n: int) -> dict[int, int]:
    """`_walk`'s masks by the oracle: every irreducible row's companion matrix in one
    bit-sliced batch, bit y for the row "1" + (n-1 bits of y), read off the row strings."""
    width, everything = n - 1, (1 << (1 << (n - 1))) - 1
    columns = zip(*(format(y, f"0{width}b") for y in reversed(range(1 << width))))
    shift = [[everything if j == i + 1 else 0 for j in range(n)] for i in range(width)]
    return oracle.batch_exponents(shift + [[everything] + [int("".join(column), 2) for column in columns]])


def _row(n: int, y: int) -> str:
    """The irreducible row that bit y of a census mask stands for."""
    return "1" + format(y, f"0{n - 1}b")


def _check_exponents(specs: tuple[CompanionSpec, ...], masks: dict[int, int], powered: dict[int, int]) -> None:
    """`census`'s check_oracle check of one order's walk masks against a powered batch and
    the closed-form rules, for callers that already hold both; specs[y] is bit y's spec."""
    agree = powered == masks
    for value, mask in masks.items():
        bits = format(mask, "b")[::-1]
        y = bits.find("1")
        while y >= 0:
            spec = specs[y]
            true_exp = value if agree else next((e for e, m in powered.items() if m >> y & 1), None)
            try:
                report = formulas.exponent(spec, allow_oracle=False)
            except formulas.PreconditionError:
                report = None
            if not value == (report.value if report else value) == true_exp:
                ruled = f"dispatch rule {report.rule} gave {report.value}" if report else "no closed-form rule applies"
                raise DispatchMismatchError(
                    f"walk gave {value}, {ruled}, oracle gave {true_exp} for spec {spec.n} {spec.row_string}")
            y = bits.find("1", y + 1)
    for e, mask in powered.items():  # rows the walk left out are all that can differ here
        extra = mask & ~masks.get(e, 0)
        if extra:
            spec = specs[(extra & -extra).bit_length() - 1]
            raise DispatchMismatchError(f"walk gave no exponent, oracle gave {e} for spec {spec.n} {spec.row_string}")


def _record(n: int, masks: dict[int, int]) -> CensusRecord:
    """The census record of order n aggregated from its walk masks."""
    histogram = {e: mask.bit_count() for e, mask in masks.items()}
    return CensusRecord(
        n=n,
        histogram=histogram,
        exponent_set=tuple(masks),
        witnesses={e: _row(n, (mask & -mask).bit_length() - 1) for e, mask in masks.items()},
        imprimitive_count=(1 << (n - 1)) - sum(histogram.values()),
    )


def census(n: int, check_oracle: bool = False) -> CensusRecord:
    """Enumerate all 2**(n-1) irreducible specs of order n and aggregate exponents.

    The exponents come from one bit-sliced reach-set walk over every row
    at once.  With check_oracle=True every row is also powered, in one
    `powered_census` batch, and each primitive row tried on the closed-form
    rules (no oracle fallback); DispatchMismatchError is raised unless the
    oracle value and the rule value, where a rule applies, both equal the
    walk value, and the oracle finds no other primitive row.  That check
    is refused above MAX_CHECKED_CENSUS_ORDER.
    """
    if not 3 <= n <= MAX_CENSUS_ORDER:
        raise ValueError(f"order must be in [3, MAX_CENSUS_ORDER = {MAX_CENSUS_ORDER}], got {n}")
    if check_oracle and n > MAX_CHECKED_CENSUS_ORDER:
        raise ValueError(
            f"order {n} above MAX_CHECKED_CENSUS_ORDER = {MAX_CHECKED_CENSUS_ORDER} for the oracle check")
    masks = _walk(n)
    if check_oracle:
        specs = tuple(CompanionSpec(n, _row(n, y)) for y in range(1 << (n - 1)))
        _check_exponents(specs, masks, powered_census(n))
    return _record(n, masks)
