"""Closed-form exponent rules for primitive companion matrices.

Each rule is exact on its stated precondition and raises
PreconditionError anywhere else.  `exponent` tries the rules from most to
least specific and falls back to the powering oracle, so the value always
equals the true exponent; only the reported rule name depends on the
order.

Throughout, `zeros`/`support` split the vertices 1..n by the last row
(see core.vertex_partition).  Local exponents are read off the
conductor's residue table: `exponent_from_last` starts it from the walks
into one vertex, `local_exponents_from_last` folds rotated copies for all.

Each rule is a private body that reads one facts object, built once per
spec from the sorted cycle lengths: those lengths, the longest zero run
and the `support` mask with vertex i at bit i - 1.  A body returns its
report, or its unmet precondition as a string; `exponent` calls the
bodies in order on the facts of a spec it has proved primitive, and no
body needs more than one pass over the support.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import sub
from typing import Mapping, NamedTuple

from . import oracle
from .core import CompanionSpec, companion_matrix, cycle_lengths, is_irreducible
from .frobenius import _check_work, conductor, least_residues
from .oracle import NotPrimitiveError

RULE_POSITIVE_TRACE = "POSITIVE_TRACE"
RULE_TWO_CYCLES = "TWO_CYCLES"
RULE_SMALLEST_CYCLE_2 = "SMALLEST_CYCLE_2"
RULE_BLOCK_V1_PREFIX = "BLOCK_V1_PREFIX"
RULE_ORACLE = "ORACLE"

RULES = frozenset({RULE_POSITIVE_TRACE, RULE_TWO_CYCLES, RULE_SMALLEST_CYCLE_2, RULE_BLOCK_V1_PREFIX, RULE_ORACLE})
_ZERO_TRACE = "rule needs zero trace (last row bit n must be 0)"


class PreconditionError(ValueError):
    """The spec does not satisfy the rule's precondition."""


class ExponentReport(NamedTuple("ExponentReport", [("value", int), ("rule", str),
                                                   ("detail", Mapping[str, int] | None)])):
    """Exponent value plus the rule that produced it and the rule's parameters."""

    __slots__ = ()

    def __new__(cls, value: int, rule: str, detail: Mapping[str, int] | None = None) -> ExponentReport:
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        return tuple.__new__(cls, (value, rule, detail))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too


def require_primitive(spec: CompanionSpec) -> tuple[int, ...]:
    """Cycle lengths of a primitive spec; otherwise NotPrimitiveError naming the gcd and lengths."""
    if not is_irreducible(spec):
        raise NotPrimitiveError("reducible: last row starts with 0")
    lengths = cycle_lengths(spec)
    if math.gcd(*lengths) != 1:
        listed = ", ".join(str(l) for l in lengths)
        raise NotPrimitiveError(f"imprimitive: gcd(L)={math.gcd(*lengths)} cycle lengths {{{listed}}}")
    return lengths


class _SpecFacts(NamedTuple):
    """What the rules read off one primitive spec (see the module docstring)."""

    n: int
    support: int
    lengths: tuple[int, ...]
    longest_zero_run: int

    @classmethod
    def of(cls, spec: CompanionSpec, lengths: tuple[int, ...]) -> _SpecFacts:
        """From the ascending lengths: l is support vertex n + 1 - l, so the zero runs are the gaps
        between neighbouring lengths less one, the last one the smallest length less one."""
        n = spec.n
        return cls(n, sum(map((1 << n).__rshift__, lengths)), lengths,
                   max(map(sub, lengths, (0,) + lengths)) - 1)


def _positive_trace(f: _SpecFacts) -> ExponentReport | str:
    """Exponent n + (longest zero run) for a primitive spec with a loop at vertex n.

    The loop lets walks idle at n, so only the forced march through the
    longest block of zero vertices delays full positivity.
    """
    if not f.support >> (f.n - 1):
        return "positive-trace rule needs a loop at vertex n (last bit 1)"
    run = f.longest_zero_run
    return ExponentReport(f.n + run, RULE_POSITIVE_TRACE, {"longest_zero_run": run})


def _two_cycles(f: _SpecFacts) -> ExponentReport | str:
    """Exponent n + s(n-2) when the digraph has exactly two cycle lengths, n and s >= 2."""
    if f.n < 3 or len(f.lengths) != 2:
        return "two-cycle rule needs n >= 3 and exactly two cycle lengths"
    s = f.lengths[0]
    if s < 2:
        return "short cycle of length 1 is the positive-trace case"
    return ExponentReport(f.n + s * (f.n - 2), RULE_TWO_CYCLES, {"short_cycle": s})


def local_exponents_from_last(spec: CompanionSpec) -> tuple[int, ...]:
    """e(n -> j) for j = 1..n: the least k such that walks from vertex n of every length >= k
    end at j, so exp(i -> j) = max(1, n - i + e(n -> j)).  NotPrimitiveError first.

    A walk n -> j is whole cycles, one jump to a support vertex s <= j and j - s steps, so its
    lengths are x + j - s + 1 for x in the cycle-length semigroup.  With a the smallest cycle
    length and least = `frobenius.least_residues`, the shortest one in class u + j (mod a) is
    j + m[u], where m[u] is the minimum over the support vertices s <= j of least[(u + s - 1) % a]
    - (s - 1), the table rotated left by s - 1, less s - 1; so e(n -> j) = j + max(m) - a + 1, a
    zero vertex shares its anchor's m, and at j = n with a = 1 the empty walk counts.  One fold
    per support vertex, O(|support| * a), so a * (cycle lengths) over MAX_CONDUCTOR_WORK is refused.
    """
    lengths = require_primitive(spec)
    n, a = spec.n, lengths[0]
    _check_work(a, len(lengths))
    twice = least_residues(lengths) * 2
    low: list[float] = [math.inf] * a
    vertices = [n + 1 - l for l in reversed(lengths)]  # ascending; n + 1 ends the last zero run
    out: list[int] = []
    for s, up in zip(vertices, vertices[1:] + [n + 1]):
        r = (s - 1) % a
        low = list(map(min, low, map(sub, twice[r:r + a], repeat(s - 1))))
        top = max(low) - a + 1
        out.extend(range(top + s, top + up))
    if a == 1:  # the empty walk at n
        out[-1] = 0
    return tuple(out)


def exponent_from_last(spec: CompanionSpec, j: int) -> int:
    """e(n -> j) for one vertex 1 <= j <= n, as `local_exponents_from_last` gives it, in one
    residue pass: `least_residues` of the cycle lengths started from the walks n -> s -> ... -> j,
    l + j - n steps for each cycle length l > n - j (s = n + 1 - l), so e(n -> j) = max(least) - a
    + 1 and the work is the conductor's, a * (classes) under MAX_CONDUCTOR_WORK.
    NotPrimitiveError first."""
    lengths = require_primitive(spec)
    n, a = spec.n, lengths[0]
    if j == n and a == 1:  # the empty walk at n
        return 0
    walks = (l + j - n for l in lengths if l > n - j)
    return max(least_residues(lengths, ((w % a, w) for w in walks))) - a + 1


def _block_prefix(f: _SpecFacts) -> ExponentReport | str:
    """Exponent n + conductor + (longest zero run) when the zero run at
    vertex 2 is a longest one.

    The query at the end of that run reduces to vertex 1, whose local
    exponent n + conductor dominates every support vertex, so adding the
    full run length is exact.
    """
    if f.support >> (f.n - 1):
        return _ZERO_TRACE
    run = f.longest_zero_run
    if f.support >> 1 & ((1 << run) - 1):  # some vertex in 2 .. run + 1 is in the support
        return "the zero run starting at vertex 2 must be a longest one"
    c = conductor(f.lengths)
    return ExponentReport(f.n + c + run, RULE_BLOCK_V1_PREFIX, {"conductor": c, "longest_zero_run": run})


def _smallest_cycle_two(f: _SpecFacts) -> ExponentReport | str:
    """Exponent for primitive zero-trace specs whose smallest cycle length is 2.

    With a 2-cycle present, exp(1 -> j) at a support vertex j is
    n + min(p, s) - 1: s is the smallest odd cycle length and p the
    smallest odd backstep from j into the support, j minus the latest
    support vertex below j of the other parity (p = 1 gives exp(1 -> j) = n).
    Zero vertices reduce to the support vertex below; the exponent is the
    maximum over all vertices, in one ascending pass.
    """
    n = f.n
    if f.support >> (n - 1):
        return _ZERO_TRACE
    if n < 4:
        return "rule needs n >= 4"
    if f.lengths[0] != 2:
        return "rule needs smallest cycle length 2"
    # An odd length exists: all-even cycle lengths would force gcd >= 2.
    s = min(l for l in f.lengths if l % 2)
    # support vertex i closes the cycle of length n + 1 - i; n + 1 ends the last zero run
    vertices = [n + 1 - l for l in reversed(f.lengths)] + [n + 1]
    best, last = 0, [-s, -s]  # latest support vertex of each parity; -s stands for none (p > s)
    for j, up in zip(vertices, vertices[1:]):
        local = n + min(j - last[1 - j % 2], s) - 1
        best = max(best, local + up - j - 1)  # zero vertices j + 1 .. up - 1 reduce to j
        last[j % 2] = j
    return ExponentReport(best, RULE_SMALLEST_CYCLE_2, {"smallest_odd_cycle": s})


_RULE_ORDER = (_positive_trace, _two_cycles, _smallest_cycle_two, _block_prefix)


def exponent(spec: CompanionSpec, allow_oracle: bool = True) -> ExponentReport:
    """Exponent of a primitive companion spec via the strongest applicable rule.

    Tries POSITIVE_TRACE, TWO_CYCLES, SMALLEST_CYCLE_2, BLOCK_V1_PREFIX in
    that order and falls back to the powering oracle.  With
    allow_oracle=False the fallback raises PreconditionError instead.
    Raises NotPrimitiveError when the spec is not primitive.
    """
    facts = _SpecFacts.of(spec, require_primitive(spec))
    for rule in _RULE_ORDER:
        report = rule(facts)
        if not isinstance(report, str):
            return report
    if not allow_oracle:
        raise PreconditionError("no closed-form rule applies")
    return oracle_report(spec)


def oracle_report(spec: CompanionSpec) -> ExponentReport:
    """The ORACLE report of a spec already proved primitive (so that refusal comes first at any
    order): its matrix powered, or ValueError above the powering cap before the matrix is built."""
    oracle.check_powering_order(spec.n)
    return ExponentReport(oracle.exponent(companion_matrix(spec)), RULE_ORACLE)
