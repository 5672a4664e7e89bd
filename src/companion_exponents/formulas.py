"""Closed-form exponent rules for primitive companion matrices.

Each rule is exact on its stated precondition and raises
PreconditionError anywhere else.  `exponent` tries the rules from most to
least specific and falls back to the powering oracle, so the value always
equals the true exponent; only the reported rule name depends on the
order.

Throughout, `zeros`/`support` split the vertices 1..n by the last row
(see core.vertex_partition).  A support vertex j is *special* when the
whole window [j - l + 1, j] sits inside the support, l being the smallest
cycle length; walks from vertex 1 then hit j at every length >= n, which
pins the local exponent exp(1 -> j) to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from . import oracle
from .core import (
    CompanionSpec,
    companion_matrix,
    cycle_lengths,
    is_irreducible,
    is_primitive,
    longest_run,
    vertex_partition,
)
from .frobenius import conductor
from .oracle import NotPrimitiveError

RULE_POSITIVE_TRACE = "POSITIVE_TRACE"
RULE_TWO_CYCLES = "TWO_CYCLES"
RULE_SMALLEST_CYCLE_2 = "SMALLEST_CYCLE_2"
RULE_BLOCK_V1_PREFIX = "BLOCK_V1_PREFIX"
RULE_ORACLE = "ORACLE"

RULES = frozenset({
    RULE_POSITIVE_TRACE,
    RULE_TWO_CYCLES,
    RULE_SMALLEST_CYCLE_2,
    RULE_BLOCK_V1_PREFIX,
    RULE_ORACLE,
})


class PreconditionError(ValueError):
    """The spec does not satisfy the rule's precondition."""


@dataclass(frozen=True)
class ExponentReport:
    """Exponent value plus the rule that produced it and the rule's parameters."""

    value: int
    rule: str
    detail: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")


@dataclass(frozen=True)
class LocalExpQuery:
    """Reduction data for a local-exponent query from vertex 1.

    Stepping `offset` back from `target` reaches the nearest support
    vertex at or below it, so exp(1 -> target) equals
    exp(1 -> target - offset) + offset.
    """

    target: int
    offset: int


def _not_primitive_message(spec: CompanionSpec) -> str:
    if not is_irreducible(spec):
        return "reducible: last row starts with 0"
    lengths = cycle_lengths(spec)
    g = math.gcd(*lengths)
    listed = ", ".join(str(l) for l in lengths)
    return f"imprimitive: gcd(L)={g} cycle lengths {{{listed}}}"


def require_primitive(spec: CompanionSpec) -> None:
    """Raise NotPrimitiveError naming the gcd and cycle lengths when not primitive."""
    if not is_primitive(spec):
        raise NotPrimitiveError(_not_primitive_message(spec))


def _primitive_parts(spec: CompanionSpec):
    if not is_primitive(spec):
        raise PreconditionError("spec is not primitive")
    return vertex_partition(spec), cycle_lengths(spec)


def _zero_trace_parts(spec: CompanionSpec):
    part, lengths = _primitive_parts(spec)
    if spec.row[-1] != 0:
        raise PreconditionError("rule needs zero trace (last row bit n must be 0)")
    return part, lengths


def positive_trace_exponent(spec: CompanionSpec) -> ExponentReport:
    """Exponent n + (longest zero run) for a primitive spec with a loop at vertex n.

    The loop lets walks idle at n, so only the forced march through the
    longest block of zero vertices delays full positivity.
    """
    part, _ = _primitive_parts(spec)
    if spec.row[-1] != 1:
        raise PreconditionError("positive-trace rule needs a loop at vertex n (last bit 1)")
    run = longest_run(part.zeros)
    return ExponentReport(spec.n + run, RULE_POSITIVE_TRACE, {"longest_zero_run": run})


def two_cycle_exponent(spec: CompanionSpec) -> ExponentReport:
    """Exponent n + s(n-2) when the digraph has exactly two cycle lengths, n and s >= 2."""
    _, lengths = _primitive_parts(spec)
    if spec.n < 3 or len(lengths) != 2:
        raise PreconditionError("two-cycle rule needs n >= 3 and exactly two cycle lengths")
    s = lengths[0]
    if s < 2:
        raise PreconditionError("short cycle of length 1 is the positive-trace case")
    return ExponentReport(spec.n + s * (spec.n - 2), RULE_TWO_CYCLES, {"short_cycle": s})


def origin_local_exponent(spec: CompanionSpec) -> int:
    """exp(1 -> 1) for a zero-trace primitive spec: n + conductor(cycle lengths).

    Closed walks from vertex 1 back to itself have length n plus a
    nonnegative combination of the cycle lengths, so the lengths fill up
    exactly from n + conductor onward.
    """
    _, lengths = _zero_trace_parts(spec)
    return spec.n + conductor(lengths)


def reduce_to_support(spec: CompanionSpec, j: int) -> LocalExpQuery:
    """Reduce a query at a zero vertex j to the nearest support vertex below it.

    The only edges into a zero vertex are the forced superdiagonal steps,
    so every walk into j passes the anchor support vertex exactly
    `offset` steps earlier: exp(1 -> j) = exp(1 -> j - offset) + offset.
    """
    part, _ = _zero_trace_parts(spec)
    if not 1 <= j <= spec.n or j not in part.zeros:
        raise PreconditionError(f"vertex {j} is not a zero vertex of the row")
    anchor = max(v for v in part.support if v <= j)
    return LocalExpQuery(target=j, offset=j - anchor)


def is_special_vertex(spec: CompanionSpec, j: int) -> bool:
    """Does the window of smallest-cycle length ending at j sit inside the support?

    Special vertices have exp(1 -> j) = n.  Windows that stick out past
    vertex 1 never qualify.
    """
    part, lengths = _zero_trace_parts(spec)
    if not 1 <= j <= spec.n:
        raise PreconditionError(f"vertex {j} out of [1, {spec.n}]")
    smallest = lengths[0]
    if j - smallest + 1 < 1:
        return False
    return all(v in part.support for v in range(j - smallest + 1, j + 1))


def gap_rule_local_exponent(spec: CompanionSpec, j: int) -> tuple[int, int | None]:
    """Lower bound n + gap for exp(1 -> j) at a non-special support vertex.

    `gap` is the largest backstep p below the smallest cycle length with
    j - p a zero vertex.  When the vertex just under the gap (backstep
    gap + 1) is special, the value is pinned to n + gap + 1 and is
    returned as the second component; otherwise that component is None.

    The pin is one more than the naive bound: a walk of length n + gap
    would have to leave its final jump at a support vertex j - p with the
    leftover p' = gap - p a positive cycle combination below the smallest
    cycle length, which cannot exist, while the special vertex under the
    gap delivers every length from n + gap + 1 up.
    """
    part, lengths = _zero_trace_parts(spec)
    smallest = lengths[0]
    if not 1 <= j <= spec.n or j not in part.support:
        raise PreconditionError(f"vertex {j} is not a support vertex")
    if j < smallest:
        raise PreconditionError(f"rule needs j >= smallest cycle length {smallest}")
    if is_special_vertex(spec, j):
        raise PreconditionError(f"vertex {j} is special, its local exponent is n")
    gap = max(p for p in range(1, smallest) if (j - p) in part.zeros)
    bound = spec.n + gap
    below = j - gap - 1
    exact = below >= 1 and below in part.support and is_special_vertex(spec, below)
    return bound, (bound + 1 if exact else None)


def block_prefix_exponent(spec: CompanionSpec) -> ExponentReport:
    """Exponent n + conductor + (longest zero run) when the zero run at
    vertex 2 is a longest one.

    The query at the end of that run reduces to vertex 1, whose local
    exponent n + conductor dominates every support vertex, so adding the
    full run length is exact.
    """
    part, lengths = _zero_trace_parts(spec)
    run = longest_run(part.zeros)
    if not all(v in part.zeros for v in range(2, run + 2)):
        raise PreconditionError("the zero run starting at vertex 2 must be a longest one")
    c = conductor(lengths)
    return ExponentReport(
        spec.n + c + run,
        RULE_BLOCK_V1_PREFIX,
        {"conductor": c, "longest_zero_run": run},
    )


def smallest_cycle_two_exponent(spec: CompanionSpec) -> ExponentReport:
    """Exponent for primitive zero-trace specs whose smallest cycle length is 2.

    With a 2-cycle present, the local exponent at a support vertex j is n
    for special vertices, n + p - 1 for the smallest odd backstep p below
    the smallest odd cycle length s landing in the support, and n + s - 1
    when no such backstep exists.  Zero vertices reduce to the support
    vertex below; the exponent is the maximum over all vertices.
    """
    part, lengths = _zero_trace_parts(spec)
    if spec.n < 4:
        raise PreconditionError("rule needs n >= 4")
    if lengths[0] != 2:
        raise PreconditionError("rule needs smallest cycle length 2")
    # An odd length exists: all-even cycle lengths would force gcd >= 2.
    s = min(l for l in lengths if l % 2)

    def local(j: int) -> int:
        if is_special_vertex(spec, j):
            return spec.n
        for p in range(1, s, 2):
            if (j - p) in part.support:
                return spec.n + p - 1
        return spec.n + s - 1

    best = 0
    for j in range(1, spec.n + 1):
        if j in part.support:
            value = local(j)
        else:
            query = reduce_to_support(spec, j)
            value = local(j - query.offset) + query.offset
        best = max(best, value)
    return ExponentReport(best, RULE_SMALLEST_CYCLE_2, {"smallest_odd_cycle": s})


_RULE_ORDER = (
    positive_trace_exponent,
    two_cycle_exponent,
    smallest_cycle_two_exponent,
    block_prefix_exponent,
)


def exponent(spec: CompanionSpec, allow_oracle: bool = True) -> ExponentReport:
    """Exponent of a primitive companion spec via the strongest applicable rule.

    Tries POSITIVE_TRACE, TWO_CYCLES, SMALLEST_CYCLE_2, BLOCK_V1_PREFIX in
    that order and falls back to the powering oracle.  With
    allow_oracle=False the fallback raises PreconditionError instead.
    """
    require_primitive(spec)
    for rule in _RULE_ORDER:
        try:
            return rule(spec)
        except PreconditionError:
            continue
    if not allow_oracle:
        raise PreconditionError("no closed-form rule applies")
    return ExponentReport(oracle.exponent(companion_matrix(spec)), RULE_ORACLE)
