"""Conductors of numerical semigroups (coin-problem style).

For positive integers a_1 < ... < a_u with gcd 1, the conductor is the
smallest c >= 0 such that every integer >= c is a nonnegative integer
combination of the generators.  The classical Frobenius number is the
largest non-representable integer, i.e. the conductor minus one; the code
says "conductor" throughout because the exponent rules consume exactly
that convention and the off-by-one is easy to smuggle in otherwise.

`least_residues` finds, for every residue r modulo the smallest generator
a, the smallest representable integer congruent to r, by round-robin
shortest paths (Boecker & Liptak, Algorithmica 2007): O(a*u) time and
O(a) memory for u generators; `conductor` is its maximum minus a - 1.
Sets with a*u above MAX_CONDUCTOR_WORK are refused with ValueError.
`representable` keeps its own sieve, an independent path that checks the
conductor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


MAX_CONDUCTOR_WORK = 4_000_000
"""Largest smallest-generator times generator-count `least_residues` accepts (about 1 s)."""


class NotCoprimeError(ValueError):
    """The generators share a common factor, so the conductor does not exist."""


@dataclass(frozen=True)
class GeneratorSet:
    """Sorted distinct positive generators together with their gcd."""

    values: tuple[int, ...]
    gcd: int

    @classmethod
    def of(cls, gens: "GeneratorSet | Iterable[int]") -> "GeneratorSet":
        if isinstance(gens, GeneratorSet):
            return gens
        values = tuple(sorted(set(gens)))
        if not values or values[0] < 1:
            raise ValueError(f"generators must be positive integers, got {values!r}")
        return cls(values, math.gcd(*values))


def _representable_table(gens: GeneratorSet, limit: int) -> list[bool]:
    """table[x] for 0 <= x <= limit: is x a sum of generators with repetition."""
    table = [False] * (limit + 1)
    table[0] = True
    values = gens.values
    for x in range(1, limit + 1):
        table[x] = any(table[x - g] for g in values if g <= x)
    return table


def representable(x: int, gens: GeneratorSet | Iterable[int]) -> bool:
    """Is x a nonnegative integer combination of the generators?"""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return _representable_table(GeneratorSet.of(gens), x)[x]


def least_residues(gens: GeneratorSet | Iterable[int]) -> list[float]:
    """least[r]: the smallest representable integer congruent to r modulo
    the smallest generator a, or inf when there is none.

    Each further generator b is folded in by walking the cycles
    r -> r + b (mod a), each from its residue of smallest least[] value,
    and relaxing least[(r + b) % a] with least[r] + b.  Raises ValueError
    when a * (number of generators) exceeds MAX_CONDUCTOR_WORK.
    """
    g = GeneratorSet.of(gens)
    a = g.values[0]
    if a * len(g.values) > MAX_CONDUCTOR_WORK:
        raise ValueError(
            f"smallest generator {a} times {len(g.values)} generators exceeds the limit "
            f"{MAX_CONDUCTOR_WORK} (MAX_CONDUCTOR_WORK)")
    least = [math.inf] * a
    least[0] = 0
    for b in g.values[1:]:
        d = math.gcd(a, b)
        for p in range(d):
            start = min(range(p, a, d), key=least.__getitem__)
            x = least[start]
            if x == math.inf:
                continue
            r = start
            for _ in range(a // d - 1):
                x += b
                r = (r + b) % a
                if least[r] < x:
                    x = least[r]
                else:
                    least[r] = x
    return least


def conductor(gens: GeneratorSet | Iterable[int]) -> int:
    """Smallest c such that every integer >= c is representable: max(least) - a + 1, since
    least[r] - a is the largest non-representable integer of class r (`least_residues`)."""
    g = GeneratorSet.of(gens)
    if g.gcd != 1:
        raise NotCoprimeError(f"gcd of generators {g.values} is {g.gcd}, conductor undefined")
    return max(least_residues(g)) - g.values[0] + 1


def pair_conductor(a: int, b: int) -> int:
    """Conductor of two coprime generators >= 2: (a-1)(b-1)."""
    if a < 2 or b < 2:
        raise ValueError(f"pair conductor needs both generators >= 2, got {a}, {b}")
    g = math.gcd(a, b)
    if g != 1:
        raise NotCoprimeError(f"gcd({a}, {b}) = {g} != 1")
    return (a - 1) * (b - 1)


def progression_conductor(start: int, step: int, steps: int) -> int:
    """Conductor of the arithmetic progression start + j*step for j = 0..steps.

    Closed form (floor((start-2)/steps) + 1)*start + (step-1)*(start-1),
    valid for start >= 2, step >= 1, steps >= 1 with gcd(start, step) = 1
    (which is the gcd of the whole progression).
    """
    if start < 2 or step < 1 or steps < 1:
        raise ValueError(
            f"need start >= 2, step >= 1, steps >= 1, got {start}, {step}, {steps}")
    g = math.gcd(start, step)
    if g != 1:
        raise NotCoprimeError(f"progression gcd is {g}, not 1")
    return ((start - 2) // steps + 1) * start + (step - 1) * (start - 1)
