"""Conductors of numerical semigroups (coin-problem style).

For positive integers a_1 < ... < a_u with gcd 1, the conductor is the
smallest c >= 0 such that every integer >= c is a nonnegative integer
combination of the generators.  The classical Frobenius number is the
largest non-representable integer, i.e. the conductor minus one; the code
says "conductor" throughout because the exponent rules consume exactly
that convention and the off-by-one is easy to smuggle in otherwise.

`least_residues` finds, for every residue r modulo the smallest generator
a, the smallest representable integer congruent to r, by round-robin
shortest paths (Boecker & Liptak, Algorithmica 2007).  It folds only the
least generator of each class modulo a, since the others add multiples of
a to it: O(a * classes) time and O(a) memory, refused with ValueError above
MAX_CONDUCTOR_WORK.  `conductor` (its maximum minus a - 1) and
`representable` start it from 0, `formulas.exponent_from_last` from the
lengths of the walks into one vertex.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


MAX_CONDUCTOR_WORK = 4_000_000
"""Largest smallest-generator times residue-class count `least_residues` accepts: `local-exp` takes 1.0-1.1 s
just under it.  `local_exponents_from_last` counts every cycle length and folds one rotated table per support
vertex on top: 2.5-2.6 s on 1999 ones + 1999 zeros (2-core x86-64 host, Python 3.11)."""


class NotCoprimeError(ValueError):
    """The generators share a common factor, so the conductor does not exist."""


class GeneratorSet(NamedTuple):
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


def _check_work(a: int, u: int) -> None:
    """ValueError naming MAX_CONDUCTOR_WORK when a * u exceeds it."""
    if a * u > MAX_CONDUCTOR_WORK:
        raise ValueError(
            f"smallest generator {a} times {u} generators exceeds the limit "
            f"{MAX_CONDUCTOR_WORK} (MAX_CONDUCTOR_WORK)")


def least_residues(gens: GeneratorSet | Iterable[int], start: Iterable[tuple[int, int]] = ((0, 0),)) -> list[float]:
    """least[r]: the smallest d + x congruent to r modulo the smallest generator a, over the
    (d % a, d) pairs in start (0 alone by default) and the representable x, or inf if none.

    The least generator b of each class is folded in by walking the cycles r -> r + b (mod a),
    each from its residue of smallest least[] value, relaxing least[(r + b) % a] with least[r] +
    b.  Raises ValueError when a * (number of classes) exceeds MAX_CONDUCTOR_WORK, before the
    table exists or `start` is read.
    """
    values = GeneratorSet.of(gens).values
    a = values[0]
    classes = {b % a: b for b in reversed(values)}
    _check_work(a, len(classes))
    least = [math.inf] * a
    for r, x in start:
        if x < least[r]:
            least[r] = x
    for b in sorted(classes.values())[1:]:
        d = math.gcd(a, b)
        for p in range(d):
            r = min(range(p, a, d), key=least.__getitem__)
            x = least[r]
            if x == math.inf:
                continue
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


def representable(x: int, gens: GeneratorSet | Iterable[int]) -> bool:
    """Is x a nonnegative integer combination of the generators?  Read off the table of those <= x."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    values = [b for b in GeneratorSet.of(gens).values if b <= x]
    return x >= least_residues(values)[x % values[0]] if values else x == 0


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
