"""Ground-truth exponent computations by boolean matrix powering.

Powers are taken over the boolean semiring (1 + 1 = 1), so entry (i, j) of
the k-th power is 1 exactly when the digraph has an i -> j walk of length
k.  Every scan stops at the first all-positive power or row: a primitive
matrix has no zero column, so every later power or row is all-positive
too.  The Wielandt bound (n-1)**2 + 1 only certifies non-primitivity: a
primitive matrix turns all-positive by then, so powers that reach it
without one prove non-primitivity, stepped (`_powers`), squared
(`has_positive_power`) or batched (`batch_exponents`).  Powering refuses
orders above MAX_POWERING_ORDER and the row walk above MAX_ROW_WALK_ORDER,
in `check_*_order`, which callers run before they build the matrix.

Two layouts each have a general boolean-semiring kernel with no
companion structure, which keeps the oracle independent of the rules.
Per-spec questions (`exp`, `local-exp`, the local-exponent table) pack
one matrix of order n into one int, row i (1-based) in the n-bit slot at
bits (i-1)n .. in-1, and every product is

    p . Y = OR_k ((p >> k) & slots) * Y.rows[k],   slots = sum_i 2**(i*n)

`(p >> k) & slots` keeps bit 0 of each slot exactly when that row of p
has column k set.  Every row of Y is below 2**n, so the multiply copies
row k of Y into those slots and nowhere else, with no carry from one slot
into the next; a single row is a one-slot p.  Questions about every row
of an order (the census check, `verify`) bit-slice the batch instead, for
`batch_exponents`: entry (i, j) is one int with bit r for matrix r, so
one AND per nonzero entry steps every matrix at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import and_, or_
from typing import Iterator, Sequence

from .core import BoolMatrix, wielandt_bound

MAX_POWERING_ORDER = 86  # exponent, local_exponent_table: up to (n-1)**2 + 1 products of packed matrices
MAX_ROW_WALK_ORDER = 180  # local_exponent, row_exponent(s): one row stepped up to (n-1)**2 + 1 times


class NotPrimitiveError(ValueError):
    """No power of the matrix within the Wielandt bound is all-positive."""


def check_powering_order(n: int) -> None:
    if n > MAX_POWERING_ORDER:
        raise ValueError(f"order {n} above MAX_POWERING_ORDER = {MAX_POWERING_ORDER}")


def check_row_walk_order(n: int) -> None:
    if n > MAX_ROW_WALK_ORDER:
        raise ValueError(f"order {n} above MAX_ROW_WALK_ORDER = {MAX_ROW_WALK_ORDER}")


def _slots(n: int) -> int:
    """Bit 0 of each of the n row slots of a packed matrix of order n."""
    return ((1 << (n * n)) - 1) // ((1 << n) - 1)


def _pack(m: BoolMatrix) -> int:
    return sum(row << (i * m.n) for i, row in enumerate(m.rows))


def _unpack(p: int, n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple((p >> (i * n)) & full for i in range(n))


def _times(p: int, rows: Sequence[int], slots: int) -> int:
    """Packed p times the matrix with the given rows (see the module docstring)."""
    out = 0
    for k, row in enumerate(rows):
        out |= ((p >> k) & slots) * row
    return out


def _powers(m: BoolMatrix) -> Iterator[int]:
    """Packed m**1, m**2, .. up to the first all-positive power, one product per step;
    NotPrimitiveError if the Wielandt bound passes first, ValueError above MAX_POWERING_ORDER."""
    check_powering_order(m.n)
    full = (1 << (m.n * m.n)) - 1
    slots = _slots(m.n)
    power, length = _pack(m), 1
    yield power
    while power != full:
        if length == wielandt_bound(m.n):
            raise NotPrimitiveError(f"no all-positive power up to the Wielandt bound {length}")
        power, length = _times(power, m.rows, slots), length + 1
        yield power


def bool_product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product: (xy)_ij = OR_k (x_ik AND y_kj)."""
    if x.n != y.n:
        raise ValueError(f"order mismatch: {x.n} vs {y.n}")
    return BoolMatrix(x.n, _unpack(_times(_pack(x), y.rows, _slots(x.n)), x.n))


def has_positive_power(m: BoolMatrix) -> bool:
    """Primitivity test: is some power within the Wielandt bound all-positive?

    The packed matrix is squared until it is all-positive or its power
    reaches the bound.  An all-positive power stays all-positive, and a
    primitive matrix is all-positive by the bound, so this decides the
    same question as the single power at the bound.
    """
    n = m.n
    full = (1 << (n * n)) - 1
    slots = _slots(n)
    power, length = _pack(m), 1
    while power != full and length < wielandt_bound(n):
        power = _times(power, _unpack(power, n), slots)
        length *= 2
    return power == full


def batch_exponents(m: Sequence[Sequence[int]]) -> dict[int, int]:
    """Exponent -> mask of the matrices attaining it, for a batch m bit-sliced so that entry (i, j)
    holds bit r for matrix r: each step is P[i][j] = OR_l P[i][l] & m[l][j] over the nonzero m[l][j],
    up to the Wielandt bound or until every matrix with a nonzero entry is all-positive; a matrix
    that is not primitive is in no mask."""
    n = len(m)
    check_powering_order(n)
    everything = reduce(or_, chain(*m), 0)
    columns = [[(l, e) for l, e in enumerate(column) if e] for column in zip(*m)]
    power, done, masks = m, 0, {}
    for length in range(1, wielandt_bound(n) + 1):
        full = reduce(and_, chain(*power), everything)
        if full != done:  # an all-positive power stays all-positive, so full holds done
            masks[length], done = full & ~done, full
        if done == everything:
            break
        previous, power = power, []
        for p in previous:
            row = []
            for column in columns:
                c = 0
                for l, e in column:
                    c |= p[l] & e
                row.append(c)
            power.append(row)
    return masks


def _check_vertex(m: BoolMatrix, i: int) -> None:
    if not 1 <= i <= m.n:
        raise ValueError(f"vertex {i} out of [1, {m.n}]")


def exponent(m: BoolMatrix) -> int:
    """Smallest k with m**k all-positive: the length of the power sequence.

    Raises NotPrimitiveError when no power up to the Wielandt bound is
    all-positive (and hence none is), ValueError above MAX_POWERING_ORDER.
    """
    return sum(1 for _ in _powers(m))


def _require_row_walk(m: BoolMatrix) -> None:
    check_row_walk_order(m.n)
    if not has_positive_power(m):
        raise NotPrimitiveError(f"matrix of order {m.n} is not primitive")


def _settles(m: BoolMatrix, i: int, want: int) -> int:
    """Smallest k such that walks from i of every length >= k reach all of `want`, for a
    primitive m: one past the last length whose walk misses some, stepping row i until it is full."""
    full = (1 << m.n) - 1
    walk, length, settles = 1 << (i - 1), 0, 1
    while walk != full:
        walk, length = _times(walk, m.rows, 1), length + 1
        if walk & want != want:
            settles = length + 1
    return settles


def local_exponent(m: BoolMatrix, i: int, j: int) -> int:
    """Smallest k such that i -> j walks of every length >= k exist."""
    _check_vertex(m, i)
    _check_vertex(m, j)
    _require_row_walk(m)
    return _settles(m, i, 1 << (j - 1))


def row_exponent(m: BoolMatrix, i: int) -> int:
    """Smallest k such that row i of m**k (and of every later power) is all-positive."""
    _check_vertex(m, i)
    _require_row_walk(m)
    return _settles(m, i, (1 << m.n) - 1)


def row_exponents(m: BoolMatrix) -> tuple[int, ...]:
    """row_exponent(m, i) for i = 1..n, with one primitivity proof for the whole matrix."""
    _require_row_walk(m)
    return tuple(_settles(m, i, (1 << m.n) - 1) for i in range(1, m.n + 1))


@dataclass(frozen=True)
class LocalExponentTable:
    """Local exponents exp(m : i, j) for every vertex pair of one primitive matrix."""

    n: int
    values: tuple[tuple[int, ...], ...]

    def get(self, i: int, j: int) -> int:
        return self.values[i - 1][j - 1]


def local_exponent_table(m: BoolMatrix) -> LocalExponentTable:
    """Tabulate all local exponents from one packed power sequence.

    The powers m**exp .. m**1 are scanned downward; an entry's local
    exponent is one past the first length, from the top, at which it is
    missing, and `pending` holds the entries not yet seen missing.
    Raises NotPrimitiveError like `exponent`, and ValueError for orders
    above MAX_POWERING_ORDER.
    """
    n = m.n
    powers = list(_powers(m))
    pending = (1 << (n * n)) - 1
    values = [1] * (n * n)
    for length in range(len(powers), 0, -1):
        missing = pending & ~powers[length - 1]
        pending ^= missing
        while missing:
            low = missing & -missing
            values[low.bit_length() - 1] = length + 1
            missing ^= low
    return LocalExponentTable(n, tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n)))
