"""Ground-truth exponent computations by boolean matrix powering.

Powers are taken over the boolean semiring (1 + 1 = 1), so entry (i, j) of
the k-th power is 1 exactly when the digraph has an i -> j walk of length
k.  Every scan stops at the first all-positive power: a primitive matrix
has no zero column, so every later power is all-positive too.  The
Wielandt bound (n-1)**2 + 1 only certifies non-primitivity: powers that
reach it without an all-positive one, stepped (`_powers`) or batched
(`batch_exponents`), prove it.  Powering refuses orders above
MAX_POWERING_ORDER, in `check_powering_order`, which callers run before
they build the matrix; `formulas.local_exponents_from_last` answers the
companion local exponents of any order.

Two layouts each have a general boolean-semiring kernel with no
companion structure, which keeps the oracle independent of the rules.
Per-matrix questions (`exponent`, whose NotPrimitiveError is the
primitivity test, and `local_exponent_table`) pack one matrix of order
n into one int, row i (1-based) in the n-bit slot at bits
(i-1)n .. in-1, and every product is

    p . Y = OR_k ((p >> k) & slots) * Y.rows[k],   slots = sum_i 2**(i*n)

`(p >> k) & slots` keeps bit 0 of each slot exactly when that row of p
has column k set.  Every row of Y is below 2**n, so the multiply copies
row k of Y into those slots and nowhere else, with no carry from one slot
into the next.  Questions about every row of an order (the census check,
`verify`) bit-slice the batch instead, for `batch_exponents`: entry (i, j)
is one int with bit r for matrix r, and a step takes row i of m times the
previous power: one AND per nonzero entry of m and column, for every
matrix at once.  A row of m whose one nonzero entry is all-ones copies a
row of the previous power; in a companion batch that is n - 1 of the n rows.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import and_, or_
from typing import Iterator, NamedTuple, Sequence

from .core import BoolMatrix, wielandt_bound

MAX_POWERING_ORDER = 86  # every per-matrix question and the batch: up to (n-1)**2 + 1 products


class NotPrimitiveError(ValueError):
    """No power of the matrix within the Wielandt bound is all-positive."""


def check_powering_order(n: int) -> None:
    if n > MAX_POWERING_ORDER:
        raise ValueError(f"order {n} above MAX_POWERING_ORDER = {MAX_POWERING_ORDER}")


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
    slots, rows, bound = _slots(m.n), m.rows, wielandt_bound(m.n)  # locals: a record field read costs more
    power, length = _pack(m), 1
    yield power
    while power != full:
        if length == bound:
            raise NotPrimitiveError(f"no all-positive power up to the Wielandt bound {length}")
        power, length = _times(power, rows, slots), length + 1
        yield power


def bool_product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product: (xy)_ij = OR_k (x_ik AND y_kj)."""
    if x.n != y.n:
        raise ValueError(f"order mismatch: {x.n} vs {y.n}")
    return BoolMatrix(x.n, _unpack(_times(_pack(x), y.rows, _slots(x.n)), x.n))


def batch_exponents(m: Sequence[Sequence[int]]) -> dict[int, int]:
    """Exponent -> mask of the matrices attaining it, for a batch m bit-sliced so that entry (i, j)
    holds bit r for matrix r: each step is P'[i][j] = OR_l m[i][l] & P[l][j] over the nonzero m[i][l],
    up to the Wielandt bound or until every matrix with a nonzero entry is all-positive; a matrix
    that is not primitive is in no mask.  `ands` holds each row's AND, so a copied row costs none."""
    n = len(m)
    check_powering_order(n)
    everything = reduce(or_, chain(*m), 0)
    rows = [[(l, e) for l, e in enumerate(row) if e] for row in m]
    copies = [terms[0][0] if len(terms) == 1 and terms[0][1] == everything else None for terms in rows]
    power, ands, done, masks = m, [reduce(and_, row, everything) for row in m], 0, {}
    for length in range(1, wielandt_bound(n) + 1):
        full = reduce(and_, ands, everything)
        if full != done:  # an all-positive power stays all-positive, so full holds done
            masks[length], done = full & ~done, full
        if done == everything:
            break
        previous, previous_ands, power, ands = power, ands, [], []
        for terms, copied in zip(rows, copies):
            if copied is not None:
                power.append(previous[copied])
                ands.append(previous_ands[copied])
                continue
            row = [0] * n
            for l, e in terms:
                row = [c | p & e for c, p in zip(row, previous[l])]
            power.append(row)
            ands.append(reduce(and_, row, everything))
    return masks


def exponent(m: BoolMatrix) -> int:
    """Smallest k with m**k all-positive: the length of the power sequence.

    Raises NotPrimitiveError when no power up to the Wielandt bound is
    all-positive (and hence none is), ValueError above MAX_POWERING_ORDER.
    """
    return sum(1 for _ in _powers(m))


class LocalExponentTable(NamedTuple):
    """Local exponents exp(m : i, j) for every vertex pair of one primitive matrix."""

    n: int
    values: tuple[tuple[int, ...], ...]

    def get(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"({i}, {j}) out of [1, {self.n}]^2")
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
            top = missing.bit_length() - 1
            values[top] = length + 1
            missing ^= 1 << top
    return LocalExponentTable(n, tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n)))


def local_exponent(m: BoolMatrix, i: int, j: int) -> int:
    """Smallest k such that i -> j walks of every length >= k exist."""
    return local_exponent_table(m).get(i, j)
