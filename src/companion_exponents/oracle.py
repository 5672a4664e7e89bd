"""Ground-truth exponent computations by boolean matrix powering.

Powers are taken over the boolean semiring (1 + 1 = 1), so entry (i, j) of
the k-th power is 1 exactly when the digraph has an i -> j walk of length
k.  Every scan is cut off at the Wielandt bound (n-1)**2 + 1: a primitive
matrix turns all-positive by then, so reaching the cutoff without an
all-positive power certifies the matrix is not primitive, with no
probabilistic slack.

Internally a matrix of order n is packed into one int, with row i
(1-based) in the n-bit slot at bits (i-1)n .. in-1, and every product
goes through one kernel:

    p . Y = OR_k ((p >> k) & slots) * Y.rows[k],   slots = sum_i 2**(i*n)

`(p >> k) & slots` keeps bit 0 of each slot exactly when that row of p
has column k set.  Every row of Y is below 2**n, so the multiply copies
row k of Y into those slots and nowhere else, with no carry from one slot
into the next.  A single row is a one-slot p, so the same kernel steps a
row walk.  The kernel is a general boolean-semiring product; it uses no
companion structure, which keeps the oracle independent of the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import BoolMatrix, wielandt_bound


class NotPrimitiveError(ValueError):
    """No power of the matrix within the Wielandt bound is all-positive."""


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
    """Packed m**1, m**2, .., m**bound, one product per step."""
    slots = _slots(m.n)
    power = _pack(m)
    yield power
    for _ in range(wielandt_bound(m.n) - 1):
        power = _times(power, m.rows, slots)
        yield power


def bool_product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product: (xy)_ij = OR_k (x_ik AND y_kj)."""
    if x.n != y.n:
        raise ValueError(f"order mismatch: {x.n} vs {y.n}")
    return BoolMatrix(x.n, _unpack(_times(_pack(x), y.rows, _slots(x.n)), x.n))


def has_positive_power(m: BoolMatrix) -> bool:
    """Primitivity test: is some power within the Wielandt bound all-positive?

    Positivity propagates along further powers of a primitive matrix, so
    it is enough to look at the single power at the cutoff, reached here
    by binary powering.
    """
    n = m.n
    slots = _slots(n)
    k = wielandt_bound(n)
    acc = None
    base = _pack(m)
    while k:
        rows = _unpack(base, n)
        if k & 1:
            acc = base if acc is None else _times(acc, rows, slots)
        k >>= 1
        if k:
            base = _times(base, rows, slots)
    return acc == (1 << (n * n)) - 1


def _check_vertex(m: BoolMatrix, i: int) -> None:
    if not 1 <= i <= m.n:
        raise ValueError(f"vertex {i} out of [1, {m.n}]")


def exponent(m: BoolMatrix) -> int:
    """Smallest k with m**k all-positive, found by direct powering.

    Raises NotPrimitiveError when no power up to the Wielandt bound is
    all-positive (and hence none at all).
    """
    full = (1 << (m.n * m.n)) - 1
    for k, power in enumerate(_powers(m), 1):
        if power == full:
            return k
    raise NotPrimitiveError(f"no all-positive power up to the Wielandt bound {wielandt_bound(m.n)}")


def _settles(m: BoolMatrix, i: int, want: int) -> int:
    """Smallest k such that walks from i of every length >= k reach all of `want`, by
    a downward scan of the row walk from the Wielandt bound, where primitive input is full."""
    if not has_positive_power(m):
        raise NotPrimitiveError(f"matrix of order {m.n} is not primitive")
    walks = [m.rows[i - 1]]
    for _ in range(wielandt_bound(m.n) - 1):
        walks.append(_times(walks[-1], m.rows, 1))
    for length in range(len(walks), 0, -1):
        if walks[length - 1] & want != want:
            return length + 1
    return 1


def local_exponent(m: BoolMatrix, i: int, j: int) -> int:
    """Smallest k such that i -> j walks of every length >= k exist."""
    _check_vertex(m, i)
    _check_vertex(m, j)
    return _settles(m, i, 1 << (j - 1))


def row_exponent(m: BoolMatrix, i: int) -> int:
    """Smallest k such that row i of m**k (and of every later power) is all-positive."""
    _check_vertex(m, i)
    return _settles(m, i, (1 << m.n) - 1)


@dataclass(frozen=True)
class PowerTrace:
    """All boolean powers m**1 .. m**bound of one matrix, bound = (n-1)**2 + 1."""

    n: int
    powers: tuple[BoolMatrix, ...]

    @classmethod
    def compute(cls, m: BoolMatrix) -> "PowerTrace":
        return cls(m.n, tuple(BoolMatrix(m.n, _unpack(p, m.n)) for p in _powers(m)))

    def power(self, k: int) -> BoolMatrix:
        """m**k for 1 <= k <= bound."""
        if not 1 <= k <= len(self.powers):
            raise ValueError(f"power {k} out of [1, {len(self.powers)}]")
        return self.powers[k - 1]


@dataclass(frozen=True)
class LocalExponentTable:
    """Local exponents exp(m : i, j) for every vertex pair of one primitive matrix."""

    n: int
    values: tuple[tuple[int, ...], ...]

    def get(self, i: int, j: int) -> int:
        return self.values[i - 1][j - 1]


def local_exponent_table(m: BoolMatrix) -> LocalExponentTable:
    """Tabulate all local exponents from one packed power sequence.

    The powers m**bound .. m**1 are scanned downward; an entry's local
    exponent is one past the first length, from the top, at which it is
    missing, and `pending` holds the entries not yet seen missing.  The
    top power doubles as the primitivity test.
    """
    n = m.n
    powers = list(_powers(m))
    pending = (1 << (n * n)) - 1
    if powers[-1] != pending:
        raise NotPrimitiveError(f"matrix of order {n} is not primitive")
    values = [1] * (n * n)
    for length in range(len(powers), 0, -1):
        missing = pending & ~powers[length - 1]
        pending ^= missing
        while missing:
            low = missing & -missing
            values[low.bit_length() - 1] = length + 1
            missing ^= low
    return LocalExponentTable(n, tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n)))
