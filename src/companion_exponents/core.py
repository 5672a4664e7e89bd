"""Companion matrices over the boolean semiring and their digraph structure.

A (0,1) companion matrix of order n has ones on the superdiagonal and an
arbitrary (0,1) last row; the last row alone identifies the matrix.  In the
adjacency digraph (vertices 1..n, edge i -> j when entry (i, j) is 1) every
vertex i < n has the single edge i -> i+1, and vertex n has an edge n -> i
for each i whose row bit is 1.  Consequently every elementary cycle passes
through vertex n, and the edge n -> i closes exactly one cycle, of length
n - i + 1.

The matrix is irreducible (digraph strongly connected) exactly when the
first row bit is 1: the edge n -> 1 is the only way back into vertex 1.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, NamedTuple, Sequence


class ReducibleError(ValueError):
    """The operation needs a strongly connected (irreducible) matrix."""


def wielandt_bound(n: int) -> int:
    """Sharp upper bound (n-1)**2 + 1 for exponents of primitive matrices of order n."""
    return (n - 1) ** 2 + 1


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _parse_bits(row: Sequence[int] | str) -> tuple[int, ...]:
    if isinstance(row, str):
        if not row or row.strip("01"):
            raise ValueError(f"row must be a nonempty string over 0/1, got {row!r}")
        return tuple(row.encode().translate(_BIT_BYTES))  # ASCII once strip passed; bytes iterate as ints
    bits = tuple(row)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"row bits must be 0 or 1, got {bits!r}")
    return tuple(map(int, bits))  # 1.0 and True pass the check; store the ints they equal


class CompanionSpec(NamedTuple("CompanionSpec", [("n", int), ("row", tuple[int, ...])])):
    """Order n plus the last row of a (0,1) companion matrix.

    The row may be given as a bit string such as "10011000" or as a
    sequence of 0/1 ints; bit i (1-based) is the entry in column i of the
    last row, stored as a tuple of ints.  Orders below 2 are rejected.
    """

    __slots__ = ()

    def __new__(cls, n: int, row: Sequence[int] | str) -> CompanionSpec:
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"order must be an integer >= 2, got {n!r}")
        bits = _parse_bits(row)
        if len(bits) != n:
            raise ValueError(f"row has {len(bits)} bits, expected n={n}")
        return tuple.__new__(cls, (n, bits))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    @property
    def row_string(self) -> str:
        return "".join(map("01".__getitem__, self.row))  # shared one-character strings, no str() per bit


class VertexPartition(NamedTuple):
    """Split of the vertices 1..n by the last row.

    `support` holds the columns with a 1 (vertex n has an edge there),
    `zeros` the columns with a 0.  Irreducible specs always have vertex 1
    in the support.
    """

    zeros: frozenset[int]
    support: frozenset[int]


def is_irreducible(spec: CompanionSpec) -> bool:
    """True when the digraph is strongly connected, i.e. the row starts with 1."""
    return spec.row[0] == 1


def vertex_partition(spec: CompanionSpec) -> VertexPartition:
    columns: tuple[list[int], list[int]] = ([], [])  # zeros, support
    for i, bit in enumerate(spec.row, 1):
        columns[bit].append(i)
    return VertexPartition(zeros=frozenset(columns[0]), support=frozenset(columns[1]))


def longest_run(indices: Iterable[int]) -> int:
    """Length of the longest block of consecutive integers in `indices` (0 if empty)."""
    present = set(indices)
    best = 0
    for i in present:
        if i - 1 in present:
            continue
        j = i
        while j + 1 in present:
            j += 1
        best = max(best, j - i + 1)
    return best


def cycle_lengths(spec: CompanionSpec) -> tuple[int, ...]:
    """Sorted distinct elementary cycle lengths of the companion digraph.

    Every elementary cycle uses exactly one edge out of vertex n, and the
    edge n -> i yields length n - i + 1, so the set is
    {n - i + 1 : row bit i = 1}.  Raises ReducibleError when the row
    starts with 0.
    """
    if not is_irreducible(spec):
        raise ReducibleError("cycle lengths need an irreducible spec (row must start with 1)")
    return tuple(compress(range(1, spec.n + 1), reversed(spec.row)))  # bit n - l + 1 closes length l


def imprimitivity_index(spec: CompanionSpec) -> int:
    """gcd of all elementary cycle lengths; 1 means primitive."""
    return math.gcd(*cycle_lengths(spec))


def is_primitive(spec: CompanionSpec) -> bool:
    """True when the spec is irreducible and its cycle lengths have gcd 1."""
    return is_irreducible(spec) and imprimitivity_index(spec) == 1


class BoolMatrix(NamedTuple("BoolMatrix", [("n", int), ("rows", tuple[int, ...])])):
    """Square (0,1) matrix with each row stored as a bitmask (bit j-1 = column j)."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]) -> BoolMatrix:
        if n < 1 or len(rows) != n:
            raise ValueError(f"need exactly n={n} row bitmasks, got {len(rows)}")
        if min(rows) < 0 or max(rows) >> n:
            raise ValueError("row bitmask out of range for the given order")
        return tuple.__new__(cls, (n, rows))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, tuple(1 << i for i in range(n)))


def companion_matrix(spec: CompanionSpec) -> BoolMatrix:
    """Build the (0,1) companion matrix: superdiagonal ones, last row = spec row."""
    rows = [1 << i for i in range(1, spec.n)]
    rows.append(int(spec.row_string[::-1], 2))  # bit j - 1 is column j
    return BoolMatrix(spec.n, tuple(rows))
