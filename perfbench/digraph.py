"""Reach-set walks on the companion digraph, independent of the program.

Vertex v < n has the single edge v -> v + 1, and vertex n has an edge to
every support column (row bit 1).  A set of vertices is a bitmask with
bit v - 1 for vertex v, so one walk step is a shift plus, when n is in
the set, an OR of the support mask.
"""

from __future__ import annotations

import math


def is_primitive_row(n: int, row: str) -> bool:
    """Irreducible (column 1 in the support) with cycle lengths n - i + 1 of gcd 1."""
    return row[0] == "1" and math.gcd(*(n - i for i, c in enumerate(row) if c == "1")) == 1


def _step(reach: int, support: int, top: int, full: int) -> int:
    """Successor set: v -> v + 1 for v < n, n -> every support column."""
    return ((reach << 1) & full) | (support if reach & top else 0)


def _masks(n: int, row: str) -> tuple[int, int, int]:
    support = sum(1 << i for i, c in enumerate(row) if c == "1")
    return support, 1 << (n - 1), (1 << n) - 1


def walk_exponent(n: int, row: str) -> int:
    """Exponent of a primitive row: n - 1 plus the first k with reach(n, k) = all.

    Every walk from vertex i < n runs n - i forced steps to vertex n, so
    vertex 1 is the last to see every vertex.
    """
    support, top, full = _masks(n, row)
    reach, k = top, 0
    while reach != full:
        reach = _step(reach, support, top, full)
        k += 1
        if k > (n - 1) ** 2 + 1:
            raise ValueError(f"row {row} is not primitive")
    return n - 1 + k


def walk_local_exponent(n: int, row: str, i: int, j: int) -> int:
    """Smallest k with an i -> j walk of every length >= k, scanned to the Wielandt bound."""
    support, top, full = _masks(n, row)
    reach, bit, last_missing = 1 << (i - 1), 1 << (j - 1), 0
    for length in range(1, (n - 1) ** 2 + 2):
        reach = _step(reach, support, top, full)
        if not reach & bit:
            last_missing = length
    return last_missing + 1
