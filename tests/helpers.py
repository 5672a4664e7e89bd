"""Independent brute-force oracles for cross-checking the library.

Nothing here reuses library internals: products are triple loops over
nested lists, cycle enumeration goes through networkx, walk checks step
frontier sets, companion exponents come from a per-row reach-set walk,
the census walk builds its support masks by division, batches are
bit-sliced one matrix entry at a time and powered column by column,
representability does a bounded coefficient search or a sieve, and
string statistics are measured on explicitly enumerated strings or by a
bit-by-bit scan of every string at once.
"""

from __future__ import annotations

import math
from collections import Counter

import networkx as nx


def as_lists(m) -> list[list[int]]:
    """A BoolMatrix as nested 0/1 lists: entry (i, j) is bit j - 1 of row i - 1."""
    return [[r >> j & 1 for j in range(m.n)] for r in m.rows]


def naive_bool_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [int(any(a[i][k] and b[k][j] for k in range(n))) for j in range(n)]
        for i in range(n)
    ]


def walk_exists(entries: list[list[int]], i: int, j: int, length: int) -> bool:
    """Frontier-stepping walk check on 1-based vertices."""
    n = len(entries)
    frontier = {i}
    for _ in range(length):
        frontier = {w + 1 for v in frontier for w in range(n) if entries[v - 1][w]}
        if not frontier:
            return False
    return j in frontier


def stabilization_point(entries: list[list[int]], i: int, j: int, horizon: int) -> int:
    """Smallest k with i -> j walks at every length in [k, horizon], by frontier stepping."""
    missing = [L for L in range(1, horizon + 1) if not walk_exists(entries, i, j, L)]
    return missing[-1] + 1 if missing else 1


def first_repeated_power(entries: list[list[int]]) -> int:
    """First k with m**k equal to some m**j, 1 <= j < k, by naive products, capped at
    the Wielandt bound (n-1)**2 + 1."""
    bound = (len(entries) - 1) ** 2 + 1
    powers = [entries]
    while len(powers) < bound:
        power = naive_bool_product(powers[-1], entries)
        if power in powers:
            return len(powers) + 1
        powers.append(power)
    return bound


def reach_sets_from_last(row: str):
    """Reach sets of the walks of length 0, 1, .. from vertex n, up to the first full one.

    Bit v - 1 stands for vertex v: vertex v < n steps to v + 1, and vertex
    n steps to every support column of the row.  Raises ValueError when no
    set within (n-1)**2 + 1 steps is full, i.e. the row is not primitive.
    """
    n = len(row)
    full = (1 << n) - 1
    support = int(row[::-1], 2)
    reach = 1 << (n - 1)
    for _ in range((n - 1) ** 2 + 1):
        yield reach
        if reach == full:
            return
        reach = ((reach << 1) & full) | (support if reach >> (n - 1) else 0)
    raise ValueError(f"row {row} is not primitive")


def structural_exponent(row: str) -> int:
    """n - 1 + the first k at which the reach set from vertex n is full.

    A walk from vertex i is forced for n - i steps to vertex n, so row 1
    fills last, n - 1 steps after the walk from n.
    """
    k = sum(1 for _ in reach_sets_from_last(row)) - 1
    return len(row) - 1 + k


def local_exponent_from_last(row: str, j: int) -> int:
    """exp(n -> j): one past the last walk length from vertex n that misses j (0 if none does)."""
    sets = reach_sets_from_last(row)
    return max((k + 1 for k, reach in enumerate(sets) if not reach >> (j - 1) & 1), default=0)


def division_census_walk(n: int) -> dict[int, int]:
    """Exponent -> mask of the primitive rows of order n attaining it, support masks by division.

    The reference for the census walk, which builds the same masks by
    shifts: bit y stands for the row "1" + (n-1 bits of y), reach[v] holds
    the rows whose walks of length k from vertex n can end at vertex v + 1,
    and a row gets exponent n - 1 + k at the first k its reach set is full.
    """
    everything = (1 << (1 << (n - 1))) - 1
    support = []
    for c in range(2, n + 1):
        half = 1 << (n - c)
        # rows with bit n - c of y set: runs of `half` ones after as many zeros
        support.append(everything // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
    reach = [0] * (n - 1) + [everything]
    done = 0
    masks: dict[int, int] = {}
    for k in range(1, (n - 1) ** 2 + 1 - n + 2):
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


def bit_slice(matrices) -> list[list[int]]:
    """A batch of same-order BoolMatrix objects bit-sliced: entry (i, j) holds bit r
    exactly when matrix r has entry (i + 1, j + 1), read one entry at a time."""
    n = matrices[0].n
    return [[sum(1 << r for r, m in enumerate(matrices) if m.rows[i] >> j & 1) for j in range(n)]
            for i in range(n)]


def column_batch_exponents(m: list[list[int]]) -> dict[int, int]:
    """Exponent -> mask of the matrices attaining it, for a bit-sliced batch (entry (i, j) holds
    bit r for matrix r), each step the previous power times m column by column:
    P[i][j] = OR_l P[i][l] & m[l][j] over the nonzero m[l][j], up to the Wielandt bound or until
    every matrix with a nonzero entry is all-positive; a matrix that is not primitive is in no mask."""
    n = len(m)
    everything = 0
    for row in m:
        for e in row:
            everything |= e
    columns = [[(l, e) for l, e in enumerate(column) if e] for column in zip(*m)]
    power, done, masks = m, 0, {}
    for length in range(1, (n - 1) ** 2 + 2):
        full = everything
        for row in power:
            for e in row:
                full &= e
        if full != done:
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


def with_row_exponent(masks: dict[int, int], y: int, value: int | None) -> dict[int, int]:
    """Exponent masks with row bit y moved to `value` (None: into no mask), sorted, empty masks dropped."""
    out = {e: mask & ~(1 << y) for e, mask in masks.items()}
    if value is not None:
        out[value] = out.get(value, 0) | 1 << y
    return {e: out[e] for e in sorted(out) if out[e]}


def digraph_cycle_lengths(entries: list[list[int]]) -> tuple[int, ...]:
    g = nx.DiGraph()
    n = len(entries)
    g.add_nodes_from(range(1, n + 1))
    for i in range(n):
        for j in range(n):
            if entries[i][j]:
                g.add_edge(i + 1, j + 1)
    return tuple(sorted({len(c) for c in nx.simple_cycles(g)}))


def coefficient_search_representable(x: int, gens) -> bool:
    gens = tuple(sorted(set(gens)))

    def search(rest: int, idx: int) -> bool:
        if rest == 0:
            return True
        if idx == len(gens):
            return False
        g = gens[idx]
        return any(search(rest - c * g, idx + 1) for c in range(rest // g + 1))

    return search(x, 0)


def representable_sieve(gens, limit: int) -> list[bool]:
    """table[x] for 0 <= x <= limit: is x a sum of generators with repetition."""
    gens = tuple(sorted(set(gens)))
    table = [False] * (limit + 1)
    table[0] = True
    for x in range(1, limit + 1):
        table[x] = any(table[x - g] for g in gens if g <= x)
    return table


def least_residues_reference(gens, start) -> list[float]:
    """least[r]: the smallest d + x congruent to r modulo min(gens), over the (residue, d) pairs in
    start and the x that `representable_sieve` marks.  A least element of a class is a sum of
    fewer than min(gens) larger generators (a subset summing to 0 mod min(gens) could be dropped),
    so x up to min(gens) * max(gens) covers every class."""
    a = min(gens)
    table = representable_sieve(gens, a * max(gens))
    least = [math.inf] * a
    for _, d in start:
        for x, member in enumerate(table):
            if member:
                least[(d + x) % a] = min(least[(d + x) % a], d + x)
    return least


def scan_conductor(gens) -> int:
    """Scan upward until min(gens) consecutive representable integers appear.

    Once that many consecutive values are representable, everything above
    follows by adding the smallest generator.
    """
    window = min(gens)
    streak = 0
    x = 0
    while True:
        if coefficient_search_representable(x, gens):
            streak += 1
            if streak == window:
                return x - window + 1
        else:
            streak = 0
        x += 1


def longest_zero_run(bits: str) -> int:
    return max((len(part) for part in bits.split("1")), default=0)


def longest_consecutive_run(indices) -> int:
    present = sorted(set(indices))
    best = run = 0
    prev = None
    for v in present:
        run = run + 1 if prev is not None and v == prev + 1 else 1
        best = max(best, run)
        prev = v
    return best


def irreducible_rows(n: int):
    for y in range(1 << (n - 1)):
        yield "1" + format(y, f"0{n - 1}b")


def row_cycle_gcd(row: str) -> int:
    """gcd of the cycle lengths n - i + 1 over the support columns i of a row."""
    return math.gcd(*(len(row) - i for i, bit in enumerate(row) if bit == "1"))


def longest_zero_run_histograms(length_max: int) -> list[Counter]:
    """hists[m][k]: length-m strings whose longest zero run is k, for m <= length_max.

    Scans the strings one bit at a time with state (current zero run,
    longest zero run so far); appending a 1 resets the run.
    """
    states = Counter({(0, 0): 1})
    hists = []
    for _ in range(length_max + 1):
        hist: Counter = Counter()
        for (_run, best), c in states.items():
            hist[best] += c
        hists.append(hist)
        nxt: Counter = Counter()
        for (run, best), c in states.items():
            nxt[0, best] += c
            nxt[run + 1, max(best, run + 1)] += c
        states = nxt
    return hists


def binary_strings(n: int):
    for v in range(1 << n):
        yield format(v, f"0{n}b") if n else ""


def row_support(row: str) -> set[int]:
    """1-based columns holding a 1."""
    return {i for i, bit in enumerate(row, 1) if bit == "1"}


def smallest_cycle(row: str) -> int:
    """Smallest cycle length n - i + 1 over the support columns i."""
    return len(row) - max(row_support(row)) + 1


def special_vertex(row: str, j: int) -> bool:
    """Set-based check that the smallest-cycle window ending at j lies in the support."""
    low = j - smallest_cycle(row) + 1
    return low >= 1 and all(v in row_support(row) for v in range(low, j + 1))


def support_offset(row: str, j: int) -> int:
    """Steps from zero vertex j back to the nearest support vertex below it."""
    return j - max(v for v in row_support(row) if v <= j)


def gap_rule(row: str, j: int) -> tuple[int, int | None]:
    """Gap bound and pinned value at a non-special support vertex j >= smallest cycle length."""
    n, support = len(row), row_support(row)
    gap = max(p for p in range(1, smallest_cycle(row)) if j - p not in support)
    below = j - gap - 1
    exact = below >= 1 and below in support and special_vertex(row, below)
    return n + gap, (n + gap + 1 if exact else None)


def smallest_cycle_two_value(row: str) -> int:
    """Vertex-by-vertex maximum of the smallest-cycle-2 local exponents from vertex 1."""
    n, support = len(row), row_support(row)
    s = min(n - i + 1 for i in support if (n - i + 1) % 2)

    def local(j: int) -> int:
        if special_vertex(row, j):
            return n
        for p in range(1, s, 2):
            if j - p in support:
                return n + p - 1
        return n + s - 1

    return max(
        local(j) if j in support else local(j - support_offset(row, j)) + support_offset(row, j)
        for j in range(1, n + 1)
    )
