"""Seeded input generators for the benchmark workloads.

Each workload is an endless sequence of passes; a pass is a fixed-shape
batch of CLI calls (`Op`).  The shape of every pass (how many calls of
each category, and the stratified spread of their sizes) is the same for
every seed, so seeds change the concrete rows and numbers but not the
mix.  The stream is a pure function of the seed: a faster program reads a
longer prefix of the same stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from digraph import is_primitive_row, walk_exponent


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads; SMOKE is a seconds-long version for self-tests."""

    census_orders: tuple[int, ...] = (13, 14, 15)
    verify_n_max: int = 11
    exp_max_order: int = 64
    frob_max: int = 400
    f_length_max: int = 64


FULL = Sizes()
SMOKE = Sizes(census_orders=(8, 9, 10), verify_n_max=6, exp_max_order=24, frob_max=40, f_length_max=20)

# exp-stream: calls per pass by category, (count, smallest order).  Each
# category draws its orders from [lo, max order] with density falling
# like 1/sqrt(n - lo), so small orders dominate; the lower bounds keep
# every category's row space large enough that no call repeats in a run.
EXP_PASS = {
    "exp-dense": (38, 12),
    "exp-sparse": (38, 24),
    "local-dense": (10, 8),
    "local-sparse": (9, 8),
    "exp-imprimitive": (2, 16),
    "local-imprimitive": (1, 16),
    "exp-reducible": (2, 12),
}
# numerics: calls per pass by category; frobenius-<k> has k generators.
NUMERICS_PASS = {"frobenius-2": 8, "frobenius-3": 8, "frobenius-4": 4, "strings-f": 12, "strings-t": 12}
SPARSE_CANDIDATES = 8
FROB_MIN = 10
F_LENGTH_MIN = 10

_REDRAWS = 200


@dataclass(frozen=True)
class Op:
    """One CLI call: its category, argv, and the generator's parameters.

    `params` holds what the checks need to rebuild the expected answer
    without reparsing argv (order and row, generators, string sizes).
    """

    category: str
    argv: tuple[str, ...]
    params: tuple


class QuerySpaceExhausted(RuntimeError):
    """The generator could not find a call that differs from every earlier one."""


GOLDEN = (5 ** 0.5 - 1) / 2


def _strata(rng: random.Random, count: int, offset: float) -> list[float]:
    """One point in each of `count` equal slices of [0, 1), at `offset` within the slice, shuffled."""
    out = [(k + offset) / count for k in range(count)]
    rng.shuffle(out)
    return out


def _small_weighted(values: list[int], u: float) -> int:
    return values[min(len(values) - 1, int(len(values) * u * u))]


def _dense_row(rng: random.Random, n: int) -> str:
    while True:
        row = "1" + "".join(rng.choice("01") for _ in range(n - 1))
        if is_primitive_row(n, row):
            return row


def _sparse_row(rng: random.Random, n: int) -> str:
    """Primitive row with 2-4 support columns, column 1 among them."""
    while True:
        cols = {1, *rng.sample(range(2, n + 1), rng.randint(1, 3))}
        row = "".join("1" if i in cols else "0" for i in range(1, n + 1))
        if is_primitive_row(n, row):
            return row


def _imprimitive_row(rng: random.Random, n: int) -> str:
    """Irreducible row whose support sits on columns 1 mod p for a prime p | n."""
    p = rng.choice([q for q in range(2, n) if n % q == 0 and all(q % d for d in range(2, q))])
    cols = {1} | {i for i in range(1 + p, n + 1, p) if rng.random() < 0.5}
    return "".join("1" if i in cols else "0" for i in range(1, n + 1))


def _exp_op(sizes: Sizes, rng: random.Random, category: str, u: float, v: float) -> Op:
    top = sizes.exp_max_order
    lo = min(EXP_PASS[category][1], top - 8)
    kind, _, shape = category.partition("-")
    orders = range(lo, top + 1)
    if shape == "imprimitive":
        orders = [n for n in orders if any(n % d == 0 for d in range(2, n))]
    n = _small_weighted(list(orders), u)
    if shape == "dense":
        row = _dense_row(rng, n)
    elif shape == "sparse":
        # The oracle's cost grows with the exponent, so sparse rows are
        # also stratified by exponent: take the candidate at quantile v.
        rows = sorted((_sparse_row(rng, n) for _ in range(SPARSE_CANDIDATES)), key=partial(walk_exponent, n))
        row = rows[int(v * SPARSE_CANDIDATES)]
    elif shape == "imprimitive":
        row = _imprimitive_row(rng, n)
    else:
        row = "0" + "".join(rng.choice("01") for _ in range(n - 1))
    if kind == "exp":
        return Op(category, ("exp", str(n), row), (n, row))
    i, j = rng.randint(1, n), rng.randint(1, n)
    return Op(category, ("local-exp", str(n), row, str(i), str(j)), (n, row, i, j))


def _coprime_set(rng: random.Random, size: int, a: int, v: float) -> tuple[int, ...]:
    """a, a largest generator at quantile v of (a, 2.5a], and random ones between, gcd 1.

    The conductor sieve's cost grows with a times the largest generator,
    so both are stratified.
    """
    top = a + size - 1 + int((a * 3 // 2 - size + 1) * v)
    while True:
        gens = (a, *sorted(rng.sample(range(a + 1, top), size - 2)), top)
        if math.gcd(*gens) == 1:
            return gens
        top += 1


def _numerics_op(sizes: Sizes, rng: random.Random, category: str, u: float, v: float) -> Op:
    if category.startswith("frobenius"):
        a = FROB_MIN + int((sizes.frob_max - FROB_MIN + 1) * u)
        gens = _coprime_set(rng, int(category[-1]), a, v)
        return Op(category, ("frobenius", *map(str, gens)), gens)
    if category == "strings-f":
        n = F_LENGTH_MIN + int((sizes.f_length_max - F_LENGTH_MIN + 1) * u)
        x = n // 4 + int((n // 2 + 1) * v)
        k = rng.randint(1, max(1, min(x, 8)))
        return Op(category, ("strings", "f", str(n), str(x), str(k)), (n, x, k))
    r, n = rng.randint(2, 8), 100 + int(2901 * u)
    return Op(category, ("strings", "t", str(r), str(n)), (r, n))


def _unique_passes(seed: int, shape: dict, make) -> Iterator[list[Op]]:
    """Passes of the given shape, every call distinct from all earlier ones."""
    rng = random.Random(seed)
    seen: set[tuple[str, ...]] = set()
    offsets = {category: [rng.random(), rng.random()] for category in shape}
    while True:
        batch = []
        for category, spec in shape.items():
            count = spec[0] if isinstance(spec, tuple) else spec
            offset = offsets[category] = [(o + GOLDEN) % 1.0 for o in offsets[category]]
            for u, v in zip(_strata(rng, count, offset[0]), _strata(rng, count, offset[1])):
                for _ in range(_REDRAWS):
                    op = make(rng, category, u, v)
                    if op.argv not in seen:
                        break
                    # a repeat: redraw both points at random within their strata
                    u = (int(u * count) + rng.random()) / count
                    v = (int(v * count) + rng.random()) / count
                else:
                    raise QuerySpaceExhausted(f"no fresh {category} call near stratum {u:.3f}")
                seen.add(op.argv)
                batch.append(op)
        rng.shuffle(batch)
        yield batch


def census_passes(seed: int, sizes: Sizes, outdir: str) -> Iterator[list[Op]]:
    """Every pass: a CSV census at each order, a JSON census at the smallest
    and one `verify`, in a seed-shuffled order."""
    rng = random.Random(seed)
    calls = [
        *(Op("census", ("census", str(n), "--format", fmt, "--out", f"{outdir}/census_n{n}.{fmt}"), (n, fmt))
          for n, fmt in [(n, "csv") for n in sizes.census_orders] + [(sizes.census_orders[0], "json")]),
        Op("verify", ("verify", "--n-max", str(sizes.verify_n_max)), (sizes.verify_n_max,)),
    ]
    while True:
        rng.shuffle(calls)
        yield list(calls)


def probe_pass(outdir: str) -> list[Op]:
    """A few small calls that reach every layer, one row per exponent rule.

    The traced run ends with this pass, so that a per-layer time the
    workload's own passes never reach is still measured.
    """
    rows = ("11111111", "11000000", "11000010", "10001100", "10011000")
    return [
        *(Op("probe", ("exp", "8", row), (8, row)) for row in rows),
        Op("probe", ("local-exp", "8", "10011000", "1", "4"), (8, "10011000", 1, 4)),
        Op("probe", ("frobenius", "7", "11"), (7, 11)),
        Op("probe", ("frobenius", "4", "5", "8"), (4, 5, 8)),
        Op("probe", ("strings", "f", "12", "6", "2"), (12, 6, 2)),
        Op("probe", ("strings", "t", "3", "40"), (3, 40)),
        *next(census_passes(0, SMOKE, outdir)),
    ]


def exp_stream_passes(seed: int, sizes: Sizes) -> Iterator[list[Op]]:
    return _unique_passes(seed, EXP_PASS, partial(_exp_op, sizes))


def numerics_passes(seed: int, sizes: Sizes) -> Iterator[list[Op]]:
    return _unique_passes(seed, NUMERICS_PASS, partial(_numerics_op, sizes))
