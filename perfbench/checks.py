"""Reference answers and output checks, run outside the timed region.

The references are computed here, independently of the program's code
paths, except where noted:

- exponents and local exponents walk reach sets on the companion digraph
  (digraph.py), not matrix powering; `make_reference.py` confirms them
  against the program's powering oracle;
- conductors of pairs use the program's closed form `pair_conductor`,
  and larger sets a shortest-path computation over residues modulo the
  smallest generator (Nijenhuis 1979);
- `strings f` uses the inclusion-exclusion closed form, `strings t` the
  r-bonacci recurrence;
- census files are compared with digests stored from the seed program,
  and the primitive count with the program's inclusion-exclusion
  `count_primitive`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import re
from math import comb
from pathlib import Path

from digraph import is_primitive_row, walk_exponent, walk_local_exponent
from tracing import RULES
from workloads import Op

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EXIT_NOT_PRIMITIVE = 3

_EXP_LINE = re.compile(r"exp=(\d+) rule=([A-Z0-9_]+)\n")
_CENSUS_LINE = re.compile(r"census n=(\d+) primitive=(\d+) imprimitive=(\d+) exponents=(\d+) -> .*\n")


def load_census_reference() -> dict:
    return json.loads((REFERENCE_DIR / "census.json").read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def residue_conductor(gens: tuple[int, ...]) -> int:
    """Conductor from the shortest representable number in each residue class mod min(gens)."""
    a = min(gens)
    if a == 1:
        return 0
    dist = [math.inf] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for g in gens:
            nd, nr = d + g, (r + g) % a
            if nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return max(dist) - a + 1


def _at_most_runs(n: int, x: int, k: int) -> int:
    """Length-n strings with x zeros and longest zero run at most k."""
    if k < 0:
        return 0
    m = n - x
    return sum(
        (-1) ** j * comb(m + 1, j) * comb(x - j * (k + 1) + m, m)
        for j in range(m + 2)
        if x - j * (k + 1) >= 0
    )


def strings_f(n: int, x: int, k: int) -> int:
    return _at_most_runs(n, x, k) - _at_most_runs(n, x, k - 1)


def strings_t(r: int, n: int) -> int:
    """Length-n strings with no run of r ones: t(m) = 2**m below r, else the sum of the last r."""
    t = [1 << m for m in range(r)]
    for m in range(r, n + 1):
        t.append(sum(t[m - r:m]))
    return t[n]


class Checker:
    """Checks one workload's CLI results against the references.

    `check` returns None for a correct result, else a one-line reason.
    """

    def __init__(self, census_reference: dict, pair_conductor, count_primitive) -> None:
        self.census_reference = census_reference
        self.pair_conductor = pair_conductor
        self.count_primitive = count_primitive

    def check(self, op: Op, code: int, out: str, artifact: str | None) -> str | None:
        kind = op.argv[0]
        if kind in ("exp", "local-exp") and not is_primitive_row(*op.params[:2]):
            return None if code == EXIT_NOT_PRIMITIVE and out == "" else f"expected exit 3, got {code} {out!r}"
        if code != 0:
            return f"exit code {code}"
        return getattr(self, "_" + kind.replace("-", "_"))(op, out, artifact)

    def _exp(self, op: Op, out: str, _artifact) -> str | None:
        m = _EXP_LINE.fullmatch(out)
        if not m or m.group(2) not in RULES:
            return f"malformed exp line {out!r}"
        want = walk_exponent(*op.params)
        return None if int(m.group(1)) == want else f"exp {m.group(1)} != {want}"

    def _local_exp(self, op: Op, out: str, _artifact) -> str | None:
        want = walk_local_exponent(*op.params)
        return None if out == f"{want}\n" else f"local exponent {out!r} != {want}"

    def _frobenius(self, op: Op, out: str, _artifact) -> str | None:
        gens = op.params
        c = self.pair_conductor(*gens) if len(gens) == 2 else residue_conductor(gens)
        return None if out == f"conductor={c} classical_frobenius={c - 1}\n" else f"{out!r} != conductor {c}"

    def _strings(self, op: Op, out: str, _artifact) -> str | None:
        want = strings_f(*op.params) if op.argv[1] == "f" else strings_t(*op.params)
        return None if out == f"{want}\n" else f"{out!r} != {want}"

    def _census(self, op: Op, out: str, artifact: str | None) -> str | None:
        n, fmt = op.params
        ref = self.census_reference[str(n)]
        m = _CENSUS_LINE.fullmatch(out)
        if not m:
            return f"malformed census line {out!r}"
        got = tuple(int(g) for g in m.groups())
        want = (n, self.count_primitive(n), ref["imprimitive"], ref["exponents"])
        if got != want or ref["primitive"] != want[1]:
            return f"census summary {got} != {want}"
        return None if artifact == ref[fmt] else f"census n={n} {fmt} digest differs"

    def _verify(self, op: Op, out: str, _artifact) -> str | None:
        lines = out.splitlines()
        if not lines or not all(line.startswith("PASS ") for line in lines):
            return "verify did not pass every family"
        return None
