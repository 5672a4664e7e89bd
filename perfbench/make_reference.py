#!/usr/bin/env python3
"""Rebuild perfbench/reference/census.json and confirm the check references.

    python3 perfbench/make_reference.py

Stores, for every census order the benchmark runs (full and smoke
sizes), the SHA-256 of the CSV and JSON files the program writes and its
primitive, imprimitive and exponent counts.  Run it only on a program
whose census output is known to be right: the stored digests define
right for every later run.

It also confirms the independent references of checks.py against the
program's slow paths on the first passes of a few seeds: walk exponents
and local exponents against the powering oracle, residue conductors
against the sieve, and the string-count closed forms against the
program's dynamic programs.  Any disagreement aborts before writing.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from companion_exponents import (  # noqa: E402
    CompanionSpec, census, companion_matrix, conductor, f_strings, oracle_exponent, t_runs,
)
from companion_exponents.oracle import local_exponent  # noqa: E402

CONFIRM_SEEDS = (1, 2, 3)
CONFIRM_PASSES = 2


def census_reference() -> dict:
    orders = sorted({*workloads.FULL.census_orders, *workloads.SMOKE.census_orders})
    out = {}
    for n in orders:
        record = census(n)
        out[str(n)] = {
            "csv": checks.digest(record.to_csv().encode()),
            "json": checks.digest(record.to_json().encode()),
            "primitive": record.primitive_count,
            "imprimitive": record.imprimitive_count,
            "exponents": len(record.exponent_set),
        }
        print(f"census {n}: {out[str(n)]['primitive']} primitive rows", file=sys.stderr)
    return out


def confirm(op: workloads.Op) -> None:
    kind = op.argv[0]
    if kind in ("exp", "local-exp"):
        n, row = op.params[:2]
        if not checks.is_primitive_row(n, row):
            return
        m = companion_matrix(CompanionSpec(n, row))
        if kind == "exp":
            got, want = checks.walk_exponent(n, row), oracle_exponent(m)
        else:
            got, want = checks.walk_local_exponent(*op.params), local_exponent(m, *op.params[2:])
    elif kind == "frobenius":
        got, want = checks.residue_conductor(op.params), conductor(op.params)
    elif op.argv[1] == "f":
        got, want = checks.strings_f(*op.params), f_strings(*op.params)
    else:
        got, want = checks.strings_t(*op.params), t_runs(*op.params)
    if got != want:
        raise SystemExit(f"reference disagrees with the program on {' '.join(op.argv)}: {got} != {want}")


def main() -> int:
    confirmed = 0
    for seed in CONFIRM_SEEDS:
        for passes in (workloads.exp_stream_passes(seed, workloads.FULL),
                       workloads.numerics_passes(seed, workloads.FULL)):
            for batch in islice(passes, CONFIRM_PASSES):
                for op in batch:
                    confirm(op)
                    confirmed += 1
    print(f"confirmed {confirmed} reference answers", file=sys.stderr)
    path = HERE / "reference" / "census.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(census_reference(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
