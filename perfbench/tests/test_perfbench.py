"""Self-tests of the benchmark on its smoke sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def session() -> run.Session:
    run.OUT.mkdir(exist_ok=True)
    return run.Session(workloads.SMOKE)


def _bench(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", str(SEED), "--seconds", "0.3", "--smoke", *args],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace,units", [("0", run.END_TO_END), ("1", tracing.PER_LAYER)])
def test_smoke_prints_every_metric_with_its_unit(trace, units):
    lines = _bench("--workload", "all", "--trace", trace)
    results = json.loads(lines[-1])
    assert sorted(results) == sorted(run.WORKLOADS)
    prefix = "layer" if trace == "1" else "metric"
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        pattern = re.compile(rf"{prefix} {re.escape(name)} = \S+ {re.escape(unit)}\b")
        assert sum(1 for line in lines if pattern.match(line)) == len(run.WORKLOADS), name


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_corrupted_reference_counts_as_failure(session, monkeypatch):
    reference = checks.load_census_reference()
    reference["9"] = dict(reference["9"], csv="0" * 64)
    monkeypatch.setattr(checks, "load_census_reference", lambda: reference)
    result = run.run_workload("census-verify", SEED, 0.0, False, workloads.SMOKE)
    # one pass: CSV at 8, 9, 10, JSON at 8 and verify; only the order-9 CSV is wrong
    assert (result["attempted"], result["failed"], result["correct"]) == (5, 1, False)


def test_corrupted_exponent_reference_is_caught(session, monkeypatch):
    checker = session.checker()
    batch = next(workloads.exp_stream_passes(SEED, workloads.SMOKE))
    op = next(op for op in batch if op.argv[0] == "exp" and checks.is_primitive_row(*op.params))
    _, code, out, artifact = session.call(op)
    assert checker.check(op, code, out, artifact) is None
    monkeypatch.setattr(checks, "walk_exponent", lambda n, row: 0)
    assert checker.check(op, code, out, artifact) is not None


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_fit_in_the_wall_time(session, workload):
    phase = run.Phase()
    phase.run(session, session.passes(workload, SEED), 0.0)
    tracer, replay, probe, mark = run.traced_replay(session, phase)
    assert len(tracer.start) > 0
    assert sum(tracer.self_times()) <= (replay.elapsed + probe.elapsed) * 1e9
    assert all(t >= 0 for t in tracer.self_times())
    layer, _ = tracer.layer_metrics(len(replay.passes), 1.0, 1.0, mark)
    assert set(layer) == set(tracing.PER_LAYER)
    times = [name for name, unit in tracing.PER_LAYER.items() if unit in tracing.TIME_UNITS]
    assert all(layer[name] > 0 for name in times), [name for name in times if layer[name] <= 0]


def test_tracing_restores_the_program(session):
    before = {name: dict(vars(mod)) for name, mod in session.modules.items()}
    run.traced_replay(session, _one_pass(session, "exp-stream"))
    for name, mod in session.modules.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items()), name


def _one_pass(session, workload):
    phase = run.Phase()
    phase.run(session, session.passes(workload, SEED), 0.0)
    return phase


def test_streams_are_seeded_and_never_repeat():
    def take(seed):
        return [op.argv for batch in islice(workloads.exp_stream_passes(seed, workloads.FULL), 20) for op in batch]

    first = take(SEED)
    assert first == take(SEED) and first != take(SEED + 1)
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("n,row,i,j", [(8, "10011000", 1, 4), (8, "11000000", 1, 1), (12, "100000100001", 5, 2)])
def test_walk_references_match_the_oracle(session, n, row, i, j):
    core, oracle = session.modules["core"], session.modules["oracle"]
    m = core.companion_matrix(core.CompanionSpec(n, row))
    assert checks.walk_exponent(n, row) == oracle.exponent(m)
    assert checks.walk_local_exponent(n, row, i, j) == oracle.local_exponent(m, i, j)


def test_closed_forms_match_the_program(session):
    counting, frobenius = session.modules["counting"], session.modules["frobenius"]
    for n in range(0, 13):
        for x in range(n + 1):
            for k in range(x + 1):
                assert checks.strings_f(n, x, k) == counting.f_strings(n, x, k), (n, x, k)
    for r in range(2, 6):
        for n in range(0, 40):
            assert checks.strings_t(r, n) == counting.t_runs(r, n)
    for gens in [(4, 5, 8), (6, 10, 15), (11, 13), (37, 50, 61, 77)]:
        assert checks.residue_conductor(gens) == frobenius.conductor(gens)


def test_missing_program_exits_nonzero_without_a_result():
    """A checkout holding only the benchmark's own files has no program to run."""
    root = run.OUT / "no-program"
    (root / "perfbench").mkdir(parents=True, exist_ok=True)
    for path in BENCH.glob("*.py"):
        (root / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
