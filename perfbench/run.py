#!/usr/bin/env python3
"""End-to-end benchmark of the companion-exp CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ../src
relative to this file, and the CLI is driven in-process through
`cli.main(argv)` with stdout captured, one call after another (a
closed loop with one client).  Every call starts with the program's
in-process caches empty, as a fresh `companion-exp` process would.

With --trace 0 the run measures for --seconds seconds and prints the
end-to-end metrics.  With --trace 1 it measures untraced for half the
time, then replays the passes of that phase with spans around
the calls into each layer (see tracing.py) and prints the per-layer
metrics, including the tracing overhead.  Outputs are checked against
references after the timed region (see checks.py).  Human-readable lines
come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("census-verify", "exp-stream", "numerics")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# The tail is a fixed percentile per workload, so that it never changes
# between commits: faster programs only add samples.  For the streams it
# keeps at least ten calls beyond it even when the machine runs the seed
# program at 60% of its usual rate.  census-verify makes about twenty
# calls a run, so no percentile has ten beyond it; its p90 is a typical
# order-15 census, where the maximum would only pick the machine's
# worst moment.
TAIL_PERCENTILE = {"census-verify": 90, "exp-stream": 95, "numerics": 90}
SETUP_SAMPLES = 11
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import companion_exponents; "
    "print(time.perf_counter() - t)"
)
EXIT_MISSING_PROGRAM = 2


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Import time of companion_exponents in fresh interpreters, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        out.append(float(proc.stdout))
    return out[1:]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


class Session:
    """The imported program plus the per-call harness around `cli.main`."""

    def __init__(self, sizes: workloads.Sizes) -> None:
        sys.path.insert(0, str(SRC))
        import companion_exponents

        self.package = companion_exponents
        self.modules = tracing.package_modules(companion_exponents)
        self.sizes = sizes
        self._clear = []
        for module in self.modules.values():
            for name, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)):
                    self._clear.append(value.cache_clear)
                elif isinstance(value, dict) and "cache" in name.lower():
                    self._clear.append(value.clear)

    def call(self, op: workloads.Op) -> tuple[float, int | None, str, str | None]:
        """Run one CLI call: (latency s, exit code or None if it raised, stdout, artifact digest)."""
        for clear in self._clear:
            clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.modules["cli"].main(list(op.argv))
            except Exception as exc:  # a crash is a failed call, not the end of the run
                code = None
                print(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
        artifact = None
        if op.argv[0] == "census" and code == 0:
            artifact = checks.digest(Path(op.argv[op.argv.index("--out") + 1]).read_bytes())
        return latency, code, out.getvalue(), artifact

    def passes(self, workload: str, seed: int):
        if workload == "census-verify":
            return workloads.census_passes(seed, self.sizes, str(OUT))
        if workload == "exp-stream":
            return workloads.exp_stream_passes(seed, self.sizes)
        return workloads.numerics_passes(seed, self.sizes)

    def checker(self) -> checks.Checker:
        counting = self.modules["counting"]
        return checks.Checker(
            census_reference=checks.load_census_reference(),
            pair_conductor=self.modules["frobenius"].pair_conductor,
            count_primitive=counting.count_primitive,
        )


class Phase:
    """Calls and timings of one measured (or replayed) phase."""

    def __init__(self) -> None:
        self.ops: list[workloads.Op] = []
        self.results: list[tuple[float, int | None, str, str | None]] = []
        self.pass_walls: list[float] = []
        self.passes: list[list[workloads.Op]] = []
        self.elapsed = 0.0

    def run(self, session: Session, passes, seconds: float) -> None:
        """Closed loop: start passes until `seconds` have passed, and finish every pass started."""
        start = time.perf_counter()
        for batch in passes:
            pass_start = time.perf_counter()
            for op in batch:
                self.ops.append(op)
                self.results.append(session.call(op))
            self.pass_walls.append(time.perf_counter() - pass_start)
            self.passes.append(batch)
            if time.perf_counter() - start >= seconds:
                break
        self.elapsed = time.perf_counter() - start

    def latencies(self) -> list[float]:
        return sorted(r[0] for r in self.results)


def end_to_end(workload: str, phase: Phase, setup: list[float], rss_mb: float) -> tuple[dict, str]:
    lat = phase.latencies()
    p = TAIL_PERCENTILE[workload]
    tail = percentile(lat, p)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(phase.pass_walls),
        "queries_per_s": len(lat) / sum(phase.pass_walls),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_mb,
    }
    note = f"p{p} of {len(lat)} calls, {sum(1 for x in lat if x > tail)} beyond it"
    if len(lat) >= 20:
        top = 100 * (1 - 10 / len(lat))
        note += f"; p{top:.2f}, the highest with 10 beyond, is {percentile(lat, top) * 1e3:.4g} ms"
    return metrics, note


def input_properties(workload: str, phase: Phase) -> dict:
    """Measured properties of the inputs the run actually issued."""
    ops = phase.ops
    calls = len(ops)
    props: dict = {
        "calls": calls,
        "passes": len(phase.passes),
        "repeat_share": 1 - len({op.argv for op in ops}) / calls,
        "categories": dict(sorted(Counter(op.category for op in ops).items())),
    }
    if workload == "exp-stream":
        primitive = [op for op in ops if checks.is_primitive_row(*op.params[:2])]
        rules = Counter(
            out.split("rule=")[1].strip()
            for op, (_, code, out, _) in zip(ops, phase.results)
            if op.argv[0] == "exp" and code == 0 and "rule=" in out
        )
        answered = sum(rules.values())
        props.update(
            order_histogram=dict(sorted(Counter(op.params[0] for op in ops).items())),
            sparse_share=sum(1 for op in primitive if op.category.endswith("sparse")) / len(primitive),
            exit3_share=1 - len(primitive) / calls,
            local_exp_share=sum(1 for op in ops if op.argv[0] == "local-exp") / calls,
            rule_shares={r: rules[r] / answered for r in checks.RULES} if answered else {},
        )
    elif workload == "numerics":
        smallest = Counter(min(op.params) // 100 * 100 for op in ops if op.argv[0] == "frobenius")
        props.update(
            smallest_generator_histogram={f"{k}-{k + 99}": v for k, v in sorted(smallest.items())},
            f_lengths=sorted({op.params[0] for op in ops if op.category == "strings-f"}),
        )
    elif workload == "census-verify":
        census = [op.params for op in ops if op.argv[0] == "census"]
        props.update(orders=dict(sorted(Counter(f"{n}.{fmt}" for n, fmt in census).items())))
    return props


def check_phase(checker: checks.Checker, phase: Phase) -> list[str]:
    failures = []
    for op, (_, code, out, artifact) in zip(phase.ops, phase.results):
        reason = f"raised {out.strip()}" if code is None else checker.check(op, code, out, artifact)
        if reason:
            failures.append(f"{' '.join(op.argv[:4])}: {reason}")
    return failures


def traced_replay(session: Session, phase: Phase) -> tuple[tracing.Tracer, Phase, Phase, tuple]:
    """Replay the passes of `phase`, then the probe pass, with spans around every layer call.

    Returns the tracer, both phases and the tracer's mark between them.
    """
    tracer = tracing.Tracer()
    replay, probe = Phase(), Phase()
    tracer.install(session.package)
    try:
        replay.run(session, iter(phase.passes), float("inf"))
        mark = tracer.mark()
        probe.run(session, iter([workloads.probe_pass(str(OUT))]), 0.0)
    finally:
        tracer.uninstall()
    return tracer, replay, probe, mark


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes) -> dict:
    OUT.mkdir(exist_ok=True)
    setup = measure_setup()
    session = Session(sizes)
    phase = Phase()
    phase.run(session, session.passes(workload, seed), seconds / 2 if trace else seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, tail_note = end_to_end(workload, phase, setup, rss_mb)
    phases = [phase]
    lines = []
    if trace:
        tracer, replay, probe, mark = traced_replay(session, phase)
        phases += [replay, probe]
        layer, probed = tracer.layer_metrics(
            len(replay.passes), metrics["wall_s"], statistics.mean(replay.pass_walls), mark)
        self_s = sum(tracer.self_times()) / 1e9
        tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
        lines.append(f"trace: {len(tracer.start)} spans, self times sum to {self_s:.4f} s "
                     f"of {replay.elapsed + probe.elapsed:.4f} s traced wall")
    checker = session.checker()
    failures = [f for p in phases for f in check_phase(checker, p)]
    attempted = sum(len(p.ops) for p in phases)
    props = input_properties(workload, phase)
    lines.append(f"workload {workload} seed {seed}: {attempted} calls checked, {len(failures)} failed, "
                 f"error_ratio {len(failures) / attempted:.6f}")
    lines.extend(f"  FAIL {f}" for f in failures[:10])
    lines.append("properties " + json.dumps(props, sort_keys=True))
    for name, unit in END_TO_END.items():
        note = f"  ({tail_note})" if name == "latency_tail_ms" else ""
        lines.append(f"metric {name} = {metrics[name]:.6g} {unit}{note}")
    if trace:
        for name, unit in tracing.PER_LAYER.items():
            source = "  (probe pass)" if name in probed else ""
            lines.append(f"layer {name} = {layer[name]:.6g} {unit}{source}")
        chosen, units = layer, tracing.PER_LAYER
    else:
        chosen, units = metrics, END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples_s": setup, "properties": props, "failures": failures,
              "end_to_end": metrics, "latency_tail": tail_note, "result": result,
              "pass_walls_s": phase.pass_walls, "latencies_ms": [round(x * 1e3, 3) for x in phase.latencies()]}
    if trace:
        record["per_layer"] = layer
        record["per_layer_from_probe"] = sorted(probed)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    return result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes, for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "companion_exponents" / "__init__.py").is_file():
        print(f"error: no companion_exponents package under {SRC}", file=sys.stderr)
        return EXIT_MISSING_PROGRAM
    if args.workload == "all":
        return run_all(args)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
