"""Spans around calls into the program's layers, recorded from outside.

`Tracer.install` rebinds the public functions of core, oracle, formulas,
frobenius, counting, verify and cli (in every package module that holds
them) to wrappers that record one span per call: name, start, end,
parent and a tag (the rule that fired, the census order, ...).  A few
names are only counted, with no span per call.  `Tracer.uninstall` puts
the originals back.  Spans stay in memory until `write` dumps them, and
`layer_metrics` derives self times and the per-layer metrics from them.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

RULES = ("POSITIVE_TRACE", "TWO_CYCLES", "SMALLEST_CYCLE_2", "BLOCK_V1_PREFIX", "ORACLE")
VERIFY_FAMILIES = (
    "cycle-structure", "primitivity", "local-exponent-maxima", "dispatch-soundness",
    "range-uniqueness", "conductors", "counting", "membership",
)

TIME_UNITS = ("s", "ms", "us")
# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "cli.self_us": "us",
    "core.spec_us": "us",
    "core.cycle_lengths_us": "us",
    "core.is_primitive_us": "us",
    **{f"formulas.exponent_us.{r}": "us" for r in RULES},
    **{f"formulas.rule_share.{r}": "share" for r in RULES},
    "formulas.recompute_per_spec": "count",
    "oracle.exponent_us": "us",
    "oracle.exponent_calls": "count",
    "oracle.products_per_call": "count",
    "oracle.local_exponent_us": "us",
    "frobenius.conductor_us.pair": "us",
    "frobenius.conductor_us.multi": "us",
    "frobenius.conductor_calls": "count",
    "counting.census_us_per_row": "us",
    "counting.serialize_ms": "ms",
    "counting.f_strings_ms": "ms",
    "counting.t_runs_us": "us",
    **{f"verify.family_s.{f}": "s" for f in VERIFY_FAMILIES},
    "trace.overhead_ratio": "ratio",
}

RECOMPUTE = "formulas.recompute"
PRODUCTS = "oracle.bool_product"


def _conductor_tag(args, _result) -> str:
    values = getattr(args[0], "values", args[0])
    size = len(set(values)) if isinstance(values, (tuple, list)) else 0
    return "pair" if size == 2 else "multi" if size >= 3 else "other"


# (module, attribute, span name, tag of (args, result), counters whose
# growth inside the span is accumulated under "<span name>>counter")
SPANS = (
    ("cli", "main", "cli.main", None, ()),
    ("core", "CompanionSpec", "core.spec", None, ()),
    ("core", "companion_matrix", "core.companion_matrix", None, ()),
    ("core", "vertex_partition", "core.vertex_partition", None, ()),
    ("core", "cycle_lengths", "core.cycle_lengths", None, ()),
    ("core", "is_primitive", "core.is_primitive", None, ()),
    ("formulas", "require_primitive", "formulas.require_primitive", None, ()),
    ("formulas", "exponent", "formulas.exponent", lambda a, r: r.rule, (RECOMPUTE,)),
    ("oracle", "exponent", "oracle.exponent", None, (PRODUCTS,)),
    ("oracle", "local_exponent", "oracle.local_exponent", None, ()),
    ("frobenius", "conductor", "frobenius.conductor", _conductor_tag, ()),
    ("counting", "census", "counting.census", lambda a, r: str(a[0]), ()),
    ("counting", "f_strings", "counting.f_strings", None, ()),
    ("counting", "t_runs", "counting.t_runs", None, ()),
    ("verify", "run_all", "verify.run_all", None, ()),
)
# Spec facts the rules recompute: calls from the formulas namespace also
# count under RECOMPUTE.
RECOMPUTED = ("vertex_partition", "cycle_lengths", "is_primitive")


def package_modules(package) -> dict[str, object]:
    """The package's submodules by short name, imported."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.name = array("H")
        self.tag = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.counts: Counter[str] = Counter()
        self._ids: dict[str, int] = {}
        self._tag_ids: dict[str, int] = {"": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @staticmethod
    def _intern(ids: dict[str, int], table: list[str], key: str) -> int:
        """Index of `key` in `table`, appending it on first sight."""
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def _span(self, name: str, fn, tag_of=None, inner: tuple[str, ...] = (), count: str | None = None):
        name_id = self._intern(self._ids, self.names, name)
        stack, counts = self._stack, self.counts
        spans_name, spans_tag, spans_parent = self.name, self.tag, self.parent
        spans_start, spans_end = self.start, self.end

        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            before = [counts[c] for c in inner]
            idx = len(spans_start)
            spans_name.append(name_id)
            spans_tag.append(0)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0)
            stack.append(idx)
            spans_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[idx] = perf_counter_ns()
                stack.pop()
            if tag_of is not None:
                spans_tag[idx] = self._intern(self._tag_ids, self.tags, tag_of(args, result))
            for c, b in zip(inner, before):
                counts[f"{name}>{c}"] += counts[c] - b
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module, attr: str, new) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, package) -> None:
        """Wrap the layer boundaries in every module of `package`."""
        modules = package_modules(package)
        oracle, formulas = modules["oracle"], modules["formulas"]
        self._rebind(oracle, "bool_product", self._counter(PRODUCTS, oracle.bool_product))
        for mod, attr, name, tag_of, inner in SPANS:
            original = getattr(modules[mod], attr)
            for module in (package, *modules.values()):
                for held, value in list(vars(module).items()):
                    if value is original:
                        count = RECOMPUTE if module is formulas and held in RECOMPUTED else None
                        self._rebind(module, held, self._span(name, original, tag_of, inner, count))
        verify = modules["verify"]
        for held, value in list(vars(verify).items()):
            if held.startswith("_check_") and callable(value):
                self._rebind(verify, held, self._span("verify.family", value, lambda a, r: r.name))
        record = modules["counting"].CensusRecord
        for attr in ("to_csv", "to_json"):
            self._rebind(record, attr, self._span("counting.serialize", getattr(record, attr)))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def self_times(self) -> array:
        """Span duration minus the time its direct children cover, in ns."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        out = array("q", own)
        for parent, d in zip(self.parent, own):
            if parent >= 0:
                out[parent] -= d
        return out

    def write(self, path: Path) -> None:
        """Dump every span as CSV (gzip): id, parent, name, tag, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,tag,start_ns,end_ns\n")
            names, tags = self.names, self.tags
            for idx, row in enumerate(zip(self.parent, self.name, self.tag, self.start, self.end)):
                parent, name, tag, start, end = row
                fh.write(f"{idx},{parent},{names[name]},{tags[tag]},{start},{end}\n")

    def mark(self) -> tuple[int, Counter]:
        """A boundary between groups of spans: the span count and counters so far."""
        return len(self.start), Counter(self.counts)

    def layer_metrics(self, passes: int, untraced_wall: float, traced_wall: float,
                      probe: tuple[int, Counter]) -> tuple[dict[str, float], set[str]]:
        """PER_LAYER metrics of the spans before the `probe` mark; counts are per pass.

        A per-call time whose layer those spans never reach is taken from
        the spans after the mark, so every time is a measurement; other
        metrics of unreached layers read 0.  Also returns the names taken
        from the probe.
        """
        own = self.self_times()
        main = self._metrics(own, (0, Counter()), probe, passes)
        extra = self._metrics(own, probe, self.mark(), 1)
        out, probed = {}, set()
        for name, unit in PER_LAYER.items():
            value = main.get(name)
            if value is None and unit in TIME_UNITS:
                value = extra.get(name)
                probed.add(name)
            out[name] = 0.0 if value is None else value
        out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        return out, probed

    def _metrics(self, own: array, start: tuple[int, Counter], stop: tuple[int, Counter], passes: int) -> dict:
        """Metrics of the spans between two marks; None where the layer was not reached."""
        (lo, counts_lo), (hi, counts_hi) = start, stop
        counts = counts_hi - counts_lo
        total: Counter[tuple[str, str]] = Counter()
        calls: Counter[tuple[str, str]] = Counter()
        self_ns: Counter[str] = Counter()
        for i in range(lo, hi):
            key = (self.names[self.name[i]], self.tags[self.tag[i]])
            total[key] += self.end[i] - self.start[i]
            calls[key] += 1
            self_ns[key[0]] += own[i]

        def sums(name: str, tag: str | None = None) -> tuple[int, int]:
            keys = [k for k in calls if k[0] == name and tag in (None, k[1])]
            return sum(total[k] for k in keys), sum(calls[k] for k in keys)

        def mean(name: str, tag: str | None = None, scale: float = 1e-3) -> float | None:
            t, c = sums(name, tag)
            return t * scale / c if c else None

        def ratio(num: float, den: float) -> float | None:
            return num / den if den else None

        cli_calls = sums("cli.main")[1]
        dispatched = sums("formulas.exponent")[1]
        oracle_calls = sums("oracle.exponent")[1]
        census_ns = sums("counting.census")[0]
        census_rows = sum(c << (int(k[1]) - 1) for k, c in calls.items() if k[0] == "counting.census")
        out = {
            "cli.self_us": ratio(self_ns["cli.main"] / 1e3, cli_calls),
            "core.spec_us": mean("core.spec"),
            "core.cycle_lengths_us": mean("core.cycle_lengths"),
            "core.is_primitive_us": mean("core.is_primitive"),
            "formulas.recompute_per_spec": ratio(counts[f"formulas.exponent>{RECOMPUTE}"], dispatched),
            "oracle.exponent_us": mean("oracle.exponent"),
            "oracle.exponent_calls": oracle_calls / passes,
            "oracle.products_per_call": ratio(counts[f"oracle.exponent>{PRODUCTS}"], oracle_calls),
            "oracle.local_exponent_us": mean("oracle.local_exponent"),
            "frobenius.conductor_us.pair": mean("frobenius.conductor", "pair"),
            "frobenius.conductor_us.multi": mean("frobenius.conductor", "multi"),
            "frobenius.conductor_calls": sums("frobenius.conductor")[1] / passes,
            "counting.census_us_per_row": ratio(census_ns / 1e3, census_rows),
            "counting.serialize_ms": mean("counting.serialize", scale=1e-6),
            "counting.f_strings_ms": mean("counting.f_strings", scale=1e-6),
            "counting.t_runs_us": mean("counting.t_runs"),
        }
        for rule in RULES:
            out[f"formulas.exponent_us.{rule}"] = mean("formulas.exponent", rule)
            out[f"formulas.rule_share.{rule}"] = ratio(calls["formulas.exponent", rule], dispatched)
        for family in VERIFY_FAMILIES:
            out[f"verify.family_s.{family}"] = mean("verify.family", family, scale=1e-9)
        return out
