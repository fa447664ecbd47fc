"""Span tracing of releasesim from outside the program.

The tracer replaces public callables at the module attributes the CLI
reaches them through, records one span per call (name, start, end, parent,
counts) in memory, and restores the originals on ``uninstall``.  A wrap
point that no longer exists is noted, and every layer metric that depends
on it is left out rather than reported wrong.

Layer ``_s`` metrics are *self* times: a span's duration minus the part of
it that its child spans cover.  The exceptions, which are inclusive, are
``metrics.sweep_point_s`` (sweep time per point) and
``verification.mass_check_s`` (the whole mass check).
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

TOP = "cli.main"

# (module, attribute, span name).  Every attribute through which the CLI
# reaches a layer is listed, so no call escapes its span.
WRAP_POINTS = (
    ("releasesim.solver", "ThetaStepper", "solver.stepper"),
    ("releasesim.scenario", "simulate", "solver.simulate"),
    ("releasesim.verification", "simulate", "solver.simulate"),
    ("releasesim.cli", "load_config", "runio.config_load"),
    ("releasesim.cli", "write_matrix_csv", "runio.matrix_csv"),
    ("releasesim.cli", "write_tissue_csv", "runio.tissue_csv"),
    ("releasesim.cli", "write_sweep_csv", "runio.sweep_csv"),
    ("releasesim.cli", "write_json", "runio.json"),
    ("releasesim.cli", "hash_file", "runio.hash"),
    ("releasesim.cli", "release_metrics", "metrics.release_metrics"),
    ("releasesim.metrics", "release_metrics", "metrics.release_metrics"),
    ("releasesim.cli", "run_sweep", "metrics.sweep"),
    ("releasesim.cli", "ode_oracle", "verification.oracle"),
    ("releasesim.cli", "convergence_study", "verification.convergence"),
    ("releasesim.cli", "_check_mass", "verification.mass_check"),
    ("releasesim.cli", "mass_audit", "verification.mass_audit"),
    ("releasesim.metrics", "mass_audit", "verification.mass_audit"),
    ("releasesim.cli", "residuals", "analytic.residuals"),
)

# Every per-layer metric and its unit.  Times ending in _s are seconds.
UNITS = {
    "solver.calls": "count", "solver.steps": "count", "solver.unknowns": "count",
    "solver.unknown_steps": "count", "solver.samples": "count", "solver.sample_bytes": "B",
    "solver.assemble_factorize_s": "s", "solver.propagate_s": "s",
    "solver.us_per_step": "us", "solver.ns_per_unknown_step": "ns",
    "runio.config_load_s": "s", "runio.matrix_csv_s": "s", "runio.tissue_csv_s": "s",
    "runio.sweep_csv_s": "s", "runio.json_s": "s", "runio.hash_s": "s",
    "runio.bytes_written": "B", "runio.write_mb_per_s": "MB/s",
    "metrics.release_metrics_s": "s", "metrics.sweep_point_s": "s",
    "verification.oracle_s": "s", "verification.oracle_points": "count",
    "verification.oracle_ns_per_point": "ns", "verification.convergence_s": "s",
    "verification.mass_check_s": "s", "verification.mass_audit_s": "s",
    "analytic.residuals_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

_WRITERS = ("runio.matrix_csv", "runio.tissue_csv", "runio.sweep_csv", "runio.json")


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict = field(default_factory=dict)


def _count_simulate(args: dict, result) -> dict:
    grid, config = args["grid"], args["config"]
    return {"steps": int(round(config.t_end / config.dt)),
            "unknowns": 2 * grid.nm + 3 * grid.nt,
            "samples": len(result.times)}


def _count_written(args: dict, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _count_oracle(args: dict, result) -> dict:
    return {"points": len(args["t_grid"])}


def _count_sweep(args: dict, result) -> dict:
    return {"points": len(result)}


_COUNTERS = {"solver.simulate": _count_simulate, "verification.oracle": _count_oracle,
             "metrics.sweep": _count_sweep,
             **{name: _count_written for name in _WRITERS}}


class Tracer:
    """Wraps the program's callables and keeps the spans of their calls."""

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[Span]:
        """The spans recorded so far, leaving the tracer empty."""
        taken, self.spans = self.spans, []
        return taken

    def install(self) -> None:
        for module_name, attr, name in self.points:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        try:
            signature = inspect.signature(fn) if counter else None
        except (TypeError, ValueError):
            signature = None

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.spans[index].counts = counter(bound, result)
                except (TypeError, KeyError, AttributeError, OSError):
                    pass  # the counts go missing; the metrics that need them are left out
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i]):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], missing: set[str], commands: int = 1) -> dict:
    """Per-layer metrics of one round of ``commands`` traced commands.

    Times, counts and bytes are per command; rates and ``solver.unknowns``
    (the largest system solved) are not divided.  A metric whose spans were
    not all wrapped, or whose counts could not be taken, is absent.
    """
    self_s, dur_s, calls = defaultdict(float), defaultdict(float), Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    max_unknowns = 0
    for s, t_self in zip(spans, self_times(spans)):
        self_s[s.name] += t_self
        dur_s[s.name] += s.end - s.start
        calls[s.name] += 1
        counts[s.name].update(s.counts)
        if s.name == "solver.simulate" and "unknowns" in s.counts:
            n = s.counts["unknowns"]
            max_unknowns = max(max_unknowns, n)
            counts[s.name].update(unknown_steps=n * s.counts["steps"],
                                  sample_bytes=8 * n * s.counts["samples"])
    every_name = {name for _, _, name in WRAP_POINTS}
    per = float(commands)
    m: dict[str, float] = {}

    def have(*names) -> bool:
        return not (set(names) & missing)

    def counted(name: str, key: str) -> bool:
        """The span was wrapped and every call of it carried its counts."""
        return have(name) and all(key in s.counts for s in spans if s.name == name)

    if counted("solver.simulate", "steps"):
        c = counts["solver.simulate"]
        m["solver.calls"] = calls["solver.simulate"] / per
        m["solver.steps"] = c["steps"] / per
        m["solver.unknowns"] = max_unknowns
        m["solver.unknown_steps"] = c["unknown_steps"] / per
        m["solver.samples"] = c["samples"] / per
        m["solver.sample_bytes"] = c["sample_bytes"] / per
    if counted("solver.simulate", "steps") and have("solver.stepper"):
        # without the stepper's span, simulate's self time would include assembly
        propagate = self_s["solver.simulate"]
        m["solver.assemble_factorize_s"] = self_s["solver.stepper"] / per
        m["solver.propagate_s"] = propagate / per
        m["solver.us_per_step"] = 1e6 * propagate / c["steps"] if c["steps"] else 0.0
        m["solver.ns_per_unknown_step"] = (1e9 * propagate / c["unknown_steps"]
                                           if c["unknown_steps"] else 0.0)
    for key, name in (("config_load_s", "runio.config_load"),
                      ("matrix_csv_s", "runio.matrix_csv"),
                      ("tissue_csv_s", "runio.tissue_csv"),
                      ("sweep_csv_s", "runio.sweep_csv"),
                      ("json_s", "runio.json"),
                      ("hash_s", "runio.hash"),
                      ("release_metrics_s", "metrics.release_metrics"),
                      ("oracle_s", "verification.oracle"),
                      ("convergence_s", "verification.convergence"),
                      ("mass_audit_s", "verification.mass_audit"),
                      ("residuals_s", "analytic.residuals")):
        if have(name):
            m[f"{name.split('.')[0]}.{key}"] = self_s[name] / per
    if all(counted(w, "bytes") for w in _WRITERS):
        written = sum(counts[w]["bytes"] for w in _WRITERS)
        busy = sum(self_s[w] for w in _WRITERS)
        m["runio.bytes_written"] = written / per
        m["runio.write_mb_per_s"] = written / busy / 1e6 if busy > 0 else 0.0
    if counted("metrics.sweep", "points"):
        points = counts["metrics.sweep"]["points"]
        m["metrics.sweep_point_s"] = dur_s["metrics.sweep"] / points if points else 0.0
    if counted("verification.oracle", "points"):
        points = counts["verification.oracle"]["points"]
        m["verification.oracle_points"] = points / per
        m["verification.oracle_ns_per_point"] = (1e9 * self_s["verification.oracle"] / points
                                                 if points else 0.0)
    if have("verification.mass_check"):
        m["verification.mass_check_s"] = dur_s["verification.mass_check"] / per
    if have(*every_name):
        m["cli.self_s"] = self_s[TOP] / per
    return m


def mix(metrics: dict) -> dict:
    """Self-time shares of the traced commands' time by layer, writers grouped.

    The self times partition the time of the traced commands, so they are
    the shares' base.
    """
    inclusive = ("metrics.sweep_point_s", "verification.mass_check_s")
    parts = {k: v for k, v in metrics.items()
             if UNITS.get(k) == "s" and k not in inclusive and not k.startswith("trace.")}
    if "runio.matrix_csv_s" in parts and "runio.tissue_csv_s" in parts:
        parts["writers"] = parts.pop("runio.matrix_csv_s") + parts.pop("runio.tissue_csv_s")
    total = sum(parts.values())
    return {k: v / total for k, v in sorted(parts.items(), key=lambda kv: -kv[1])}
