"""Runs one workload in a warm interpreter and writes its result as JSON.

    python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON is a workload spec from ``workloads.build`` plus ``seconds``,
``trace``, ``workdir`` and ``reference``.  The worker imports the CLI,
runs one untimed warm-up command, then timed rounds of the workload's
commands, calling ``releasesim.cli.main`` with artifacts written, until the
time is spent (at least three rounds).  The speed probe runs between
commands, so each command's time can be scaled to the machine's nominal
speed.  With ``trace`` set, untraced and traced rounds alternate, so the
tracing overhead and the per-layer metrics come from the same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import spans

MIN_ROUNDS = 3


class Runner:
    """Runs and checks the workload's commands, keeping every outcome."""

    def __init__(self, cli, spec: dict, probe):
        self.cli = cli
        self.spec = spec
        self.probe = probe
        self.workdir = Path(spec["workdir"])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.prints: dict[str, list[list[dict]]] = {}   # tag -> per round, per command
        self.traced_spans: list[list[spans.Span]] = []  # one list per traced round
        self._last_probe = None
        self._calls = 0

    def command(self, argv: list[str], tracer=None) -> tuple[float, float, dict]:
        """(wall seconds, probe seconds around it, fingerprints) of one checked command."""
        before = self._last_probe or self.probe()
        self._calls += 1
        out = self.workdir / f"out{self._calls}"
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                top = tracer.open(spans.TOP) if tracer else None
                try:
                    rc = self.cli.main(argv + ["--out", str(out)])
                finally:
                    if tracer:
                        tracer.close(top)
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        prints, problems = checks.check_command(self.spec, out, rc)
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{' '.join(argv[:2])}: {p}" for p in problems]
        self._last_probe = self.probe()
        return elapsed, 0.5 * (before + self._last_probe), prints

    def round(self, tracer=None) -> tuple[float, float]:
        """Run every command of the workload once: (wall seconds, probe
        seconds) summed over the round's commands."""
        wall = probe = 0.0
        prints = []
        for argv in self.spec["commands"]:
            elapsed, probed, fp = self.command(argv, tracer)
            wall += elapsed
            probe += probed
            prints.append(fp)
        self.prints.setdefault("traced" if tracer else "untraced", []).append(prints)
        if tracer:
            self.traced_spans.append(tracer.take())
        return wall, probe

    def rounds(self, seconds: float, tracer=None) -> tuple[list, list]:
        """(untraced, traced) rounds until ``seconds`` would be exceeded.

        With a tracer, traced and untraced rounds alternate, so a drift in
        the machine's speed does not show up as tracing overhead.
        """
        untraced: list[tuple[float, float]] = []
        traced: list[tuple[float, float]] = []
        deadline = time.perf_counter() + seconds
        while (min(len(untraced), len(traced) if tracer else MIN_ROUNDS) < MIN_ROUNDS
               or time.perf_counter() + statistics.median(w + p for w, p in untraced + traced)
               <= deadline):
            if tracer is None or len(untraced) <= len(traced):
                untraced.append(self.round())
                continue
            tracer.install()
            try:
                traced.append(self.round(tracer))
            finally:
                tracer.uninstall()
        return untraced, traced


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    t_start = time.perf_counter()
    from releasesim import cli
    import numpy
    import scipy

    from speed import SpeedProbe

    runner = Runner(cli, spec, SpeedProbe())
    runner.command(spec["commands"][0])     # warm-up: lazy imports, caches, page cache
    budget = spec["seconds"] - (time.perf_counter() - t_start)
    tracer = spans.Tracer() if spec["trace"] else None
    untraced, traced = runner.rounds(budget, tracer)
    result = {"python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__, "releasesim_file": cli.__file__,
              "rounds": untraced, "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.failures, "fingerprints": runner.prints,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        per_round = [spans.layer_metrics(round_spans, tracer.missing, len(spec["commands"]))
                     for round_spans in runner.traced_spans]
        result.update(
            traced_rounds=traced,
            layers={k: statistics.median(m[k] for m in per_round) for k in per_round[0]
                    if all(k in m for m in per_round)},
            missing_wrap_points=sorted(tracer.missing),
            spans=[[[s.name, s.start, s.end, s.parent, s.counts] for s in round_spans]
                   for round_spans in runner.traced_spans])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
