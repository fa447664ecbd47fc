"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that span self time is duration minus child coverage, that a wrap
point a refactor removed leaves its metrics out instead of failing, and
that a one-digit change in a final-sample row of ``matrix.csv`` counts as
a failed command.  Takes a few seconds; exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402
from worker import Runner  # noqa: E402

WORKDIR = HERE / "_runs" / "selftest"


def _no_probe() -> float:
    return 1.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_self_time_is_duration_minus_child_coverage():
    tree = [Span("root", 0.0, 10.0),
            Span("a", 1.0, 4.0, parent=0),
            Span("b", 3.0, 6.0, parent=0),      # overlaps a: covered once
            Span("c", 8.0, 12.0, parent=0),     # runs past root: clipped
            Span("a1", 2.0, 3.0, parent=1)]
    got = spans.self_times(tree)
    want = [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0]
    assert all(close(g, w) for g, w in zip(got, want)), (got, want)


def test_layer_metrics_of_a_synthetic_round():
    tree = [Span("cli.main", 0.0, 10.0),
            Span("solver.simulate", 1.0, 7.0, parent=0,
                 counts={"steps": 100, "unknowns": 10, "samples": 3}),
            Span("solver.stepper", 1.0, 2.0, parent=1),
            Span("runio.matrix_csv", 7.0, 9.0, parent=0, counts={"bytes": 1000})]
    tree += [Span(w, 9.0, 9.0, parent=0, counts={"bytes": 0})
             for w in ("runio.tissue_csv", "runio.sweep_csv", "runio.json")]
    m = spans.layer_metrics(tree, missing=set(), commands=2)
    want = {"solver.propagate_s": 2.5, "solver.assemble_factorize_s": 0.5,
            "solver.steps": 50, "solver.unknowns": 10, "solver.us_per_step": 5e4,
            "solver.sample_bytes": 120, "runio.matrix_csv_s": 1.0,
            "runio.bytes_written": 500, "runio.write_mb_per_s": 1000 / 2.0 / 1e6,
            "cli.self_s": 1.0}
    assert all(close(m[k], v) for k, v in want.items()), {k: m[k] for k in want}


def test_removed_wrap_point_leaves_its_metrics_out():
    from releasesim import cli

    original = cli.hash_file
    gone = ("releasesim.cli", "hash_file_removed", "runio.hash")
    tracer = spans.Tracer(spans.WRAP_POINTS + (gone,))
    tracer.install()
    try:
        assert cli.hash_file is not original
    finally:
        tracer.uninstall()
    assert cli.hash_file is original
    m = spans.layer_metrics([Span("cli.main", 0.0, 1.0)], tracer.missing)
    assert "runio.hash_s" not in m and "cli.self_s" not in m, sorted(m)
    assert m["runio.json_s"] == 0.0 and m["solver.calls"] == 0
    # without the stepper's span, simulate's self time would include assembly
    m = spans.layer_metrics([Span("cli.main", 0.0, 1.0)], {"solver.stepper"})
    assert "solver.calls" in m and "solver.propagate_s" not in m, sorted(m)


def _flip(path: Path, leading: bool) -> None:
    """Change the leading or the last mantissa digit of the last value in
    the file's last row."""
    text = path.read_text(encoding="utf-8")
    head, last = text.rstrip("\n").rsplit(",", 1)
    mantissa = last.split("e")[0]
    digits = [i for i, ch in enumerate(mantissa) if ch.isdigit()]
    i = next(i for i in digits if last[i] != "0") if leading else digits[-1]
    last = last[:i] + str((int(last[i]) + 1) % 10) + last[i + 1:]
    path.write_text(f"{head},{last}\n", encoding="utf-8")


def _rehash(out: Path, name: str) -> None:
    manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
    manifest["outputs"][name] = checks.sha256(out / name)
    (out / "run.json").write_text(json.dumps(manifest), encoding="utf-8")


class _FlippingCli:
    """The real CLI, followed by a one-digit edit of its matrix.csv."""

    def __init__(self, leading: bool, rehash: bool):
        from releasesim import cli
        self.cli, self.leading, self.rehash = cli, leading, rehash

    def main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        _flip(out / "matrix.csv", self.leading)
        if self.rehash:
            _rehash(out, "matrix.csv")
        return rc


def test_flipped_digit_in_final_row_fails_the_command():
    spec = workloads.build("fine_grid", 0, WORKDIR)
    reference = json.loads((HERE / "reference.json").read_text())["workloads"]["fine_grid"]
    spec.update(workdir=str(WORKDIR), reference=reference)
    from releasesim import cli
    clean = Runner(cli, spec, _no_probe)
    clean.command(spec["commands"][0])
    assert clean.failed == 0, clean.failures
    # last digit, manifest untouched: the sha256 no longer matches run.json
    runner = Runner(_FlippingCli(leading=False, rehash=False), spec, _no_probe)
    runner.command(spec["commands"][0])
    assert runner.failed == 1 and "sha256" in runner.failures[0], runner.failures
    # leading digit, manifest rehashed: only the 1e-12 value check can see it
    runner = Runner(_FlippingCli(leading=True, rehash=True), spec, _no_probe)
    runner.command(spec["commands"][0])
    assert runner.failed == 1 and "matrix.csv C0: off by" in runner.failures[0], runner.failures
    # last digit, manifest rehashed: a byte change within 1e-12 is not a failure
    runner = Runner(_FlippingCli(leading=False, rehash=True), spec, _no_probe)
    _, _, prints = runner.command(spec["commands"][0])
    assert runner.failed == 0, runner.failures
    assert prints["matrix.csv"] != reference["fingerprints"]["matrix.csv"]


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"ok    {test.__name__}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
