"""Output checks for one benchmark command.

Every command must exit 0 and its artifacts must hash as ``run.json``
lists them.  Simulate outputs must close the mass ledger within the
workload's bound, if it has one, and match the values stored in
``reference.json`` within 1e-12 of each field's scale; sweep outputs must
hold every point and probe; verify outputs must pass all four checks.
Artifact fingerprints are returned for the result row: a changed byte is
reported, not failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import SWEEP_POINTS

VALUE_RTOL = 1e-12
SWEEP_PROBES = 20
VERIFY_CHECKS = ("residuals", "oracle", "mass", "convergence")
METRIC_SCALARS = ("t_end", "matrix_fraction", "tissue_fraction", "degraded_fraction",
                  "outflow_fraction", "ci_exposure", "mass_defect")
TRAJECTORIES = ("matrix.csv", "tissue.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(out: Path) -> tuple[dict, list[str]]:
    """sha256 of each artifact run.json lists, and any that disagree with it."""
    outputs = json.loads((out / "run.json").read_text(encoding="utf-8"))["outputs"]
    prints, problems = {}, []
    for name, listed in sorted(outputs.items()):
        prints[name] = sha256(out / name)
        if prints[name] != listed:
            problems.append(f"{name}: sha256 differs from run.json")
    return prints, problems


def final_rows(path: Path, count: int) -> list[list[str]]:
    """The last ``count`` data rows of a long-format CSV, which must be
    exactly the rows of its last sample time."""
    lines = path.read_bytes().decode("utf-8").rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[-count - 1:]]
    before, rows = rows[0], rows[1:]
    if len(rows) != count or any(r[0] != rows[-1][0] for r in rows) or before[0] == rows[-1][0]:
        raise ValueError(f"{path.name}: final sample is not {count} rows long")
    return rows


def _within(label: str, got: list[float], want: list[float], scale: float) -> list[str]:
    tol = VALUE_RTOL * scale
    worst = max(abs(g - w) for g, w in zip(got, want))
    return [] if worst <= tol else [f"{label}: off by {worst:.3g} > {tol:.3g}"]


def check_simulate(out: Path, reference: dict, ledger_limit: float | None) -> list[str]:
    problems = []
    defect = json.loads((out / "ledger.json").read_text(encoding="utf-8"))["max_rel_defect"]
    if ledger_limit is not None and not defect <= ledger_limit:
        problems.append(f"ledger.json: max_rel_defect {defect} above {ledger_limit}")
    for name in TRAJECTORIES:
        want = reference[name]
        rows = final_rows(out / name, len(want["rows"]))
        for j, column in enumerate(want["columns"]):
            ref_col = [r[j] for r in want["rows"]]
            scale = max(abs(v) for v in ref_col)
            problems += _within(f"{name} {column}", [float(r[j]) for r in rows], ref_col, scale)
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    for key in METRIC_SCALARS:
        want = reference["metrics.json"][key]
        problems += _within(f"metrics.json {key}", [metrics[key]], [want], max(abs(want), 1.0))
    return problems


def check_sweep(out: Path) -> list[str]:
    problems = []
    failed = json.loads((out / "run.json").read_text(encoding="utf-8"))["sweep"]["failed"]
    if failed != 0:
        problems.append(f"sweep: {failed} points failed")
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    ok = sum(1 for line in lines if line.split(",")[2] == "ok")
    if len(lines) != SWEEP_POINTS * SWEEP_PROBES or ok != len(lines):
        problems.append(f"sweep.csv: {ok} ok rows of {len(lines)}, "
                        f"want {SWEEP_POINTS * SWEEP_PROBES}")
    return problems


def check_verify(out: Path) -> list[str]:
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    names = sorted(c["name"] for c in report["checks"])
    problems = [] if report["passed"] is True else ["verify.json: passed is not true"]
    if names != sorted(VERIFY_CHECKS):
        problems.append(f"verify.json: checks {names}, want {sorted(VERIFY_CHECKS)}")
    return problems


def check_command(spec: dict, out: Path, rc) -> tuple[dict, list[str]]:
    """(fingerprints, problems) of one command's outputs; no problems means passed."""
    if rc != 0:
        return {}, [f"exit code {rc}"]
    try:
        prints, problems = fingerprints(out)
        if spec["check"] == "simulate":
            problems += check_simulate(out, spec["reference"], spec["ledger_limit"])
        elif spec["check"] == "sweep":
            problems += check_sweep(out)
        else:
            problems += check_verify(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {}, [f"unreadable output: {type(exc).__name__}: {exc}"]
    return prints, problems


def reference_values(out: Path) -> dict:
    """The values ``check_simulate`` compares against, taken from one run."""
    ref = {"fingerprints": fingerprints(out)[0]}
    for name in TRAJECTORIES:
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        last = lines[-1].split(",")[0]
        rows = [line.split(",") for line in lines[1:] if line.split(",", 1)[0] == last]
        ref[name] = {"columns": lines[0].split(","),
                     "rows": [[float(v) for v in row] for row in rows]}
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    ref["metrics.json"] = {key: metrics[key] for key in METRIC_SCALARS}
    return ref
