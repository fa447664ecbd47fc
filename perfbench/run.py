"""releasesim benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is ``src/`` of
that checkout, imported from source.  ``--trace 0`` reports the end-to-end
metrics: set-up time of fresh interpreters, and the wall time, throughput
and peak memory of a warm worker that runs the workload's commands.
``--trace 1`` reports the per-layer metrics of a traced worker.  Every
command's outputs are checked.  Human-readable lines come first; the last
line of standard output is one machine-readable JSON object.  Each result
row, with the environment and artifact fingerprints, is appended to
``perfbench/_runs/results.jsonl``; traced spans go next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from speed import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

# One process, one BLAS/OpenMP thread: the steadiest figures on a shared
# machine, and within any machine's core count.
BLAS_THREADS = 1
SETUP_PROBES = 3
TIME_LIMIT = 170.0   # seconds for the whole run; the contract allows 180

# A fresh interpreter importing the CLI and parsing the workload's config,
# which every shell invocation of `releasesim` pays before any work; then
# the speed probe, to scale that time to the machine's nominal speed.
SETUP_PROBE = """\
import sys, time
from releasesim import cli
from releasesim.runio import load_config
if len(sys.argv) > 2:
    load_config(sys.argv[2])
done = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
print(done, SpeedProbe()())
"""

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "unknown_steps_per_s": "1/s",
         **spans.UNITS}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(worker: dict) -> dict:
    """Where and on what the figures were taken."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "releasesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": worker["python"], "numpy": worker["numpy"], "scipy": worker["scipy"],
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def measure_setup(spec: dict, deadline: float) -> list[tuple[float, float]]:
    """(set-up seconds, probe seconds) of each fresh interpreter."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(HERE)]
    first = spec["commands"][0]
    if "--config" in first:
        argv.append(first[first.index("--config") + 1])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start), check=True)
        finished, probe = map(float, done.stdout.split()[-2:])
        times.append((finished - start, probe))
    return times


def scaled(pairs: list) -> list[float]:
    """Seconds at the machine's nominal speed: time x NOMINAL_S / probe time."""
    return [t * NOMINAL_S / p for t, p in pairs]


def run_worker(spec: dict, deadline: float) -> dict:
    spec_path = Path(spec["workdir"]) / "spec.json"
    result_path = Path(spec["workdir"]) / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                   env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.perf_counter()), check=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4g}..{q3:.4g}"


def fingerprint_report(worker: dict, reference: dict | None) -> dict:
    """Artifact hashes of the last untraced round, whether repeats and the
    traced rounds reproduced them, and whether they match the reference."""
    rounds = worker["fingerprints"]
    last = rounds["untraced"][-1]
    every = [r for tag in rounds.values() for r in tag]
    report = {"artifacts": last,
              "repeats_identical": all(r == last for r in rounds["untraced"])}
    if "traced" in rounds:
        report["traced_identical"] = all(r == last for r in rounds["traced"])
    if reference:
        report["same_as_reference"] = all(r == [reference["fingerprints"]] for r in every)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT
    if not (SRC / "releasesim" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'releasesim'} is missing", file=sys.stderr)
        return 2

    workdir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        spec = workloads.build(args.workload, args.seed, workdir)
        references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = references["workloads"].get(args.workload)
        spec.update(seconds=args.seconds, trace=args.trace, workdir=str(workdir),
                    reference=reference)
        setup = measure_setup(spec, deadline) if not args.trace else []
        worker = run_worker(spec, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not Path(worker["releasesim_file"]).resolve().is_relative_to(SRC):
        print(f"error: measured {worker['releasesim_file']}, not this checkout", file=sys.stderr)
        return 1

    env = environment(worker)
    n_commands = len(spec["commands"])
    rounds = scaled(worker["rounds"])
    raw = [w / n_commands for w, _ in worker["rounds"]]
    probes = [p / n_commands for _, p in worker["rounds"]]
    failed = worker["failed"]
    prints = fingerprint_report(worker, reference)
    print(f"releasesim benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"commands     {n_commands} per round: " + " | ".join(
        " ".join(cmd[:2]) for cmd in spec["commands"]))
    if not args.trace:
        wall = statistics.median(rounds)
        metrics = {"wall_s": wall, "setup_s": statistics.median(scaled(setup)),
                   "peak_rss_mb": worker["peak_rss_mb"],
                   "unknown_steps_per_s": spec["unknown_steps"] / n_commands / wall}
        notes = {"wall_s": f"median of {len(rounds)} rounds, per command; {quartiles(rounds)}; "
                           f"raw {statistics.median(raw):.4g} s at probe "
                           f"{1e3 * statistics.median(probes):.4g} ms",
                 "setup_s": f"median of {len(setup)} fresh interpreters; raw "
                            f"{statistics.median(t for t, _ in setup):.4g} s",
                 "peak_rss_mb": "worker process, ru_maxrss",
                 "unknown_steps_per_s": f"{spec['unknown_steps'] / n_commands:.6g} "
                                        "theta steps x unknowns per command / wall_s"}
    else:
        wall = statistics.median(rounds)
        traced = statistics.median(scaled(worker["traced_rounds"]))
        raw_traced = statistics.median(w / n_commands for w, _ in worker["traced_rounds"])
        layers = dict(worker["layers"], **{"trace.wall_s": raw_traced,
                                           "trace.overhead_s": traced - wall})
        metrics = {k: layers[k] for k in spans.UNITS if k in layers}
        notes = {"trace.wall_s": f"median of {len(worker['traced_rounds'])} traced rounds, "
                                 "raw like the layer times",
                 "trace.overhead_s": f"traced minus untraced, scaled like wall_s "
                                     f"({traced:.4g} - {wall:.4g} s)"}
    units = {k: UNITS[k] for k in metrics}
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<34} {failed / worker['attempted']:>14.6g} {'1':<6} "
          f"{failed} of {worker['attempted']} commands failed")
    for problem in worker["failures"]:
        print(f"  FAILED  {problem}")
    if reference:
        defect = reference["metrics.json"]["mass_defect"]
        bound = (f"held to {spec['ledger_limit']:g}" if spec["ledger_limit"] is not None
                 else "over the README's 0.1 %, not held to it (samples too far apart)")
        print(f"  ledger closure {defect:.3g}, pinned to the reference; {bound}")
    for i, artifacts in enumerate(prints["artifacts"]):
        for name, sha in artifacts.items():
            print(f"  sha256 [{i}] {name:<22} {sha}")
    print("  fingerprints " + "  ".join(f"{k}={v}" for k, v in prints.items()
                                       if k != "artifacts"))
    row = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "environment": env, "commands": spec["commands"],
           "metrics": metrics, "units": units, "wall_s": rounds, "raw_wall_s": raw,
           "probe_s": probes, "setup_s_and_probe_s": setup,
           "attempted": worker["attempted"], "failed": failed,
           "failures": worker["failures"], "fingerprints": prints}
    if args.trace:
        shares = spans.mix(metrics)
        top = next(iter(shares))
        holds = top == spec["dominant"]
        print(f"  layer mix    expected {spec['dominant']} to dominate: "
              f"{'holds' if holds else 'does not hold, ' + top + ' does'}")
        for name, share in shares.items():
            print(f"    {name:<32} {100 * share:6.1f} %")
        if worker["missing_wrap_points"]:
            print("  absent (wrap point gone): " + ", ".join(worker["missing_wrap_points"]))
        row.update(traced_rounds=worker["traced_rounds"], layer_mix=shares,
                   dominant_holds=holds, missing_wrap_points=worker["missing_wrap_points"])
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    if args.trace:
        (RUNS / f"spans-{args.workload}-s{args.seed}-{os.getpid()}.json").write_text(
            json.dumps(worker["spans"]), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": worker["attempted"],
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
