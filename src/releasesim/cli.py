"""Command-line front end.

Subcommands
-----------
simulate     integrate a scenario and write trajectory + metrics answer files
analytic     evaluate the closed-form mode fields and their honesty report
verify       run built-in cross-checks (residuals, oracle, mass, convergence)
sweep        rerun a scenario across one parameter's values

Exit codes: 0 success, 1 invalid config/parameters or a run too large to
allocate (``MemoryError``), 2 numerical failure (``OverflowError`` and
``ZeroDivisionError`` too) or failed verification, 3 I/O failure, 4 a
worker process of ``sweep`` or ``verify``, or ``simulate``'s writer, died
before it sent back its results (no answer file is written).  Fatal errors
also emit one JSON line on stderr with the error class and message.

``sweep`` points and ``verify`` checks are independent jobs; they go to
forked worker processes through :func:`releasesim.scenario.parallel_map`,
the points in batches of at most ``scenario.BATCH_CAP``, at least one per
worker, each batch's runs stepped as one system (``scenario.map_param``).
``verify``'s jobs go out longest first: the convergence study, the oracle's
three balances, one job each on the one grid the command builds, the mass
check, then the residuals.
``simulate`` writes its two trajectory files (``matrix.csv``,
``tissue.csv``) from one writer process beside its time loop
(``scenario.beside``) where ``scenario.can_fork(2)``, else after the loop in
this process; the writer writes each file's chunks as the loop stores their
samples, and each writer hashes as it writes.  Both go to temp files, renamed
onto their names only once both are complete, both or neither, so a run that
fails (in the loop, in a writer or in a rename) leaves both files as they were.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, replace
from datetime import datetime, timezone
from functools import cache
from math import isfinite
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (KINETIC_BALANCES, AnalyticParams, default_mode, interface_fluxes,
                       matrix_rates, residuals, tissue_rates)
from .errors import ConfigError, NumericalError, ValidationError, WorkerError
from .metrics import release_metrics, sweep as run_sweep
from .params import DimensionlessParams
from .runio import (hash_file, load_config, replacing, spec_to_config, spell_infinite_pm,
                    write_analytic_csv, write_flux_mismatch_csv, write_json,
                    write_matrix_csv, write_sweep_csv, write_tissue_csv, write_trajectories)
from .scenario import CONFIG_FIELDS, RunSpec, beside, can_fork, parallel_map, run_spec
from .solver import SINK, ZERO_FLUX, make_grid, prepare, sample_times, simulate_all
from .verification import (check_convergence, check_mass, check_residuals,
                           convergence_study, mass_audit, ode_oracle, oracle_jobs)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@cache  # built once per process; each parse_args starts from its defaults
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="releasesim",
        description="two-layer drug release simulator (polymeric matrix + tissue)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def files(sp):
        sp.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")

    def run_overrides(sp):
        sp.add_argument("--t-end", type=float, dest="t_end", help="override solver.t_end")
        sp.add_argument("--dt", type=float, help="override solver.dt")
        sp.add_argument("--nx0", type=int, help="override matrix-layer cell count")
        sp.add_argument("--nx1", type=int, help="override tissue-layer cell count")

    def scheme_overrides(sp):  # the closed forms step no scheme: not for analytic
        sp.add_argument("--theta", type=float, help="override time-stepping theta")
        sp.add_argument("--outer-bc", dest="outer_bc", choices=[ZERO_FLUX, SINK],
                        help="override the outer tissue boundary condition")

    sp_simulate = sub.add_parser("simulate", help="integrate the scenario")
    for sp in (sp_simulate, sub.add_parser("analytic", help="evaluate the closed-form mode")):
        files(sp)
        run_overrides(sp)
    scheme_overrides(sp_simulate)

    # the checks pin their own grids, steps and horizons: no run overrides
    sp_verify = sub.add_parser("verify", help="run built-in cross-checks")
    files(sp_verify)
    sp_verify.add_argument("check", nargs="?", default="all",
                           choices=[*_CHECKS, "all"],
                           help="which check to run (default: all)")

    sp_sweep = sub.add_parser("sweep", help="rerun across one parameter's values")
    files(sp_sweep)
    run_overrides(sp_sweep)
    scheme_overrides(sp_sweep)
    sp_sweep.add_argument("--param", required=True, help="flat parameter name, e.g. ka")
    values = sp_sweep.add_mutually_exclusive_group(required=True)
    values.add_argument("--values", help="comma-separated values, e.g. 0.1,0.2,0.5")
    values.add_argument("--range", nargs=3, metavar=("LO", "HI", "N"),
                        help="N evenly spaced values from LO to HI")
    sp_sweep.add_argument("--log", action="store_true",
                          help="space the --range values geometrically")
    return parser


def _begin(args) -> tuple[str, RunSpec, AnalyticParams, Path, DimensionlessParams]:
    """A command's start time, spec, closed-form mode (the default one with
    the config's analytic overrides), created output directory and
    dimensionless parameters.  A mode from the config whose decay rates,
    balance residuals or interface fluxes (at the command's sample times)
    are not finite is a ConfigError."""
    started = _now()
    spec, analytic_overrides = load_config(args.config) if args.config else (RunSpec(), {})
    flags = vars(args)  # verify has no run overrides, analytic no scheme ones
    grid, solver = ({f.name: flags[f.name] for f in CONFIG_FIELDS[section]
                     if flags.get(f.name) is not None} for section in ("grid", "solver"))
    spec = replace(spec, **grid, solver=replace(spec.solver, **solver))
    p = spec.dimensionless()
    mode = replace(default_mode(p), **analytic_overrides)
    if analytic_overrides:  # finite but huge values overflow the closed forms (a * a at a = 1e200)
        rates = [*astuple(matrix_rates(p, mode.a)), *astuple(tissue_rates(p, mode.b))]
        with np.errstate(all="ignore"):  # residuals and fluxes are evaluated only for finite rates
            what = ("decay rates" if not np.isfinite(rates).all()
                    else "balance residuals" if not np.isfinite([*residuals(p, mode).values()]).all()
                    else "interface fluxes"
                    if not np.isfinite(interface_fluxes(p, mode, sample_times(spec.solver))).all()
                    else None)
        if what:
            raise ConfigError(f"analytic section gives a mode whose {what} are not finite: {mode}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return started, spec, mode, out, p


def _warn_still_rising(metrics, prefix: str = "") -> None:
    """A warning line on stderr for each probe of ``metrics`` that peaks at
    the end of the run."""
    for pr in metrics.probes:
        if pr.peak_at_end:
            print(f"warning: {prefix}{pr.species} at x={pr.x:g} is still rising at the end "
                  "of the run; its peak metrics are lower bounds", file=sys.stderr)


def _finish(out: Path, args, spec: RunSpec, p, started: str, artifact_names: list[str],
            extra: dict | None = None, digests: dict | None = None) -> None:
    """Write config.resolved.json and the run manifest with output hashes,
    those in ``digests`` (name -> SHA-256) as taken while writing; ``extra``
    goes into the manifest, an "analytic" mode also into the config."""
    extra = extra or {}
    write_json(out / "config.resolved.json", spec_to_config(spec, extra.get("analytic")))
    names = artifact_names + ["config.resolved.json"]
    manifest = {
        "version": __version__,
        "command": args.command,
        "params": {"dimensional": spec_to_config(spec),
                   "dimensionless": spell_infinite_pm(asdict(p))},
        "started": started,
        "finished": _now(),
        "outputs": {name: (digests or {}).get(name) or hash_file(out / name)
                    for name in names},
        **extra,
    }
    write_json(out / "run.json", manifest)
    for name in names + ["run.json"]:
        print(f"wrote {out / name}")


def _cmd_simulate(args) -> int:
    started, spec, _, out, p = _begin(args)
    trajectories = ["matrix.csv", "tissue.csv"]
    with replacing(*(out / name for name in trajectories)) as temps:
        if spec.solver.n_steps and can_fork(2):
            run = prepare(p, make_grid(p, spec.nx0, spec.nx1), spec.solver)
            ts = run[0]
            digests = beside(lambda progress: simulate_all([run], progress),
                             lambda wait: write_trajectories(*temps, ts, wait))
        else:
            ts = run_spec(spec)
            digests = write_matrix_csv(temps[0], ts), write_tissue_csv(temps[1], ts)
    ledger = mass_audit(ts)
    metrics = release_metrics(ts, ledger=ledger)
    write_json(out / "metrics.json", metrics)
    write_json(out / "ledger.json", ledger)
    _finish(out, args, spec, p, started, [*trajectories, "metrics.json", "ledger.json"],
            digests=dict(zip(trajectories, digests)))
    _warn_still_rising(metrics)
    print(f"matrix fraction {metrics.matrix_fraction:.4f}, "
          f"degraded fraction {metrics.degraded_fraction:.4f} at t={metrics.t_end:g}")
    return 0


def _cmd_analytic(args) -> int:
    started, spec, mode, out, p = _begin(args)
    times = sample_times(spec.solver)
    with replacing(out / "analytic.csv") as (tmp,):
        write_analytic_csv(tmp, times, make_grid(p, spec.nx0, spec.nx1), p, mode)
    fm, ft = interface_fluxes(p, mode, times)
    write_flux_mismatch_csv(out / "flux_mismatch.csv", times, np.atleast_1d(fm),
                            np.atleast_1d(ft))
    res_report = {name: {"max_abs": value, "expected_zero": name in KINETIC_BALANCES}
                  for name, value in residuals(p, mode).items()}
    res_report["note"] = (
        "free-drug residuals and the interface flux gap are properties of the "
        "closed-form mode, not solver defects; see README"
    )
    write_json(out / "residuals.json", res_report)
    _finish(out, args, spec, p, started,
            ["analytic.csv", "flux_mismatch.csv", "residuals.json"],
            extra={"analytic": mode})
    print(f"max interface flux mismatch {float(np.max(np.abs(fm - ft))):.6g}")
    return 0


def _check_mass(spec: RunSpec) -> dict:
    # a name of this module, so that perfbench can time the whole mass check
    return check_mass(spec, mass_audit)


# verify's checks, by name in run order.  Each, called as (p, mode, spec),
# gives its jobs (calls of no argument) and the function that makes the check
# from their results.  The instruments are looked up as this module's names
# at call time, where perfbench wraps them.
_CHECKS = {
    "residuals": lambda p, mode, spec: ([lambda: check_residuals(p, mode, residuals)],
                                        itemgetter(0)),
    "oracle": lambda p, mode, spec: oracle_jobs(p, mode, ode_oracle),
    "mass": lambda p, mode, spec: ([lambda: _check_mass(spec)], itemgetter(0)),
    "convergence": lambda p, mode, spec: ([lambda: check_convergence(p, convergence_study)],
                                          itemgetter(0)),
}
# The order the checks' jobs go out to the workers in, longest first, so that
# the short ones fill in behind the long ones.  The first failure in this
# order is raised.
_JOB_ORDER = ("convergence", "oracle", "mass", "residuals")


def _cmd_verify(args) -> int:
    started, spec, mode, out, p = _begin(args)
    names = list(_CHECKS) if args.check == "all" else [args.check]
    jobs, reports = {}, {}
    for name in names:
        jobs[name], reports[name] = _CHECKS[name](p, mode, spec)
    order = [name for name in _JOB_ORDER if name in jobs]
    results = iter(parallel_map(lambda job: job(), [job for name in order for job in jobs[name]]))
    done = {name: [next(results) for _ in jobs[name]] for name in order}
    checks = [reports[name](done[name]) for name in names]
    all_passed = all(c["passed"] for c in checks)
    write_json(out / "verify.json", {"checks": checks, "passed": all_passed})
    _finish(out, args, spec, p, started, ["verify.json"], extra={"analytic": mode})
    for name, check in zip(names, checks):
        detail = {k: v for k, v in check.items() if k not in ("name", "passed")}
        print(f"{'PASS' if check['passed'] else 'FAIL'} {name}: "
              f"{json.dumps(detail, sort_keys=True, default=str)}")
    return 0 if all_passed else 2


def _sweep_values(args) -> list[float]:
    """The sweep points of ``--values`` or of ``--range LO HI N [--log]``."""
    if args.range is None:
        if args.log:
            raise ValidationError("--log applies to --range only")
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ValidationError(f"--values must be comma-separated numbers: {exc}") from exc
        if not values:
            raise ValidationError("--values is empty")
        return values
    try:
        lo, hi, n = float(args.range[0]), float(args.range[1]), int(args.range[2])
    except ValueError as exc:
        raise ValidationError(f"--range takes two numbers and an integer: {exc}") from exc
    if not (isfinite(lo) and isfinite(hi)):
        raise ValidationError(f"--range LO and HI must be finite, got {lo:g} and {hi:g}")
    if n < 1:
        raise ValidationError(f"--range N must be >= 1, got {n}")
    if n == 1 and lo != hi:
        raise ValidationError(f"--range with N = 1 needs LO = HI, got {lo:g} and {hi:g}")
    if args.log:
        if lo <= 0 or hi <= 0:
            raise ValidationError(f"--range --log needs LO > 0 and HI > 0, got {lo:g} and {hi:g}")
        return np.geomspace(lo, hi, n).tolist()
    return np.linspace(lo, hi, n).tolist()


def _cmd_sweep(args) -> int:
    started, spec, _, out, p = _begin(args)
    values = _sweep_values(args)
    rows = run_sweep(spec, args.param, values)
    write_sweep_csv(out / "sweep.csv", rows)
    _finish(out, args, spec, p, started, ["sweep.csv"],
            extra={"sweep": {"param": args.param, "values": values,
                             "failed": sum(r.error is not None for r in rows)}})
    print(f"{args.param:>10} {'status':>7} {'matrix_frac':>12} "
          f"{'degraded':>9} {'exposure':>9}")
    for row in rows:
        line = f"{row.value:10.4g} {row.status:>7}"
        if row.error is None:
            m = row.metrics
            line += (f" {m.matrix_fraction:12.4f} {m.degraded_fraction:9.4f}"
                     f" {m.ci_exposure:9.4f}")
            _warn_still_rising(m, prefix=f"{args.param}={row.value:g}: ")
        else:
            print(f"warning: {args.param}={row.value:g} failed: {row.error}",
                  file=sys.stderr)
        print(line)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "analytic": _cmd_analytic,
                "verify": _cmd_verify, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stderr)
        return code


# Exit code of each fatal error class (see the module docstring).
_EXIT_CODES = {ValueError: 1, MemoryError: 1, NumericalError: 2, OverflowError: 2,
               ZeroDivisionError: 2, OSError: 3, WorkerError: 4}


if __name__ == "__main__":
    sys.exit(main())
