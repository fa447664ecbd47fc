"""What the benchmark in ``perfbench/`` relies on of the program.

The benchmark times modules by wrapping the callables its ``spans.py``
names, and runs every command in one long-lived worker interpreter.  A wrap
point that no longer resolves, or that the commands no longer call, would
drop its layer's times without an error; a command that left a child process
or a thread behind would skew every command timed after it in that worker.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def wrap_points() -> tuple:
    """``WRAP_POINTS`` of ``spans.py``, read as a literal: the module is not
    run, so nothing of the benchmark is imported here."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAP_POINTS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAP_POINTS in {SPANS}")


@pytest.mark.parametrize("module, attribute, span", wrap_points())
def test_every_wrap_point_is_a_callable(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span


# The arguments the traced run's counters (``spans._COUNTERS``) read by name,
# per wrap point.  A renamed one leaves its counts, and the layer metrics
# built on them, out of the traced run without an error.
COUNTED_ARGUMENTS = {
    ("releasesim.scenario", "simulate"): ("grid", "config"),
    ("releasesim.verification", "simulate"): ("grid", "config"),
    ("releasesim.cli", "write_matrix_csv"): ("path",),
    ("releasesim.cli", "write_tissue_csv"): ("path",),
    ("releasesim.cli", "write_sweep_csv"): ("path",),
    ("releasesim.cli", "write_json"): ("path",),
    ("releasesim.cli", "ode_oracle"): ("t_grid",),
}


def test_counted_arguments_are_the_ones_spans_reads():
    read = {node.slice.value for node in ast.walk(ast.parse(SPANS.read_text()))
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args"}
    assert read == {name for names in COUNTED_ARGUMENTS.values() for name in names}
    assert set(COUNTED_ARGUMENTS) <= {(module, attribute) for module, attribute, _ in wrap_points()}


@pytest.mark.parametrize("module, attribute", COUNTED_ARGUMENTS)
def test_every_counted_argument_is_a_parameter(module, attribute):
    parameters = inspect.signature(getattr(importlib.import_module(module), attribute)).parameters
    assert [name for name in COUNTED_ARGUMENTS[module, attribute]
            if name not in parameters] == []


def test_the_oracle_check_hands_the_whole_grid_to_three_calls(monkeypatch, tmp_path):
    # the traced run counts len(t_grid) per oracle call, so one call per
    # balance makes verification.oracle_points balances x points; a check
    # that split its grid into several calls would change it without
    # changing the work.  The command's jobs make the check's calls.
    import numpy as np

    import releasesim as rs
    from releasesim import cli, scenario
    from releasesim.analytic import KINETIC_BALANCES
    from releasesim.verification import check_oracle, oracle_time_grid

    p = rs.RunSpec().dimensionless()    # the command's parameters without a config
    mode = rs.default_mode(p)
    calls = {"check": [], "command": []}

    def recording(made):
        def oracle(which, p, ap, x, t_grid):
            calls[made].append(((which, p, ap, x), t_grid))
            return rs.ode_oracle(which, p, ap, x, t_grid)
        return oracle

    assert check_oracle(p, mode, oracle=recording("check"))["passed"]
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "ode_oracle", recording("command"))
    assert cli.main(["verify", "oracle", "--out", str(tmp_path)]) == 0
    assert [which for (which, *_), _ in calls["check"]] == list(KINETIC_BALANCES)
    assert [call for call, _ in calls["command"]] == [call for call, _ in calls["check"]]
    for _, t_grid in calls["check"] + calls["command"]:
        np.testing.assert_array_equal(t_grid, oracle_time_grid(p, mode))


def test_every_wrap_point_is_reached(monkeypatch, tmp_path):
    # A refactor that reaches a layer by another name would leave its wrap
    # point resolvable but never called, and the layer's traced times empty.
    # With one usable CPU every call runs in this process, where it is counted.
    from releasesim import cli, scenario
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 1)
    calls = dict.fromkeys(((module, attribute) for module, attribute, _ in wrap_points()), 0)

    def counting(point, fn):
        def counted(*args, **kwargs):
            calls[point] += 1
            return fn(*args, **kwargs)
        return counted

    for module, attribute in calls:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attribute,
                            counting((module, attribute), getattr(owner, attribute)))
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"grid": {"nx0": 4, "nx1": 4}, "solver": {"t_end": 2.0}}))
    small = ["--nx0", "4", "--nx1", "4", "--t-end", "2"]
    for argv in (["simulate", "--config", str(config)],
                 ["sweep", *small, "--param", "ka", "--values", "0.3,0.9"],
                 ["verify", "all"]):
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    assert [f"{m}.{a}" for (m, a), n in calls.items() if n == 0] == []


COMMANDS_LEAVE_NOTHING_RUNNING = """
import contextlib, io, json, os, sys, threading
import releasesim.cli as cli
from releasesim import scenario
scenario._usable_cpus = lambda: 2
small = ["--nx0", "4", "--nx1", "4", "--t-end", "2"]
after = {}
for name, argv in (("simulate", ["simulate", *small]),
                   ("sweep", ["sweep", *small, "--param", "ka", "--values", "0.3,0.9"]),
                   ("verify", ["verify", "all"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", os.path.join(sys.argv[1], name)])
    try:
        children = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        children = None
    after[name] = [code, children, threading.active_count()]
print(json.dumps(after))
"""


def test_commands_on_two_cpus_leave_no_child_or_thread(run_fresh, tmp_path):
    # two usable CPUs: simulate forks its writer process, sweep and verify
    # fork their jobs; each command has reaped its children and joined its
    # threads when it returns
    proc = run_fresh(COMMANDS_LEAVE_NOTHING_RUNNING, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert after == {name: [0, None, 1] for name in ("simulate", "sweep", "verify")}


FIRST_COMMANDS_PASS_THEIR_CHECKS = """
import contextlib, io, json, sys
from pathlib import Path
bench, root = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(bench))
import checks, workloads
import releasesim.cli as cli
references = json.loads((bench / "reference.json").read_text(encoding="utf-8"))["workloads"]
problems = {}
for name in workloads.NAMES:
    spec = workloads.build(name, 1, root / name)
    spec["reference"] = references.get(name)
    out = root / name / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*spec["commands"][0], "--out", str(out)])
    problems[name] = checks.check_command(spec, out, rc)[1]
print(json.dumps(problems))
"""


def test_each_workloads_first_command_passes_the_benchmarks_checks(run_fresh, tmp_path):
    # the benchmark counts a command whose outputs fail its checks (exit code,
    # hashes, reference values, ledger bound, sweep rows, verify checks) as
    # failed; a fresh interpreter keeps the benchmark's modules out of the suite
    proc = run_fresh(FIRST_COMMANDS_PASS_THEIR_CHECKS, str(PERFBENCH), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    problems = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(problems) == 4
    assert problems == dict.fromkeys(problems, [])
