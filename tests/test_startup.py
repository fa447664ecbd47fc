"""Importing the package loads no SciPy, and running it no heavy SciPy subpackage."""

import json
import os
import subprocess
import sys
from pathlib import Path

import releasesim

# SciPy subpackages that each cost hundreds of milliseconds to import and
# that the package does not need: a command that solves loads scipy.sparse
# and scipy.linalg (the solver's SuperLU and CSR kernel, the oracle's
# dgttrs), and none of these.
HEAVY = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.optimize",
         "scipy.special", "scipy.interpolate")

PROBE = """
import contextlib, io, json, sys
import releasesim.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "all", "--out", sys.argv[1]])
print(json.dumps({"code": code,
                  "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def test_verify_all_runs_without_heavy_scipy_subpackages(tmp_path):
    # a fresh interpreter, so that modules this test session imported do not count;
    # running a command as well catches an import made lazily inside a function;
    # it imports the package this session tests, installed or not
    src = str(Path(releasesim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out"), *HEAVY],
                          capture_output=True, text=True, check=True, timeout=300, env=env)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["loaded"] == []


# Process-pool modules that importing releasesim.cli must not load:
# parallel_map imports its pool only when it starts workers.
POOL = ("multiprocessing.pool", "multiprocessing.context", "multiprocessing.connection",
        "concurrent.futures.process")

IMPORT_ONLY = """
import json, sys
import releasesim.cli
print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))
"""


def test_importing_the_cli_loads_no_process_pool(run_fresh):
    proc = run_fresh(IMPORT_ONLY, *POOL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


SIMULATE_ON_CPUS = """
import contextlib, io, json, sys
import releasesim.cli as cli
from releasesim import scenario
scenario._usable_cpus = lambda: int(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", sys.argv[1]])
print(json.dumps({"code": code, "loaded": [m for m in sys.argv[3:] if m in sys.modules]}))
"""


def check_simulate_loads_no_process_pool(run_fresh, tmp_path, cpus):
    # on any CPU count, the run and then the writers, all in-process
    proc = run_fresh(SIMULATE_ON_CPUS, str(tmp_path / "out"), str(cpus), *POOL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"code": 0, "loaded": []}


def test_simulate_on_one_cpu_loads_no_process_pool(run_fresh, tmp_path):
    check_simulate_loads_no_process_pool(run_fresh, tmp_path, 1)


def test_simulate_on_two_cpus_loads_no_process_pool(run_fresh, tmp_path):
    check_simulate_loads_no_process_pool(run_fresh, tmp_path, 2)


NO_SCIPY = """
import contextlib, io, json, sys
import releasesim.cli as cli
from releasesim import runio

def scipy_modules():
    return [m for m in sys.modules if m.partition(".")[0] == "scipy"]

def kernel_tables():
    return runio._g17_tables.cache_info().currsize

loaded = {"import": scipy_modules()}
tables = {"import": kernel_tables()}
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        codes["--help"] = exc.code
loaded["--help"] = scipy_modules()
tables["--help"] = kernel_tables()
for name, config in (("missing config", sys.argv[1]), ("invalid config", sys.argv[2])):
    with contextlib.redirect_stderr(io.StringIO()):
        codes[name] = cli.main(["simulate", "--config", config, "--out", sys.argv[3]])
    loaded[name] = scipy_modules()
    tables[name] = kernel_tables()
print(json.dumps({"codes": codes, "loaded": loaded, "tables": tables}))
"""


def test_no_scipy_before_the_first_solve(run_fresh, tmp_path):
    # SciPy is more than half of the CLI's import time; it loads at the first
    # solve, so importing the CLI, --help and a config error never pay for it.
    # Nor do they build the tables of the CSV float kernel, which the first
    # answer file that holds a float builds.
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"matrix": {"eps0": 1.5}}))
    proc = run_fresh(NO_SCIPY, str(tmp_path / "missing.json"), str(invalid),
                     str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == {"--help": 0, "missing config": 3, "invalid config": 1}
    assert result["loaded"] == {"import": [], "--help": [], "missing config": [],
                                "invalid config": []}
    assert result["tables"] == {"import": 0, "--help": 0, "missing config": 0,
                                "invalid config": 0}


PRE_FORK = """
import json, os, sys
from releasesim import scenario
scenario._usable_cpus = lambda: 2
before = "scipy.sparse.linalg" in sys.modules
workers = scenario.parallel_map(
    lambda _: (os.getpid(), "scipy.sparse.linalg" in sys.modules), [0, 1])
print(json.dumps({"parent": os.getpid(), "before": before, "workers": workers}))
"""


def test_parallel_map_loads_scipy_before_it_forks(run_fresh):
    # every job parallel_map runs in the package steps the solver: workers
    # that each imported SciPy would pay its import time once per worker
    proc = run_fresh(PRE_FORK)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["before"] is False
    assert [loaded for _, loaded in result["workers"]] == [True, True]
    assert all(pid != result["parent"] for pid, _ in result["workers"])
