"""Importing the package, and running it, loads no heavy SciPy subpackage."""

import json
import os
import subprocess
import sys
from pathlib import Path

import releasesim

# SciPy subpackages that each cost hundreds of milliseconds to import and
# that the package does not need: importing releasesim.cli must stay at
# NumPy, scipy.sparse and scipy.linalg.
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
# parallel_map and stream_map import their pool and pipes only when they
# start workers.
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


SIMULATE_ONE_CPU = """
import contextlib, io, json, sys
import releasesim.cli as cli
from releasesim import scenario
scenario._usable_cpus = lambda: 1
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", sys.argv[1]])
print(json.dumps({"code": code, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def test_simulate_on_one_cpu_loads_no_process_pool(run_fresh, tmp_path):
    # one usable CPU: the run and then the writers, all in-process
    proc = run_fresh(SIMULATE_ONE_CPU, str(tmp_path / "out"), *POOL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"code": 0, "loaded": []}
