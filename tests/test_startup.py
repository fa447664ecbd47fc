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
