import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import releasesim as rs

# One seed for the whole suite; tests derive child generators from it so
# reruns are reproducible.
SUITE_SEED = 20260816

# One hypothesis profile for the whole suite: every run draws the same
# examples and keeps no example database, so no run replays another's.
settings.register_profile("releasesim", derandomize=True, database=None, deadline=None)
settings.load_profile("releasesim")


@pytest.fixture(scope="session")
def ref_params() -> rs.DimensionlessParams:
    return rs.reference_params()


@pytest.fixture(scope="session")
def ref_mode(ref_params) -> rs.AnalyticParams:
    return rs.default_mode(ref_params)


@pytest.fixture(scope="session")
def short_run(ref_params) -> rs.TimeSeries:
    """Shared inexpensive trajectory of the reference scenario."""
    grid = rs.make_grid(ref_params, 32, 32)
    cfg = rs.SolverConfig(dt=0.02, t_end=40.0, sample_every=10)
    return rs.simulate(ref_params, grid, cfg)


def make_rng(salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(SUITE_SEED + salt)


@pytest.fixture
def run_fresh():
    """Runs Python code in a fresh interpreter, with a timeout, importing the
    package under test, installed or not."""
    src = str(Path(rs.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, timeout=120, env=env)
    return run
