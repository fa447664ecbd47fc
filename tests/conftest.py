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
    return rs.RunSpec().dimensionless()


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


def sample_params(rng: np.random.Generator, pm_infinite: bool = True) -> rs.DimensionlessParams:
    """Random admissible dimensionless parameter set; rates are log-uniform
    over [1e-2, 1e1]."""
    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return rs.DimensionlessParams(
        alpha0=lu(1e-2, 1e1), k=lu(1e-1, 1e1), eps0=float(rng.uniform(0.1, 0.9)),
        km=lu(1e-2, 1e1), c_lim=lu(1e-2, 1e1), beta0=lu(1e-2, 1e1),
        delta0=lu(1e-2, 1e1), ka=lu(1e-2, 1e1), kd=lu(1e-2, 1e1),
        ki=lu(1e-2, 1e1), kid=lu(1e-2, 1e1), d1=lu(1e-1, 1e1),
        l1=1.0 + float(rng.uniform(0.5, 2.0)),
        pm=np.inf if pm_infinite else lu(1e-1, 1e2),
        sigma=lu(0.5, 2.0),
    )


def sample_mode(rng: np.random.Generator) -> rs.AnalyticParams:
    """Random mode shape; occasionally degenerates a wavenumber to exactly 0."""
    a = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 4.0))
    b = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 4.0))
    return rs.AnalyticParams(a=a, b=b, e1=float(rng.uniform(-2.0, 2.0)),
                             e2=float(rng.uniform(-2.0, 2.0)))


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
