"""The run contract of ``releasesim simulate``, as a property over random runs.

Each example draws a ``RunSpec`` over small grids (4-16 cells a layer, at
most 400 steps), rates log-uniform over six decades, every theta regime,
either outer wall, a finite or infinite membrane and any sampling stride,
saves it as a config file and runs ``simulate --config`` through
``cli.main`` on one or two usable CPUs.  Whatever the draw:

* the exit code is 0, 1, 2 or 3 (never a worker death or an escaped error);
* a nonzero exit writes exactly one line on stderr, a JSON object whose
  ``exit_code`` is that exit code, and leaves the trajectory files of an
  earlier run as they were;
* exit 0 leaves the last rows of both trajectory files at ``t_end``, every
  value in them finite, no ``*.tmp`` or ``*.bak`` file behind, and nothing
  on stderr but ``warning: `` lines (probes still rising at ``t_end``).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import releasesim as rs
from releasesim import cli, scenario


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def run_specs(draw):
    l0 = draw(log_uniform(-1.0, 0.5))
    matrix = rs.MatrixParams(
        alpha0=draw(log_uniform(-3, 3)), k=draw(log_uniform(-1, 1)),
        eps0=draw(st.floats(0.05, 0.95)), km=draw(log_uniform(-3, 3)),
        c_lim=draw(log_uniform(-2, 1)), beta0=draw(log_uniform(-3, 3)),
        delta0=draw(log_uniform(-3, 3)), d0=draw(log_uniform(-3, 1)), l0=l0,
        m0=draw(log_uniform(-1, 1)))
    tissue = rs.TissueParams(
        ka=draw(log_uniform(-3, 3)), kd=draw(log_uniform(-3, 3)),
        ki=draw(log_uniform(-3, 3)), kid=draw(log_uniform(-3, 3)),
        d1=draw(log_uniform(-3, 1)),
        # relative to l0, so that the tissue layer always exists
        l1=l0 * (1.0 + draw(st.floats(0.1, 2.0))))
    interface = rs.InterfaceParams(
        pm=draw(st.one_of(st.just(math.inf), log_uniform(-2, 2))),
        sigma=draw(log_uniform(-0.5, 0.5)))
    dt = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.2, 0.5]))
    solver = rs.SolverConfig(
        dt=dt, t_end=draw(st.integers(0, 400)) * dt,
        theta=draw(st.one_of(st.sampled_from([0.0, 0.2, 0.45, 0.5, 0.75, 1.0]),
                             st.floats(0.0, 1.0))),
        outer_bc=draw(st.sampled_from([rs.ZERO_FLUX, rs.SINK])),
        sample_every=draw(st.integers(1, 40)))
    return rs.RunSpec(matrix=matrix, tissue=tissue, interface=interface,
                      nx0=draw(st.integers(4, 16)), nx1=draw(st.integers(4, 16)),
                      solver=solver)


def rows(path: Path) -> list[list[float]]:
    """The rows of a trajectory file under its header, as numbers."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


TRAJECTORIES = ("matrix.csv", "tissue.csv")


def test_the_suite_profile_draws_fixed_examples_and_keeps_no_database():
    # tests/conftest.py loads it for every property test of the suite
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None


@given(spec=run_specs(), cpus=st.sampled_from([1, 2]))
@settings(max_examples=40)
def test_simulate_keeps_the_run_contract(spec, cpus):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.json", Path(tmp) / "out"
        rs.save_config(config, spec)
        out.mkdir()
        for name in TRAJECTORIES:
            (out / name).write_text("earlier run\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              mock.patch.object(scenario, "_usable_cpus", lambda: cpus)):
            code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["exit_code"] == code
            assert {(out / name).read_text() for name in TRAJECTORIES} == {"earlier run\n"}
            return
        assert all(line.startswith("warning: ") for line in stderr.getvalue().splitlines())
        grid = rs.make_grid(spec.dimensionless(), spec.nx0, spec.nx1)
        for name, nodes in (("matrix.csv", grid.nm), ("tissue.csv", grid.nt)):
            table = rows(out / name)
            assert all(math.isfinite(v) for row in table for v in row), name
            assert len(table) >= nodes and {row[0] for row in table[-nodes:]} == \
                {spec.solver.t_end}, name
        assert not [p.name for p in out.iterdir() if p.suffix in (".tmp", ".bak")]
