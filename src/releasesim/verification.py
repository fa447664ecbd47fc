"""Cross-checks tying the solver, the closed forms, and conservation together.

Three independent instruments:

* :func:`ode_oracle` re-integrates a kinetic balance with classical RK4
  driven by the closed-form driver fields and reports the deviation from the
  closed-form answer.  It calls the per-field evaluators of
  :mod:`releasesim.analytic` (``matrix_free``, ``matrix_solid``,
  ``tissue_free``, ``tissue_bound``, ``tissue_internalized``): each balance's
  driver on the quarter-step grid, its own field on the output grid.
* :func:`mass_audit` books total drug against the lysosomal sink and the
  boundary outflow with trapezoid quadrature in space and time.
* :func:`spatial_convergence` / :func:`temporal_convergence` measure observed
  orders against a finest-level reference, both through :func:`_refinement`.

The ``check_*`` functions make them and :func:`~releasesim.analytic.residuals`
the checks of ``releasesim verify``.  :func:`analytic_state` is the closed
forms on the grid nodes as a packed state, as written to ``analytic.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import pairwise
from typing import Callable

import numpy as np

from . import solver
from .analytic import (KINETIC_BALANCES, AnalyticParams, _mode_rates, matrix_free,
                       matrix_solid, residuals, tissue_bound, tissue_free,
                       tissue_internalized)
from .errors import NumericalError
from .params import DimensionlessParams
from .scenario import RunSpec
from .solver import (FIELD_TABLE, MATRIX, SINK, TISSUE, ZERO_FLUX, CompositeGrid,
                     SolverConfig, TimeSeries, make_grid, prepare, simulate, simulate_all)

# Largest uniform grid oracle_time_grid will build.  Pathologically stiff
# parameter draws (fast rate thousands of times the slow one) would need more
# points than this to resolve the fast transient over ten slow e-folds; for
# those, ode_oracle refuses to certify rather than return a polluted number.
ORACLE_GRID_CAP = 400_000
# Output steps per ode_oracle block: its arrays span a block, not the grid.
ORACLE_BLOCK = 8192


def _rk4_growth(z: float) -> float:
    """RK4's growth factor per step of y' = -decay*y, z = -decay*dt."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _rk4_lu(decay: float, dt: float, m: int) -> tuple:
    """``dgttrf``'s LU of the RK4 recurrence's m-row matrix, 1 on the diagonal
    and -rho below it: 0 < rho <= 1 never pivots, so it is the matrix itself
    and the identity permutation, and a prefix of it is a shorter run's."""
    return (np.full(m - 1, -_rk4_growth(-decay * dt)), np.ones(m), np.zeros(m - 1),
            np.zeros(m - 2), np.arange(1, m + 1, dtype=np.int32))


def _rk4_linear(decay: float, forcing_half: np.ndarray, dt: float, y0: float,
                lu: tuple) -> np.ndarray:
    """Classical RK4 for y' = -decay*y + F(t) with F pre-evaluated on the
    half-step grid (2N+1 points).  The update is the exact linear recurrence
    y[n+1] = rho*y[n] + s[n], solved as one unit lower-bidiagonal system by
    ``lu``, its :func:`_rk4_lu` of at least N+1 rows."""
    # contiguous copies, as the stage sums read f_start and f_mid twice each;
    # f_start and f_end share one copy of the whole-step points
    f_whole = forcing_half[::2].copy()
    f_start, f_end = f_whole[:-1], f_whole[1:]
    f_mid = forcing_half[1::2].copy()
    z = -decay * dt
    m = len(f_mid) + 1
    dl, d, du, du2, ipiv = lu
    # rows y[0] = y0 and y[n+1] - rho*y[n] = s[n], s = dt/6*(k1 + 2k2 + 2k3 + k4)
    # formed in place by the formula's operations in its order
    b = np.empty(m)
    b[0], s = y0, b[1:]
    k = np.multiply(0.5 * z, f_start)
    k += f_mid                                  # k2
    np.add(f_start, np.multiply(2.0, k, out=s), out=s)
    np.multiply(0.5 * z, k, out=k)
    k += f_mid                                  # k3
    s += 2.0 * k
    np.multiply(z, k, out=k)
    k += f_end                                  # k4
    s += k
    np.multiply(dt / 6.0, s, out=s)
    # LAPACK's forward sweep adds s[n] + rho*y[n] in the recurrence's order and
    # its back sweep divides by 1, so y is the recurrence's, bit for bit.
    # SciPy's dgttrs refuses two rows: its two sweeps, written out.
    if m == 2:
        (y0, s0), (low,), (up,) = b.tolist(), dl[:1].tolist(), du[:1].tolist()
        y1 = s0 - low * y0
        return np.array([y0 - up * y1, y1])
    solver.load_scipy()
    return solver.dgttrs(dl[:m - 1], d[:m], du[:m - 1], du2[:m - 2], ipiv[:m], b,
                         overwrite_b=True)[0]


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y(t), starting at 0; the same
    operations in the same order as SciPy's ``cumulative_trapezoid``."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


def _oracle_problem(which: str, p: DimensionlessParams, ap: AnalyticParams, x: float):
    """(forcing as a function of t, decay rate, the balance's own closed-form
    field as a function of t, y0) for one balance at station x."""
    if which == "matrix_solid":
        src = p.km * p.c_lim
        return (lambda t: p.free_rate * matrix_free(x, t, p, ap) - src, p.solid_rate,
                lambda t: matrix_solid(x, t, p, ap), 1.0)
    if which == "tissue_bound":
        return (lambda t: p.ka * tissue_free(x, t, p, ap), p.bound_rate,
                lambda t: tissue_bound(x, t, p, ap), 0.0)
    if which == "internalized":
        return (lambda t: p.ki * tissue_bound(x, t, p, ap), p.kid,
                lambda t: tissue_internalized(x, t, p, ap), 0.0)
    raise ValueError(f"unknown balance {which!r}; expected one of {', '.join(KINETIC_BALANCES)}")


def ode_oracle(which: str, p: DimensionlessParams, ap: AnalyticParams,
               x: float, t_grid) -> float:
    """Max relative deviation between RK4 re-integration and the closed form.

    ``which`` names one balance.  It evaluates only its forcing field on the
    quarter-step grid and only its own field on ``t_grid``, ``ORACLE_BLOCK``
    output steps at a time from the states the previous block ended on; the
    deviation and any refusal are bit for bit the ones a single pass over
    the whole grid gives.

    ``t_grid`` must start at 0 (the balance's initial value is given there)
    and be uniform with a positive step.  A step that puts RK4's growth
    factor above 1 is refused before any closed form is evaluated, and a
    step-doubling error estimate above 1e-9 of the solution scale after the
    run: both raise a NumericalError that asks for a finer grid.  The
    deviation is normalized by the closed form's max magnitude over the grid.
    """
    forcing, decay, own, y0 = _oracle_problem(which, p, ap, float(x))
    t = np.asarray(t_grid, dtype=float)
    if len(t) < 3:
        raise ValueError("t_grid needs at least 3 points")
    if t[0] != 0.0:
        raise ValueError(f"t_grid must start at 0, got {t[0]}")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("t_grid must be uniformly spaced")
    dt = float(dts[0])
    if not dt > 0.0:
        raise ValueError(f"t_grid must increase, got step {dt}")
    growth = _rk4_growth(-decay * dt)
    if growth > 1.0:
        raise NumericalError(
            f"t_grid too coarse for the {which} oracle: step {dt:.3g} is past RK4's "
            f"stability limit, growth factor {growth:.3g} per step"
        )

    n = len(t) - 1
    y = y_fine = [y0]    # a block starts from the states the last one ended on
    block = min(n, ORACLE_BLOCK)
    lu, lu_fine = _rk4_lu(decay, dt, block + 1), _rk4_lu(decay, 0.5 * dt, 2 * block + 1)
    # running max |ref|, |y - y_fine|, |y - ref|; np.max's initial keeps a NaN
    ref_max = diff_max = dev_max = 0.0
    for a, e in pairwise([*range(0, n, ORACLE_BLOCK), n]):
        # the half-step grid is every other quarter-step point, bit for bit:
        # (dt/4)*(2k) and (dt/2)*k are the same exact product, rounded once
        f_quarter = forcing(np.arange(4 * a, 4 * e + 1, dtype=float) * (0.25 * dt))
        y = _rk4_linear(decay, f_quarter[::2], dt, y[-1], lu)
        y_fine = _rk4_linear(decay, f_quarter, 0.5 * dt, y_fine[-1], lu_fine)[::2]
        new = 0 if a == 0 else 1    # a later block starts where one ended
        y, y_fine, ref = y[new:], y_fine[new:], own(t[a + new:e + 1])
        ref_max = np.max(np.abs(ref), initial=ref_max)
        diff_max = np.max(np.abs(y - y_fine), initial=diff_max)
        dev_max = np.max(np.abs(y - ref), initial=dev_max)
    scale = max(float(ref_max), 1e-30)
    est = float(diff_max) / 15.0
    # a NaN estimate (an overflowed run) fails the test too
    if not est <= 1e-9 * max(scale, 1.0):
        raise NumericalError(
            f"t_grid too coarse for the {which} oracle: step-doubling estimate {est:.3g}"
        )
    return float(dev_max) / scale


def oracle_time_grid(p: DimensionlessParams, ap: AnalyticParams, n_min: int = 2000) -> np.ndarray:
    """Uniform grid covering ten e-folds of the slowest relevant rate, with
    steps short against the fastest one."""
    rates = _mode_rates(p, ap)
    if not rates:
        return np.linspace(0.0, 10.0, n_min + 1)
    horizon = min(10.0 / min(rates), 1e4)
    n = max(n_min, int(np.ceil(horizon * max(rates) / 0.02)))
    n = min(n, ORACLE_GRID_CAP)
    return np.linspace(0.0, horizon, n + 1)


@dataclass(frozen=True)
class MassLedger:
    """Drug bookkeeping per sample: layer masses, cumulative sink, cumulative
    boundary outflow, and the closure defect against the initial total,
    which is derived from the rest on construction."""

    times: np.ndarray
    matrix_mass: np.ndarray
    tissue_mass: np.ndarray
    sink_cum: np.ndarray
    outflow_cum: np.ndarray
    initial_total: float
    rel_defect: np.ndarray = field(init=False)
    max_rel_defect: float = field(init=False)

    def __post_init__(self):
        defect = np.abs(self.total + self.sink_cum + self.outflow_cum - self.initial_total)
        object.__setattr__(self, "rel_defect", defect / self.initial_total)
        object.__setattr__(self, "max_rel_defect", float(self.rel_defect.max()))

    @property
    def total(self) -> np.ndarray:
        return self.matrix_mass + self.tissue_mass


def mass_audit(ts: TimeSeries) -> MassLedger:
    """Trapezoid-in-space, trapezoid-in-time drug ledger for a trajectory.

    With a zero-flux outer boundary and kid = 0 the discrete dynamics
    conserve the total exactly, so the defect is round-off; with kid > 0 or
    a sink boundary the defect measures the time-quadrature error of the
    sink/outflow integrals and shrinks quadratically with the sample
    spacing.
    """
    p, grid = ts.params, ts.grid
    wm = grid.layer_weights(MATRIX)
    wt = grid.layer_weights(TISSUE)
    matrix_mass = (ts.c0s + ts.c0) @ wm
    tissue_mass = (ts.c1s + ts.c1 + ts.ci) @ wt
    sink_rate = p.kid * (ts.ci @ wt)
    sink_cum = _cumulative_trapezoid(sink_rate, ts.times)
    if ts.config.outer_bc == SINK:
        out_rate = p.d1 * (ts.c1[:, -2] - ts.c1[:, -1]) / grid.h1
        outflow_cum = _cumulative_trapezoid(out_rate, ts.times)
    else:
        outflow_cum = np.zeros_like(ts.times)
    return MassLedger(
        times=ts.times.copy(),
        matrix_mass=matrix_mass,
        tissue_mass=tissue_mass,
        sink_cum=sink_cum,
        outflow_cum=outflow_cum,
        initial_total=float(matrix_mass[0] + tissue_mass[0]),
    )


def _field_deviations(ts: TimeSeries, ref: TimeSeries) -> dict[str, float]:
    """Per field, max |u - ref| / max(max |ref|, 1e-30) between the last
    states of two runs, at the nodes they share: each layer of ``ref``'s grid
    has a whole multiple of the cells of ``ts``'s."""
    out = {}
    for name, (_, layer) in FIELD_TABLE.items():
        stride = (ref.grid.layer_nodes(layer) - 1) // (ts.grid.layer_nodes(layer) - 1)
        b = ref.u[-1, ref.grid.field_slice(name)]
        scale = max(float(np.max(np.abs(b))), 1e-30)
        out[name] = float(np.max(np.abs(ts.u[-1, ts.grid.field_slice(name)]
                                        - b[::stride]))) / scale
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of a refinement study, one {field: error} dict per level, and per
    field the observed order log2(e_coarse / e_fine) of each refinement,
    derived from the errors on construction (nan where one is not positive)."""

    levels: tuple
    errors: tuple
    orders: dict = field(init=False)

    def __post_init__(self):
        orders = {name: [float(np.log2(lo[name] / hi[name])) if lo[name] > 0 and hi[name] > 0
                         else float("nan") for lo, hi in pairwise(self.errors)]
                  for name in (self.errors[0] if self.errors else ())}
        object.__setattr__(self, "orders", orders)

    @property
    def observed_order(self) -> float:
        """Most pessimistic finest-pair order across species."""
        finals = [seq[-1] for seq in self.orders.values() if seq and np.isfinite(seq[-1])]
        return float(min(finals)) if finals else float("nan")

    @property
    def monotone(self) -> bool:
        """Whether every field's error falls at each refinement; where one does
        not, the refinement may not have reached the asymptotic regime."""
        return not any(b >= a for name in self.orders
                       for a, b in pairwise(e[name] for e in self.errors))


def _refinement(levels: tuple, runs, ref: TimeSeries) -> ConvergenceReport:
    """Report of ``runs`` (one per level, iterated once) against the reference
    run at t_end."""
    return ConvergenceReport(levels=tuple(levels),
                             errors=tuple(_field_deviations(ts, ref) for ts in runs))


def spatial_convergence(p: DimensionlessParams, config: SolverConfig,
                        cells=(8, 16, 32, 64), ref_cells: int = 256) -> ConvergenceReport:
    """Observed spatial order at t_end against a fine-grid reference.

    The same cell count is used in both layers at every level and each level
    divides the reference, so errors are measured at shared nodes with no
    interpolation.
    """
    for n in cells:
        if ref_cells % n:
            raise ValueError(f"reference cell count {ref_cells} must be a multiple of {n}")
    ref, *runs = simulate_all(prepare(p, make_grid(p, n, n), config)
                              for n in (ref_cells, *cells))
    return _refinement(cells, runs, ref)


def temporal_convergence(p: DimensionlessParams, grid: CompositeGrid, config: SolverConfig,
                         dts=(0.25, 0.125, 0.0625), ref_dt: float = 0.0625 / 16) -> ConvergenceReport:
    """Observed temporal order at t_end on a fixed grid against a small-dt
    reference run."""
    ref = simulate(p, grid, replace(config, dt=ref_dt))
    return _refinement(dts, (simulate(p, grid, replace(config, dt=dt)) for dt in dts), ref)


def convergence_study(p: DimensionlessParams) -> dict:
    """Standard bundle at t = 1: spatial order at theta=0.5, temporal orders
    at theta=0.5 and theta=1."""
    space_cfg = SolverConfig(dt=2e-3, t_end=1.0, theta=0.5, sample_every=10 ** 9)
    time_cfg = SolverConfig(dt=0.25, t_end=1.0, theta=0.5, sample_every=10 ** 9)
    grid = make_grid(p, 32, 32)
    return {
        "spatial": spatial_convergence(p, space_cfg),
        "temporal_trapezoid": temporal_convergence(p, grid, time_cfg),
        "temporal_implicit": temporal_convergence(p, grid, replace(time_cfg, theta=1.0)),
    }


def analytic_state(p: DimensionlessParams, ap: AnalyticParams, grid: CompositeGrid,
                   t: float) -> np.ndarray:
    """Closed-form fields sampled on the grid nodes at time t, as a packed
    state vector."""
    closed_forms = {"c0s": matrix_solid, "c0": matrix_free, "c1s": tissue_bound,
                    "c1": tissue_free, "ci": tissue_internalized}
    u = np.empty(grid.n)
    for name, (_, layer) in FIELD_TABLE.items():
        u[grid.field_slice(name)] = closed_forms[name](grid.layer_x(layer), t, p, ap)
    return u


# Pass gates of ``releasesim verify``.  tests/test_acceptance.py states its
# bounds as literals, so loosening a gate here cannot loosen the tests.
RESIDUAL_TOL = 1e-10
ORACLE_TOL = 1e-6
MASS_CLOSED_TOL = 1e-4
MASS_SINK_TOL = 1e-3
REQUIRED_ORDERS = {"spatial": 1.9, "temporal_trapezoid": 1.9, "temporal_implicit": 0.9}

# Each check takes the instrument it runs as an argument.  The CLI hands in
# its own module attributes, where perfbench/spans.py wraps them to time the
# verification layers.


def check_residuals(p: DimensionlessParams, mode: AnalyticParams,
                    evaluate=residuals) -> dict:
    res = evaluate(p, mode)
    kinetic = {k: v for k, v in res.items() if k in KINETIC_BALANCES}
    free = {k: v for k, v in res.items() if k not in KINETIC_BALANCES}
    passed = all(v <= RESIDUAL_TOL for v in kinetic.values())
    return {"name": "residuals", "passed": passed,
            "kinetic_max_abs": kinetic, "free_max_abs": free,
            "tolerance": RESIDUAL_TOL,
            "note": "free balances keep their startup transients by design"}


def oracle_jobs(p: DimensionlessParams, mode: AnalyticParams,
                oracle=ode_oracle) -> tuple[list, Callable]:
    """The oracle check's jobs, one ``oracle`` call per balance in
    ``KINETIC_BALANCES`` order, all on one grid, and the function that makes
    the check from their deviations in that order."""
    t_grid = oracle_time_grid(p, mode)
    # mid-layer stations keep clear of the mode's spatial nodes
    x_t = 0.5 * (p.l0 + p.l1)
    jobs = [lambda name=name: oracle(name, p, mode, 0.0 if name == "matrix_solid" else x_t, t_grid)
            for name in KINETIC_BALANCES]

    def report(deviations) -> dict:
        devs = dict(zip(KINETIC_BALANCES, deviations))
        passed = all(v <= ORACLE_TOL for v in devs.values())
        return {"name": "oracle", "passed": passed, "deviations": devs, "tolerance": ORACLE_TOL}
    return jobs, report


def check_oracle(p: DimensionlessParams, mode: AnalyticParams, oracle=ode_oracle) -> dict:
    jobs, report = oracle_jobs(p, mode, oracle)
    return report([job() for job in jobs])


def check_mass(spec: RunSpec, audit=mass_audit) -> dict:
    base = replace(spec, nx0=32, nx1=32,
                   solver=replace(spec.solver, dt=0.01, t_end=5.0, sample_every=5,
                                  outer_bc=ZERO_FLUX))
    closed = replace(base, tissue=replace(base.tissue, kid=0.0))
    runs = simulate_all(prepare(p, make_grid(p, base.nx0, base.nx1), base.solver)
                        for p in map(RunSpec.dimensionless, (closed, base)))
    defect_closed, defect_sink = (audit(ts).max_rel_defect for ts in runs)
    passed = defect_closed <= MASS_CLOSED_TOL and defect_sink <= MASS_SINK_TOL
    return {"name": "mass", "passed": passed,
            "closed_system_defect": defect_closed, "closed_tolerance": MASS_CLOSED_TOL,
            "with_degradation_defect": defect_sink, "degradation_tolerance": MASS_SINK_TOL}


def check_convergence(p: DimensionlessParams, study=convergence_study) -> dict:
    result = study(p)
    orders = {name: result[name].observed_order for name in REQUIRED_ORDERS}
    passed = all(orders[name] >= bound for name, bound in REQUIRED_ORDERS.items())
    return {"name": "convergence", "passed": passed, "observed_orders": orders,
            "monotone": {name: result[name].monotone for name in REQUIRED_ORDERS},
            "required": dict(REQUIRED_ORDERS)}
