"""Cross-checks tying the solver, the closed forms, and conservation together.

Four independent instruments:

* :func:`ode_oracle` re-integrates a kinetic balance with classical RK4
  driven by the closed-form driver fields and reports the deviation from the
  closed-form answer.  It calls the per-field evaluators of
  :mod:`releasesim.analytic` (``matrix_free``, ``matrix_solid``,
  ``tissue_free``, ``tissue_bound``, ``tissue_internalized``): each balance's
  driver on the quarter-step grid, its own field on the output grid.
* :func:`mass_audit` books total drug against the lysosomal sink and the
  boundary outflow with trapezoid quadrature in space and time.
* :func:`spatial_convergence` / :func:`temporal_convergence` measure observed
  orders against a finest-level reference.

The ``check_*`` functions make them and :func:`~releasesim.analytic.residuals`
the checks of ``releasesim verify``.  :func:`analytic_state` is the closed
forms on the grid nodes as a packed state, as written to ``analytic.csv``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .analytic import (KINETIC_BALANCES, AnalyticParams, _mode_rates, matrix_free,
                       matrix_solid, residuals, tissue_bound, tissue_free,
                       tissue_internalized)
from .errors import NumericalError
from .params import DimensionlessParams
from .scenario import RunSpec, run_spec
from .solver import (FIELD_TABLE, FIELDS, MATRIX, SINK, TISSUE, ZERO_FLUX,
                     CompositeGrid, SolverConfig, TimeSeries, make_grid, simulate)

# Largest uniform grid oracle_time_grid will build.  Pathologically stiff
# parameter draws (fast rate thousands of times the slow one) would need more
# points than this to resolve the fast transient over ten slow e-folds; for
# those, ode_oracle refuses to certify rather than return a polluted number.
ORACLE_GRID_CAP = 400_000


def _rk4_linear(decay: float, forcing_half: np.ndarray, dt: float, y0: float) -> np.ndarray:
    """Classical RK4 for y' = -decay*y + F(t) with F pre-evaluated on the
    half-step grid (2N+1 points).  The update is the exact linear recurrence
    y[n+1] = rho*y[n] + s[n], solved as one unit lower-bidiagonal system."""
    f_start = forcing_half[0:-1:2]
    f_mid = forcing_half[1::2]
    f_end = forcing_half[2::2]
    z = -decay * dt
    k1 = f_start
    k2 = 0.5 * z * k1 + f_mid
    k3 = 0.5 * z * k2 + f_mid
    k4 = z * k3 + f_end
    s = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    # rows y[0] = y0 and y[n+1] - rho*y[n] = s[n].  For 0 < rho <= 1 LAPACK's
    # tridiagonal solver eliminates without pivoting, adding s[n] + rho*y[n]
    # in the recurrence's own order, so y is bit-identical to running it.
    # rho > 0 for every real z, so the system is never singular.
    b = np.concatenate([[y0], s])
    m = len(b)
    return dgtsv(np.full(m - 1, -rho), np.ones(m), np.zeros(m - 1), b,
                 overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                 overwrite_b=True)[3]


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y(t), starting at 0; the same
    operations in the same order as SciPy's ``cumulative_trapezoid``."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


def _oracle_problem(which: str, p: DimensionlessParams, ap: AnalyticParams, x: float):
    """(forcing as a function of t, decay rate, the balance's own closed-form
    field as a function of t, y0, layer) for one balance at station x."""
    if which == "matrix_solid":
        src = p.km * p.c_lim
        return (lambda t: p.free_rate * matrix_free(x, t, p, ap) - src, p.solid_rate,
                lambda t: matrix_solid(x, t, p, ap), 1.0, "matrix")
    if which == "tissue_bound":
        return (lambda t: p.ka * tissue_free(x, t, p, ap), p.bound_rate,
                lambda t: tissue_bound(x, t, p, ap), 0.0, "tissue")
    if which == "internalized":
        return (lambda t: p.ki * tissue_bound(x, t, p, ap), p.kid,
                lambda t: tissue_internalized(x, t, p, ap), 0.0, "tissue")
    raise ValueError(f"unknown balance {which!r}; expected one of {', '.join(KINETIC_BALANCES)}")


def ode_oracle(which: str | tuple[str, ...], p: DimensionlessParams, ap: AnalyticParams,
               x: float, t_grid) -> float | tuple[float, ...]:
    """Max relative deviation between RK4 re-integration and the closed form.

    ``which`` names one balance, or is a tuple of balances of one layer at
    the same station.  A tuple returns one deviation per name, in order, and
    builds the quarter-step grid they share once.  Each balance evaluates
    only its forcing field on the quarter-step grid and only its own field
    on ``t_grid``.

    ``t_grid`` must start at 0 (the balances' initial values are given
    there), be uniform with a positive step, and be dense enough that the
    integrator's own step-doubling error estimate stays below 1e-9 of the
    solution scale; otherwise a NumericalError asks for a finer grid.  The
    deviation is normalized by the closed form's max magnitude over the grid.
    """
    x = float(x)
    names = (which,) if isinstance(which, str) else tuple(which)
    problems = [_oracle_problem(name, p, ap, x) for name in names]
    if len({prob[4] for prob in problems}) > 1:
        raise ValueError("balances evaluated together must share one layer")
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

    n = len(t) - 1
    # the half-step grid is every other quarter-step point, bit for bit:
    # (dt/4)*(2k) and (dt/2)*k are the same exact product, rounded once
    t_quarter = 0.25 * dt * np.arange(4 * n + 1)
    devs = []
    for name, (forcing, decay, own, y0, _) in zip(names, problems):
        f_quarter = forcing(t_quarter)
        y = _rk4_linear(decay, f_quarter[::2], dt, y0)
        y_fine = _rk4_linear(decay, f_quarter, 0.5 * dt, y0)[::2]
        del f_quarter
        ref = own(t)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        est = float(np.max(np.abs(y - y_fine))) / 15.0
        # a NaN estimate (an overflowed run) fails the test too
        if not est <= 1e-9 * max(scale, 1.0):
            raise NumericalError(
                f"t_grid too coarse for the {name} oracle: step-doubling estimate {est:.3g}"
            )
        devs.append(float(np.max(np.abs(y - ref))) / scale)
    return devs[0] if isinstance(which, str) else tuple(devs)


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


def sample_params(rng: np.random.Generator, pm_infinite: bool = True) -> DimensionlessParams:
    """Random admissible dimensionless parameter set; rates are log-uniform
    over [1e-2, 1e1]."""
    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return DimensionlessParams(
        alpha0=lu(1e-2, 1e1), k=lu(1e-1, 1e1), eps0=float(rng.uniform(0.1, 0.9)),
        km=lu(1e-2, 1e1), c_lim=lu(1e-2, 1e1), beta0=lu(1e-2, 1e1),
        delta0=lu(1e-2, 1e1), ka=lu(1e-2, 1e1), kd=lu(1e-2, 1e1),
        ki=lu(1e-2, 1e1), kid=lu(1e-2, 1e1), d1=lu(1e-1, 1e1),
        l1=1.0 + float(rng.uniform(0.5, 2.0)),
        pm=np.inf if pm_infinite else lu(1e-1, 1e2),
        sigma=lu(0.5, 2.0),
    )


def sample_mode(rng: np.random.Generator) -> AnalyticParams:
    """Random mode shape; occasionally degenerates a wavenumber to exactly 0."""
    a = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 4.0))
    b = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 4.0))
    return AnalyticParams(a=a, b=b, e1=float(rng.uniform(-2.0, 2.0)),
                          e2=float(rng.uniform(-2.0, 2.0)))


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


def _field_deviations(u: np.ndarray, grid: CompositeGrid, ref: np.ndarray,
                      ref_grid: CompositeGrid, stride: int = 1) -> dict[str, float]:
    """Per field, max |u - ref| / max(max |ref|, 1e-30) between two packed
    states; ``ref_grid`` is ``stride`` times finer than ``grid`` and the
    fields are compared at their shared nodes."""
    out = {}
    for name in FIELDS:
        b = ref[ref_grid.field_slice(name)]
        scale = max(float(np.max(np.abs(b))), 1e-30)
        out[name] = float(np.max(np.abs(u[grid.field_slice(name)] - b[::stride]))) / scale
    return out


def _observed_orders(errors: list[dict[str, float]]) -> dict[str, list[float]]:
    orders: dict[str, list[float]] = {name: [] for name in FIELDS}
    for lo, hi in zip(errors, errors[1:]):
        for name in FIELDS:
            if hi[name] <= 0 or lo[name] <= 0:
                orders[name].append(float("nan"))
            else:
                orders[name].append(float(np.log2(lo[name] / hi[name])))
    return orders


@dataclass(frozen=True)
class ConvergenceReport:
    levels: tuple
    errors: tuple          # one {species: error} dict per level
    orders: dict           # species -> per-refinement observed order

    @property
    def observed_order(self) -> float:
        """Most pessimistic finest-pair order across species."""
        finals = [seq[-1] for seq in self.orders.values() if seq and np.isfinite(seq[-1])]
        if not finals:
            return float("nan")
        return float(min(finals))

    def warn_if_preasymptotic(self, label: str) -> None:
        for name, seq in self.orders.items():
            errs = [e[name] for e in self.errors]
            if any(b >= a for a, b in zip(errs, errs[1:])):
                warnings.warn(
                    f"{label}: error sequence for {name} is not monotone; "
                    "refinement may not have reached the asymptotic regime",
                    stacklevel=2,
                )
                return


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
    ref = simulate(p, make_grid(p, ref_cells, ref_cells), config)
    errors = []
    for n in cells:
        ts = simulate(p, make_grid(p, n, n), config)
        stride = ref_cells // n
        errors.append(_field_deviations(ts.u[-1], ts.grid, ref.u[-1], ref.grid, stride))
    report = ConvergenceReport(levels=tuple(cells), errors=tuple(errors),
                               orders=_observed_orders(errors))
    report.warn_if_preasymptotic("spatial refinement")
    return report


def temporal_convergence(p: DimensionlessParams, grid: CompositeGrid, config: SolverConfig,
                         dts=(0.25, 0.125, 0.0625), ref_dt: float = 0.0625 / 16) -> ConvergenceReport:
    """Observed temporal order at t_end on a fixed grid against a small-dt
    reference run."""
    ref = simulate(p, grid, replace(config, dt=ref_dt))
    errors = []
    for dt in dts:
        ts = simulate(p, grid, replace(config, dt=dt))
        errors.append(_field_deviations(ts.u[-1], grid, ref.u[-1], grid))
    report = ConvergenceReport(levels=tuple(dts), errors=tuple(errors),
                               orders=_observed_orders(errors))
    report.warn_if_preasymptotic(f"temporal refinement (theta={config.theta})")
    return report


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


def check_oracle(p: DimensionlessParams, mode: AnalyticParams, oracle=ode_oracle) -> dict:
    t_grid = oracle_time_grid(p, mode)
    # mid-layer stations keep clear of the mode's spatial nodes
    x_t = 0.5 * (p.l0 + p.l1)
    solid = oracle("matrix_solid", p, mode, 0.0, t_grid)
    bound, internalized = oracle(("tissue_bound", "internalized"), p, mode, x_t, t_grid)
    devs = {"matrix_solid": solid, "tissue_bound": bound, "internalized": internalized}
    passed = all(v <= ORACLE_TOL for v in devs.values())
    return {"name": "oracle", "passed": passed, "deviations": devs, "tolerance": ORACLE_TOL}


def check_mass(spec: RunSpec, audit=mass_audit) -> dict:
    base = replace(spec, nx0=32, nx1=32,
                   solver=replace(spec.solver, dt=0.01, t_end=5.0, sample_every=5,
                                  outer_bc=ZERO_FLUX))
    closed = replace(base, tissue=replace(base.tissue, kid=0.0))
    defect_closed = audit(run_spec(closed)).max_rel_defect
    defect_sink = audit(run_spec(base)).max_rel_defect
    passed = defect_closed <= MASS_CLOSED_TOL and defect_sink <= MASS_SINK_TOL
    return {"name": "mass", "passed": passed,
            "closed_system_defect": defect_closed, "closed_tolerance": MASS_CLOSED_TOL,
            "with_degradation_defect": defect_sink, "degradation_tolerance": MASS_SINK_TOL}


def check_convergence(p: DimensionlessParams, study=convergence_study) -> dict:
    result = study(p)
    orders = {name: result[name].observed_order for name in REQUIRED_ORDERS}
    passed = all(orders[name] >= bound for name, bound in REQUIRED_ORDERS.items())
    return {"name": "convergence", "passed": passed, "observed_orders": orders,
            "required": dict(REQUIRED_ORDERS)}
