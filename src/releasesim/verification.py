"""Cross-checks tying the solver, the closed forms, and conservation together.

Four independent instruments:

* :func:`ode_oracle` re-integrates a kinetic balance with classical RK4
  driven by the closed-form driver fields and reports the deviation from the
  closed-form answer.
* :func:`mass_audit` books total drug against the lysosomal sink and the
  boundary outflow with trapezoid quadrature in space and time.
* :func:`spatial_convergence` / :func:`temporal_convergence` measure observed
  orders against a finest-level reference.
* :func:`compare_analytic_numeric` starts the solver from the closed-form
  fields and reports per-species drift plus the mode's interface-flux gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import lfilter

from .analytic import AnalyticParams, eval_matrix, eval_tissue, interface_fluxes
from .errors import NumericalError
from .params import DimensionlessParams
from .solver import (SINK, CompositeGrid, SimState, SolverConfig, TimeSeries,
                     make_grid, simulate)

_FIELDS = ("c0s", "c0", "c1s", "c1", "ci")

# Largest uniform grid oracle_time_grid will build.  Pathologically stiff
# parameter draws (fast rate thousands of times the slow one) would need more
# points than this to resolve the fast transient over ten slow e-folds; for
# those, ode_oracle refuses to certify rather than return a polluted number.
ORACLE_GRID_CAP = 400_000


def _rk4_linear(decay: float, forcing_half: np.ndarray, dt: float, y0: float) -> np.ndarray:
    """Classical RK4 for y' = -decay*y + F(t) with F pre-evaluated on the
    half-step grid (2N+1 points).  The update is the exact linear recurrence
    y[n+1] = rho*y[n] + s[n], run as a first-order IIR filter."""
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
    y = lfilter([1.0], [1.0, -rho], s, zi=[rho * y0])[0]
    return np.concatenate([[y0], y])


def _oracle_problem(which: str, p: DimensionlessParams, ap: AnalyticParams, x: float):
    """(decay rate, forcing callable, y0, closed-form callable) for one balance."""
    if which == "matrix_solid":
        src = p.km * p.c_lim
        return (p.solid_rate,
                lambda t: p.free_rate * eval_matrix(x, t, p, ap)[0] - src,
                1.0,
                lambda t: eval_matrix(x, t, p, ap)[1])
    if which == "tissue_bound":
        return (p.bound_rate,
                lambda t: p.ka * eval_tissue(x, t, p, ap)[0],
                0.0,
                lambda t: eval_tissue(x, t, p, ap)[1])
    if which == "internalized":
        return (p.kid,
                lambda t: p.ki * eval_tissue(x, t, p, ap)[1],
                0.0,
                lambda t: eval_tissue(x, t, p, ap)[2])
    raise ValueError(f"unknown balance {which!r}; expected matrix_solid, tissue_bound, or internalized")


def ode_oracle(which: str, p: DimensionlessParams, ap: AnalyticParams,
               x: float, t_grid) -> float:
    """Max relative deviation between RK4 re-integration and the closed form.

    ``t_grid`` must be uniform and dense enough that the integrator's own
    step-doubling error estimate stays below 1e-9 of the solution scale;
    otherwise a NumericalError asks for a finer grid.  The deviation is
    normalized by the closed form's max magnitude over the grid.
    """
    t = np.asarray(t_grid, dtype=float)
    if len(t) < 3:
        raise ValueError("t_grid needs at least 3 points")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("t_grid must be uniformly spaced")
    dt = float(dts[0])
    decay, forcing, y0, closed = _oracle_problem(which, p, ap, float(x))

    n = len(t) - 1
    # the half-step grid is every other quarter-step point, bit for bit:
    # (dt/4)*(2k) and (dt/2)*k are the same exact product, rounded once
    f_quarter = forcing(t[0] + 0.25 * dt * np.arange(4 * n + 1))
    y = _rk4_linear(decay, f_quarter[::2], dt, y0)
    y_fine = _rk4_linear(decay, f_quarter, 0.5 * dt, y0)[::2]

    ref = closed(t)
    scale = max(float(np.max(np.abs(ref))), 1e-30)
    est = float(np.max(np.abs(y - y_fine))) / 15.0
    if est > 1e-9 * max(scale, 1.0):
        raise NumericalError(
            f"t_grid too coarse for the {which} oracle: step-doubling estimate {est:.3g}"
        )
    return float(np.max(np.abs(y - ref))) / scale


def oracle_time_grid(p: DimensionlessParams, ap: AnalyticParams, n_min: int = 2000) -> np.ndarray:
    """Uniform grid covering ten e-folds of the slowest relevant rate, with
    steps short against the fastest one."""
    from .analytic import matrix_rates, tissue_rates

    mr = matrix_rates(p, ap.a, ap.gamma)
    tr = tissue_rates(p, ap.b)
    rates = [v for v in (mr.slow, mr.fast, p.solid_rate, tr.slow, tr.fast,
                         p.bound_rate, p.kid) if v > 1e-12]
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
        delta0=lu(1e-2, 1e1), gamma=1.0, ka=lu(1e-2, 1e1), kd=lu(1e-2, 1e1),
        ki=lu(1e-2, 1e1), kid=lu(1e-2, 1e1), d1=lu(1e-1, 1e1),
        l1=1.0 + float(rng.uniform(0.5, 2.0)),
        pm=np.inf if pm_infinite else lu(1e-1, 1e2),
        sigma=lu(0.5, 2.0),
    )


def sample_mode(rng: np.random.Generator, p: DimensionlessParams) -> AnalyticParams:
    """Random mode shape; occasionally degenerates a wavenumber to exactly 0."""
    a = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 4.0))
    b = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 4.0))
    return AnalyticParams(a=a, b=b, e1=float(rng.uniform(-2.0, 2.0)),
                          e2=float(rng.uniform(-2.0, 2.0)), gamma=p.gamma)


@dataclass(frozen=True)
class MassLedger:
    """Drug bookkeeping per sample: layer masses, cumulative sink, cumulative
    boundary outflow, and the closure defect against the initial total."""

    times: np.ndarray
    matrix_mass: np.ndarray
    tissue_mass: np.ndarray
    sink_cum: np.ndarray
    outflow_cum: np.ndarray
    initial_total: float

    @property
    def total(self) -> np.ndarray:
        return self.matrix_mass + self.tissue_mass

    @property
    def rel_defect(self) -> np.ndarray:
        defect = np.abs(self.total + self.sink_cum + self.outflow_cum - self.initial_total)
        return defect / self.initial_total

    @property
    def max_rel_defect(self) -> float:
        return float(self.rel_defect.max())

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "matrix_mass": self.matrix_mass.tolist(),
            "tissue_mass": self.tissue_mass.tolist(),
            "sink_cum": self.sink_cum.tolist(),
            "outflow_cum": self.outflow_cum.tolist(),
            "initial_total": self.initial_total,
            "rel_defect": self.rel_defect.tolist(),
            "max_rel_defect": self.max_rel_defect,
        }


def mass_audit(ts: TimeSeries, p: DimensionlessParams | None = None) -> MassLedger:
    """Trapezoid-in-space, trapezoid-in-time drug ledger for a trajectory.

    With a zero-flux outer boundary and kid = 0 the discrete dynamics
    conserve the total exactly, so the defect is round-off; with kid > 0 or
    a sink boundary the defect measures the time-quadrature error of the
    sink/outflow integrals and shrinks quadratically with the sample
    spacing.
    """
    if p is None:
        p = ts.params
    grid = ts.grid
    wm = grid.matrix_weights()
    wt = grid.tissue_weights()
    matrix_mass = (ts.c0s + ts.c0) @ wm
    tissue_mass = (ts.c1s + ts.c1 + ts.ci) @ wt
    sink_rate = p.kid * (ts.ci @ wt)
    sink_cum = cumulative_trapezoid(sink_rate, ts.times, initial=0.0)
    if ts.config.outer_bc == SINK:
        out_rate = p.d1 * (ts.c1[:, -2] - ts.c1[:, -1]) / grid.h1
        outflow_cum = cumulative_trapezoid(out_rate, ts.times, initial=0.0)
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


def _species_errors(coarse: TimeSeries, ref: TimeSeries, stride_m: int, stride_t: int) -> dict[str, float]:
    out = {}
    for name in _FIELDS:
        a = getattr(coarse, name)[-1]
        b = getattr(ref, name)[-1]
        b_sub = b[::stride_m] if name in ("c0s", "c0") else b[::stride_t]
        scale = max(float(np.max(np.abs(b))), 1e-30)
        out[name] = float(np.max(np.abs(a - b_sub))) / scale
    return out


def _observed_orders(errors: list[dict[str, float]]) -> dict[str, list[float]]:
    orders: dict[str, list[float]] = {name: [] for name in _FIELDS}
    for lo, hi in zip(errors, errors[1:]):
        for name in _FIELDS:
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

    def to_dict(self) -> dict:
        return {
            "levels": [list(lv) if isinstance(lv, tuple) else lv for lv in self.levels],
            "errors": list(self.errors),
            "orders": {k: list(v) for k, v in self.orders.items()},
            "observed_order": self.observed_order,
        }

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
        errors.append(_species_errors(ts, ref, stride, stride))
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
        errors.append(_species_errors(ts, ref, 1, 1))
    report = ConvergenceReport(levels=tuple(dts), errors=tuple(errors),
                               orders=_observed_orders(errors))
    report.warn_if_preasymptotic(f"temporal refinement (theta={config.theta})")
    return report


def convergence_study(p: DimensionlessParams, t_end: float = 1.0) -> dict:
    """Standard bundle: spatial order at theta=0.5, temporal orders at
    theta=0.5 and theta=1."""
    space_cfg = SolverConfig(dt=2e-3, t_end=t_end, theta=0.5, sample_every=10 ** 9)
    time_cfg = SolverConfig(dt=0.25, t_end=t_end, theta=0.5, sample_every=10 ** 9)
    grid = make_grid(p, 32, 32)
    return {
        "spatial": spatial_convergence(p, space_cfg),
        "temporal_trapezoid": temporal_convergence(p, grid, time_cfg),
        "temporal_implicit": temporal_convergence(p, grid, replace(time_cfg, theta=1.0)),
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Numerical drift from the closed forms plus the mode's interface defect."""

    t_start: float
    t_final: float
    deviations: dict            # species -> scaled max-abs deviation at t_final
    times: np.ndarray
    flux_matrix: np.ndarray     # gamma * dC0/dx at the interface (mode)
    flux_tissue: np.ndarray     # d1 * dC1/dx at the interface (mode)

    @property
    def flux_mismatch(self) -> np.ndarray:
        return np.abs(self.flux_matrix - self.flux_tissue)

    @property
    def max_flux_mismatch(self) -> float:
        return float(self.flux_mismatch.max())


def analytic_state(p: DimensionlessParams, ap: AnalyticParams, grid: CompositeGrid,
                   t: float) -> SimState:
    """Closed-form fields sampled on the grid nodes at time t."""
    c0, c0s = eval_matrix(grid.x_matrix, t, p, ap)
    c1, c1s, ci = eval_tissue(grid.x_tissue, t, p, ap)
    return SimState(t=float(t), c0s=np.asarray(c0s, float), c0=np.asarray(c0, float),
                    c1s=np.asarray(c1s, float), c1=np.asarray(c1, float),
                    ci=np.asarray(ci, float))


def compare_analytic_numeric(p: DimensionlessParams, ap: AnalyticParams,
                             grid: CompositeGrid, config: SolverConfig,
                             t_start: float = 0.5,
                             horizon: float | None = None) -> ComparisonReport:
    """Advance the solver from the closed-form fields and report the drift.

    The closed forms satisfy the kinetic balances exactly but not the
    discrete diffusion problem (interface flux gap, solubilisation source),
    so a nonzero per-species deviation growing with the horizon is the
    honest outcome, not a failure.  Negative closed-form values (the solid
    pool's tail) are fed to the solver as they are.
    """
    if horizon is None:
        horizon = 10.0 * config.dt
    init = analytic_state(p, ap, grid, t_start)
    run_cfg = replace(config, t_end=horizon, clamp_nonnegative=False)
    ts = simulate(p, grid, run_cfg, init_state=init)
    t_final = float(ts.times[-1])
    ref = analytic_state(p, ap, grid, t_final)
    deviations = {}
    for name in _FIELDS:
        num = getattr(ts, name)[-1]
        ana = getattr(ref, name)
        scale = max(float(np.max(np.abs(ana))), 1e-30)
        deviations[name] = float(np.max(np.abs(num - ana))) / scale
    fm, ft = interface_fluxes(p, ap, ts.times)
    return ComparisonReport(t_start=t_start, t_final=t_final, deviations=deviations,
                            times=ts.times.copy(), flux_matrix=np.asarray(fm, float),
                            flux_tissue=np.asarray(ft, float))
