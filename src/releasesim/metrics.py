"""Release metrics, parameter sweeps, and local sensitivity probes.

Metrics are computed from sampled trajectories, so peak locations are
refined with a three-point parabolic fit and extinction times with linear
threshold crossing; both are exact when the underlying series is locally
quadratic / linear across one sample interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .scenario import RunSpec, get_param, map_param
from .solver import FIELD_TABLE, LAYER_FIELDS, MATRIX, TISSUE, TimeSeries
from .verification import MassLedger, _cumulative_trapezoid, mass_audit

# Fraction of the peak that counts as extinguished.
EXTINCTION_FRACTION = 0.01


def parabolic_peak(t0: float, t1: float, t2: float,
                   y0: float, y1: float, y2: float) -> tuple[float, float]:
    """Vertex of the parabola through three points, middle one the largest.

    Falls back to the middle sample when the fit is not strictly concave
    (flat or noisy data), so the result never leaves [t0, t2].
    """
    d1 = (y1 - y0) / (t1 - t0)
    d2 = ((y2 - y1) / (t2 - t1) - d1) / (t2 - t0)
    if not d2 < 0.0:
        return float(t1), float(y1)
    tv = 0.5 * (t0 + t1) - 0.5 * d1 / d2
    yv = y0 + d1 * (tv - t0) + d2 * (tv - t0) * (tv - t1)
    return float(tv), float(yv)


def probe_series(ts: TimeSeries, species: str, x: float) -> np.ndarray:
    """Time series of one species at a fixed station, linear in space.

    ``species`` is a field's answer-file label; the station must lie inside
    the field's own layer.
    """
    by_label = {label: (name, layer) for name, (label, layer) in FIELD_TABLE.items()}
    try:
        field_name, layer = by_label[species]
    except KeyError:
        raise ValueError(
            f"unknown species {species!r}; choose one of {', '.join(by_label)}"
        ) from None
    gx = ts.grid.layer_x(layer)
    tol = 1e-9 * ts.grid.l1
    if not (gx[0] - tol <= x <= gx[-1] + tol):
        raise ValueError(
            f"station x={x:g} lies outside the {layer} layer [{gx[0]:g}, {gx[-1]:g}]"
        )
    values = getattr(ts, field_name)
    j = int(np.clip(np.searchsorted(gx, x), 1, len(gx) - 1))
    w = (x - gx[j - 1]) / (gx[j] - gx[j - 1])
    w = min(max(w, 0.0), 1.0)
    return (1.0 - w) * values[:, j - 1] + w * values[:, j]


@dataclass(frozen=True)
class ProbeSeriesMetrics:
    """Peak and extinction summary of one species at one station."""

    species: str
    x: float
    peak: float
    t_peak: float
    t_extinct: float | None   # None when the series never falls to the threshold
    peak_at_end: bool         # still rising at the end: peak and t_peak are lower bounds


def probe_metrics(times: np.ndarray, values: np.ndarray, species: str,
                  x: float) -> ProbeSeriesMetrics:
    """Summarize one probe series: refined peak, refined time of peak, and
    the first time the series falls to ``EXTINCTION_FRACTION`` of the peak
    after it.  A non-finite value is refused with a ValueError."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if not np.isfinite(values).all():
        raise ValueError(f"probe series of {species} at x={x:g} is not finite")
    i = int(np.argmax(values))
    peak = float(values[i])
    t_peak = float(times[i])
    peak_at_end = i == len(values) - 1 and len(values) > 1
    if peak <= 0.0:
        # species never appears; extinguished from the start
        return ProbeSeriesMetrics(species, float(x), max(peak, 0.0), t_peak,
                                  float(times[0]), False)
    if 0 < i < len(values) - 1:
        t_peak, peak = parabolic_peak(times[i - 1], times[i], times[i + 1],
                                      values[i - 1], values[i], values[i + 1])
    thr = EXTINCTION_FRACTION * peak
    t_extinct = None
    below = np.nonzero(values[i:] <= thr)[0]
    if below.size:  # j >= 1: at i = 0 the peak is values[0] itself, above thr
        j = i + int(below[0])
        # linear crossing inside the bracketing sample interval
        y_hi, y_lo = values[j - 1], values[j]
        t_extinct = float(times[j - 1] + (y_hi - thr) * (times[j] - times[j - 1]) / (y_hi - y_lo))
    return ProbeSeriesMetrics(species, float(x), float(peak), float(t_peak),
                              t_extinct, peak_at_end)


@dataclass(frozen=True)
class ReleaseMetrics:
    """Whole-run summary: mass split, degradation, exposure, probe peaks.

    Fraction series are of the initial load.  They live in [0, 1] only while
    the solid pool stays nonnegative; past its depletion the model's constant
    solubilisation term keeps converting, so the matrix fraction can go
    slightly negative and the degraded fraction can pass 1.  Both are
    reported as computed.
    """

    t_end: float
    times: np.ndarray
    matrix_fraction_series: np.ndarray
    degraded_fraction_series: np.ndarray
    matrix_fraction: float
    tissue_fraction: float
    degraded_fraction: float
    outflow_fraction: float
    ci_exposure: float
    mass_defect: float
    probes: tuple[ProbeSeriesMetrics, ...]

    def probe(self, species: str, x: float) -> ProbeSeriesMetrics:
        for pr in self.probes:
            if pr.species == species and abs(pr.x - x) <= 1e-9:
                return pr
        raise KeyError(f"no probe for {species} at x={x:g}")


def release_metrics(ts: TimeSeries, ledger: MassLedger | None = None) -> ReleaseMetrics:
    """Summarize a trajectory.

    Fractions are of the initial drug load; exposure is the time integral of
    the internalized pool's spatial total.  Probes sit at four evenly spaced
    stations per layer, endpoints included, one per field of the layer in
    packed order (:func:`probe_series` and :func:`probe_metrics` probe any
    other station).  ``ledger`` is the trajectory's
    :func:`~releasesim.verification.mass_audit`, taken here when not given.
    """
    grid = ts.grid
    if ledger is None:
        ledger = mass_audit(ts)
    total0 = ledger.initial_total
    ci_total = ts.ci @ grid.layer_weights(TISSUE)
    exposure = float(_cumulative_trapezoid(ci_total, ts.times)[-1])
    probes = []
    for layer in (MATRIX, TISSUE):
        gx = grid.layer_x(layer)
        for x in np.linspace(gx[0], gx[-1], 4).tolist():
            for _, label in LAYER_FIELDS[layer]:
                probes.append(probe_metrics(ts.times, probe_series(ts, label, x), label, x))
    return ReleaseMetrics(
        t_end=float(ts.times[-1]),
        times=ts.times.copy(),
        matrix_fraction_series=ledger.matrix_mass / total0,
        degraded_fraction_series=ledger.sink_cum / total0,
        matrix_fraction=float(ledger.matrix_mass[-1] / total0),
        tissue_fraction=float(ledger.tissue_mass[-1] / total0),
        degraded_fraction=float(ledger.sink_cum[-1] / total0),
        outflow_fraction=float(ledger.outflow_cum[-1] / total0),
        ci_exposure=exposure,
        mass_defect=ledger.max_rel_defect,
        probes=tuple(probes),
    )


@dataclass(frozen=True)
class SweepRow:
    """Outcome of one sweep point; failures carry the message, not a crash."""

    param: str
    value: float
    metrics: ReleaseMetrics | None
    error: str | None

    @property
    def status(self) -> str:
        return "ok" if self.error is None else "error"


def sweep(spec: RunSpec, name: str, values) -> list[SweepRow]:
    """Run the spec once per parameter value, isolating per-point failures.

    The points go through :func:`~releasesim.scenario.map_param`, in batches
    per worker whose runs step together; the rows keep the order of ``values``.

    Validation and numerical failures are recorded on their own row so one
    bad corner of parameter space does not void the rest of the sweep.  An
    unknown parameter name, by contrast, fails the whole call up front.
    """
    get_param(spec, name)  # reject unknown names before running anything
    values = [float(v) for v in values]
    return [SweepRow(name, v, None, f"{type(m).__name__}: {m}") if isinstance(m, Exception)
            else SweepRow(name, v, m, None)
            for v, m in zip(values, map_param(release_metrics, spec, name, values))]


def _mid_tissue(ts: TimeSeries) -> float:
    return 0.5 * (ts.grid.l0 + ts.grid.l1)


NAMED_METRICS: dict[str, Callable[[TimeSeries], float]] = {
    "degraded_fraction_final": lambda ts: release_metrics(ts).degraded_fraction,
    "matrix_fraction_final": lambda ts: release_metrics(ts).matrix_fraction,
    "ci_exposure": lambda ts: release_metrics(ts).ci_exposure,
    "peak_c0_origin": lambda ts: probe_metrics(
        ts.times, probe_series(ts, "C0", 0.0), "C0", 0.0).peak,
    "peak_c1_mid": lambda ts: probe_metrics(
        ts.times, probe_series(ts, "C1", _mid_tissue(ts)), "C1", _mid_tissue(ts)).peak,
    "t_peak_c1_mid": lambda ts: probe_metrics(
        ts.times, probe_series(ts, "C1", _mid_tissue(ts)), "C1", _mid_tissue(ts)).t_peak,
}


@dataclass(frozen=True)
class SensitivityRecord:
    """Normalized local sensitivity of one metric to one parameter.

    Entries are elasticities: relative metric change per relative parameter
    change, so values are comparable across parameters and metric scalings.
    """

    param: str
    metric: str
    param_value: float
    base_metric: float
    rel_step: float
    forward: float
    backward: float
    central: float


def local_sensitivity(spec: RunSpec, name: str,
                      metric: str | Callable[[TimeSeries], float] = "degraded_fraction_final",
                      rel_step: float = 0.05) -> SensitivityRecord:
    """One-at-a-time elasticity of a metric with respect to one parameter.

    Runs the spec at the base value and at (1 +/- rel_step) times it, three
    independent runs through :func:`~releasesim.scenario.map_param`, then
    forms forward, backward, and central relative differences, each divided
    by rel_step and the base metric.  A zero base metric yields NaNs rather
    than an error.
    """
    if not 0.0 < rel_step <= 0.5:
        raise ValueError("rel_step must lie in (0, 0.5]")
    if isinstance(metric, str):
        try:
            metric_fn = NAMED_METRICS[metric]
            metric_name = metric
        except KeyError:
            raise ValueError(
                f"unknown metric {metric!r}; choose one of {', '.join(NAMED_METRICS)}"
            ) from None
    else:
        metric_fn = metric
        metric_name = getattr(metric, "__name__", "custom")
    base_value = get_param(spec, name)
    if base_value == 0.0 or not np.isfinite(base_value):  # inf * (1 + rel_step) is inf
        raise ValueError(f"cannot take a relative step from {name} = {base_value:g}")
    outcomes = map_param(lambda ts: float(metric_fn(ts)), spec, name,
                         [base_value, base_value * (1.0 + rel_step), base_value * (1.0 - rel_step)])
    for failure in (m for m in outcomes if isinstance(m, Exception)):
        raise failure
    m0, m_plus, m_minus = outcomes
    for label, m in (("base", m0), ("forward", m_plus), ("backward", m_minus)):
        if not np.isfinite(m):
            raise NumericalError(
                f"metric {metric_name} is non-finite at the {label} point of {name}"
            )
    denom = rel_step * m0
    if denom == 0.0:
        fwd = bwd = ctr = float("nan")
    else:
        fwd = (m_plus - m0) / denom
        bwd = (m0 - m_minus) / denom
        ctr = (m_plus - m_minus) / (2.0 * denom)
    return SensitivityRecord(param=name, metric=metric_name, param_value=base_value,
                             base_metric=m0, rel_step=rel_step,
                             forward=fwd, backward=bwd, central=ctr)
