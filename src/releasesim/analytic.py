"""Closed-form single-mode solutions of the two-layer release model.

Each layer admits a separated solution whose spatial part is a single cosine
mode, cos(a*x) in the matrix and cos(b*x) in the tissue, and whose temporal
part is a pair of decaying exponentials.  The two decay rates per layer are
the roots of a quadratic assembled from the kinetic constants and the mode
wavenumber.  The solid, bound, and internalized fields are then obtained by
integrating their local kinetic balances exactly against those drivers, so
the three non-diffusing fields satisfy their governing balances to round-off
by construction.

Honesty notes, reported rather than hidden by this module:

* The mode amplitudes and wavenumbers are free inputs; a generic (a, b) pair
  does not satisfy flux continuity at the interface.  Use
  :func:`interface_fluxes` to quantify the mismatch.
* The free-drug fields contain no particular solution for the constant
  solubilisation source and no transient matching the uniform initial solid
  loading, so the matrix free-drug balance keeps a nonzero residual whenever
  km * c_lim > 0 (and an initial-transient one regardless).
* The tissue mode rates presume unit dimensionless tissue diffusivity, so
  :func:`residuals` evaluates the tissue free-drug balance in that frame.
* The solid pool relaxes to the negative value -km*c_lim/(alpha0*phi0+beta0);
  nothing here clips it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DimensionlessParams

#: Relative node separation below which confluent (repeated-rate) limiting
#: forms replace the difference quotients.
_RES_TOL = 1e-9


def _ediff(p: float, q: float, t):
    """(exp(-p*t) - exp(-q*t)) / (q - p), continuous across p == q.

    Symmetric in (p, q); the confluent value is t * exp(-p*t).  Factoring the
    smaller rate out keeps every intermediate bounded for nonnegative rates.
    """
    if q < p:
        p, q = q, p
    t = np.asarray(t, dtype=float)
    if q - p <= _RES_TOL * max(abs(p), abs(q), 1e-300):
        mid = 0.5 * (p + q)
        return t * np.exp(-mid * t)
    return -np.expm1(-(q - p) * t) * np.exp(-p * t) / (q - p)


def _ediff_dt(p: float, q: float, t):
    """Time derivative of :func:`_ediff`."""
    if q < p:
        p, q = q, p
    t = np.asarray(t, dtype=float)
    if q - p <= _RES_TOL * max(abs(p), abs(q), 1e-300):
        mid = 0.5 * (p + q)
        return (1.0 - mid * t) * np.exp(-mid * t)
    return np.exp(-p * t) - q * _ediff(p, q, t)


def _ediff2(u: float, v: float, w: float, t):
    """Second divided difference of z -> exp(-z*t) over the nodes (u, v, w).

    Symmetric in its nodes; equals the double convolution of the three decay
    kernels.  Near-coincident nodes fall back to the exact confluent forms.
    """
    z0, z1, z2 = sorted((u, v, w))
    t = np.asarray(t, dtype=float)
    tol = _RES_TOL * max(abs(z0), abs(z2), 1e-300)
    if z2 - z0 <= tol:
        mid = (z0 + z1 + z2) / 3.0
        return 0.5 * t * t * np.exp(-mid * t)
    if z1 - z0 <= z2 - z1:
        if z1 - z0 <= tol:
            a, c = 0.5 * (z0 + z1), z2
            return (t * np.exp(-a * t) - _ediff(a, c, t)) / (c - a)
    elif z2 - z1 <= tol:
        a, c = 0.5 * (z1 + z2), z0
        return (t * np.exp(-a * t) - _ediff(a, c, t)) / (c - a)
    # distinct nodes: recurse on the widest gap for the best conditioning
    return (_ediff(z0, z1, t) - _ediff(z1, z2, t)) / (z2 - z0)


def _ediff2_dt(u: float, v: float, w: float, t):
    """Time derivative of :func:`_ediff2` (Leibniz rule on divided differences)."""
    return -u * _ediff2(u, v, w, t) + _ediff(v, w, t)


@dataclass(frozen=True)
class AnalyticParams:
    """Mode shape of the separated solution: amplitudes and wavenumbers.

    The defaults are not pinned by the model itself; :func:`default_mode`
    picks the quarter-wave numbers for each layer and unit amplitudes.
    """

    a: float               # matrix wavenumber, >= 0
    b: float               # tissue wavenumber, >= 0
    e1: float = 1.0        # matrix mode amplitude
    e2: float = 1.0        # tissue mode amplitude


def default_mode(p: DimensionlessParams) -> AnalyticParams:
    """Quarter-wave mode for each layer: a = pi/(2 l0), b = pi/(2 (l1 - l0))."""
    return AnalyticParams(
        a=math.pi / (2.0 * p.l0),
        b=math.pi / (2.0 * (p.l1 - p.l0)),
        e1=1.0,
        e2=1.0,
    )


@dataclass(frozen=True)
class RatePair:
    """Decay-rate pair of one layer's mode, roots of z**2 - rate_sum*z + rate_prod."""

    rate_sum: float
    rate_prod: float
    slow: float
    fast: float


def _split_rates(rate_sum: float, rate_prod: float) -> tuple[float, float]:
    # Stable real-root extraction: take the magnitude-largest root from the
    # non-cancelling branch, recover the other from the product.
    disc = rate_sum * rate_sum - 4.0 * rate_prod
    if disc < 0.0:
        raise ValueError(
            f"negative mode discriminant {disc:.6g}: rate constants outside the admissible range"
        )
    root = math.sqrt(disc)
    big = 0.5 * (rate_sum + root) if rate_sum >= 0.0 else 0.5 * (rate_sum - root)
    if big == 0.0:
        return 0.0, 0.0
    other = rate_prod / big
    return (other, big) if other <= big else (big, other)


def matrix_rates(p: DimensionlessParams, a: float) -> RatePair:
    """Decay rates of the matrix mode with wavenumber ``a``.

    The mode pair (free, solid) decays with the two roots of

        z**2 - rate_sum * z + rate_prod = 0,
        rate_sum  = alpha0*(phi0 + 1) + km + beta0 + delta0 + a**2 * gamma,
        rate_prod = a**2 * gamma * (alpha0*phi0 + beta0).

    Both roots are real and nonnegative for admissible parameters; a negative
    discriminant (only reachable with negative rate constants) raises.
    """
    if a < 0:
        raise ValueError(f"wavenumber a must be >= 0, got {a}")
    if not p.gamma > 0:
        raise ValueError(f"gamma must be > 0, got {p.gamma}")
    diffusive = a * a * p.gamma
    rate_sum = p.alpha0 * (p.phi0 + 1.0) + p.km + p.beta0 + p.delta0 + diffusive
    rate_prod = diffusive * p.solid_rate
    slow, fast = _split_rates(rate_sum, rate_prod)
    return RatePair(rate_sum=rate_sum, rate_prod=rate_prod, slow=slow, fast=fast)


def tissue_rates(p: DimensionlessParams, b: float) -> RatePair:
    """Decay rates of the tissue mode with wavenumber ``b``.

        rate_sum  = kd + ki + ka + b**2,
        rate_prod = ki*ka + b**2 * (kd + ki),

    with unit dimensionless tissue diffusivity baked into the b**2 terms.
    """
    if b < 0:
        raise ValueError(f"wavenumber b must be >= 0, got {b}")
    rate_sum = p.kd + p.ki + p.ka + b * b
    rate_prod = p.ki * p.ka + b * b * (p.kd + p.ki)
    slow, fast = _split_rates(rate_sum, rate_prod)
    return RatePair(rate_sum=rate_sum, rate_prod=rate_prod, slow=slow, fast=fast)


def eval_matrix(x, t, p: DimensionlessParams, ap: AnalyticParams):
    """Closed-form matrix fields (free, solid) at positions x and times t.

    ``x`` and ``t`` broadcast against each other.  The free field is the pure
    biexponential mode; the solid field integrates its kinetic balance
    exactly against that driver from the uniform initial loading 1, which
    adds a spatially uniform transient and the solubilisation offset.

    Returns (c0, c0s).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < -1e-12) or np.any(x > p.l0 + 1e-12):
        raise ValueError("matrix positions must lie in [0, l0]")
    mr = matrix_rates(p, ap.a)
    r, q = p.solid_rate, p.free_rate
    shape = np.cos(ap.a * x)
    mode = np.exp(-mr.slow * t) - np.exp(-mr.fast * t)
    c0 = ap.e1 * mode * shape
    kin = _ediff(mr.slow, r, t) - _ediff(mr.fast, r, t)
    c0s = np.exp(-r * t) - p.km * p.c_lim * _ediff(r, 0.0, t) + q * ap.e1 * shape * kin
    return c0, c0s


def eval_tissue(x, t, p: DimensionlessParams, ap: AnalyticParams):
    """Closed-form tissue fields (free, bound, internalized) at x and t.

    The free field is the biexponential tissue mode; bound and internalized
    fields are its exact first and second kinetic convolutions (zero initial
    data).  Returns (c1, c1s, ci).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < p.l0 - 1e-12) or np.any(x > p.l1 + 1e-12):
        raise ValueError("tissue positions must lie in [l0, l1]")
    tr = tissue_rates(p, ap.b)
    s = p.bound_rate
    shape = np.cos(ap.b * x)
    mode = np.exp(-tr.slow * t) - np.exp(-tr.fast * t)
    c1 = ap.e2 * mode * shape
    c1s = p.ka * ap.e2 * shape * (_ediff(tr.slow, s, t) - _ediff(tr.fast, s, t))
    ci = p.ki * p.ka * ap.e2 * shape * (
        _ediff2(tr.slow, s, p.kid, t) - _ediff2(tr.fast, s, p.kid, t)
    )
    return c1, c1s, ci


def interface_fluxes(p: DimensionlessParams, ap: AnalyticParams, t):
    """Diffusive flux each layer's mode carries at the interface x = l0.

    Returns (matrix_side, tissue_side): gamma * dC0/dx and d1 * dC1/dx there.
    A generic mode pair does not balance these; the gap is the interface
    defect of the closed-form solution.
    """
    t = np.asarray(t, dtype=float)
    mr = matrix_rates(p, ap.a)
    tr = tissue_rates(p, ap.b)
    slope0 = -ap.e1 * ap.a * math.sin(ap.a * p.l0) * (np.exp(-mr.slow * t) - np.exp(-mr.fast * t))
    slope1 = -ap.e2 * ap.b * math.sin(ap.b * p.l0) * (np.exp(-tr.slow * t) - np.exp(-tr.fast * t))
    return p.gamma * slope0, p.d1 * slope1


def _mode_rates(p: DimensionlessParams, ap: AnalyticParams) -> list[float]:
    """The nonzero decay rates the closed forms carry: both mode pairs and
    the kinetic rates they are convolved with."""
    mr = matrix_rates(p, ap.a)
    tr = tissue_rates(p, ap.b)
    rates = [mr.slow, mr.fast, p.solid_rate, tr.slow, tr.fast, p.bound_rate, p.kid]
    return [v for v in rates if v > 1e-12]


def _default_times(p: DimensionlessParams, ap: AnalyticParams) -> np.ndarray:
    positive = _mode_rates(p, ap)
    horizon = 5.0 / min(positive) if positive else 1.0
    return np.linspace(0.0, min(horizon, 1e3), 41)


def residuals(p: DimensionlessParams, ap: AnalyticParams,
              x_matrix=None, x_tissue=None, t=None) -> dict[str, float]:
    """Max-abs defect of each governing balance under the closed forms.

    Time derivatives are evaluated analytically (exact expressions, not
    finite differences), so the three kinetic balances vanish to round-off
    while the two diffusion balances report their genuine defects:
    ``matrix_free`` retains the solubilisation source and initial-loading
    transient, ``tissue_free`` (evaluated with unit tissue diffusivity, the
    frame of the mode rates) retains the bound-pool start-up transient.

    Sample points default to the interior of each layer and a time range
    resolving the slowest decay.
    """
    if x_matrix is None:
        x_matrix = np.linspace(0.05, 0.95, 9) * p.l0
    if x_tissue is None:
        x_tissue = p.l0 + np.linspace(0.05, 0.95, 9) * (p.l1 - p.l0)
    if t is None:
        t = _default_times(p, ap)
    X0 = np.asarray(x_matrix, dtype=float)[None, :]
    X1 = np.asarray(x_tissue, dtype=float)[None, :]
    T = np.asarray(t, dtype=float)[:, None]

    mr = matrix_rates(p, ap.a)
    tr = tissue_rates(p, ap.b)
    r, q, s = p.solid_rate, p.free_rate, p.bound_rate
    src = p.km * p.c_lim

    c0, c0s = eval_matrix(X0, T, p, ap)
    shape0 = np.cos(ap.a * X0)
    dc0 = ap.e1 * shape0 * (-mr.slow * np.exp(-mr.slow * T) + mr.fast * np.exp(-mr.fast * T))
    dc0s = (-r * np.exp(-r * T)
            - src * _ediff_dt(r, 0.0, T)
            + q * ap.e1 * shape0 * (_ediff_dt(mr.slow, r, T) - _ediff_dt(mr.fast, r, T)))
    res_solid = dc0s - (-r * c0s + q * c0 - src)
    res_mfree = dc0 - (p.gamma * (-ap.a * ap.a) * c0 + r * c0s - q * c0 + src)

    c1, c1s, ci = eval_tissue(X1, T, p, ap)
    shape1 = np.cos(ap.b * X1)
    dc1 = ap.e2 * shape1 * (-tr.slow * np.exp(-tr.slow * T) + tr.fast * np.exp(-tr.fast * T))
    dc1s = p.ka * ap.e2 * shape1 * (_ediff_dt(tr.slow, s, T) - _ediff_dt(tr.fast, s, T))
    dci = p.ki * p.ka * ap.e2 * shape1 * (
        _ediff2_dt(tr.slow, s, p.kid, T) - _ediff2_dt(tr.fast, s, p.kid, T)
    )
    res_bound = dc1s - (p.ka * c1 - s * c1s)
    res_tfree = dc1 - ((-ap.b * ap.b) * c1 - p.ka * c1 + p.kd * c1s)
    res_int = dci - (p.ki * c1s - p.kid * ci)

    return {
        "matrix_solid": float(np.max(np.abs(res_solid))),
        "matrix_free": float(np.max(np.abs(res_mfree))),
        "tissue_bound": float(np.max(np.abs(res_bound))),
        "tissue_free": float(np.max(np.abs(res_tfree))),
        "internalized": float(np.max(np.abs(res_int))),
    }
