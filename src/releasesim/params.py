"""Parameter sets for the two-layer matrix/tissue drug transport model.

The model couples a drug-loaded polymeric matrix slab occupying [0, l0] to a
tissue layer occupying [l0, l1].  Five concentration fields evolve: solid and
free drug in the matrix, free and cell-bound drug in the tissue, and
internalized (lysosomal) drug.  All downstream numerics work on the
dimensionless form produced by :func:`nondimensionalize`:

* positions are scaled by the matrix thickness l0,
* times by the matrix diffusion time l0**2 / D0,
* concentrations by the initial solid-drug loading M.

Under this scaling the matrix diffusivity is exactly 1, so it appears in no
parameter set, the initial loading is 1, and the solubility limit becomes
the ratio c_lim = Clim / M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ValidationError

#: Sentinel permeability for a membrane in perfect contact (no jump resistance).
INFINITE = math.inf


def phi0(k: float, eps0: float) -> float:
    """Solid/free partition factor k * eps0 / (1 - eps0).

    Parameters
    ----------
    k : float
        Partition coefficient, >= 0.
    eps0 : float
        Matrix porosity, strictly inside (0, 1).
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError(f"porosity eps0 must lie strictly inside (0, 1), got {eps0}")
    if not k >= 0.0:
        raise ValueError(f"partition coefficient k must be >= 0, got {k}")
    return k * eps0 / (1.0 - eps0)


@dataclass(frozen=True)
class MatrixParams:
    """Constants of the drug-loaded polymeric matrix layer.

    Units are documentation-level contracts: rates in 1/time, lengths in
    consistent length units, concentrations in amount/volume, diffusivities
    in length**2/time.  Defaults reproduce the reference scenario used by the
    verification suite (which is dimensionless, so the scales are 1).
    """

    alpha0: float = 1.0    # solid <-> free transfer rate
    k: float = 0.5         # partition coefficient
    eps0: float = 0.5      # porosity, in (0, 1)
    km: float = 0.2        # solubilisation mass-transfer coefficient
    c_lim: float = 0.3     # solubility limit of the drug
    beta0: float = 0.1     # solid-drug dissociation rate
    delta0: float = 0.05   # free-drug recrystallisation rate
    d0: float = 1.0        # free-drug diffusivity in the matrix
    l0: float = 1.0        # matrix thickness
    m0: float = 1.0        # initial solid-drug loading


@dataclass(frozen=True)
class TissueParams:
    """Constants of the tissue layer (same unit conventions as MatrixParams)."""

    ka: float = 0.6        # association (binding) rate
    kd: float = 0.2        # dissociation rate
    ki: float = 0.3        # internalization rate
    kid: float = 0.1       # lysosomal degradation rate of internalized drug
    d1: float = 0.5        # free-drug diffusivity in the tissue
    l1: float = 2.0        # outer tissue coordinate, > l0


@dataclass(frozen=True)
class InterfaceParams:
    """Membrane between the layers: flux = pm * (C0 - sigma * C1) at x = l0.

    ``pm = INFINITE`` degrades the flux law to the concentration condition
    C0 = sigma * C1 (perfect contact).  ``pm = 0`` seals the layers off from
    each other.
    """

    pm: float = INFINITE   # membrane permeability (length/time), or INFINITE
    sigma: float = 1.0     # partitioning jump across the membrane


@dataclass(frozen=True)
class DimensionlessParams:
    """Scaled parameter set consumed by the solver and the closed forms.

    Rates carry the time scale l0**2/D0, lengths the scale l0, and
    concentrations the scale M; the three scales are retained so
    :func:`redimensionalize` can invert the mapping exactly.
    """

    alpha0: float
    k: float
    eps0: float
    km: float
    c_lim: float
    beta0: float
    delta0: float
    ka: float
    kd: float
    ki: float
    kid: float
    d1: float              # tissue/matrix diffusivity ratio
    l1: float              # outer coordinate in units of l0
    pm: float
    sigma: float
    length_scale: float = 1.0
    time_scale: float = 1.0
    conc_scale: float = 1.0

    #: matrix thickness, the unit of length: a class constant, not a field
    l0 = 1.0

    @property
    def phi0(self) -> float:
        return phi0(self.k, self.eps0)

    @property
    def solid_rate(self) -> float:
        """Aggregate first-order rate draining the solid pool: alpha0*phi0 + beta0."""
        return self.alpha0 * self.phi0 + self.beta0

    @property
    def free_rate(self) -> float:
        """Aggregate first-order rate draining free matrix drug: alpha0 + km + delta0."""
        return self.alpha0 + self.km + self.delta0

    @property
    def bound_rate(self) -> float:
        """Aggregate first-order rate draining bound tissue drug: kd + ki."""
        return self.kd + self.ki


def nondimensionalize(matrix: MatrixParams, tissue: TissueParams,
                      interface: InterfaceParams) -> DimensionlessParams:
    """Scale a dimensional parameter trio onto the solver's unit system.

    Raises ValidationError if the inputs fail :func:`validate_params`.
    """
    violations = validate_params(matrix, tissue, interface)
    if violations:
        raise ValidationError(violations)
    tau = matrix.l0 ** 2 / matrix.d0
    return DimensionlessParams(
        alpha0=matrix.alpha0 * tau,
        k=matrix.k,
        eps0=matrix.eps0,
        km=matrix.km * tau,
        c_lim=matrix.c_lim / matrix.m0,
        beta0=matrix.beta0 * tau,
        delta0=matrix.delta0 * tau,
        ka=tissue.ka * tau,
        kd=tissue.kd * tau,
        ki=tissue.ki * tau,
        kid=tissue.kid * tau,
        d1=tissue.d1 / matrix.d0,
        l1=tissue.l1 / matrix.l0,
        pm=interface.pm * matrix.l0 / matrix.d0,
        sigma=interface.sigma,
        length_scale=matrix.l0,
        time_scale=tau,
        conc_scale=matrix.m0,
    )


def redimensionalize(p: DimensionlessParams):
    """Invert :func:`nondimensionalize` using the stored scales.

    Returns (MatrixParams, TissueParams, InterfaceParams).  Round-tripping a
    valid trio reproduces every field to within a few ulps.
    """
    tau = p.time_scale
    l0 = p.length_scale
    d0 = l0 ** 2 / tau
    matrix = MatrixParams(
        alpha0=p.alpha0 / tau, k=p.k, eps0=p.eps0, km=p.km / tau,
        c_lim=p.c_lim * p.conc_scale, beta0=p.beta0 / tau,
        delta0=p.delta0 / tau, d0=d0, l0=l0, m0=p.conc_scale,
    )
    tissue = TissueParams(
        ka=p.ka / tau, kd=p.kd / tau, ki=p.ki / tau, kid=p.kid / tau,
        d1=p.d1 * d0, l1=p.l1 * l0,
    )
    interface = InterfaceParams(pm=p.pm * d0 / l0, sigma=p.sigma)
    return matrix, tissue, interface


def _check_finite(prefix: str, obj, out: list, allow_inf=()) -> None:
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.name in allow_inf and v == INFINITE:
            continue
        if not math.isfinite(v):
            out.append(f"{prefix}.{f.name}: must be finite, got {v}")


def validate_params(matrix=None, tissue=None, interface=None) -> list[str]:
    """Report invariant violations as human-readable strings (empty == valid).

    A non-finite field is reported once, as not finite: the range checks and
    the cross-layer one (l1 > l0, when both layer sets are supplied) read
    only finite values.  This reports rather than raises so callers can
    collect every problem in one pass; :func:`nondimensionalize` raises.
    """
    out: list[str] = []
    if matrix is not None:
        _check_finite("matrix", matrix, out)
        for name in ("alpha0", "k", "km", "c_lim", "beta0", "delta0"):
            v = getattr(matrix, name)
            if math.isfinite(v) and v < 0:
                out.append(f"matrix.{name}: must be >= 0, got {v}")
        if math.isfinite(matrix.eps0) and not 0.0 < matrix.eps0 < 1.0:
            out.append(f"matrix.eps0: porosity must lie strictly inside (0, 1), got {matrix.eps0}")
        for name in ("d0", "l0", "m0"):
            v = getattr(matrix, name)
            if math.isfinite(v) and v <= 0:
                out.append(f"matrix.{name}: must be > 0, got {v}")
    if tissue is not None:
        _check_finite("tissue", tissue, out)
        for name in ("ka", "kd", "ki", "kid"):
            v = getattr(tissue, name)
            if math.isfinite(v) and v < 0:
                out.append(f"tissue.{name}: must be >= 0, got {v}")
        for name in ("d1", "l1"):
            v = getattr(tissue, name)
            if math.isfinite(v) and v <= 0:
                out.append(f"tissue.{name}: must be > 0, got {v}")
        if matrix is not None and -math.inf < tissue.l1 <= matrix.l0 < math.inf:
            out.append(f"tissue.l1: outer coordinate must exceed matrix.l0={matrix.l0}, got {tissue.l1}")
    if interface is not None:
        _check_finite("interface", interface, out, allow_inf=("pm",))
        # pm = 0 is admitted: it seals the membrane and decouples the layers.
        if math.isfinite(interface.pm) and interface.pm < 0:
            out.append(f"interface.pm: must be >= 0 or INFINITE, got {interface.pm}")
        if math.isfinite(interface.sigma) and interface.sigma <= 0:
            out.append(f"interface.sigma: must be > 0, got {interface.sigma}")
    return out
