"""Theta-scheme finite-volume solver for the coupled two-layer system.

Each layer carries its own uniform vertex-centered grid; the interface
x = l0 is a node of both.  Diffusing fields use the standard three-point
stencil with mirror-ghost closures at zero-flux boundaries.  The membrane
flux J = pm*(c0 - sigma*c1) enters the half cells on either side of the
interface, which makes the scheme exactly conservative: summing the
trapezoid-weighted semi-discrete equations telescopes every internal flux,
leaving only boundary outflow and the lysosomal sink.  With pm = INFINITE
the two interface unknowns are tied by the algebraic row c0 = sigma*c1 and
the two half-cell balances are summed into one conservative row.

All five fields advance in a single linear solve per step,

    (I - theta*dt*L) u(n+1) = (I + (1-theta)*dt*L) u(n) + dt*g,

with algebraic rows (interface tie, sink boundary) imposed exactly at the
new time level.  The step matrix is factorized once per
(params, grid, config) and reused by every step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError
from .params import DimensionlessParams

ZERO_FLUX = "zero-flux"
SINK = "sink"
MATRIX = "matrix"
TISSUE = "tissue"

#: Each field of the packed state vector, in its packed order, with its
#: answer-file label and its layer: solid and free drug on the matrix nodes,
#: then bound, free and internalized drug on the tissue nodes.
FIELD_TABLE = {
    "c0s": ("C0_star", MATRIX),
    "c0": ("C0", MATRIX),
    "c1s": ("C1_star", TISSUE),
    "c1": ("C1", TISSUE),
    "ci": ("Ci", TISSUE),
}
FIELDS = tuple(FIELD_TABLE)
#: (field, label) of each field on a layer's nodes, in packed order.
LAYER_FIELDS = {layer: [(name, label) for name, (label, lay) in FIELD_TABLE.items()
                        if lay == layer] for layer in (MATRIX, TISSUE)}


def _require_int(name: str, value) -> None:
    """Reject a count that is not an integer (``np.int64`` is one)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class CompositeGrid:
    """Two abutting uniform node grids sharing the interface at x = l0 = 1.

    ``nx0`` and ``nx1`` count cells, so the layers carry nx0+1 and nx1+1
    nodes; the last matrix node and the first tissue node sit at the same
    location.
    """

    nx0: int
    nx1: int
    l1: float = 2.0
    l0: float = 1.0

    def __post_init__(self):
        _require_int("nx0", self.nx0)
        _require_int("nx1", self.nx1)
        if self.nx0 < 4 or self.nx1 < 4:
            raise ValueError(f"need at least 4 cells per layer, got nx0={self.nx0}, nx1={self.nx1}")
        if not self.l1 > self.l0:
            raise ValueError(f"outer coordinate l1={self.l1} must exceed l0={self.l0}")

    @property
    def nm(self) -> int:
        return self.nx0 + 1

    @property
    def nt(self) -> int:
        return self.nx1 + 1

    def layer_nodes(self, layer: str) -> int:
        """Node count of ``layer``, and so of each field on it."""
        return self.nm if layer == MATRIX else self.nt

    def layer_x(self, layer: str) -> np.ndarray:
        """Node positions of ``layer``, and so of each field on it."""
        return self.x_matrix if layer == MATRIX else self.x_tissue

    @property
    def n(self) -> int:
        """Unknowns of the packed state vector."""
        return sum(self.layer_nodes(layer) for _, layer in FIELD_TABLE.values())

    def field_slice(self, name: str) -> slice:
        """Where field ``name`` sits in a packed state vector."""
        k = FIELDS.index(name)
        sizes = [self.layer_nodes(layer) for _, layer in FIELD_TABLE.values()]
        start = sum(sizes[:k])
        return slice(start, start + sizes[k])

    @property
    def h0(self) -> float:
        return self.l0 / self.nx0

    @property
    def h1(self) -> float:
        return (self.l1 - self.l0) / self.nx1

    @property
    def x_matrix(self) -> np.ndarray:
        return np.linspace(0.0, self.l0, self.nm)

    @property
    def x_tissue(self) -> np.ndarray:
        return np.linspace(self.l0, self.l1, self.nt)

    def layer_weights(self, layer: str) -> np.ndarray:
        """Trapezoid quadrature weights on the nodes of ``layer``."""
        h = self.h0 if layer == MATRIX else self.h1
        w = np.full(self.layer_nodes(layer), h)
        w[0] = w[-1] = 0.5 * h
        return w


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping controls.

    ``t_end`` is the horizon measured from the initial clock;
    ``theta`` = 0.5 gives the trapezoid scheme, 1.0 implicit Euler.
    ``t_end`` must be a whole number of steps of ``dt`` (to 1e-9 relative),
    so every run ends exactly at the horizon asked for.  Sampling keeps
    every ``sample_every``-th step plus the first and last.
    """

    dt: float = 0.01
    t_end: float = 80.0
    theta: float = 0.5
    outer_bc: str = ZERO_FLUX
    sample_every: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt is not finite: t_end={self.t_end!r}, dt={self.dt!r}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end!r} is not a whole number of steps "
                             f"of dt={self.dt!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.outer_bc not in (ZERO_FLUX, SINK):
            raise ValueError(f"outer_bc must be '{ZERO_FLUX}' or '{SINK}', got {self.outer_bc!r}")
        _require_int("sample_every", self.sample_every)
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")

    @property
    def n_steps(self) -> int:
        """Steps to the horizon, t_end / dt (a whole number)."""
        return int(round(self.t_end / self.dt))


def sample_indices(n_steps: int, sample_every: int) -> np.ndarray:
    """Sampled step numbers: every ``sample_every``-th step plus the first
    and last."""
    idx = np.arange(0, n_steps + 1, sample_every)
    return idx if idx[-1] == n_steps else np.append(idx, n_steps)


def sample_times(config: SolverConfig, t0: float = 0.0) -> np.ndarray:
    """Clock of the sampled steps, t0 + j*dt for each sampled step j: not an
    accumulated clock, so sample times are free of summation drift."""
    return t0 + sample_indices(config.n_steps, config.sample_every).astype(float) * config.dt


def make_grid(p: DimensionlessParams, nx0: int, nx1: int) -> CompositeGrid:
    return CompositeGrid(nx0=nx0, nx1=nx1, l1=p.l1, l0=p.l0)


def initialize(grid: CompositeGrid) -> np.ndarray:
    """Packed initial state: uniform unit solid loading, every other field zero."""
    u = np.zeros(grid.n)
    u[grid.field_slice("c0s")] = 1.0
    return u


def _assemble(grid: CompositeGrid, p: DimensionlessParams, outer_bc: str):
    """Semi-discrete system du/dt = L u + g plus algebraic constraint rows.

    Returns (L, g, C): each nonzero row of C is an algebraic constraint
    C u = 0 with unit diagonal, which replaces the ODE of its row and is
    imposed exactly at the new time level.
    """
    nm, nt, n = grid.nm, grid.nt, grid.n
    h0, h1 = grid.h0, grid.h1
    o_c0s, o_c0, o_c1s, o_c1, o_ci = (grid.field_slice(name).start for name in FIELDS)
    r, q, s = p.solid_rate, p.free_rate, p.bound_rate
    src = p.km * p.c_lim
    dm = 1.0 / h0 ** 2
    dt_ = p.d1 / h1 ** 2

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    g = np.zeros(n)
    C = sp.lil_matrix((n, n))

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    # Solid pool: local kinetics at every matrix node.
    for i in range(nm):
        add(o_c0s + i, o_c0s + i, -r)
        add(o_c0s + i, o_c0 + i, q)
        g[o_c0s + i] = -src

    # Free matrix drug: diffusion with mirror ghost at x = 0.
    for i in range(nm - 1):
        row = o_c0 + i
        if i == 0:
            add(row, o_c0 + 1, 2.0 * dm)
            add(row, o_c0, -2.0 * dm)
        else:
            add(row, o_c0 + i - 1, dm)
            add(row, o_c0 + i, -2.0 * dm)
            add(row, o_c0 + i + 1, dm)
        add(row, o_c0s + i, r)
        add(row, o_c0 + i, -q)
        g[row] = src

    # Bound and internalized pools: local kinetics at every tissue node.
    for i in range(nt):
        add(o_c1s + i, o_c1 + i, p.ka)
        add(o_c1s + i, o_c1s + i, -s)
        add(o_ci + i, o_c1s + i, p.ki)
        add(o_ci + i, o_ci + i, -p.kid)

    # Free tissue drug, interior nodes.
    for i in range(1, nt - 1):
        row = o_c1 + i
        add(row, o_c1 + i - 1, dt_)
        add(row, o_c1 + i, -2.0 * dt_)
        add(row, o_c1 + i + 1, dt_)
        add(row, o_c1s + i, p.kd)
        add(row, o_c1 + i, -p.ka)

    # Interface coupling at the shared node.
    m_if = o_c0 + nm - 1   # matrix free drug at the interface
    t_if = o_c1            # tissue free drug at the interface
    if math.isinf(p.pm):
        # Perfect contact: algebraic tie c0 = sigma*c1, plus the two
        # half-cell balances summed so the membrane flux cancels exactly.
        C[m_if, m_if], C[m_if, t_if] = 1.0, -p.sigma
        w = 0.5 * (p.sigma * h0 + h1)
        add(t_if, o_c0 + nm - 2, 1.0 / (h0 * w))
        add(t_if, m_if, -1.0 / (h0 * w))
        add(t_if, o_c1 + 1, p.d1 / (h1 * w))
        add(t_if, t_if, -p.d1 / (h1 * w))
        add(t_if, o_c0s + nm - 1, 0.5 * h0 * r / w)
        add(t_if, m_if, -0.5 * h0 * q / w)
        add(t_if, o_c1s, 0.5 * h1 * p.kd / w)
        add(t_if, t_if, -0.5 * h1 * p.ka / w)
        g[t_if] = 0.5 * h0 * src / w
    else:
        # Finite permeability: flux J = pm*(c0 - sigma*c1) leaves the matrix
        # half cell and enters the tissue half cell.
        add(m_if, o_c0 + nm - 2, 2.0 * dm)
        add(m_if, m_if, -2.0 * dm)
        add(m_if, m_if, -2.0 * p.pm / h0)
        add(m_if, t_if, 2.0 * p.pm * p.sigma / h0)
        add(m_if, o_c0s + nm - 1, r)
        add(m_if, m_if, -q)
        g[m_if] = src
        add(t_if, o_c1 + 1, 2.0 * dt_)
        add(t_if, t_if, -2.0 * dt_)
        add(t_if, m_if, 2.0 * p.pm / h1)
        add(t_if, t_if, -2.0 * p.pm * p.sigma / h1)
        add(t_if, o_c1s, p.kd)
        add(t_if, t_if, -p.ka)

    # Outer boundary.
    row = o_c1 + nt - 1
    if outer_bc == ZERO_FLUX:
        add(row, o_c1 + nt - 2, 2.0 * dt_)
        add(row, row, -2.0 * dt_)
        add(row, o_c1s + nt - 1, p.kd)
        add(row, row, -p.ka)
    else:  # SINK: pinned concentration
        C[row, row] = 1.0

    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return L, g, C.tocsr()


# Round-off allowance of the stability test (spectral radius, disc reach).
_STABLE_TOL = 1e-9


def _check_stable(grid: CompositeGrid, L, C, free, dt: float, theta: float) -> None:
    """Refuse a theta < 1/2 step whose step matrix has spectral radius above 1.

    With each constrained unknown solved from its row of C, the scheme steps
    the ``free`` unknowns by a matrix L_r.  An eigenvalue z of dt*L_r gives
    (1 + (1-theta)*z) / (1 - theta*z), at most 1 in modulus exactly on the
    disc of centre -c and radius c, c = 1/(1 - 2*theta).  Gershgorin column
    discs of dt*L_r, weighted by each unknown's drug mass, that all lie in
    that disc prove stability; else the eigenvalues of L_r decide.
    """
    solve = sp.identity(L.shape[0], format="csr") - C
    w = (solve.T @ np.concatenate([grid.layer_weights(layer)
                                   for _, layer in FIELD_TABLE.values()]))[free]
    z = (dt * (L @ solve))[free][:, free]
    centre, c = z.diagonal(), 1.0 / (1.0 - 2.0 * theta)
    if np.all(np.abs(centre + c) + (abs(z).T @ w) / w - np.abs(centre) <= c + _STABLE_TOL):
        return
    z = np.linalg.eigvals(z.toarray())
    rho = float(np.max(np.abs((1.0 + (1.0 - theta) * z) / (1.0 - theta * z))))
    if rho > 1.0 + _STABLE_TOL:
        raise NumericalError(f"theta={theta} with dt={dt} is unstable: the step matrix has "
                             f"spectral radius {rho:.6g} > 1; reduce dt or use theta >= 0.5")


class ThetaStepper:
    """One-step propagator; factorizes the step matrix once and reuses it."""

    def __init__(self, grid: CompositeGrid, p: DimensionlessParams, config: SolverConfig):
        L, g, C = _assemble(grid, p, config.outer_bc)
        keep = (C.getnnz(axis=1) == 0).astype(float)
        keep_diag = sp.diags(keep)
        eye = sp.identity(L.shape[0], format="csr")
        dt, theta = config.dt, config.theta
        if theta < 0.5:
            _check_stable(grid, L, C, np.flatnonzero(keep), dt, theta)
        lhs = keep_diag @ (eye - theta * dt * L) + C
        self._rhs_mat = (keep_diag @ (eye + (1.0 - theta) * dt * L)).tocsr()
        self._rhs_src = dt * g * keep
        try:
            self._lu = splu(lhs.tocsc())
        except RuntimeError as exc:
            raise NumericalError(
                f"step matrix factorization failed (dt={dt}, theta={theta}): {exc}"
            ) from exc

    def advance(self, u: np.ndarray, t_new: float) -> np.ndarray:
        """One step of the packed state vector ``u`` (left untouched) to the
        clock ``t_new``, which only labels a failure; returns a new vector."""
        u_new = self._lu.solve(self._rhs_mat @ u + self._rhs_src)
        if not np.isfinite(u_new).all():
            raise NumericalError(f"non-finite solution while advancing to t={t_new:.6g}; reduce dt")
        return u_new


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: the times and the packed state at each of them.

    ``u`` has shape (samples, ``grid.n``), one packed state per row, its
    columns in ``FIELDS`` order.  The field attributes ``c0s`` ... ``ci`` are
    read-only (samples, nodes) views of ``u``.
    """

    times: np.ndarray
    u: np.ndarray
    grid: CompositeGrid
    params: DimensionlessParams
    config: SolverConfig

    def __post_init__(self):
        if np.ndim(self.times) != 1 or np.shape(self.u) != (len(self.times), self.grid.n):
            raise ValueError(f"need 1-D times and u of shape (len(times), {self.grid.n}); got "
                             f"shapes {np.shape(self.times)} and {np.shape(self.u)}")

    def _view(self, name: str) -> np.ndarray:
        view = self.u[:, self.grid.field_slice(name)]
        view.flags.writeable = False
        return view

    c0s = property(lambda self: self._view("c0s"), doc="solid drug, matrix nodes")
    c0 = property(lambda self: self._view("c0"), doc="free drug, matrix nodes")
    c1s = property(lambda self: self._view("c1s"), doc="bound drug, tissue nodes")
    c1 = property(lambda self: self._view("c1"), doc="free drug, tissue nodes")
    ci = property(lambda self: self._view("ci"), doc="internalized drug, tissue nodes")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def min_values(self) -> dict[str, float]:
        """Most negative entry per field over the whole trajectory."""
        return {name: float(self._view(name).min()) for name in FIELDS}


def simulate(p: DimensionlessParams, grid: CompositeGrid, config: SolverConfig,
             u0: np.ndarray | None = None, t0: float = 0.0,
             samples: np.ndarray | None = None, on_sample=lambda k: None) -> TimeSeries:
    """Run the theta scheme from the clock ``t0`` over the horizon ``config.t_end``.

    The number of steps is t_end / dt, a whole number; the first and last
    states are always sampled.  ``u0`` is a packed initial state (default
    :func:`initialize`); it is copied, never modified.  Starting from
    arbitrary fields and clock is what the cross-verification against the
    closed forms relies on.  The samples are preallocated, samples x
    unknowns x 8 bytes, or are the caller's ``samples`` array of that shape.
    ``on_sample(k)`` is called each time the first ``k`` samples are stored.
    """
    u = initialize(grid) if u0 is None else np.asarray(u0, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError(f"u0 must have shape ({grid.n},), got {u.shape}")
    idx = sample_indices(config.n_steps, config.sample_every)
    if samples is None:
        samples = np.empty((len(idx), grid.n))
    samples[0] = u
    on_sample(1)
    if len(idx) > 1:
        stepper = ThetaStepper(grid, p, config)
        advance, dt = stepper.advance, config.dt
        for k in range(1, len(idx)):
            for j in range(idx[k - 1] + 1, idx[k] + 1):
                u = advance(u, t0 + j * dt)
            samples[k] = u
            on_sample(k + 1)
    return TimeSeries(sample_times(config, t0), samples, grid=grid, params=p, config=config)
