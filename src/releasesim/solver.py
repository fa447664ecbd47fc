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

A step is one call of SciPy's CSR matrix-vector kernel for the right-hand
side, one addition of the source, one SuperLU solve and a finiteness test:
a dot product with a zero vector, NaN exactly when an entry is NaN or
infinite (0*inf is NaN).  :func:`march` alone takes steps: a batch of runs,
a lone run (:func:`simulate`) being a batch of one, as one block-diagonal
system, bit for bit as each run's own LU.  The kernel is called directly, not
through ``R @ u``: the operator's dispatch (type, shape and upcast checks)
cost more than the product itself on the grids the CLI runs.  It is the
call ``R @ u`` makes, on the same operands in the same order, so every
answer is bit for bit the operator's; ``tests/test_solver.py::TestKernelStep``
pins that against ``R @ u`` and would catch a SciPy release that changed it.

SciPy is not imported with this module: importing it is more than half of
a command's start-up, which ``--help`` or a config error never need.
:func:`load_scipy` imports it at the first solve and binds the kernel,
SuperLU and the sparse constructors as globals of this module, so
the step calls the kernel by a plain global name.
"""

from __future__ import annotations

import math
import mmap
import operator
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import NumericalError
from .params import DimensionlessParams

# scipy.sparse, SuperLU, the CSR matvec and COO-to-CSR kernels and LAPACK's
# tridiagonal LU solve (for the RK4 oracle); None until load_scipy() binds them.
sp = splu = csr_matvec = coo_tocsr = dgttrs = None


def load_scipy() -> None:
    """Import the SciPy routines the solver and the RK4 oracle call, once,
    as globals of this module.  Everything that solves calls this first;
    :func:`~releasesim.scenario.parallel_map` calls it before it forks, so
    its workers inherit SciPy rather than each importing it."""
    global sp, splu, csr_matvec, coo_tocsr, dgttrs
    if dgttrs is None:  # bound last, so a failed import is retried
        import scipy.sparse as sp
        from scipy.sparse._sparsetools import coo_tocsr, csr_matvec
        from scipy.sparse.linalg import splu
        from scipy.linalg.lapack import dgttrs

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
    l0 = 1.0  # a class constant, not a field: the matrix is the unit of length

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
        if layer == MATRIX:
            return np.linspace(0.0, self.l0, self.nm)
        return np.linspace(self.l0, self.l1, self.nt)

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
    ``theta`` = 0.5 gives the trapezoid scheme, 1.0 implicit Euler; it must lie
    in [0.5, 1], where the scheme is A-stable (README "Numerics" says why).
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
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0.5, 1]: below 0.5 the scheme is stable only "
                             f"for tiny dt on stiff diffusion; got {self.theta}")
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
    return CompositeGrid(nx0=nx0, nx1=nx1, l1=p.l1)


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

    Each part of the operator is stated once, in this order.  1. The rows
    that keep their own balance: every node of every field but, with
    pm = INFINITE, the two free-drug interface nodes (one merged row and the
    tie c0 = sigma*c1) and, with a sink wall, the pinned wall.  2. Free-drug
    diffusion on those rows, by one three-point rule for both layers: a row
    at either end of its layer is a half cell, whose one neighbour counts
    twice (a mirror ghost node).  3. The interface: the membrane flux terms,
    or the merged row.  4. The first-order kinetics, one block of rates
    between the fields at a node, on those rows.  The entries go to CSR in
    one conversion, which adds the entries at one place in the order given:
    a finite-membrane interface diagonal is transport, then membrane, then
    kinetics.
    """
    load_scipy()
    nm, nt, n, h0, h1 = grid.nm, grid.nt, grid.n, grid.h0, grid.h1
    off = {name: grid.field_slice(name).start for name in FIELDS}
    r, q, s = p.solid_rate, p.free_rate, p.bound_rate
    src = p.km * p.c_lim
    m_if = off["c0"] + nm - 1   # matrix free drug at the interface
    t_if = off["c1"]            # tissue free drug at the interface
    entries = []                # (rows, columns, values) of L, in adding order
    ties = {}                   # (row, column) -> value of C
    g = np.zeros(n)

    def add(rows, cols, vals):
        entries.append((np.full(len(cols), rows), cols, np.full(len(cols), vals, dtype=float)))

    # 1. Rows that keep their own balance, as node numbers of each field.
    nodes = {name: np.arange(grid.layer_nodes(layer))
             for name, (_, layer) in FIELD_TABLE.items()}
    if math.isinf(p.pm):
        nodes["c0"], nodes["c1"] = nodes["c0"][:-1], nodes["c1"][1:]
        ties[m_if, m_if], ties[m_if, t_if] = 1.0, -p.sigma
    if outer_bc == SINK:
        nodes["c1"] = nodes["c1"][:-1]
        ties[off["c1"] + nt - 1, off["c1"] + nt - 1] = 1.0

    # 2. Diffusion: (d/h^2) * (u[i-1] - 2 u[i] + u[i+1]), where a neighbour
    # beyond the end of the layer is the mirror of the one inside it.
    for name, d, last in (("c0", 1.0 / h0 ** 2, nm - 1), ("c1", p.d1 / h1 ** 2, nt - 1)):
        i, row = nodes[name], off[name] + nodes[name]
        add(row, row, -2.0 * d)
        neighbours = last - np.abs(last - np.abs(np.concatenate([i - 1, i + 1])))
        add(np.tile(row, 2), off[name] + neighbours, d)

    # 3. Interface coupling at the shared node.
    if math.isinf(p.pm):
        # Perfect contact: the two half-cell balances summed so the membrane
        # flux cancels exactly; the tie c0 = sigma*c1 is a row of C.
        w = 0.5 * (p.sigma * h0 + h1)
        add(t_if, [m_if - 1, m_if, t_if + 1, t_if, off["c0s"] + nm - 1, m_if, off["c1s"], t_if],
            [1.0 / (h0 * w), -1.0 / (h0 * w), p.d1 / (h1 * w), -p.d1 / (h1 * w),
             0.5 * h0 * r / w, -0.5 * h0 * q / w, 0.5 * h1 * p.kd / w, -0.5 * h1 * p.ka / w])
        g[t_if] = 0.5 * h0 * src / w
    else:
        # Finite permeability: flux J = pm*(c0 - sigma*c1) leaves the matrix
        # half cell and enters the tissue half cell.
        add([m_if, m_if, t_if, t_if], [m_if, t_if, m_if, t_if],
            [-2.0 * p.pm / h0, 2.0 * p.pm * p.sigma / h0,
             2.0 * p.pm / h1, -2.0 * p.pm * p.sigma / h1])

    # 4. Kinetics: (row field, column field) -> rate, on the row field's
    # own-balance nodes, and the solubilisation source.
    kinetics = {("c0s", "c0s"): -r, ("c0s", "c0"): q, ("c0", "c0s"): r, ("c0", "c0"): -q,
                ("c1s", "c1"): p.ka, ("c1s", "c1s"): -s, ("c1", "c1s"): p.kd,
                ("c1", "c1"): -p.ka, ("ci", "c1s"): p.ki, ("ci", "ci"): -p.kid}
    entries.append((np.concatenate([off[name] + nodes[name] for name, _ in kinetics]),
                    np.concatenate([off[col] + nodes[name] for name, col in kinetics]),
                    np.repeat([*kinetics.values()], [len(nodes[name]) for name, _ in kinetics])))
    for name, rate in (("c0s", -src), ("c0", src)):
        g[off[name] + nodes[name]] = rate

    rows, cols, vals = (np.concatenate(a) for a in zip(*entries))
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    C = _compressed(sp.csr_matrix, n, *np.reshape(list(ties), (-1, 2)).T,
                    np.array(list(ties.values())))
    return L, g, C


def _kernel_step(R, src, solve):
    """The bare theta step over bound operands: ``R @ u`` by SciPy's CSR
    kernel (see the module docstring), the source, the solve."""
    n = len(src)
    args = (n, n, R.indptr, R.indices, R.data)

    def step(u):
        # R @ u as SciPy forms it: a zeroed vector, then the kernel adds R u into it
        rhs = np.zeros(n)
        csr_matvec(*args, u, rhs)
        rhs += src
        return solve(rhs)
    return step


def _compressed(form, n: int, major, minor, vals):
    """The n x n CSR or CSC ``form`` of the entries at (major, minor), each row
    or column in the order given: SciPy's COO-to-CSR kernel, a counting sort.
    Its indices are C ints, as SciPy and SuperLU store them."""
    ptr, idx, data = np.empty(n + 1, np.intc), np.empty(len(vals), np.intc), np.empty(len(vals))
    coo_tocsr(n, n, len(vals), major.astype(np.intc), minor.astype(np.intc), vals, ptr, idx, data)
    return form((data, idx, ptr), shape=(n, n))


def _step_matrices(L, C, keep, a: float, b: float):
    """A, the kept rows of I - a*L with the rows of C, as CSC, and B, the kept
    rows of I + b*L, as CSR, in O(nnz).  Array for array they are SciPy's
    ``(diags(keep) @ (I - a*L) + C).tocsc()`` and ``diags(keep) @ (I + b*L)``:
    every kept row of L holds its diagonal, exact zeros are dropped, and B
    holds each row's entries in descending column order, as the CSR kernel sums."""
    n = len(keep)
    rows = np.repeat(np.arange(n), np.diff(L.indptr))
    eye, kept = (L.indices == rows).astype(float), keep[rows]
    vals = eye + b * L.data
    on = np.flatnonzero(kept & (vals != 0))[::-1]   # backwards: descending columns
    B = _compressed(sp.csr_matrix, n, rows[on], L.indices[on], vals[on])
    vals, tie = eye - a * L.data, np.flatnonzero(C.data)
    on, c_rows = kept & (vals != 0), np.repeat(np.arange(n), np.diff(C.indptr))[tie]
    at = np.searchsorted(rows[on], c_rows)   # C's rows in their place, for ascending rows
    return _compressed(sp.csc_matrix, n, *(np.insert(x[on], at, y) for x, y in (
        (L.indices, C.indices[tie]), (rows, c_rows), (vals, C.data[tie])))), B


class ThetaStepper:
    """The theta step's operands, bound once: R, the source, the step matrix
    and the COLAMD column order ``_perm_c`` of its LU (not kept), which orders
    the run's block in :func:`_block_diagonal`.  Only :func:`march` steps."""

    def __init__(self, grid: CompositeGrid, p: DimensionlessParams, config: SolverConfig):
        L, g, C = _assemble(grid, p, config.outer_bc)
        keep = np.diff(C.indptr) == 0
        dt, theta = config.dt, config.theta
        self._lhs, self._rhs_mat = _step_matrices(L, C, keep, theta * dt, (1.0 - theta) * dt)
        self._rhs_src = dt * g * keep
        try:
            self._perm_c = splu(self._lhs).perm_c.astype(np.intp)   # a copy: the LU is freed
        except RuntimeError as exc:
            raise NumericalError(
                f"step matrix factorization failed (dt={dt}, theta={theta}): {exc}"
            ) from exc


def _block_diagonal(steppers: list[ThetaStepper]):
    """The steppers' runs, one or more, as one block-diagonal step, and the
    column order of each run's block, as intp: :func:`march` gathers every
    sample by it.  Each block keeps the bits of a loop of its run's own LU
    by the two rules of README "Numerics"."""
    perms, Rs = [s._perm_c for s in steppers], [s._rhs_mat for s in steppers]
    offsets = np.cumsum([0, *map(len, perms)])
    columns = [k + perm[r.indices] for r, perm, k in zip(Rs, perms, offsets)]
    R = sp.csr_matrix((np.concatenate([r.data for r in Rs]), np.concatenate(columns),
                       np.concatenate([[0], *(np.diff(r.indptr) for r in Rs)]).cumsum()),
                      shape=(offsets[-1], offsets[-1]))
    # column j of a run's step matrix is column perm[j] of its block (rule 1)
    lu = splu(_compressed(sp.csc_matrix, offsets[-1], *(np.concatenate(x) for x in zip(*(
        (k + np.repeat(perm, np.diff(s._lhs.indptr)), k + s._lhs.indices, s._lhs.data)
        for s, perm, k in zip(steppers, perms, offsets))))), permc_spec="NATURAL")
    return _kernel_step(R, np.concatenate([s._rhs_src for s in steppers]), lu.solve), perms


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: the times and the packed state at each of them.

    ``u`` is a float64 (samples, ``grid.n``) array, one packed state per
    row, its columns in ``FIELDS`` order.  The field attributes ``c0s`` ...
    ``ci`` are read-only (samples, nodes) views of ``u``.
    """

    times: np.ndarray
    u: np.ndarray
    grid: CompositeGrid
    params: DimensionlessParams
    config: SolverConfig

    def __post_init__(self):
        dtype, n = getattr(self.u, "dtype", None), self.grid.n
        if np.ndim(self.times) != 1 or np.shape(self.u) != (len(self.times), n) or dtype != float:
            raise ValueError(f"need 1-D times and float64 u of shape (len(times), {n}); got "
                             f"shapes {np.shape(self.times)} and {np.shape(self.u)}, u {dtype}")

    def _view(self, name: str) -> np.ndarray:
        view = self.u[:, self.grid.field_slice(name)]
        view.flags.writeable = False
        return view

    c0s = property(lambda self: self._view("c0s"), doc="solid drug, matrix nodes")
    c0 = property(lambda self: self._view("c0"), doc="free drug, matrix nodes")
    c1s = property(lambda self: self._view("c1s"), doc="bound drug, tissue nodes")
    c1 = property(lambda self: self._view("c1"), doc="free drug, tissue nodes")
    ci = property(lambda self: self._view("ci"), doc="internalized drug, tissue nodes")

    def min_values(self) -> dict[str, float]:
        """Most negative entry per field over the whole trajectory."""
        return {name: float(self._view(name).min()) for name in FIELDS}


def prepare(p: DimensionlessParams, grid: CompositeGrid, config: SolverConfig,
            u0: np.ndarray | None = None, t0: float = 0.0):
    """The run :func:`simulate` steps, checked, up to its first step: its
    series, its stepper (None if it takes no step) and its initial state."""
    u = initialize(grid) if u0 is None else np.asarray(u0, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError(f"u0 must have shape ({grid.n},), got {u.shape}")
    times = sample_times(config, t0)
    try:    # shared, so that a process forked after this sees each row as it is stored
        samples = mmap.mmap(-1, len(times) * grid.n * 8)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map {len(times)} samples of {grid.n} unknowns") from exc
    series = TimeSeries(times, np.frombuffer(samples).reshape(len(times), grid.n), grid=grid,
                        params=p, config=config)
    stepper = ThetaStepper(grid, p, config) if len(times) > 1 else None
    if not np.isfinite(u).all():
        raise NumericalError(f"non-finite initial state at t={t0:.6g}")
    return series, stepper, u


def march(runs: list, progress=lambda stored: None) -> list[NumericalError | None]:
    """Step ``runs`` (each from :func:`prepare`, all on one config) into their
    series as one block-diagonal system, a lone run as a batch of one.  Each
    run's failure, or None: a run whose state turns non-finite fails at its
    step's clock, read from its own series, and is zeroed, its samples
    unfinished; the loop stops once all have failed.  No step, no build.
    ``progress(k)`` follows the storing of each sample k - 1 of every run."""
    series, steppers, states = zip(*runs)
    config = series[0].config
    if any(ts.config != config for ts in series):
        raise ValueError("the runs of a batch must share one SolverConfig")
    errors = [None] * len(runs)
    for ts, s in zip(series, states):
        ts.u[0] = s
    progress(1)
    idx = sample_indices(config.n_steps, config.sample_every)
    if len(idx) == 1:
        return errors
    step, perms = _block_diagonal(steppers)
    blocks = [slice(a, b) for a, b in pairwise(np.cumsum([0, *map(len, states)]))]
    # each run's state in its block's column order: entry j at perm[j]
    u = np.concatenate([s[np.argsort(perm)] for s, perm in zip(states, perms)])
    nonfinite = np.zeros(len(u)).dot
    # test every step: at theta = 1 a NaN in a constrained unknown is gone a step later
    with np.errstate(invalid="ignore"):
        for k, (a, b) in enumerate(pairwise(idx), 1):
            for j in range(a + 1, b + 1):
                u = step(u)
                if nonfinite(u):
                    for i, block in enumerate(blocks):
                        if not np.isfinite(u[block]).all():
                            errors[i] = errors[i] or NumericalError(
                                "non-finite solution while advancing to "
                                f"t={series[i].times[0] + j * config.dt:.6g}; reduce dt")
                            u[block] = 0.0
                    if all(errors):
                        return errors
            for ts, block, perm in zip(series, blocks, perms):
                ts.u[k] = u[block][perm]
            progress(k + 1)
    return errors


def simulate_all(runs, progress=lambda stored: None) -> list[TimeSeries]:
    """The series of ``runs`` (each from :func:`prepare`, all on one config),
    stepped as one system by :func:`march` with ``progress``.  It raises the
    first failure in run order, as :func:`simulate` of each in turn would:
    ``runs`` may be a generator that prepares them, and if preparing one
    raises, the runs before it step first."""
    prepared, failure = [], None
    try:
        prepared.extend(runs)
    except Exception as exc:
        failure = exc
    for error in march(prepared, progress) if prepared else ():
        if error:
            raise error
    if failure:
        raise failure
    return [run[0] for run in prepared]


def simulate(p: DimensionlessParams, grid: CompositeGrid, config: SolverConfig,
             u0: np.ndarray | None = None, t0: float = 0.0) -> TimeSeries:
    """Run the theta scheme from the clock ``t0`` over the horizon ``config.t_end``.

    The number of steps is t_end / dt, a whole number; the first and last
    states are always sampled.  ``u0`` is a packed initial state (default
    :func:`initialize`); it is copied, never modified.  With ``t0`` it lets
    a run continue another from its last sample, or start from the closed
    forms' state at some time.  The samples are preallocated, samples x
    unknowns x 8 bytes, in a shared mapping.  Every state the run holds is
    finite, or it raises :class:`NumericalError`, as the initial state at
    ``t0`` for ``u0``, else at the clock of its step: this is
    :func:`simulate_all` of a batch of one.
    """
    return simulate_all([prepare(p, grid, config, u0, t0)])[0]
