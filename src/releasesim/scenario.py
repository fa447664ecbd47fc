"""One-stop description of a run: dimensional parameters, grid, stepper.

A :class:`RunSpec` is the unit the CLI, the sweeps, and the sensitivity
probes all operate on.  Parameter edits go through :func:`replace_param`,
which addresses any physical parameter by its flat field name.
Independent runs go to worker processes through :func:`parallel_map`, which
forks them itself and hands them the items one at a time; :func:`beside`
forks one process that works beside this one, as the CLI's ``simulate``
writes its trajectory files beside its time loop.
:func:`map_param` runs a spec over a parameter's values in contiguous
batches, at least one per worker and at most ``BATCH_CAP`` values each; a
worker steps a batch's runs as one block-diagonal system
(:func:`~releasesim.solver.march`), bit for bit as each alone.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import sys
import threading
from dataclasses import Field, dataclass, field, fields, replace
from typing import Callable, Iterable, TypeVar

from .analytic import AnalyticParams
from .errors import NumericalError, WorkerError
from .params import (DimensionlessParams, InterfaceParams, MatrixParams,
                     TissueParams, nondimensionalize)
from .solver import (SolverConfig, TimeSeries, load_scipy, make_grid, march, prepare,
                     simulate)


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation."""

    matrix: MatrixParams = field(default_factory=MatrixParams)
    tissue: TissueParams = field(default_factory=TissueParams)
    interface: InterfaceParams = field(default_factory=InterfaceParams)
    nx0: int = 64
    nx1: int = 64
    solver: SolverConfig = field(default_factory=SolverConfig)

    def dimensionless(self) -> DimensionlessParams:
        return nondimensionalize(self.matrix, self.tissue, self.interface)


# Each config section's fields: its dataclass's, for "grid" RunSpec's own cell
# counts, and for "analytic" the closed-form mode's, which no RunSpec carries.
CONFIG_FIELDS: dict[str, tuple[Field, ...]] = {
    "matrix": fields(MatrixParams),
    "tissue": fields(TissueParams),
    "interface": fields(InterfaceParams),
    "grid": tuple(f for f in fields(RunSpec) if f.name in ("nx0", "nx1")),
    "solver": fields(SolverConfig),
    "analytic": fields(AnalyticParams),
}

# Flat name -> owning section; every physical field name is unique across the
# three parameter groups, which lets sweeps address them without a prefix.
_GROUPS = ("matrix", "tissue", "interface")
_PARAM_SECTIONS = {f.name: section for section in _GROUPS for f in CONFIG_FIELDS[section]}
if len(_PARAM_SECTIONS) < sum(len(CONFIG_FIELDS[section]) for section in _GROUPS):
    raise RuntimeError("a parameter field name is used in two parameter groups")


def param_names() -> tuple[str, ...]:
    """All flat physical parameter names accepted by :func:`replace_param`."""
    return tuple(sorted(_PARAM_SECTIONS))


def _section(name: str) -> str:
    """The parameter group that owns the flat name ``name``."""
    section = _PARAM_SECTIONS.get(name)
    if section is None:
        raise ValueError(
            f"unknown parameter {name!r}; choose one of {', '.join(param_names())}"
        )
    return section


def replace_param(spec: RunSpec, name: str, value: float) -> RunSpec:
    """New spec with one physical parameter replaced, addressed by flat name."""
    section = _section(name)
    return replace(spec, **{section: replace(getattr(spec, section), **{name: value})})


def get_param(spec: RunSpec, name: str) -> float:
    return getattr(getattr(spec, _section(name)), name)


def run_spec(spec: RunSpec) -> TimeSeries:
    """Nondimensionalize, mesh, and integrate one spec."""
    p = spec.dimensionless()
    return simulate(p, make_grid(p, spec.nx0, spec.nx1), spec.solver)


T = TypeVar("T")
R = TypeVar("R")

# The (fn, items) of the parallel_map call in progress.  Forked workers
# inherit it, so only item indices cross to them, and a worker that finds it
# set is inside a call already: its own calls run in-process.
_TASK: tuple[Callable, list] | None = None


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the OS has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork(workers: int) -> bool:
    """Whether ``workers`` may run as forked processes: at least two, as many
    usable CPUs, not inside a worker (a nested call), no other thread running
    (a fork copies their locks in whatever state they are in), and a
    platform that forks."""
    return (min(workers, _usable_cpus()) > 1 and _TASK is None
            and threading.active_count() == 1 and hasattr(os, "fork"))


def _flush_std_streams() -> None:
    """Flush stdout and stderr, so that a fork copies no unwritten output."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass    # absent, closed or broken: nothing to copy


def _send(out, i: int, call: Callable[[], object]) -> None:
    """Write ``(i, ok, result or exception)`` of ``call()`` to the pipe file
    ``out`` as one pickle."""
    try:
        outcome = i, True, call()
    except Exception as exc:        # it goes back to the caller, as itself
        outcome = i, False, exc
    try:
        data = pickle.dumps(outcome)
    except Exception as exc:        # a result or exception that does not pickle
        data = pickle.dumps((i, False, exc))
    out.write(data)
    out.flush()


def _work(next_item, fd: int) -> None:
    """A forked worker's jobs: it takes the task's item indices from the
    shared counter ``next_item`` until none is left, and sends each one's
    outcome to the pipe ``fd``."""
    fn, items = _TASK
    with open(fd, "wb") as out:
        while True:
            with next_item.get_lock():
                i = next_item.value
                next_item.value = i + 1
            if i >= len(items):
                return
            _send(out, i, lambda: fn(items[i]))


def _fork(child: Callable[[int], None]) -> tuple[int, int]:
    """(read end of its pipe, pid) of a forked child that runs ``child`` on
    the pipe's write end, then exits, 0 if it returned."""
    _flush_std_streams()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            child(w)
            code = 0
        finally:
            try:
                _flush_std_streams()
            finally:
                os._exit(code)      # never back into the caller's code
    os.close(w)
    return r, pid


def _collect(running: dict[int, int], n: int) -> list[tuple[bool, object]]:
    """The ``(ok, result or exception)`` of each of ``n`` items, in item
    order, from the workers of ``running`` (read end of its pipe -> pid).
    Each worker is reaped, its pipe closed and its entry removed as its pipe
    reaches its end; one that did not exit 0 raises WorkerError."""
    import selectors
    received = {fd: [] for fd in running}
    outcomes = [None] * n
    with selectors.DefaultSelector() as selector:
        for fd in running:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    received[key.fd].append(chunk)
                    continue
                selector.unregister(key.fd)
                status = os.waitpid(running[key.fd], 0)[1]
                del running[key.fd]
                os.close(key.fd)
                code = os.waitstatus_to_exitcode(status)
                if code:
                    raise WorkerError(f"a worker process died with exit code {code}")
                data = b"".join(received.pop(key.fd))
                stream = io.BytesIO(data)
                while stream.tell() < len(data):
                    i, ok, value = pickle.load(stream)
                    outcomes[i] = ok, value
    return outcomes


def _stop(running: dict[int, int]) -> None:
    """Kill, reap and close the pipes of ``running``'s unreaped workers."""
    import signal
    for pid in running.values():
        os.kill(pid, signal.SIGKILL)    # unreaped, so this pid is still the worker's
    for fd, pid in running.items():
        os.waitpid(pid, 0)
        os.close(fd)


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, with each call in a forked worker process.

    One worker per usable CPU, at most one per item.  The items go out one
    at a time, in item order, to whichever worker is free; the results come
    back in item order, as a serial run gives them.  ``fn`` and ``items``
    reach the workers by fork inheritance and need not pickle; the results
    must.  The calls run in-process with one worker, inside a worker (a
    nested call), where the platform cannot fork, and while this process
    runs other threads (a fork copies their locks in whatever state they are
    in).  An exception ``fn`` raises comes back as itself, the first one in
    item order once every item has run; a worker that dies raises
    :class:`~releasesim.errors.WorkerError`.  Every worker is reaped before
    this returns or raises, whatever it raises.  Every job the package maps
    steps the solver, so SciPy is loaded before the fork and the workers
    inherit it.
    """
    global _TASK
    items = list(items)
    workers = min(len(items), _usable_cpus())
    if not can_fork(workers):
        return [fn(x) for x in items]
    load_scipy()
    import multiprocessing
    next_item = multiprocessing.get_context("fork").Value("q", 0)
    running: dict[int, int] = {}    # read end of an unreaped worker's pipe -> its pid
    _TASK = fn, items
    try:
        for _ in range(workers):
            fd, pid = _fork(lambda w: _work(next_item, w))
            running[fd] = pid
        outcomes = _collect(running, len(items))
    finally:
        _TASK = None
        _stop(running)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def beside(work: Callable[[Callable[[int], None]], object],
           child: Callable[[Callable[[int], None]], R]) -> R:
    """``child(wait)``, called in one process forked beside this one (see
    :func:`can_fork`) while this one calls ``work(progress)``.  ``wait(k)``
    returns once the work has called ``progress(k)``: a pipe write, which
    orders the work's stores to a shared mapping before the child's loads.
    The child's exception comes back as itself once the work is done or finds
    the child gone; a child that dies raises WorkerError.  The child is
    reaped before this returns or raises, whatever it raises."""
    read, write = os.pipe()
    running: dict[int, int] = {}    # read end of the child's pipe -> its pid

    def in_child(fd: int) -> None:
        os.close(write)
        done = [0]

        def wait(k: int) -> None:
            while done[0] < k:
                counts = os.read(read, 1 << 16)     # whole 8-byte counts: each is one write
                if not counts:
                    raise WorkerError(f"the work stopped after {done[0]} units")
                done[0] = int.from_bytes(counts[-8:], "little")
        with open(fd, "wb") as out:
            _send(out, 0, lambda: child(wait))
    try:
        with open(write, "wb", buffering=0) as progress:
            try:
                running.update([_fork(in_child)])
            finally:
                os.close(read)
            with contextlib.suppress(BrokenPipeError):   # the child is gone: its outcome says why
                work(lambda k: progress.write(k.to_bytes(8, "little")))
        [(ok, value)] = _collect(running, 1)
    finally:
        _stop(running)
    if not ok:
        raise value
    return value


#: Most runs one worker steps together: it bounds a batch's samples in
#: memory, and the gain of batching levels off there.
BATCH_CAP = 8
#: What a run can raise that is its own failure, not its caller's.
RUN_ERRORS = (ValueError, NumericalError, ZeroDivisionError, OverflowError)


def _run_batch(fn: Callable[[TimeSeries], R], spec: RunSpec, name: str, values: list) -> list:
    """``fn`` of each value's run, or its failure; the runs step together."""
    outcomes = []
    for v in values:
        try:
            varied = replace_param(spec, name, v)
            p = varied.dimensionless()
            outcomes.append(prepare(p, make_grid(p, varied.nx0, varied.nx1), varied.solver))
        except RUN_ERRORS as exc:
            outcomes.append(exc)
    built = [i for i, run in enumerate(outcomes) if not isinstance(run, Exception)]
    for i, error in zip(built, march([outcomes[i] for i in built]) if built else ()):
        try:
            outcomes[i] = error or fn(outcomes[i][0])
        except RUN_ERRORS as exc:
            outcomes[i] = exc
    return outcomes


def map_param(fn: Callable[[TimeSeries], R], spec: RunSpec, name: str, values) -> list:
    """``fn(run_spec(replace_param(spec, name, v)))`` for each of ``values``,
    in order, or the ``RUN_ERRORS`` exception that the run or ``fn`` raised.
    :func:`parallel_map` takes max(workers, ceil(N / ``BATCH_CAP``))
    contiguous batches of near-equal size, and each batch's runs step together.
    """
    values = list(values)
    n = max(1, min(len(values), _usable_cpus()), -(-len(values) // BATCH_CAP))
    batches = [values[i * len(values) // n:(i + 1) * len(values) // n] for i in range(n)]
    return [outcome for batch in parallel_map(lambda b: _run_batch(fn, spec, name, b), batches)
            for outcome in batch]
