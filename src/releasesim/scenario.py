"""One-stop description of a run: dimensional parameters, grid, stepper.

A :class:`RunSpec` is the unit the CLI, the sweeps, and the sensitivity
probes all operate on.  Parameter edits go through :func:`replace_param`,
which addresses any physical parameter by its flat field name.
Independent runs go to worker processes through :func:`parallel_map`, and
jobs that consume a run's results as it stores them through
:func:`stream_map`.  :func:`map_param` runs a spec over a parameter's values
in contiguous batches, at least one per worker and at most ``BATCH_CAP``
values each; a worker steps a batch's runs as one block-diagonal system
(:func:`~releasesim.solver.march`), bit for bit as each alone.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import Field, dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, TypeVar

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


def run_spec(spec: RunSpec, samples=None, on_sample=lambda k: None) -> TimeSeries:
    """Nondimensionalize, mesh, and integrate one spec (``samples`` and
    ``on_sample`` as for :func:`~releasesim.solver.simulate`)."""
    p = spec.dimensionless()
    grid = make_grid(p, spec.nx0, spec.nx1)
    return simulate(p, grid, spec.solver, samples=samples, on_sample=on_sample)


T = TypeVar("T")
R = TypeVar("R")

# The (fn, items) of the parallel_map or stream_map call in progress.  Forked
# workers inherit it, so only item indices cross to them, and a worker that
# finds it set is inside a call already: its own calls run in-process.
_TASK: tuple[Callable, list] | None = None
# stream_map tells its workers every STREAM_BLOCK-th count.
STREAM_BLOCK = 64


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the OS has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_item(i: int):
    """Item ``i`` of the task, in a worker: its result."""
    fn, items = _TASK
    return fn(items[i])


def _fork_context(workers: int):
    """The fork context for ``workers`` workers, or None: run in-process."""
    if workers > 1 and _TASK is None and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    return None


def _in_workers(context, workers: int, fn: Callable, items, alongside=lambda: None) -> list:
    """``[fn(x) for x in items]`` on forked workers, ``alongside()`` run here meanwhile."""
    global _TASK
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    _TASK = fn, items
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            outcomes = pool.map(_run_item, range(len(items)))
            alongside()
            return list(outcomes)
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died: {exc}") from exc
    finally:
        _TASK = None


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, with each call in a forked worker process.

    One worker per usable CPU, at most one per item.  Results come back in
    item order, as a serial run gives them.  ``fn`` and ``items`` reach the
    workers by fork inheritance and need not pickle; the results must.  The
    calls run in-process with one worker, inside a worker (a nested call),
    where the platform cannot fork, and while this process runs other
    threads (a fork copies their locks in whatever state they are in).  An
    exception ``fn`` raises comes back as itself; a worker that dies raises
    :class:`~releasesim.errors.WorkerError`.  Every job the package maps
    steps the solver, so SciPy is loaded before the fork and the workers
    inherit it.
    """
    items = list(items)
    workers = min(len(items), _usable_cpus())
    context = _fork_context(workers)
    if context is None:
        return [fn(x) for x in items]
    load_scipy()
    return _in_workers(context, workers, fn, items)


def stream_map(fn: Callable[[T, Iterator[int] | None], R], items: Iterable[T],
               produce: Callable[[Callable[[int], None]], object]) -> list[R]:
    """``[fn(x, ready) for x in items]``, one forked worker per item started
    first, while this process runs ``produce(publish)``.

    ``produce`` calls ``publish(k)`` for k = 1, 2, ... as its first k results
    land in shared memory.  ``ready`` yields every ``STREAM_BLOCK``-th k and
    ends when ``produce`` returns (``EOFError`` if it raises).  The workers
    lower their priority, so ``produce`` keeps a CPU.  Otherwise
    :func:`parallel_map`'s rules hold, this process counting as a worker; run
    in-process, ``produce`` goes first and ``ready`` is None.
    """
    items = list(items)
    context = _fork_context(min(len(items) + 1, _usable_cpus()))
    if context is None:
        produce(lambda k: None)
        return [fn(x, None) for x in items]
    pipes = [context.Pipe(duplex=False) for _ in items]

    def send(message) -> None:
        for _, sender in pipes:
            with contextlib.suppress(BrokenPipeError):  # a stopped worker's outcome says why
                sender.send(message)

    def in_worker(i: int):
        os.nice(10)  # this process keeps its CPU; the workers share the rest
        for _, sender in pipes:
            sender.close()
        return fn(items[i], iter(pipes[i][0].recv, None))

    def alongside() -> None:
        for receiver, _ in pipes:
            receiver.close()
        try:
            produce(lambda k: k % STREAM_BLOCK or send(k))
            send(None)
        finally:
            for _, sender in pipes:
                sender.close()
    return _in_workers(context, len(items), in_worker, range(len(items)), alongside)


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
