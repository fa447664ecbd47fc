"""One-stop description of a run: dimensional parameters, grid, stepper.

A :class:`RunSpec` is the unit the CLI, the sweeps, and the sensitivity
probes all operate on.  Parameter edits go through :func:`replace_param`,
which addresses any physical parameter by its flat field name, and
independent runs go to worker processes through :func:`parallel_map`.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, TypeVar

from .errors import WorkerError
from .params import (DimensionlessParams, InterfaceParams, MatrixParams,
                     TissueParams, nondimensionalize)
from .solver import SolverConfig, TimeSeries, make_grid, simulate


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


def default_spec() -> RunSpec:
    """The reference scenario at the default grid and stepper settings."""
    return RunSpec()


# Flat name -> owning section; every physical field name is unique across the
# three parameter groups, which lets sweeps address them without a prefix.
_PARAM_SECTIONS: dict[str, str] = {}
for _section, _cls in (("matrix", MatrixParams), ("tissue", TissueParams),
                       ("interface", InterfaceParams)):
    for _f in fields(_cls):
        if _f.name in _PARAM_SECTIONS:
            raise RuntimeError(f"duplicate parameter field name {_f.name!r}")
        _PARAM_SECTIONS[_f.name] = _section


def param_names() -> tuple[str, ...]:
    """All flat physical parameter names accepted by :func:`replace_param`."""
    return tuple(sorted(_PARAM_SECTIONS))


def replace_param(spec: RunSpec, name: str, value: float) -> RunSpec:
    """New spec with one physical parameter replaced, addressed by flat name."""
    section = _PARAM_SECTIONS.get(name)
    if section is None:
        raise ValueError(
            f"unknown parameter {name!r}; choose one of {', '.join(param_names())}"
        )
    group = getattr(spec, section)
    return replace(spec, **{section: replace(group, **{name: value})})


def get_param(spec: RunSpec, name: str) -> float:
    section = _PARAM_SECTIONS.get(name)
    if section is None:
        raise ValueError(
            f"unknown parameter {name!r}; choose one of {', '.join(param_names())}"
        )
    return getattr(getattr(spec, section), name)


def run_spec(spec: RunSpec) -> TimeSeries:
    """Nondimensionalize, mesh, and integrate one spec."""
    p = spec.dimensionless()
    grid = make_grid(p, spec.nx0, spec.nx1)
    return simulate(p, grid, spec.solver)


T = TypeVar("T")
R = TypeVar("R")

# The (fn, items) of the parallel_map call in progress.  Forked workers
# inherit it, so only item indices cross to them, and a worker that finds it
# set is inside a call already: its own calls run in-process.
_TASK: tuple[Callable, list] | None = None
# Dedupes the warnings re-issued from workers, as a module's
# ``__warningregistry__`` dedupes them in a serial run.
_WARNING_REGISTRY: dict = {}


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the OS has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_item(i: int) -> tuple:
    """Item ``i`` of the task, in a worker: its result and the warnings it raised."""
    fn, items = _TASK
    with warnings.catch_warnings(record=True) as caught:
        result = fn(items[i])
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``, with each call in a forked worker process.

    One worker per usable CPU, at most one per item.  Results come back in
    item order, and the warnings a worker raised are re-issued here in item
    order, so the caller sees what a serial run gives.  ``fn`` and ``items``
    reach the workers by fork inheritance and need not pickle; the results
    must.  The calls run in-process with one worker, inside a worker (a
    nested call), where the platform cannot fork, and while this process
    runs other threads (a fork copies their locks in whatever state they
    are in).  An exception ``fn`` raises comes back as itself; a worker that
    dies raises :class:`~releasesim.errors.WorkerError`.
    """
    global _TASK
    items = list(items)
    workers = min(len(items), _usable_cpus())
    context = None
    if workers > 1 and _TASK is None and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        return [fn(x) for x in items]
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    _TASK = fn, items
    results = []
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            for result, caught in pool.map(_run_item, range(len(items))):
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno,
                                           registry=_WARNING_REGISTRY)
                results.append(result)
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died: {exc}") from exc
    finally:
        _TASK = None
    return results
