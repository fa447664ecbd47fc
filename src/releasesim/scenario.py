"""One-stop description of a run: dimensional parameters, grid, stepper.

A :class:`RunSpec` is the unit the CLI, the sweeps, and the sensitivity
probes all operate on.  Parameter edits go through :func:`replace_param`,
which addresses any physical parameter by its flat field name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

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
