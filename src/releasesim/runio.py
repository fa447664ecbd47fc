"""Config files, answer files, and the run manifest.

All text outputs are UTF-8 with LF newlines; floats are written with 17
significant digits so round-tripping through the files is lossless and
byte-identical reruns are byte-identical answers.  Unknown config keys are
hard errors: a typo like "apha0" silently running the defaults is the worst
failure mode a config file can have.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from .analytic import AnalyticParams
from .errors import ConfigError, ValidationError
from .params import (InterfaceParams, MatrixParams, TissueParams,
                     validate_params)
from .scenario import RunSpec
from .solver import (FIELD_TABLE, LAYER_FIELDS, MATRIX, TISSUE, CompositeGrid,
                     SolverConfig, TimeSeries)
from .verification import analytic_state

CONFIG_SECTIONS = ("matrix", "tissue", "interface", "grid", "solver", "analytic")
_GRID_KEYS = ("nx0", "nx1")
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
_ANALYTIC_KEYS = ("a", "b", "e1", "e2")


def _fmt(v) -> str:
    """One CSV cell: 17-significant-digit floats, bare ints and strings."""
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    """Recursively coerce to JSON-safe types; a dataclass becomes the mapping
    of its fields, and non-finite floats become null."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, LF, UTF-8."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      separators=(",", ": "), allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


_HASH_CHUNK = 1 << 20


def hash_file(path) -> str:
    """SHA-256 hex digest of a file, read in 1 MiB chunks (constant memory)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# answer files

def _write_blocks(path, header: list[str], cells: list[str], per_line: int,
                  times, rows) -> None:
    """Long-format answer file, one block per time: line i is t, ``cells[i]``,
    then the next ``per_line`` values of the time's row from ``rows``.  Each
    t is formatted once; values go through "%.17g", the same bytes as ``_fmt``.
    """
    # "\0" stands in for the time's t on every line of the block
    block = "".join(f"\0,{cell}{',%.17g' * per_line}\n" for cell in cells)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for t, values in zip(np.asarray(times, float).tolist(), rows):
            fh.write(block.replace("\0", "%.17g" % t) % tuple(values))


def _write_layer(path, ts: TimeSeries, layer: str) -> None:
    """Long-format trajectory of one layer: t, x, then its fields' labels."""
    names = LAYER_FIELDS[layer]
    values = np.stack([getattr(ts, name) for name, _ in names], axis=-1)
    _write_blocks(path, ["t", "x", *(label for _, label in names)],
                  ["%.17g" % x for x in ts.grid.layer_x(layer).tolist()], len(names),
                  ts.times, (row.ravel().tolist() for row in values))


def write_matrix_csv(path, ts: TimeSeries) -> None:
    """Long-format matrix-layer trajectory: t, x, C0_star, C0."""
    _write_layer(path, ts, MATRIX)


def write_tissue_csv(path, ts: TimeSeries) -> None:
    """Long-format tissue-layer trajectory: t, x, C1_star, C1, Ci."""
    _write_layer(path, ts, TISSUE)


def write_analytic_csv(path, times, grid: CompositeGrid, p, ap: AnalyticParams) -> None:
    """Closed-form fields in long format: t, x, species, value; per time, one
    line per node of each field, in packed order."""
    cells = [f"{'%.17g' % x},{label}" for name, (label, layer) in FIELD_TABLE.items()
             for x in grid.layer_x(layer).tolist()]
    _write_blocks(path, ["t", "x", "species", "value"], cells, 1, times,
                  (analytic_state(p, ap, grid, t).tolist()
                   for t in np.asarray(times, float).tolist()))


def write_flux_mismatch_csv(path, times, flux_matrix, flux_tissue) -> None:
    """Interface fluxes of the closed-form mode and their gap per time."""
    def rows():
        for t, fm, ft in zip(times, flux_matrix, flux_tissue):
            yield (t, fm, ft, abs(fm - ft))
    _write_csv(path, ["t", "matrix_side", "tissue_side", "mismatch"], rows())


def write_sweep_csv(path, rows_in) -> None:
    """One line per probe per sweep point; failed points carry empty probes."""
    def rows():
        for row in rows_in:
            if row.metrics is None:
                yield (row.param, row.value, row.status, "", None, None, None, None)
            else:
                for pr in row.metrics.probes:
                    yield (row.param, row.value, row.status, pr.species, pr.x,
                           pr.peak, pr.t_peak, pr.t_extinct)
    _write_csv(path, ["param", "value", "status", "species", "x",
                      "peak", "t_peak", "t_extinct"], rows())


# ---------------------------------------------------------------------------
# config files

def _require_mapping(obj, label: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(obj).__name__}")
    return obj

def _get_number(section: str, raw: dict, key: str, default):
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {v!r}")
    return float(v)


def _get_int(section: str, raw: dict, key: str, default):
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {v!r}")
    return int(v)


def _check_keys(section: str, raw: dict, valid) -> None:
    unknown = sorted(set(raw) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in section '{section}': {', '.join(unknown)}; "
            f"valid keys are {', '.join(valid)}"
        )


def _params_from_section(cls, section: str, raw: dict):
    names = [f.name for f in fields(cls)]
    _check_keys(section, raw, names)
    kwargs = {name: _get_number(section, raw, name, getattr(cls(), name))
              for name in names}
    return cls(**kwargs)


def config_to_spec(cfg: dict) -> tuple[RunSpec, dict]:
    """Build a RunSpec from a parsed config mapping.

    Returns the spec plus the raw analytic-section overrides (empty when the
    section is absent).  Any unknown section or key raises ConfigError.
    """
    cfg = _require_mapping(cfg, "config")
    unknown = sorted(set(cfg) - set(CONFIG_SECTIONS))
    if unknown:
        raise ConfigError(
            f"unknown config section(s): {', '.join(unknown)}; "
            f"valid sections are {', '.join(CONFIG_SECTIONS)}"
        )
    matrix = _params_from_section(MatrixParams, "matrix",
                                  _require_mapping(cfg.get("matrix", {}), "section 'matrix'"))
    tissue = _params_from_section(TissueParams, "tissue",
                                  _require_mapping(cfg.get("tissue", {}), "section 'tissue'"))

    raw_if = _require_mapping(cfg.get("interface", {}), "section 'interface'")
    _check_keys("interface", raw_if, ("pm", "sigma"))
    pm_raw = raw_if.get("pm", "infinite")
    if pm_raw == "infinite":
        pm = math.inf
    elif isinstance(pm_raw, bool) or not isinstance(pm_raw, (int, float)):
        raise ConfigError(f'interface.pm must be a number or "infinite", got {pm_raw!r}')
    else:
        pm = float(pm_raw)
    interface = InterfaceParams(pm=pm, sigma=_get_number("interface", raw_if, "sigma",
                                                         InterfaceParams().sigma))

    raw_grid = _require_mapping(cfg.get("grid", {}), "section 'grid'")
    _check_keys("grid", raw_grid, _GRID_KEYS)
    nx0 = _get_int("grid", raw_grid, "nx0", RunSpec().nx0)
    nx1 = _get_int("grid", raw_grid, "nx1", RunSpec().nx1)

    raw_solver = _require_mapping(cfg.get("solver", {}), "section 'solver'")
    _check_keys("solver", raw_solver, _SOLVER_KEYS)
    defaults = SolverConfig()
    try:
        solver = SolverConfig(
            dt=_get_number("solver", raw_solver, "dt", defaults.dt),
            t_end=_get_number("solver", raw_solver, "t_end", defaults.t_end),
            theta=_get_number("solver", raw_solver, "theta", defaults.theta),
            outer_bc=raw_solver.get("outer_bc", defaults.outer_bc),
            sample_every=_get_int("solver", raw_solver, "sample_every", defaults.sample_every),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    raw_analytic = _require_mapping(cfg.get("analytic", {}), "section 'analytic'")
    _check_keys("analytic", raw_analytic, _ANALYTIC_KEYS)
    analytic = {k: _get_number("analytic", raw_analytic, k, None)
                for k in _ANALYTIC_KEYS if k in raw_analytic}

    violations = validate_params(matrix, tissue, interface)
    if violations:
        raise ValidationError(violations)
    if nx0 < 4 or nx1 < 4:
        raise ConfigError("grid.nx0 and grid.nx1 must each be at least 4")

    return RunSpec(matrix=matrix, tissue=tissue, interface=interface,
                   nx0=nx0, nx1=nx1, solver=solver), analytic


def load_config(path) -> tuple[RunSpec, dict]:
    """Read a JSON config file; missing keys get defaults, unknown keys raise.

    A missing or unreadable file propagates as OSError (an I/O failure, not
    a validation one); malformed JSON and bad keys raise ConfigError.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_to_spec(cfg)


def spec_to_config(spec: RunSpec, analytic: AnalyticParams | None = None) -> dict:
    """Full resolved config mapping, defaults filled in, pm spelled out."""
    pm = spec.interface.pm
    cfg = {
        "matrix": {f.name: getattr(spec.matrix, f.name) for f in fields(MatrixParams)},
        "tissue": {f.name: getattr(spec.tissue, f.name) for f in fields(TissueParams)},
        "interface": {"pm": "infinite" if math.isinf(pm) else pm,
                      "sigma": spec.interface.sigma},
        "grid": {"nx0": spec.nx0, "nx1": spec.nx1},
        "solver": {f.name: getattr(spec.solver, f.name) for f in fields(SolverConfig)},
    }
    if analytic is not None:
        cfg["analytic"] = asdict(analytic)
    return cfg


def save_config(path, spec: RunSpec, analytic: AnalyticParams | None = None) -> None:
    write_json(path, spec_to_config(spec, analytic))
