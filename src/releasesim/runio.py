"""Config files, answer files, and the run manifest.

All text outputs are UTF-8 with LF newlines; floats are written with 17
significant digits so round-tripping through the files is lossless and
byte-identical reruns are byte-identical answers.  A config file's sections
and keys come from the RunSpec dataclasses, through
:data:`~releasesim.scenario.CONFIG_FIELDS`.  Unknown sections and keys are
hard errors: a typo like "apha0" silently running the defaults is the worst
failure mode a config file can have.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, Field, fields, is_dataclass, replace
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .analytic import AnalyticParams
from .errors import ConfigError, ValidationError
from .params import validate_params
from .scenario import CONFIG_FIELDS, RunSpec
from .solver import FIELD_TABLE, LAYER_FIELDS, MATRIX, TISSUE, CompositeGrid, TimeSeries
from .verification import analytic_state


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

def temp_path(path) -> Path:
    """Where an answer file is written before it is renamed onto ``path``."""
    return Path(f"{path}.tmp")


def _write_blocks(path, header: list[str], cells: list[str], per_line: int,
                  times, rows) -> None:
    """Long-format answer file, one block per time: line i is t, ``cells[i]``,
    then the next ``per_line`` values of the time's row from ``rows``.  Each
    t is formatted once; values go through "%.17g", the same bytes as ``_fmt``.
    It is written beside ``path`` and renamed onto it when complete, so a
    write that fails leaves ``path`` as it was.
    """
    # "\0" stands in for the time's t on every line of the block
    block = "".join(f"\0,{cell}{',%.17g' * per_line}\n" for cell in cells)
    tmp = temp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for t, values in zip(np.asarray(times, float).tolist(), rows, strict=True):
                fh.write(block.replace("\0", "%.17g" % t) % tuple(values))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_layer(path, ts: TimeSeries, layer: str, ready=None) -> None:
    """Long-format trajectory of one layer: t, x, then its fields' labels.
    Samples are written up to each count ``ready`` yields, then all of them."""
    names = LAYER_FIELDS[layer]
    # a file row's columns of the packed state: the fields interleaved by node
    cols = (np.arange(ts.grid.layer_nodes(layer))[:, None]
            + [ts.grid.field_slice(name).start for name, _ in names]).ravel()
    counts = pairwise(chain([0], ready or (), [ts.n_samples]))
    _write_blocks(path, ["t", "x", *(label for _, label in names)],
                  ["%.17g" % x for x in ts.grid.layer_x(layer).tolist()], len(names),
                  ts.times, (row for a, b in counts for row in ts.u[a:b, cols].tolist()))


def write_matrix_csv(path, ts: TimeSeries, ready=None) -> None:
    """Long-format matrix-layer trajectory: t, x, C0_star, C0."""
    _write_layer(path, ts, MATRIX, ready)


def write_tissue_csv(path, ts: TimeSeries, ready=None) -> None:
    """Long-format tissue-layer trajectory: t, x, C1_star, C1, Ci."""
    _write_layer(path, ts, TISSUE, ready)


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


def _check_keys(section: str, raw: dict, valid) -> None:
    unknown = sorted(set(raw) - set(valid))
    if unknown:
        raise ConfigError(f"unknown key(s) in section '{section}': {', '.join(unknown)}; "
                          f"valid keys are {', '.join(valid)}")


def _read(section: str, f: Field, v):
    """Config value ``v`` of field ``f``, typed as its default (a float where
    there is none): an int takes an integer, a float any number, interface.pm
    also "infinite", and no bool is a number; text goes to the dataclass as is."""
    kind = float if f.default is MISSING else type(f.default)
    infinite_ok = (section, f.name) == ("interface", "pm")
    if kind is str:
        return v
    if infinite_ok and v == "infinite":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number" + ' or "infinite"' * infinite_ok
        raise ConfigError(f"{section}.{f.name} must be {what}, got {v!r}")
    return kind(v)


def config_to_spec(cfg: dict) -> tuple[RunSpec, dict]:
    """Build a RunSpec from a parsed config mapping.

    Returns the spec plus the raw analytic-section overrides (empty when the
    section is absent).  Any unknown section or key raises ConfigError.
    """
    cfg = _require_mapping(cfg, "config")
    unknown = sorted(set(cfg) - set(CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}; "
                          f"valid sections are {', '.join(CONFIG_FIELDS)}")
    spec, analytic = RunSpec(), {}
    for section, section_fields in CONFIG_FIELDS.items():
        raw = _require_mapping(cfg.get(section, {}), f"section '{section}'")
        _check_keys(section, raw, [f.name for f in section_fields])
        given = {f.name: _read(section, f, raw[f.name]) for f in section_fields
                 if f.name in raw}
        if section == "analytic":
            analytic = given
        elif section == "grid":
            spec = replace(spec, **given)
        else:
            try:
                spec = replace(spec, **{section: replace(getattr(spec, section), **given)})
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc
    violations = validate_params(spec.matrix, spec.tissue, spec.interface)
    if violations:
        raise ValidationError(violations)
    if spec.nx0 < 4 or spec.nx1 < 4:
        raise ConfigError("grid.nx0 and grid.nx1 must each be at least 4")
    return spec, analytic


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
    cfg = {}
    for section, section_fields in CONFIG_FIELDS.items():
        owner = (spec if section == "grid" else analytic if section == "analytic"
                 else getattr(spec, section))
        if owner is not None:
            cfg[section] = {f.name: getattr(owner, f.name) for f in section_fields}
    if math.isinf(spec.interface.pm):
        cfg["interface"]["pm"] = "infinite"
    return cfg


def save_config(path, spec: RunSpec, analytic: AnalyticParams | None = None) -> None:
    write_json(path, spec_to_config(spec, analytic))
