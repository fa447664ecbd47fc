"""Config files, answer files, and the run manifest.

All answer files are UTF-8 text with LF newlines, written by one writer.
CSV floats are written as "%.17g" (17 significant digits: 0.1 reads
0.10000000000000001), JSON floats as Python's shortest round-trip repr (0.1
reads 0.1); both read back to the same double, and a rerun writes the same
bytes.  A config file's sections and keys come from the RunSpec
dataclasses, through :data:`~releasesim.scenario.CONFIG_FIELDS`.  Unknown
sections and keys are hard errors: a typo like "apha0" silently running the
defaults is the worst failure mode a config file can have.
"""

from __future__ import annotations

import contextlib
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
        # NumPy's own conversion where it gives the same Python values; at
        # most 8-byte floats, as a wider one stays a NumPy scalar in tolist()
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and obj.dtype.itemsize <= 8
                                       and np.isfinite(obj).all()):
            return obj.tolist()
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _write_text(path, head: str, lines=()) -> None:
    """An answer file: UTF-8 text with LF newlines, ``head`` then ``lines``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        fh.writelines(lines)


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, LF, UTF-8."""
    _write_text(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                                 separators=(",", ": "), allow_nan=False) + "\n")


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

@contextlib.contextmanager
def replacing(*paths):
    """Temp files to write ``paths`` to, named ``<path>.tmp``: when the block
    completes they are renamed onto ``paths`` in order, all or none.  Until
    every rename has succeeded, each old file is kept hard-linked as
    ``<path>.bak``; a rename that fails puts these back onto the paths
    already renamed (and removes the new file from a path that had none).
    So a block or a rename that fails leaves every one of ``paths`` as it
    was, and in any case no temp or backup file is left behind.
    """
    temps = [Path(f"{path}.tmp") for path in paths]
    backups = [Path(f"{path}.bak") for path in paths]
    try:
        yield temps
        for path, bak in zip(paths, backups):
            bak.unlink(missing_ok=True)
            if os.path.isfile(path):
                os.link(path, bak)
        renamed = 0
        try:
            for tmp, path in zip(temps, paths):
                os.replace(tmp, path)
                renamed += 1
        except BaseException:
            for path, bak in zip(paths[:renamed], backups):
                if bak.exists():
                    os.replace(bak, path)
                else:
                    os.unlink(path)
            raise
    finally:
        for tmp in temps + backups:
            tmp.unlink(missing_ok=True)


def _write_blocks(path, header: list[str], cells: list[str], per_line: int,
                  times, rows) -> None:
    """Long-format answer file, one block per time: line i is t, ``cells[i]``,
    then the next ``per_line`` values of the time's row from ``rows``.  Each
    t is formatted once; every float goes through "%.17g".
    """
    # "\0" stands in for the time's t on every line of the block
    block = "".join(f"\0,{cell}{',%.17g' * per_line}\n" for cell in cells)
    _write_text(path, ",".join(header) + "\n",
                (block.replace("\0", "%.17g" % t) % tuple(values)
                 for t, values in zip(np.asarray(times, float).tolist(), rows, strict=True)))


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
    _write_text(path, "t,matrix_side,tissue_side,mismatch\n",
                ("%.17g,%.17g,%.17g,%.17g\n" % (t, fm, ft, abs(fm - ft))
                 for t, fm, ft in zip(times, flux_matrix, flux_tissue)))


def write_sweep_csv(path, rows_in) -> None:
    """One line per probe per sweep point.  A failed point is one line with
    no species; a number that is missing there, or a probe's ``t_extinct``
    of None, is written as nan."""
    def lines():
        for row in rows_in:
            probes = ([("", math.nan, math.nan, math.nan, math.nan)] if row.metrics is None else
                      [(pr.species, pr.x, pr.peak, pr.t_peak,
                        math.nan if pr.t_extinct is None else pr.t_extinct)
                       for pr in row.metrics.probes])
            for probe in probes:
                yield "%s,%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g\n" % (
                    row.param, row.value, row.status, *probe)
    _write_text(path, "param,value,status,species,x,peak,t_peak,t_extinct\n", lines())


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


_INFINITE = "infinite"  # pm = inf in a config file: JSON has no infinity


def spell_infinite_pm(values: dict) -> dict:
    """``values`` with an infinite ``pm`` spelled as :func:`_read` parses it."""
    return {**values, "pm": _INFINITE} if math.isinf(values["pm"]) else values


def _read(section: str, f: Field, v):
    """Config value ``v`` of field ``f``, typed as its default (a float where
    there is none): an int takes an integer, a float any number, interface.pm
    also "infinite", and no bool is a number; text goes to the dataclass as is."""
    kind = float if f.default is MISSING else type(f.default)
    infinite_ok = (section, f.name) == ("interface", "pm")
    if kind is str:
        return v
    if infinite_ok and v == _INFINITE:
        return math.inf
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number" + f' or "{_INFINITE}"' * infinite_ok
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
            for key, v in given.items():
                if not math.isfinite(v) or (v < 0 and key in ("a", "b")):
                    floor = " and >= 0" if key in ("a", "b") else ""
                    raise ConfigError(f"analytic.{key} must be finite{floor}, got {v!r}")
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
    cfg["interface"] = spell_infinite_pm(cfg["interface"])
    return cfg


def save_config(path, spec: RunSpec, analytic: AnalyticParams | None = None) -> None:
    write_json(path, spec_to_config(spec, analytic))
