"""Config files, answer files, and the run manifest.

All answer files are UTF-8 text with LF newlines, written by one writer.
CSV floats are written as "%.17g" (17 significant digits: 0.1 reads
0.10000000000000001), JSON floats as Python's shortest round-trip repr (0.1
reads 0.1); both read back to the same double, and a rerun writes the same
bytes.  The CSV floats come from one vectorized NumPy kernel,
:func:`_g17`, whose bytes are CPython's "%.17g" for every double: it rounds
a double-double product to 17 digits and lays them out as "%g" does.
Zeros, non-finite values and the values within 2**-30 of a rounding tie
fall back to CPython's "%.17g" itself.

A config file's sections and keys come from the RunSpec dataclasses,
through :data:`~releasesim.scenario.CONFIG_FIELDS`.  Unknown sections and
keys are hard errors: a typo like "apha0" silently running the defaults is
the worst failure mode a config file can have.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
from dataclasses import MISSING, Field, fields, is_dataclass, replace
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
    """An answer file: ``head``, then ``lines``, which are UTF-8 bytes.  The
    text's own newlines are LF."""
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
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


# ---------------------------------------------------------------------------
# "%.17g" in bulk
#
# The kernel writes each value's text into a slot of _SLOT bytes, four
# little-endian words, with NUL bytes wherever the text has no character:
#   word 0     byte 0 the sign, bytes 1-5 the "0.000" of a value below 1 in
#              fixed notation, byte 6 the first digit and byte 7 the point
#              after it;
#   words 1-2  the other 16 digits; a point after one of them moves the
#              digits behind it up by a byte, into word 3;
#   word 3     the exponent ("e-05", "e+308"), and byte _SEP, free for a
#              separator.
# Deleting the NUL bytes of a run of slots leaves the texts, each followed by
# its separator.

_SLOT = 32
_SEP = 31
# Values formatted by one kernel call: its float arrays (64 KiB) stay in the
# CPU caches, and below the size from which malloc maps each block afresh, so
# that each call reuses heap memory rather than faulting in fresh pages.
_CHUNK = 1 << 13
_VELTKAMP = 134217729.0   # 2**27 + 1: splits a double into two halves of 26 bits
# A scaled value whose fraction is this close to 1/2 is a tie, or too close to
# one to round by the double-double; CPython formats it.
_NEAR_TIE = 2.0 ** -30
_X_MIN, _X_MAX = -324, 308    # decimal exponents of the finite nonzero doubles
_E16, _E17 = 10 ** 16, 10 ** 17


def _split(a):
    """Veltkamp's split: ``a = hi + lo`` with hi and lo of 26 significant bits,
    so that products of the halves are exact."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


class _G17Tables:
    """The kernel's tables.  The layout tables are made when the first call
    builds this object; 10**p is made per exponent, the first time a call
    needs it."""

    def __init__(self):
        size = _X_MAX - _X_MIN + 1
        # 10**(16 - x) = (hi + lo) * 2**shift with hi in [1, 2), at x - _X_MIN
        self.hi, self.lo = np.zeros(size), np.zeros(size)
        self.shift = np.zeros(size, np.int64)
        self.made = np.zeros(size, bool)
        g = np.arange(10000)
        digits = np.zeros((10000, 8), np.uint8)
        for i, d in enumerate((g // 1000, g // 100 % 10, g // 10 % 10, g % 10)):
            digits[:, i] = 48 + d
        self.digits = digits.view(np.uint64).ravel()     # four digits, then NUL
        self.zeros = np.zeros(10000, np.uint8)           # trailing zeros; 4 for 0
        for k in range(1, 5):
            self.zeros[g % 10 ** k == 0] = k
        # words 1-2 of a slot: the bytes before byte q, and a point at byte q
        q = np.arange(17)
        self.below = [np.array([_word(b"\xff" * min(max(k - w, 0), 8)) for k in q.tolist()],
                               np.uint64) for w in (0, 8)]
        self.point = [np.array([_word(b"\0" * (k - w) + b".") if w <= k < w + 8 else 0
                                for k in q.tolist()], np.uint64) for w in (0, 8)]
        x = np.arange(_X_MIN, _X_MAX + 1)
        self.fixed = (x >= -4) & (x < 17)                # %g's fixed notation
        self.prefix = np.zeros(size, np.uint64)
        for k in range(1, 5):
            self.prefix[-k - _X_MIN] = _word(b"\0" + b"0." + b"0" * (k - 1))
        self.exponent = np.array([0 if fixed else _word(b"e%+03d" % k)
                                  for k, fixed in zip(x.tolist(), self.fixed.tolist())],
                                 np.uint64)
        # the significant digits a point after the first digit needs (99: never)
        self.first_point = np.where(self.fixed & (x != 0), 99, 2)

    def pow10(self, x):
        """(hi, lo, shift) of 10**(16 - x) for each decimal exponent in ``x``."""
        i = x - _X_MIN
        if i.size and not self.made[i.min():i.max() + 1].all():
            for j in np.unique(i[~self.made[i]]).tolist():
                p = 16 - (j + _X_MIN)
                # m * 2**e: 10**p, or at least 256 bits of it
                m, e = ((10 ** p, 0) if p >= 0 else
                        ((1 << (256 + 4 * -p)) // 10 ** -p, -256 - 4 * -p))
                if m.bit_length() < 128:
                    m, e = m << 128, e - 128
                drop = m.bit_length() - 53
                hi = (m + (1 << (drop - 1))) >> drop
                if hi.bit_length() > 53:
                    hi, drop = hi >> 1, drop + 1
                rest = m - (hi << drop)
                self.hi[j] = math.ldexp(hi, -52)
                self.lo[j] = (math.ldexp(rest >> (drop - 120), -172) if drop > 120
                              else math.ldexp(rest, -52 - drop))
                self.shift[j] = drop + e + 52
                self.made[j] = True
        return self.hi[i], self.lo[i], self.shift[i]


@functools.cache
def _g17_tables() -> _G17Tables:
    return _G17Tables()


def _scaled(tables: _G17Tables, f, e, x):
    """Floor and fraction of ``f * 2**e * 10**(16 - x)``, for f in [0.5, 1):
    a double-double product (Dekker's, over Veltkamp's splits) of f and
    10**(16 - x), accurate to about 2**-45 where the result has 17 digits."""
    hi, lo, shift = tables.pow10(x)
    fh, fl = _split(f)
    hh, hl = _split(hi)
    product = f * hi
    # ((fh*hh - product) + fh*hl + fl*hh) + fl*hl + f*lo, in this order
    error = fh * hh
    error -= product
    term = fh * hl
    error += term
    error += np.multiply(fl, hh, out=term)
    error += np.multiply(fl, hl, out=term)
    error += np.multiply(f, lo, out=term)
    shift += e
    shift += 1023
    shift <<= 52
    scale = shift.view(np.float64)   # 2**(e + shift)
    product *= scale
    error *= scale
    whole = np.floor(error)
    error -= whole
    return product.astype(np.int64) + whole.astype(np.int64), error


def _g17(values) -> np.ndarray:
    """The "%.17g" text of each value of ``values``, as uint8 rows of _SLOT
    bytes (see above).

    The 17 digits are |v| * 10**(16 - x) rounded, where x is v's decimal
    exponent: x is first taken from log10, then moved by one where the
    scaled value's floor has 16 or 18 digits.  A fraction above 1/2 rounds
    up.  Zeros, non-finite values and (near) ties, whose fraction is within
    _NEAR_TIE of 1/2, take CPython's "%.17g".
    """
    tables = _g17_tables()
    v = np.ascontiguousarray(values, np.float64).ravel()
    n = v.size
    a = np.abs(v)
    special = ~np.isfinite(a) | (a == 0)
    a[special] = 1.0
    f, e = np.frexp(a)
    x = np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(tables, f, e, x)
    off = np.flatnonzero((digits < _E16) | (digits >= _E17))
    if off.size:
        x[off] += np.where(digits[off] < _E16, -1, 1)
        d, fr = _scaled(tables, f[off], e[off], x[off])
        # still 16 or 18 digits: within round-off of a power of ten, which it rounds to
        edge = (d < _E16) | (d >= _E17)
        digits[off], frac[off] = np.clip(d, _E16, _E17), np.where(edge, 0.0, fr)
    fallback = special | (np.abs(frac - 0.5) < _NEAR_TIE)
    digits += frac > 0.5
    carry = digits == _E17
    digits[carry] = _E16
    x += carry
    # the digits as d0 and four groups of four
    high = digits // 100000000
    low = digits - high * 100000000
    d0 = high // 100000000
    high -= d0 * 100000000
    g1 = high // 10000
    g3 = low // 10000
    groups = (g1, high - g1 * 10000, g3, low - g3 * 10000)
    xi = x - _X_MIN
    slots = np.empty((n, 4), np.uint64)
    slots[:, 1] = tables.digits[groups[0]] | (tables.digits[groups[1]] << np.uint64(32))
    slots[:, 2] = tables.digits[groups[2]] | (tables.digits[groups[3]] << np.uint64(32))
    slots[:, 3] = tables.exponent[xi]
    # %g drops the zeros that end the digits after the point
    significant = np.full(n, 17)
    ends = np.flatnonzero(tables.zeros[groups[3]])
    if ends.size:
        zeros, g = tables.zeros, [group[ends] for group in groups]
        significant[ends] = 17 - (zeros[g[3]] + (g[3] == 0) * (
            zeros[g[2]] + (g[2] == 0) * (zeros[g[1]] + (g[1] == 0) * zeros[g[0]])))
        # fixed notation keeps every digit before the point
        kept = np.maximum(significant[ends], np.where(tables.fixed[xi[ends]], x[ends] + 1, 0))
        for w in (0, 1):
            slots[ends, 1 + w] &= tables.below[w][kept - 1]
    # a point after digit x, for x in 1..15: the digits behind it move up
    inner = np.flatnonzero((x >= 1) & (x < 16))
    if inner.size:
        q = x[inner]
        words = slots[inner]
        mid = q + 1 < significant[inner]
        byte = np.uint64(8)
        ahead = [words[:, 1 + w] & tables.below[w][q] for w in (0, 1)]
        behind = [words[:, 1 + w] ^ ahead[w] for w in (0, 1)]
        words[:, 1] = ahead[0] | (behind[0] << byte) | tables.point[0][q] * mid
        words[:, 2] = (ahead[1] | (behind[1] << byte) | (behind[0] >> np.uint64(56))
                       | tables.point[1][q] * mid)
        words[:, 3] = behind[1] >> np.uint64(56)
        slots[inner] = words
    point = (significant >= tables.first_point[xi]).astype(np.uint64) * np.uint64(46 << 56)
    slots[:, 0] = (tables.prefix[xi] | ((d0 + 48) << 48).view(np.uint64) | point
                   | np.signbit(v).astype(np.uint64) * np.uint64(45))
    out = slots.view(np.uint8)
    rows = np.flatnonzero(fallback)
    if rows.size:
        out[rows] = 0
        # each distinct value (by its bits: 0.0 is not -0.0) once
        _, first, where = np.unique(v[rows].view(np.int64), return_index=True,
                                    return_inverse=True)
        for k, text in enumerate(_cpython_g17(v[rows[first]])):
            out[rows[where == k], :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _cpython_g17(values) -> list[bytes]:
    """CPython's "%.17g" of each value: the kernel's fallback."""
    return [b"%.17g" % value for value in values.tolist()]


def _texts(values) -> list[str]:
    """The "%.17g" text of each value of ``values``."""
    slots = _g17(values)
    slots[:, _SEP] = ord("\n")
    return slots.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _padded(texts) -> np.ndarray:
    """``texts`` as the rows of a uint8 array, NUL-padded to one width."""
    encoded = [text.encode("utf-8") for text in texts]
    width = max(map(len, encoded), default=0)
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in encoded),
                         np.uint8).reshape(len(encoded), width)


def _lines(t: np.ndarray, mid: np.ndarray, per_line: int, rows) -> bytearray:
    """The lines of some samples: per sample, line i is its text in ``t``,
    ``mid[i]``, then the next ``per_line`` values of its row in ``rows``."""
    s, lines = t.shape[0], mid.shape[0]
    values = _g17(rows).reshape(s, lines, per_line, _SLOT)
    values[..., _SEP] = ord(",")
    values[..., -1, _SEP] = ord("\n")
    head = t.shape[1] + mid.shape[1]
    buf = bytearray(s * lines * (head + per_line * _SLOT))
    out = np.frombuffer(buf, np.uint8).reshape(s, lines, -1)
    out[:, :, :t.shape[1]] = t[:, None]
    out[:, :, t.shape[1]:head] = mid
    out[:, :, head:] = values.reshape(s, lines, -1)
    return buf.translate(None, b"\0")


def _write_blocks(path, header: list[str], cells: list[str], per_line: int,
                  times, rows) -> None:
    """Long-format answer file, one block of lines per time: line i is t,
    ``cells[i]``, then the next ``per_line`` values of the time's row.
    ``rows(a, b)`` gives the rows of samples a to b as a 2-D float array;
    they are asked for in chunks of about _CHUNK values.
    """
    t = _padded(_texts(times))
    mid = _padded(f",{cell}," for cell in cells)
    step = max(1, _CHUNK // (len(cells) * per_line))
    _write_text(path, ",".join(header) + "\n",
                (_lines(t[a:a + step], mid, per_line, rows(a, min(a + step, len(t))))
                 for a in range(0, len(t), step)))


def _write_layer(path, ts: TimeSeries, layer: str) -> None:
    """Long-format trajectory of one layer: t, x, then its fields' labels."""
    names = LAYER_FIELDS[layer]
    # a file row's columns of the packed state: the fields interleaved by node
    cols = (np.arange(ts.grid.layer_nodes(layer))[:, None]
            + [ts.grid.field_slice(name).start for name, _ in names]).ravel()
    _write_blocks(path, ["t", "x", *(label for _, label in names)],
                  _texts(ts.grid.layer_x(layer)), len(names), ts.times,
                  lambda a, b: ts.u[a:b, cols])


def write_matrix_csv(path, ts: TimeSeries) -> None:
    """Long-format matrix-layer trajectory: t, x, C0_star, C0."""
    _write_layer(path, ts, MATRIX)


def write_tissue_csv(path, ts: TimeSeries) -> None:
    """Long-format tissue-layer trajectory: t, x, C1_star, C1, Ci."""
    _write_layer(path, ts, TISSUE)


def write_analytic_csv(path, times, grid: CompositeGrid, p, ap: AnalyticParams) -> None:
    """Closed-form fields in long format: t, x, species, value; per time, one
    line per node of each field, in packed order."""
    times = np.asarray(times, float)
    cells = [f"{x},{label}" for name, (label, layer) in FIELD_TABLE.items()
             for x in _texts(grid.layer_x(layer))]
    _write_blocks(path, ["t", "x", "species", "value"], cells, 1, times,
                  lambda a, b: np.array([analytic_state(p, ap, grid, t)
                                         for t in times[a:b].tolist()]))


def write_flux_mismatch_csv(path, times, flux_matrix, flux_tissue) -> None:
    """Interface fluxes of the closed-form mode and their gap per time."""
    t, fm, ft = (np.asarray(a, float) for a in (times, flux_matrix, flux_tissue))
    texts = _texts(np.column_stack([t, fm, ft, np.abs(fm - ft)]))
    _write_text(path, "t,matrix_side,tissue_side,mismatch\n",
                ["".join(",".join(line) + "\n" for line in zip(*[iter(texts)] * 4)).encode()])


def write_sweep_csv(path, rows_in) -> None:
    """One line per probe per sweep point.  ``peak_at_end`` is true where the
    probe is still rising at the end of the run, so that its peak and t_peak
    are lower bounds.  A failed point is one line with no species and no
    ``peak_at_end``; a number that is missing there, or a probe's
    ``t_extinct`` of None, is written as nan."""
    labels, numbers = [], []
    for row in rows_in:
        for pr in row.metrics.probes if row.metrics else [None]:
            if pr is None:
                labels.append((row.param, row.status, "", ""))
                numbers.append([row.value, math.nan, math.nan, math.nan, math.nan])
            else:
                labels.append((row.param, row.status, pr.species,
                               "true" if pr.peak_at_end else "false"))
                numbers.append([row.value, pr.x, pr.peak, pr.t_peak,
                                math.nan if pr.t_extinct is None else pr.t_extinct])
    texts = _texts(np.array(numbers, float))
    lines = "".join(f"{param},{value},{status},{species},{x},{peak},{t_peak},{t_extinct},"
                    f"{at_end}\n" for (param, status, species, at_end),
                    (value, x, peak, t_peak, t_extinct) in zip(labels, zip(*[iter(texts)] * 5)))
    _write_text(path, "param,value,status,species,x,peak,t_peak,t_extinct,peak_at_end\n",
                [lines.encode()])


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
