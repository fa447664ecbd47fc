import csv
import hashlib
import itertools
import json
import re
import shlex
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import releasesim as rs
from releasesim import cli, metrics, runio, scenario, solver
from releasesim.cli import _build_parser, main
from releasesim.errors import ConfigError, ValidationError
from releasesim.runio import (_jsonable, config_to_spec, hash_file,
                              load_config, replacing, spec_to_config,
                              write_analytic_csv, write_flux_mismatch_csv,
                              write_json, write_matrix_csv, write_sweep_csv,
                              write_tissue_csv)


# Floats that stress "%.17g": a signed zero, the least subnormal, a tiny and
# two huge normals, and an infinity.
SPECIALS = [-0.0, 5e-324, 1e-300, 1.5e300, -1.5e300, float("inf")]


def overflowing(what: str, **analytic) -> str:
    """The refusal of the default mode with ``analytic``'s values."""
    mode = replace(rs.default_mode(rs.RunSpec().dimensionless()), **analytic)
    return f"analytic section gives a mode whose {what} are not finite: {mode}"


def tiny_spec() -> rs.RunSpec:
    return replace(rs.RunSpec(), nx0=4, nx1=4,
                   solver=rs.SolverConfig(dt=0.1, t_end=0.0))


class TestFormatting:
    def test_jsonable_handles_numpy_and_non_finite(self):
        obj = {"a": np.float64("nan"), "b": np.array([1.0, 2.0]),
               "c": np.int64(3), "d": np.bool_(True), "e": float("inf")}
        out = _jsonable(obj)
        assert out == {"a": None, "b": [1.0, 2.0], "c": 3, "d": True, "e": None}

    @pytest.mark.parametrize("array", [
        np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1]),
        np.array([-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0]),
        np.array([[1.5, np.nan], [-0.0, 2.0]]), np.array([[1.5, 3.0], [-0.0, 2.0]]),
        np.array([1.0, 2.5], dtype=np.float32), np.array([np.nan, 2.5], dtype=np.float32),
        np.array([3, -7, 2 ** 62]), np.array([1, 2], dtype=np.uint8),
        np.array([True, False]), np.array([[1, 2], [3, 4]]),
        np.array([]), np.zeros((0, 3)), np.array(2.5), np.array(np.nan), np.array(7),
    ], ids=lambda a: f"{a.dtype}-{a.shape}")
    def test_arrays_write_the_bytes_of_their_elements(self, tmp_path, array):
        # the per-element path: the nested list, each number coerced by itself
        write_json(tmp_path / "fast.json", {"a": array})
        write_json(tmp_path / "slow.json", {"a": _jsonable(array.tolist())})
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "slow.json").read_bytes()

    def test_write_json_is_deterministic(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 2, "a": 1})
        assert path.read_text() == '{\n  "a": 1,\n  "b": 2\n}\n'

    def test_hash_file_is_sha256(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"release")
        assert hash_file(path) == hashlib.sha256(b"release").hexdigest()

    def test_hash_file_spans_chunks(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(2 * runio._HASH_CHUNK + 7))
        assert hash_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestDataFiles:
    def test_matrix_csv_initial_state_golden(self, tmp_path):
        ts = rs.run_spec(tiny_spec())
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, ts)
        assert path.read_text() == (
            "t,x,C0_star,C0\n"
            "0,0,1,0\n"
            "0,0.25,1,0\n"
            "0,0.5,1,0\n"
            "0,0.75,1,0\n"
            "0,1,1,0\n"
        )

    def test_tissue_csv_initial_state_golden(self, tmp_path):
        ts = rs.run_spec(tiny_spec())
        path = tmp_path / "tissue.csv"
        write_tissue_csv(path, ts)
        assert path.read_text() == (
            "t,x,C1_star,C1,Ci\n"
            "0,1,0,0,0\n"
            "0,1.25,0,0,0\n"
            "0,1.5,0,0,0\n"
            "0,1.75,0,0,0\n"
            "0,2,0,0,0\n"
        )

    def test_analytic_csv_layout(self, tmp_path, ref_params, ref_mode):
        grid = rs.make_grid(ref_params, 4, 8)
        nm, nt = 5, 9
        path = tmp_path / "analytic.csv"
        write_analytic_csv(path, [0.0, 1.0], grid, ref_params, ref_mode)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,species,value"
        # per time: one row per node of each field, in packed order
        block = nm * 2 + nt * 3
        assert len(lines) - 1 == 2 * block
        assert lines[1] == "0,0,C0_star,1"
        first = [ln.split(",") for ln in lines[1:1 + block]]
        assert {row[0] for row in first} == {"0"}
        assert [row[2] for row in first] == (["C0_star"] * nm + ["C0"] * nm + ["C1_star"] * nt
                                             + ["C1"] * nt + ["Ci"] * nt)
        x = np.concatenate([grid.layer_x("matrix")] * 2 + [grid.layer_x("tissue")] * 3)
        assert [row[1] for row in first] == [format(v, ".17g") for v in x.tolist()]
        assert [ln.split(",")[1:3] for ln in lines[1 + block:]] == [row[1:3] for row in first]

    def test_flux_mismatch_csv_golden(self, tmp_path):
        path = tmp_path / "flux.csv"
        write_flux_mismatch_csv(path, [0.0], [0.5], [0.25])
        assert path.read_text() == (
            "t,matrix_side,tissue_side,mismatch\n"
            "0,0.5,0.25,0.25\n"
        )
        # the special values, each cell as per-cell formatting writes it
        times = np.array(SPECIALS)
        fm, ft = times[::-1], np.roll(times, 2)
        write_flux_mismatch_csv(path, times, fm, ft)
        assert path.read_text() == "t,matrix_side,tissue_side,mismatch\n" + "".join(
            ",".join(format(float(v), ".17g") for v in (t, a, b, abs(a - b))) + "\n"
            for t, a, b in zip(times, fm, ft))

    def test_sweep_csv_rows_have_uniform_arity(self, tmp_path):
        spec = replace(rs.RunSpec(), nx0=8, nx1=8,
                       solver=rs.SolverConfig(dt=0.05, t_end=2.0))
        rows = rs.sweep(spec, "ka", [0.6, -1.0])
        # one more point whose numbers are the special values, one t_extinct None
        probes = [replace(pr, x=SPECIALS[i % 6], peak=SPECIALS[(i + 1) % 6],
                          t_peak=SPECIALS[(i + 2) % 6],
                          t_extinct=None if i == 0 else SPECIALS[(i + 3) % 6])
                  for i, pr in enumerate(rows[0].metrics.probes)]
        rows.append(replace(rows[0], value=5e-324,
                            metrics=replace(rows[0].metrics, probes=tuple(probes))))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["param", "value", "status", "species", "x",
                             "peak", "t_peak", "t_extinct", "peak_at_end"]
        assert all(len(row) == 9 for row in parsed)
        statuses = {row[2] for row in parsed[1:]}
        assert statuses == {"ok", "error"}
        error_rows = [row for row in parsed[1:] if row[2] == "error"]
        assert error_rows == [["ka", "-1", "error", "", "nan", "nan", "nan", "nan", ""]]

        def cell(v):  # per-cell formatting, nan for a missing number
            return "nan" if v is None else format(float(v), ".17g")
        expected = []
        for row in rows:
            for pr in row.metrics.probes if row.metrics else [None]:
                numbers = (pr.x, pr.peak, pr.t_peak, pr.t_extinct) if pr else (None,) * 4
                expected.append([row.param, cell(row.value), row.status,
                                 pr.species if pr else "", *map(cell, numbers),
                                 "" if pr is None else str(pr.peak_at_end).lower()])
        assert parsed[1:] == expected


    def test_trajectory_writers_match_per_cell_formatting(self, tmp_path):
        grid = rs.make_grid(rs.RunSpec().dimensionless(), 4, 4)
        rng = np.random.default_rng(7)
        specials = np.array([-1.25, -0.0, 0.0, 5e-324, 1e-300, 1.5e300, -1.5e300,
                             1.0 / 3.0, -2.0 / 3.0, 12345.678])
        # a few special times; then 2,000 samples, which span several of the
        # writers' chunks of either file (runio._CHUNK values over 5 nodes of 2
        # or 3 fields), and a whole number of neither
        long = 0.01 * np.arange(2000)
        assert all(len(long) > 2 * step and len(long) % step
                   for step in (runio._CHUNK // 10, runio._CHUNK // 15))
        for i, times in enumerate([np.array([0.0, 0.1, 0.1 * 3, 1e-300, 160.0]), long]):
            def field(nodes):
                n = len(times) * nodes
                values = np.concatenate([specials, rng.standard_normal(n - len(specials))])
                return rng.permutation(values).reshape(len(times), nodes)

            # one block of columns per field, in the packed order
            u = np.hstack([field(grid.nm), field(grid.nm), field(grid.nt), field(grid.nt),
                           field(grid.nt)])
            ts = rs.TimeSeries(times=times, u=u, grid=grid, params=rs.RunSpec().dimensionless(),
                               config=rs.SolverConfig())

            def per_cell(header, x, fields):
                lines = [",".join(header)]
                for it, t in enumerate(ts.times):
                    for ix, xv in enumerate(x):
                        cells = [t, xv] + [f[it, ix] for f in fields]
                        lines.append(",".join(format(float(v), ".17g") for v in cells))
                return ("\n".join(lines) + "\n").encode("utf-8")

            write_matrix_csv(tmp_path / f"m{i}.csv", ts)
            write_tissue_csv(tmp_path / f"t{i}.csv", ts)
            assert (tmp_path / f"m{i}.csv").read_bytes() == per_cell(
                ["t", "x", "C0_star", "C0"], grid.layer_x("matrix"), (ts.c0s, ts.c0))
            assert (tmp_path / f"t{i}.csv").read_bytes() == per_cell(
                ["t", "x", "C1_star", "C1", "Ci"], grid.layer_x("tissue"), (ts.c1s, ts.c1, ts.ci))


class TestReplacing:
    """``runio.replacing`` renames its temp files onto their paths, all or none."""

    @staticmethod
    def write_all(paths, temps, what: str) -> None:
        for path, tmp in zip(paths, temps):
            tmp.write_bytes(f"{what} {path.name}".encode())

    def test_completed_block_replaces_every_path(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        paths[0].write_bytes(b"old a.csv")   # b.csv had no file
        with replacing(*paths) as temps:
            self.write_all(paths, temps, "new")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            "a.csv": b"new a.csv", "b.csv": b"new b.csv"}

    def test_failed_rename_puts_back_the_paths_renamed_before_it(self, tmp_path, monkeypatch):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
        before = {"a.csv": b"old a.csv", "c.csv": b"old c.csv"}   # b.csv had no file
        for name, data in before.items():
            (tmp_path / name).write_bytes(data)
        rename = runio.os.replace

        def fail_onto_c(src, dst):
            if Path(src).name == "c.csv.tmp":
                raise OSError(f"injected failure renaming onto {dst}")
            rename(src, dst)
        monkeypatch.setattr(runio.os, "replace", fail_onto_c)
        with pytest.raises(OSError, match="injected failure"):
            with replacing(*paths) as temps:
                self.write_all(paths, temps, "new")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# A run small enough to simulate once per config field.
SMALL = replace(rs.RunSpec(), nx0=4, nx1=4, solver=rs.SolverConfig(dt=0.05, t_end=0.5))
# Values for the fields where 1.25 times the default is no valid value other than SMALL's.
OTHER_VALUES = {"pm": 2.5, "nx0": 6, "nx1": 5, "dt": 0.025, "t_end": 1.0,
                "outer_bc": rs.SINK, "a": 2.0, "b": 1.5}
CONFIG_FIELD_CASES = [(section, f) for section, section_fields in scenario.CONFIG_FIELDS.items()
                      for f in section_fields]


class TestConfig:
    def test_empty_config_is_the_default_spec(self):
        spec, overrides = config_to_spec({})
        assert spec == rs.RunSpec()
        assert overrides == {}

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="kmm"):
            config_to_spec({"matrix": {"kmm": 1.0}})

    def test_unknown_section_is_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_to_spec({"bogus": {}})

    def test_permeability_spellings(self):
        spec, _ = config_to_spec({"interface": {"pm": "infinite"}})
        assert spec.interface.pm == float("inf")
        spec, _ = config_to_spec({"interface": {"pm": 2.5}})
        assert spec.interface.pm == 2.5
        with pytest.raises(ConfigError, match="pm"):
            config_to_spec({"interface": {"pm": "open"}})

    def test_physical_validation_applies(self):
        with pytest.raises(ValidationError, match="porosity"):
            config_to_spec({"matrix": {"eps0": 1.5}})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match="dt"):
            config_to_spec({"solver": {"dt": True}})

    def test_solver_constraints_become_config_errors(self):
        with pytest.raises(ConfigError, match="outer_bc"):
            config_to_spec({"solver": {"outer_bc": "leaky"}})

    @pytest.mark.parametrize("key, value", [
        ("a", float("nan")), ("b", -1.0), ("e1", float("inf")), ("e2", float("-inf")),
    ])
    def test_analytic_values_are_finite_and_wavenumbers_nonnegative(self, key, value):
        with pytest.raises(ConfigError, match=rf"^analytic\.{key} must be finite"):
            config_to_spec({"analytic": {key: value}})
        assert config_to_spec({"analytic": {key: 0.0}})[1] == {key: 0.0}

    def test_grid_minimum_enforced(self):
        with pytest.raises(ConfigError, match="nx0"):
            config_to_spec({"grid": {"nx0": 2}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="matrix"):
            config_to_spec({"matrix": [1, 2]})

    def test_round_trip_through_file(self, tmp_path):
        spec = replace(rs.RunSpec(), nx0=16, nx1=24,
                       solver=rs.SolverConfig(dt=0.02, t_end=3.0, theta=1.0,
                                              outer_bc=rs.SINK, sample_every=5))
        spec = rs.replace_param(spec, "ka", 0.77)
        spec = rs.replace_param(spec, "pm", float("inf"))
        path = tmp_path / "config.json"
        write_json(path, spec_to_config(spec))
        loaded, overrides = load_config(path)
        assert loaded == spec
        assert overrides == {}

    def test_round_trip_preserves_analytic_overrides(self, tmp_path):
        spec = rs.RunSpec()
        path = tmp_path / "config.json"
        write_json(path, spec_to_config(spec, rs.AnalyticParams(a=2.0, b=1.5, e1=0.5, e2=0.25)))
        loaded, overrides = load_config(path)
        assert loaded == spec
        assert overrides == {"a": 2.0, "b": 1.5, "e1": 0.5, "e2": 0.25}

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.json")

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize("section, f", CONFIG_FIELD_CASES,
                             ids=[f"{section}.{f.name}" for section, f in CONFIG_FIELD_CASES])
    def test_every_field_survives_both_round_trips(self, tmp_path, monkeypatch, section, f):
        # a valid value that is neither the field's default nor SMALL's
        value = OTHER_VALUES.get(f.name) or type(f.default)(1.25 * f.default)
        spec, mode = SMALL, rs.default_mode(SMALL.dimensionless())
        if section == "analytic":
            mode = replace(mode, **{f.name: value})
        elif section == "grid":
            spec = replace(spec, **{f.name: value})
        else:
            spec = replace(spec, **{section: replace(getattr(spec, section), **{f.name: value})})
        assert value != f.default
        assert (spec, mode) != (SMALL, rs.default_mode(SMALL.dimensionless()))
        path = tmp_path / "config.json"
        write_json(path, spec_to_config(spec, mode))
        assert load_config(path) == (spec, asdict(mode))
        # and through a command, which writes back what it ran
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 1)
        command = "analytic" if section == "analytic" else "simulate"
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        resolved = json.loads((tmp_path / "o" / "config.resolved.json").read_text())
        expected = json.loads(path.read_text())
        if command == "simulate":
            del expected["analytic"]
        assert resolved == expected

    def test_spec_to_config_spells_infinite_pm(self):
        cfg = spec_to_config(rs.RunSpec())
        assert cfg["interface"]["pm"] == "infinite"
        assert set(cfg) == {"matrix", "tissue", "interface", "grid", "solver"}


def small_config(tmp_path, **extra):
    cfg = {"grid": {"nx0": 8, "nx1": 8},
           "solver": {"dt": 0.05, "t_end": 1.0}}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


STABLE_EXPLICIT = {
    "config.resolved.json": "8bde4a4ac8b6a4ba217a2c6f98d96eae4328400d23498679ea733865f0d5d0d4",
    "ledger.json": "aa249ff8f5237bf5d945d362f1f91c2fe96ae93aa8d6c545d3c72e7ceb1b1796",
    "matrix.csv": "26d63722bc2ef98f4f7dd36c883aaf43a6bc37f741773f2d1325aa0879589972",
    "metrics.json": "94fd6dda52a7e459266efb896661419e5024aba3c8850f09ffa18dfee3a7aa4e",
    "tissue.csv": "40554864b97a663487726c3bbd09e1f617fc8d60920328a5cde91952e33cb4a3",
}


class TestCliSimulate:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("matrix.csv", "tissue.csv", "metrics.json", "ledger.json",
                     "config.resolved.json", "run.json"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 6
        assert "matrix fraction" in stdout
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["params"]["dimensionless"]["pm"] == "infinite"
        assert set(manifest["outputs"]) == {"matrix.csv", "tissue.csv",
                                            "metrics.json", "ledger.json",
                                            "config.resolved.json"}
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["grid"] == {"nx0": 8, "nx1": 8}
        assert resolved["solver"]["dt"] == 0.05

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("matrix.csv", "tissue.csv", "metrics.json", "ledger.json",
                     "config.resolved.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "run.json").read_text())
        m2 = json.loads((out2 / "run.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["params"] == m2["params"]

    def test_zero_horizon_writes_initial_state_only(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "zero"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--t-end", "0"]) == 0
        lines = (out / "matrix.csv").read_text().splitlines()
        assert len(lines) == 1 + 9  # header + one time sample on 9 nodes

    def test_cli_overrides_reach_the_solver(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "ovr"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--nx0", "12", "--nx1", "6", "--dt", "0.1",
                     "--theta", "1", "--outer-bc", "sink"]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["grid"] == {"nx0": 12, "nx1": 6}
        assert resolved["solver"]["dt"] == 0.1
        assert resolved["solver"]["theta"] == 1.0
        assert resolved["solver"]["outer_bc"] == "sink"

    def test_still_rising_probes_are_warning_lines(self, tmp_path, capsys):
        cfg = small_config(tmp_path, solver={"dt": 0.05, "t_end": 10.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        probes = json.loads((out / "metrics.json").read_text())["probes"]
        rising = [pr for pr in probes if pr["peak_at_end"]]
        assert len(rising) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {pr['species']} at x={pr['x']:g} is still rising at the end of the run; "
            "its peak metrics are lower bounds" for pr in rising]

    def test_the_mass_ledger_is_computed_once(self, tmp_path, monkeypatch):
        calls = []
        audit = rs.mass_audit

        def counted(ts):
            calls.append(ts)
            return audit(ts)
        monkeypatch.setattr(cli, "mass_audit", counted)
        monkeypatch.setattr(metrics, "mass_audit", counted)
        out = tmp_path / "o"
        assert main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        assert json.loads((out / "ledger.json").read_text()) == _jsonable(audit(calls[0]))

    # 4+4 cells, 999 steps sampled at each: 1,000 samples, more than one
    # formatting chunk of either file, and a whole number of neither
    STREAMED = {"grid": {"nx0": 4, "nx1": 4},
                "solver": {"dt": 0.01, "t_end": 9.99, "sample_every": 1}}

    def test_streamed_files_equal_the_in_process_ones(self, tmp_path, capsys, monkeypatch):
        # on 1 usable CPU simulate forks nothing; on 2 it forks one writer
        # process beside its loop.  Either way its trajectory files are the
        # writers' output for run_spec's series, byte for byte
        # a chunk's samples: runio._CHUNK values over 5 nodes of 2 or 3 fields
        blocks = [runio._CHUNK // 10, runio._CHUNK // 15]
        assert all(1000 > block and 1000 % block for block in blocks)
        cfg = small_config(tmp_path, **self.STREAMED)
        names = ("matrix.csv", "tissue.csv", "metrics.json", "ledger.json",
                 "config.resolved.json")
        forks, fork = [], scenario._fork
        monkeypatch.setattr(scenario, "_fork", lambda child: forks.append(n) or fork(child))
        files, stdouts = [], []
        for n in (1, 2):
            monkeypatch.setattr(scenario, "_usable_cpus", lambda: n)
            out = tmp_path / f"s{n}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            files.append([(out / name).read_bytes() for name in names])
            stdouts.append(capsys.readouterr().out.replace(str(out), "OUT"))
            assert sorted(p.name for p in out.iterdir()) == sorted([*names, "run.json"])
        assert forks == [2]
        assert files[0] == files[1]
        assert stdouts[0] == stdouts[1]
        assert files[0][0].count(b"\n") == 1 + 1000 * 5
        ts = scenario.run_spec(load_config(cfg)[0])
        write_matrix_csv(tmp_path / "m.csv", ts)
        write_tissue_csv(tmp_path / "t.csv", ts)
        assert files[0][:2] == [(tmp_path / "m.csv").read_bytes(),
                                (tmp_path / "t.csv").read_bytes()]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_mid_run_leaves_trajectory_files_as_they_were(self, tmp_path, capsys,
                                                                  monkeypatch, workers):
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: workers)
        kernel_step = solver._kernel_step

        def failing_step(R, src, solve):
            # the loop's bound step; from step 101 it yields a NaN in the run's block
            step, steps = kernel_step(R, src, solve), itertools.count(1)

            def failing(u):
                u_new = step(u)
                if next(steps) > 100:
                    u_new[0] = np.nan
                return u_new
            return failing
        monkeypatch.setattr(solver, "_kernel_step", failing_step)
        out = tmp_path / "o"
        out.mkdir()
        before = {"matrix.csv": b"old matrix\n", "tissue.csv": b"old tissue\n"}
        for name, data in before.items():
            (out / name).write_bytes(data)
        code = main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "NumericalError"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_writer_failure_leaves_both_trajectory_files_as_they_were(
            self, tmp_path, capsys, monkeypatch, workers):
        # the tissue file's last chunk fails once the matrix file's last one
        # is made: the chunks both paths write, in the order they write them
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: workers)
        done = tmp_path / "matrix-writer-returned"
        layer_chunks = runio._layer_chunks

        def tissue_fails_after_matrix(ts, layer):
            *chunks, (samples, last) = layer_chunks(ts, layer)

            def last_chunk():
                if layer == solver.TISSUE:
                    raise OSError("injected failure writing the tissue file")
                data = last()
                done.touch()
                return data
            return [*chunks, (samples, last_chunk)]
        monkeypatch.setattr(runio, "_layer_chunks", tissue_fails_after_matrix)
        out = tmp_path / "o"
        out.mkdir()
        before = {"matrix.csv": b"OLD\n", "tissue.csv": b"OLD\n"}
        for name, data in before.items():
            (out / name).write_bytes(data)
        code = main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert done.exists()
        assert code == 3
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "OSError" and err["exit_code"] == 3
        assert "injected failure" in err["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestCliAnalytic:
    def test_artifacts_and_mismatch_report(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "ana"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("analytic.csv", "flux_mismatch.csv", "residuals.json",
                     "config.resolved.json", "run.json"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "max interface flux mismatch" in stdout
        res = json.loads((out / "residuals.json").read_text())
        for name in ("matrix_solid", "tissue_bound", "internalized"):
            assert res[name]["expected_zero"] is True
            assert res[name]["max_abs"] <= 1e-10
        assert res["matrix_free"]["expected_zero"] is False
        assert res["matrix_free"]["max_abs"] > 0.1
        mism = np.array([float(ln.split(",")[3]) for ln in
                         (out / "flux_mismatch.csv").read_text().splitlines()[1:]])
        assert mism.max() > 0.1
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["analytic"]["a"] == pytest.approx(np.pi / 2)

    def test_a_flag_of_one_call_does_not_carry_into_the_next(self, tmp_path):
        # the parser is built once per process: a second call must start
        # from its defaults, not from the first call's flags
        small = ["--nx0", "4", "--nx1", "4"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["analytic", *small, "--t-end", "2", "--out", str(first)]) == 0
        assert main(["analytic", *small, "--out", str(second)]) == 0
        assert _build_parser() is _build_parser()
        t_end = [json.loads((out / "config.resolved.json").read_text())["solver"]["t_end"]
                 for out in (first, second)]
        assert t_end == [2.0, rs.RunSpec().solver.t_end]


class TestCliVerify:
    def test_residual_check_passes(self, tmp_path, capsys):
        out = tmp_path / "ver"
        assert main(["verify", "residuals", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS residuals" in stdout
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert report["checks"][0]["name"] == "residuals"

    def test_mass_check_passes(self, tmp_path, capsys):
        out = tmp_path / "mass"
        assert main(["verify", "mass", "--out", str(out)]) == 0
        assert "PASS mass" in capsys.readouterr().out

    def test_verify_json_is_the_same_with_one_and_two_workers(self, tmp_path, capsys,
                                                              monkeypatch):
        reports, stdouts = [], []
        for n in (1, 2):
            monkeypatch.setattr(scenario, "_usable_cpus", lambda: n)
            out = tmp_path / f"v{n}"
            assert main(["verify", "all", "--out", str(out)]) == 0
            reports.append((out / "verify.json").read_bytes())
            stdouts.append([line for line in capsys.readouterr().out.splitlines()
                            if not line.startswith("wrote ")])
        assert reports[0] == reports[1]
        assert stdouts[0] == stdouts[1]
        assert [line.split(":")[0] for line in stdouts[1]] == [
            "PASS residuals", "PASS oracle", "PASS mass", "PASS convergence"]


class TestCliSweep:
    def test_partial_failure_keeps_exit_zero(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "sw"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--param", "ka", "--values", "0.6,-1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: ka=-1 failed" in captured.err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["sweep"] == {"param": "ka", "values": [0.6, -1.0],
                                     "failed": 1}
        body = (out / "sweep.csv").read_text().splitlines()
        assert any(",error," in ln for ln in body[1:])
        assert any(",ok," in ln for ln in body[1:])

    def test_unknown_parameter_exits_one(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--param", "kmm", "--values", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["exit_code"] == 1
        assert "kmm" in err["message"]

    @pytest.mark.parametrize("values", ["a,b", ""])
    def test_malformed_values_exit_one(self, tmp_path, values):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--param", "ka", "--values", values]) == 1

    @pytest.mark.parametrize("log, space", [([], np.linspace), (["--log"], np.geomspace)],
                             ids=["linear", "log"])
    def test_range_equals_the_same_values(self, tmp_path, capsys, log, space):
        tiny = ["--nx0", "4", "--nx1", "4", "--t-end", "0.2", "--dt", "0.1"]
        by_range, by_values = tmp_path / "range", tmp_path / "values"
        assert main(["sweep", "--out", str(by_range), "--param", "ka",
                     "--range", "0.1", "0.5", "3", *log, *tiny]) == 0
        table = capsys.readouterr().out.splitlines()[-3:]
        values = ",".join("%.17g" % v for v in space(0.1, 0.5, 3))
        assert main(["sweep", "--out", str(by_values), "--param", "ka",
                     "--values", values, *tiny]) == 0
        assert (by_range / "sweep.csv").read_bytes() == (by_values / "sweep.csv").read_bytes()
        assert [line.split()[:2] for line in table] == [
            ["%.4g" % v, "ok"] for v in space(0.1, 0.5, 3)]

    @pytest.mark.parametrize("log", [[], ["--log"]], ids=["linear", "log"])
    def test_a_one_point_range_is_its_one_value(self, tmp_path, capsys, log):
        assert main(["sweep", "--out", str(tmp_path / "x"), "--param", "ka",
                     "--range", "0.3", "0.3", "1", *log,
                     "--nx0", "4", "--nx1", "4", "--t-end", "0.2", "--dt", "0.1"]) == 0
        assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()[-1:]] == [
            ["0.3", "ok"]]

    @pytest.mark.parametrize("bad", [
        ["--range", "nan", "0.5", "3"],
        ["--range", "0.1", "inf", "3"],
        ["--range", "0.1", "0.5", "0"],
        ["--range", "0.1", "0.5", "2.5"],
        ["--range", "0.1", "0.5", "three"],
        ["--range", "0.1", "0.5", "1"],
        ["--range", "0.1", "0.5", "1", "--log"],
        ["--range", "0", "0.5", "3", "--log"],
        ["--range", "0.1", "-0.5", "3", "--log"],
        ["--values", "0.1,0.5", "--log"],
    ])
    def test_bad_range_exits_one(self, tmp_path, capsys, bad):
        code = main(["sweep", "--out", str(tmp_path / "x"), "--param", "ka", *bad])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValidationError"
        assert err["exit_code"] == 1

    @pytest.mark.parametrize("given", [
        ["--values", "0.1", "--range", "0.1", "0.5", "3"], [],
    ])
    def test_exactly_one_of_values_and_range(self, tmp_path, given):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path / "x"), "--param", "ka", *given])
        assert exc.value.code != 0


    def test_still_rising_probes_are_named_per_point(self, tmp_path, capsys):
        cfg = small_config(tmp_path, solver={"dt": 0.05, "t_end": 10.0})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                     "--param", "ka", "--values", "0.2,0.6"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: ka={v}: Ci at x={x} is still rising at the end of the run; "
            "its peak metrics are lower bounds"
            for v in ("0.2", "0.6") for x in ("1", "1.33333", "1.66667", "2")]

    def test_sweep_csv_flags_the_probes_the_warnings_name(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert main(["sweep", "--param", "ka", "--values", "0.2,0.6", "--t-end", "10",
                     "--out", str(out)]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning:")]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["peak_at_end"] for row in rows} == {"true", "false"}
        flagged = [f"warning: ka={float(row['value']):g}: {row['species']} at "
                   f"x={float(row['x']):g} is still rising at the end of the run; "
                   "its peak metrics are lower bounds"
                   for row in rows if row["peak_at_end"] == "true"]
        assert len(warned) == 8
        assert flagged == warned


# Each command's flags, beside --config and --out
COMMANDS = {
    "simulate": ["simulate", "--outer-bc", "sink"],
    "analytic": ["analytic"],
    "verify": ["verify", "residuals"],
    "sweep": ["sweep", "--param", "ka", "--values", "0.3,0.9"],
}
# Each command's answer files, beside config.resolved.json and run.json
ANSWERS = {
    "simulate": ["matrix.csv", "tissue.csv", "metrics.json", "ledger.json"],
    "analytic": ["analytic.csv", "flux_mismatch.csv", "residuals.json"],
    "verify": ["verify.json"],
    "sweep": ["sweep.csv"],
}


@pytest.mark.parametrize("command, flag", [
    # the checks pin their own grids, steps and horizons
    (["verify", "all"], ["--nx0", "16"]), (["verify", "all"], ["--t-end", "4"]),
    (["verify", "all"], ["--theta", "1"]),
    # the closed forms read only the sample times and the grid
    (["analytic"], ["--theta", "1"]), (["analytic"], ["--outer-bc", "sink"]),
], ids=["verify-nx0", "verify-t-end", "verify-theta", "analytic-theta", "analytic-outer-bc"])
def test_unread_run_overrides_are_rejected(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_sweep_takes_all_six_run_overrides():
    args = _build_parser().parse_args(["sweep", "--param", "ka", "--values", "1",
                                       "--t-end", "2", "--dt", "0.5", "--nx0", "4", "--nx1", "6",
                                       "--theta", "1", "--outer-bc", "sink"])
    assert (args.t_end, args.dt, args.nx0, args.nx1, args.theta, args.outer_bc) == (
        2.0, 0.5, 4, 6, 1.0, "sink")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_resolved_config_reproduces_the_run(tmp_path, command):
    cfg = small_config(tmp_path, solver={"dt": 0.05, "t_end": 2.0},
                       interface={"pm": 3, "sigma": 1.4}, analytic={"a": 2.0, "e2": 0.5})
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([*COMMANDS[command], "--config", str(cfg), "--out", str(first)]) == 0
    assert main([*COMMANDS[command], "--config", str(first / "config.resolved.json"),
                 "--out", str(again)]) == 0
    answers = {p.name: p.read_bytes() for p in first.iterdir() if p.name != "run.json"}
    assert {p.name: p.read_bytes() for p in again.iterdir() if p.name != "run.json"} == answers


class ClosedPipe:
    """A stdout whose reader has gone, as in ``releasesim verify | true``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestCliErrors:
    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": {"eps0": 1.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["exit_code"] == 1
        assert "porosity" in err["message"]

    @pytest.mark.parametrize("command", [["analytic", "--t-end", "1"], ["verify", "all"]])
    @pytest.mark.parametrize("config, message", [
        # Python's json reads NaN and Infinity, which no mode can use
        ('{"analytic": {"a": NaN}}', "analytic.a must be finite and >= 0, got nan"),
        # finite but huge values overflow the mode's rates, residuals or fluxes
        ('{"analytic": {"a": 1e200}}', overflowing("decay rates", a=1e200)),
        ('{"analytic": {"b": 1e200}}', overflowing("decay rates", b=1e200)),
        ('{"analytic": {"e1": 1e308}}', overflowing("balance residuals", e1=1e308)),
        # d1 enters only the tissue side of the interface flux
        ('{"tissue": {"d1": 1e10}, "analytic": {"e2": 1e300}}',
         overflowing("interface fluxes", e2=1e300)),
    ], ids=["nan-a", "huge-a", "huge-b", "huge-e1", "huge-d1-e2"])
    def test_non_finite_analytic_config_exits_one(self, tmp_path, capsys, command, config,
                                                  message):
        path = tmp_path / "mode.json"
        path.write_text(config)
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"] == message
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_three(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.err.strip().splitlines()[-1])["exit_code"] == 3

    def test_numerical_blowup_exits_two(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--theta", "0", "--dt", "0.5", "--t-end", "100",
                     "--nx0", "32", "--nx1", "32"])
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "NumericalError"

    def test_unallocatable_run_exits_one(self, tmp_path, capsys, monkeypatch):
        # t_end 1e10 on 4+4 cells asks for ~745 GiB of samples; stand in for
        # that allocation rather than attempt it
        def unallocatable(n_steps, sample_every):
            raise MemoryError("Unable to allocate 745. GiB")
        monkeypatch.setattr(solver, "sample_indices", unallocatable)
        code = main(["simulate", "--t-end", "1e10", "--nx0", "4", "--nx1", "4",
                     "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MemoryError"
        assert err["exit_code"] == 1

    @pytest.mark.parametrize("refusal", [OSError(12, "Cannot allocate memory"),
                                         OverflowError("too large for C ssize_t")])
    def test_unmappable_samples_exit_one(self, tmp_path, capsys, monkeypatch, refusal):
        # the samples' shared mapping, refused as mmap refuses a size past
        # the memory or past ssize_t, is a run too large to allocate
        def unmappable(fd, length):
            raise refusal
        monkeypatch.setattr(solver.mmap, "mmap", unmappable)
        code = main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MemoryError" and "21 samples of 25 unknowns" in err["message"]

    @pytest.mark.parametrize("config", [
        '{"tissue": {"l1": 1e300}}',                          # h1 ** 2 in the assembly
        '{"matrix": {"l0": 1e200}, "tissue": {"l1": 1e201}}',  # l0 ** 2 in the scaling
    ], ids=["assembly", "scaling"])
    def test_an_overflowing_input_exits_two(self, tmp_path, capsys, config):
        path = tmp_path / "huge.json"
        path.write_text(config)
        code = main(["simulate", "--config", str(path), "--t-end", "1",
                     "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "OverflowError"
        assert err["exit_code"] == 2

    def test_another_arithmetic_error_is_a_traceback(self, tmp_path, monkeypatch):
        # only the overflows and zero divisions a run can meet are exit 2; any
        # other ArithmeticError is a defect and must not pass as a failed run
        def fail(args):
            raise FloatingPointError("a defect")
        monkeypatch.setattr(cli, "_cmd_simulate", fail)
        with pytest.raises(FloatingPointError):
            main(["simulate", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "inf"), ("--dt", "inf"), ("--t-end", "nan"), ("--dt", "nan"),
        ("--dt", "1e-310"),   # t_end / dt overflows
    ])
    def test_non_finite_horizon_or_step_exits_one(self, tmp_path, capsys, flag, value):
        code = main(["simulate", "--out", str(tmp_path / "o"), flag, value])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 1
        assert "finite" in err["message"]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_closed_stdout_exits_three_after_the_answer_files(self, tmp_path, capsys,
                                                              monkeypatch, command):
        out = tmp_path / "o"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main([*COMMANDS[command], "--config", str(small_config(tmp_path)),
                     "--out", str(out)])
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert code == 3 and err["error"] == "BrokenPipeError"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*ANSWERS[command], "config.resolved.json", "run.json"])

    # in a fresh interpreter, so a pool that waited forever would meet a timeout
    DEAD_WORKER = """
import os, sys
import releasesim.cli as cli
from releasesim import metrics, scenario
scenario._usable_cpus = lambda: 2
{kill}
sys.exit(cli.main([*sys.argv[2:], "--out", sys.argv[1]]))
"""

    def check_dead_worker_exits_four(self, run_fresh, tmp_path, kill: str, *argv: str):
        proc = run_fresh(self.DEAD_WORKER.format(kill=kill), str(tmp_path / "o"), *argv)
        lines = proc.stderr.strip().splitlines()
        assert proc.returncode == 4
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "WorkerError"
        assert err["exit_code"] == 4
        assert list((tmp_path / "o").iterdir()) == []   # no answer file

    def test_dead_worker_exits_four(self, tmp_path, run_fresh):
        self.check_dead_worker_exits_four(
            run_fresh, tmp_path, "metrics.release_metrics = lambda ts: os._exit(1)",
            "sweep", "--param", "ka", "--values", "0.3,0.6")

    def test_dead_worker_in_verify_all_exits_four(self, tmp_path, run_fresh):
        # the worker that runs the first balance's oracle dies
        self.check_dead_worker_exits_four(
            run_fresh, tmp_path,
            "cli.ode_oracle = lambda which, *args: os._exit(1) if which == 'matrix_solid' else 0.0",
            "verify", "all")

    def test_dead_writer_of_simulate_exits_four(self, tmp_path, run_fresh):
        # the writer dies at once; the loop's 10,001 progress counts are more
        # than the pipe holds, so the loop goes on only if a write finds the
        # writer gone rather than waiting for it
        cfg = small_config(tmp_path, grid={"nx0": 4, "nx1": 4},
                           solver={"dt": 0.001, "t_end": 10.0, "sample_every": 1})
        self.check_dead_worker_exits_four(
            run_fresh, tmp_path, "cli.write_trajectories = lambda *args: os._exit(1)",
            "simulate", "--config", str(cfg))

    INTERRUPTED_LOOP = """
import itertools, json, os, sys
from pathlib import Path
import releasesim.cli as cli
from releasesim import scenario, solver
scenario._usable_cpus = lambda: 2
fork, forks = scenario._fork, []
scenario._fork = lambda child: forks.append(1) or fork(child)
kernel_step = solver._kernel_step

def interrupted_step(R, src, solve):
    step, steps = kernel_step(R, src, solve), itertools.count(1)
    def interrupting(u):
        if next(steps) > 100:
            raise KeyboardInterrupt
        return step(u)
    return interrupting
solver._kernel_step = interrupted_step
out = Path(sys.argv[1])
try:
    cli.main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2", "--out", str(out)])
    raised = False
except KeyboardInterrupt:
    raised = True
try:
    children = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    children = None
print(json.dumps({"raised": raised, "forks": len(forks), "children": children,
                  "left": sorted(p.name for p in out.iterdir())}))
"""

    def test_interrupted_loop_leaves_no_writer_and_no_temp_file(self, tmp_path, run_fresh):
        # a Ctrl-C in the loop on 2 CPUs: the writer process is killed and
        # reaped before the temp files are removed, so none reappears
        proc = run_fresh(self.INTERRUPTED_LOOP, str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
            "raised": True, "forks": 1, "children": None, "left": []}

    ON_ONE_AND_TWO_CPUS = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
import releasesim.cli as cli
from releasesim import scenario
fork, forks = scenario._fork, []
scenario._fork = lambda child: forks.append(1) or fork(child)
out, runs = Path(sys.argv[1]), {}
for n in (1, 2):
    scenario._usable_cpus = lambda: n
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*sys.argv[2:], "--out", str(out / str(n))])
    runs[n] = [code, len(forks), {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in (out / str(n)).iterdir() if p.name != "run.json"}]
print(json.dumps(runs))
"""

    @pytest.mark.parametrize("t_end, forks", [("10", 1), ("0", 0)])
    def test_writer_keeps_up_with_more_samples_than_the_progress_pipe_holds(
            self, tmp_path, run_fresh, t_end, forks):
        # 10,001 samples: their 8-byte counts are more than a 64 KiB pipe
        # holds unread, so the loop waits on the writer; in a fresh
        # interpreter, so that a deadlock meets run_fresh's timeout.  A run of
        # one sample forks nothing
        cfg = small_config(tmp_path, grid={"nx0": 4, "nx1": 4},
                           solver={"dt": 0.001, "t_end": 10.0, "sample_every": 1})
        proc = run_fresh(self.ON_ONE_AND_TWO_CPUS, str(tmp_path / "o"), "simulate",
                         "--config", str(cfg), "--t-end", t_end)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout.strip().splitlines()[-1])
        assert [runs["1"][:2], runs["2"][:2]] == [[0, 0], [0, forks]]
        assert runs["1"][2] == runs["2"][2]
        assert len(runs["1"][2]) == 5

    def test_unstable_theta_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--theta", "0", "--dt", "0.4", "--t-end", "8",
                     "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "NumericalError"
        assert "spectral radius" in err["message"]
        assert list(out.iterdir()) == []

    def test_stable_explicit_run_keeps_its_bytes(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--theta", "0", "--nx0", "4", "--nx1", "4",
                     "--dt", "1e-4", "--t-end", "0.01", "--out", str(out)]) == 0
        # sha256 of the answer files from before the stability check existed
        assert {name: hash_file(out / name) for name in STABLE_EXPLICIT} == STABLE_EXPLICIT

    @pytest.mark.parametrize("workers", [1, 2])
    def test_writer_failure_exits_three(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: workers)
        cfg = small_config(tmp_path)
        out = tmp_path / "o"
        (out / "tissue.csv").mkdir(parents=True)
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "IsADirectoryError"
        assert err["exit_code"] == 3
        assert str(out / "tissue.csv") in err["message"]

    def test_matrix_writer_failure_leaves_the_tissue_writer_uncalled(
            self, tmp_path, capsys, monkeypatch):
        # the matrix file is opened first, in this process after the loop or
        # in the writer process beside it: its failure ends the run before
        # the tissue file is opened
        calls = tmp_path / "tissue-writer-called"

        def fail(path, *args):
            if Path(path).name == "matrix.csv.tmp":
                raise OSError(f"injected failure writing {path}")
            if Path(path).name == "tissue.csv.tmp":
                calls.touch()
            return open(path, *args)
        monkeypatch.setattr(runio, "open", fail, raising=False)
        out = tmp_path / "o"
        out.mkdir()
        before = {"matrix.csv": b"OLD\n", "tissue.csv": b"OLD\n"}
        for name, data in before.items():
            (out / name).write_bytes(data)
        code = main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 3 and not calls.exists()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "OSError" and str(out / "matrix.csv") in err["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_rename_leaves_both_trajectory_files_as_they_were(self, tmp_path, capsys):
        # matrix.csv is renamed first, then tissue.csv cannot be: matrix.csv
        # gets its old file back
        out = tmp_path / "o"
        (out / "tissue.csv").mkdir(parents=True)
        (out / "matrix.csv").write_bytes(b"OLD\n")
        code = main(["simulate", "--nx0", "4", "--nx1", "4", "--t-end", "2",
                     "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "IsADirectoryError"
        assert (out / "matrix.csv").read_bytes() == b"OLD\n"
        assert sorted(p.name for p in out.iterdir()) == ["matrix.csv", "tissue.csv"]

    def test_horizon_off_the_step_grid_exits_one(self, tmp_path, capsys):
        # 3 steps of 0.3 would stop at t = 0.9, short of the horizon asked for
        out = tmp_path / "o"
        code = main(["simulate", "--out", str(out), "--t-end", "1", "--dt", "0.3"])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 1
        assert "whole number of steps" in err["message"]
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_config_example_is_the_default(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        example = json.loads(blocks[0])
        spec, analytic = config_to_spec(example)
        assert spec == rs.RunSpec()
        mode = rs.default_mode(spec.dimensionless())
        assert analytic == {"a": mode.a, "b": mode.b, "e1": mode.e1, "e2": mode.e2}
        sections = {k: v for k, v in example.items() if k != "analytic"}
        assert spec_to_config(rs.RunSpec()) == sections

    def test_python_example_runs(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        exec(blocks[0], {})
        lines = capsys.readouterr().out.splitlines()
        # 64+64 cells: 325 unknowns, 65 tissue nodes; 16,000 steps sampled every 10th
        assert lines[:2] == ["(1601, 325)", "(1601, 65)"]
        degraded, t_peak, defect = map(float, lines[2:])
        assert degraded > 0.0 and 0.0 < t_peak <= 160.0 and 0.0 <= defect < 1e-4

    def test_shell_examples_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        commands = [line for block in blocks for line in block.splitlines()
                    if line.startswith("releasesim ")]
        assert len(commands) >= 6
        for line in commands:
            try:
                _build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")
