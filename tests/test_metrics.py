import json
import os
import threading
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import releasesim as rs
from releasesim import scenario, solver
from releasesim.errors import NumericalError


def small_spec(**solver_kwargs) -> rs.RunSpec:
    cfg = dict(dt=0.05, t_end=10.0, sample_every=10)
    cfg.update(solver_kwargs)
    return replace(rs.RunSpec(), nx0=12, nx1=12, solver=rs.SolverConfig(**cfg))


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of usable CPUs that parallel_map sees."""
    def force(n: int) -> None:
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: n)
    return force


class TestParabolicPeak:
    @given(
        tv=st.floats(-5.0, 5.0),
        k=st.floats(0.1, 10.0),
        c=st.floats(-5.0, 5.0),
        t0=st.floats(-10.0, 10.0),
        g1=st.floats(0.1, 3.0),
        g2=st.floats(0.1, 3.0),
    )
    @settings(max_examples=200)
    def test_recovers_exact_vertex_of_quadratics(self, tv, k, c, t0, g1, g2):
        t1, t2 = t0 + g1, t0 + g1 + g2
        y = [c - k * (t - tv) ** 2 for t in (t0, t1, t2)]
        tv_hat, yv_hat = rs.parabolic_peak(t0, t1, t2, *y)
        assert tv_hat == pytest.approx(tv, abs=1e-6 * max(1.0, abs(tv)))
        assert yv_hat == pytest.approx(c, abs=1e-6 * max(1.0, abs(c)))

    def test_falls_back_to_middle_sample_when_not_concave(self):
        # linear and convex data have no interior maximum
        assert rs.parabolic_peak(0.0, 1.0, 2.0, 0.0, 1.0, 2.0) == (1.0, 1.0)
        assert rs.parabolic_peak(0.0, 1.0, 2.0, 4.0, 1.0, 0.0) == (1.0, 1.0)


class TestProbeSeries:
    def test_node_station_returns_the_column(self, short_run):
        gx = short_run.grid.x_matrix
        series = rs.probe_series(short_run, "C0", float(gx[5]))
        np.testing.assert_array_equal(series, short_run.c0[:, 5])

    def test_midpoint_station_averages_the_neighbours(self, short_run):
        gx = short_run.grid.x_tissue
        x = 0.5 * (gx[3] + gx[4])
        series = rs.probe_series(short_run, "Ci", x)
        np.testing.assert_allclose(series, 0.5 * (short_run.ci[:, 3] + short_run.ci[:, 4]),
                                   rtol=1e-12)

    def test_layer_domains_enforced(self, short_run):
        with pytest.raises(ValueError, match="outside the matrix layer"):
            rs.probe_series(short_run, "C0", 1.5)
        with pytest.raises(ValueError, match="outside the tissue layer"):
            rs.probe_series(short_run, "C1", 0.5)

    def test_unknown_species_rejected(self, short_run):
        with pytest.raises(ValueError, match="unknown species"):
            rs.probe_series(short_run, "C2", 0.5)

    def test_interface_station_valid_from_both_sides(self, short_run):
        m = rs.probe_series(short_run, "C0", 1.0)
        t = rs.probe_series(short_run, "C1", 1.0)
        # unit partition coefficient: the free field is continuous there
        np.testing.assert_allclose(m, t, atol=1e-12)


class TestProbeMetrics:
    def test_interior_peak_is_refined(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([0.0, 10.0, 5.0, 0.05])
        pr = rs.probe_metrics(times, values, "C1", 1.5)
        # vertex of the parabola through the three samples around the max
        assert pr.t_peak == pytest.approx(7.0 / 6.0, rel=1e-12)
        assert pr.peak == pytest.approx(10.0 + 7.5 * (1.0 / 6.0) ** 2, rel=1e-12)
        assert not pr.peak_at_end
        # threshold is 1% of the refined peak, crossed between t=2 and t=3
        thr = 0.01 * pr.peak
        expected = 2.0 + (5.0 - thr) / (5.0 - 0.05)
        assert pr.t_extinct == pytest.approx(expected, rel=1e-12)
        assert pr.t_peak <= pr.t_extinct

    def test_monotone_decay_peaks_at_start(self):
        pr = rs.probe_metrics(np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0]),
                              "C0_star", 0.0)
        assert pr.t_peak == 0.0 and pr.peak == 3.0
        assert pr.t_extinct is None  # never falls to 1% of the peak

    def test_still_rising_series_is_flagged(self):
        pr = rs.probe_metrics(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]),
                              "Ci", 1.5)
        assert pr.peak_at_end
        assert pr.peak == 2.0 and pr.t_peak == 2.0

    def test_absent_species_is_extinct_from_the_start(self):
        pr = rs.probe_metrics(np.array([0.0, 1.0, 2.0]), np.zeros(3), "Ci", 1.5)
        assert pr.peak == 0.0
        assert pr.t_extinct == 0.0
        assert not pr.peak_at_end

    def test_serialization_keys(self):
        pr = rs.probe_metrics(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]),
                              "C1", 1.5)
        d = asdict(pr)
        assert set(d) == {"species", "x", "peak", "t_peak", "t_extinct", "peak_at_end"}


class TestReleaseMetrics:
    def test_summary_of_the_reference_run(self, short_run):
        m = rs.release_metrics(short_run)
        assert len(m.probes) == 20  # 4 stations x 2 matrix + 4 x 3 tissue species
        assert m.t_end == 40.0
        # ledger identities
        assert m.matrix_fraction_series[0] == pytest.approx(1.0, rel=1e-12)
        assert m.degraded_fraction_series[0] == 0.0
        assert np.all(np.diff(m.matrix_fraction_series) < 0.0)
        assert np.all(np.diff(m.degraded_fraction_series) > 0.0)
        total = (m.matrix_fraction + m.tissue_fraction + m.degraded_fraction
                 + m.outflow_fraction)
        assert total == pytest.approx(1.0, abs=1e-4)
        assert m.outflow_fraction == 0.0  # zero-flux outer boundary
        assert m.mass_defect <= 1e-4
        # degradation is the time integral of kid * internalized pool
        assert m.degraded_fraction == pytest.approx(
            short_run.params.kid * m.ci_exposure, rel=1e-12)

    def test_fractions_stay_physical_before_solid_depletion(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        ts = rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.05, t_end=10.0))
        m = rs.release_metrics(ts)
        for frac in (m.matrix_fraction, m.tissue_fraction, m.degraded_fraction,
                     m.outflow_fraction):
            assert -1e-9 <= frac <= 1.0 + 1e-6
        assert np.all(m.matrix_fraction_series >= -1e-9)
        assert np.all(m.matrix_fraction_series <= 1.0 + 1e-9)

    def test_matrix_fraction_goes_negative_past_depletion(self, short_run):
        # constant solubilisation keeps draining after the solid is spent;
        # the summary reports that honestly instead of clipping
        m = rs.release_metrics(short_run)
        assert m.matrix_fraction < -1e-3

    def test_peaks_precede_extinctions(self, short_run):
        m = rs.release_metrics(short_run)
        for pr in m.probes:
            if pr.t_extinct is not None and pr.peak > 0:
                assert pr.t_peak <= pr.t_extinct + 1e-12, pr.species

    def test_custom_probe_stations(self, short_run):
        m = rs.release_metrics(short_run, matrix_probes=[0.0], tissue_probes=[1.7])
        assert len(m.probes) == 5
        assert m.probe("C0", 0.0).peak > 0
        assert m.probe("Ci", 1.7).peak > 0
        with pytest.raises(KeyError):
            m.probe("C0", 0.9)

    def test_internalized_peaks_latest(self, short_run):
        m = rs.release_metrics(short_run)
        x = 1.0 + 1.0 / 3.0
        assert m.probe("C1", x).t_peak < m.probe("C1_star", x).t_peak
        assert m.probe("C1_star", x).t_peak < m.probe("Ci", x).t_peak

    def test_sink_boundary_produces_outflow(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        cfg = rs.SolverConfig(dt=0.05, t_end=10.0, outer_bc=rs.SINK)
        m = rs.release_metrics(rs.simulate(ref_params, grid, cfg))
        assert m.outflow_fraction > 0.01
        total = (m.matrix_fraction + m.tissue_fraction + m.degraded_fraction
                 + m.outflow_fraction)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_serialization_round_trip_keys(self, short_run, tmp_path):
        rs.write_json(tmp_path / "metrics.json", rs.release_metrics(short_run))
        d = json.loads((tmp_path / "metrics.json").read_text())
        assert set(d) == {"t_end", "times", "matrix_fraction_series",
                          "degraded_fraction_series", "matrix_fraction",
                          "tissue_fraction", "degraded_fraction", "outflow_fraction",
                          "ci_exposure", "mass_defect", "probes"}
        assert len(d["probes"]) == 20
        assert set(d["probes"][0]) == {"species", "x", "peak", "t_peak", "t_extinct",
                                       "peak_at_end"}
        assert isinstance(d["times"], list)


class TestSweep:
    def test_single_point_sweep_equals_direct_run(self, tmp_path):
        spec = small_spec()
        base_ka = rs.get_param(spec, "ka")
        rows = rs.sweep(spec, "ka", [base_ka])
        direct = rs.release_metrics(rs.run_spec(spec))
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert rows[0].error is None
        rs.write_json(tmp_path / "swept.json", rows[0].metrics)
        rs.write_json(tmp_path / "direct.json", direct)
        assert (tmp_path / "swept.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_bad_value_is_isolated_on_its_own_row(self):
        spec = small_spec()
        rows = rs.sweep(spec, "ka", [0.6, -1.0])
        assert [r.status for r in rows] == ["ok", "error"]
        assert rows[1].metrics is None
        assert "ka" in rows[1].error

    def test_unknown_parameter_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            rs.sweep(small_spec(), "kmm", [0.1])

    def test_no_internalization_means_no_exposure(self):
        spec = small_spec()
        rows = rs.sweep(spec, "ki", [0.0])
        m = rows[0].metrics
        assert m.ci_exposure == 0.0
        assert m.degraded_fraction == 0.0

    def test_exposure_falls_as_degradation_speeds_up(self):
        spec = small_spec()
        rows = rs.sweep(spec, "kid", [0.05, 0.1, 0.2, 0.4])
        exposures = [r.metrics.ci_exposure for r in rows]
        assert all(r.status == "ok" for r in rows)
        assert all(a > b for a, b in zip(exposures, exposures[1:]))


def lone_row(spec, name, v) -> rs.SweepRow:
    """The row of one sweep point run alone, outside any batch."""
    try:
        ts = rs.run_spec(rs.replace_param(spec, name, v))
        return rs.SweepRow(name, v, rs.release_metrics(ts), None)
    except (ValueError, NumericalError) as exc:
        return rs.SweepRow(name, v, None, f"{type(exc).__name__}: {exc}")


def row_bytes(tmp_path, row: rs.SweepRow) -> bytes:
    """A row's whole outcome as bytes: its metrics file, or its error."""
    if row.metrics is None:
        return f"{row.value!r} {row.error}".encode()
    rs.write_json(tmp_path / "row.json", row.metrics)
    return f"{row.value!r} ".encode() + (tmp_path / "row.json").read_bytes()


@pytest.fixture
def faults(monkeypatch):
    """Makes the ka point ``unfactorable`` fail its factorization and the ka
    point ``poisoned`` turn non-finite some steps into its run, alone or
    batched."""
    def install(spec, unfactorable: float, poisoned: float) -> None:
        solver.load_scipy()
        splu, stepper = solver.splu, solver.ThetaStepper
        p = rs.replace_param(spec, "ka", unfactorable).dimensionless()
        grid = rs.make_grid(p, spec.nx0, spec.nx1)
        singular = stepper(grid, p, spec.solver)._lhs.diagonal().sum()
        poisoned_ka = rs.replace_param(spec, "ka", poisoned).dimensionless().ka

        def failing_splu(a, **kwargs):
            if not kwargs and a.diagonal().sum() == singular:
                raise RuntimeError("Factor is exactly singular")
            return splu(a, **kwargs)

        class Poisoned(stepper):
            def __init__(self, grid, p, config):
                super().__init__(grid, p, config)
                if p.ka == poisoned_ka:
                    self._rhs_mat.data *= 1e30   # in place: the bound step sees it
        monkeypatch.setattr(solver, "splu", failing_splu)
        monkeypatch.setattr(solver, "ThetaStepper", Poisoned)
    return install


class TestBatchedSweep:
    """Sweep points step in batches of at most ``scenario.BATCH_CAP``; every
    row, failed or not, is the row its point gives run alone."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_more_points_than_the_cap_come_back_in_values_order(self, tmp_path, cpus,
                                                                workers):
        spec = small_spec(t_end=2.0)
        values = [float(v) for v in np.geomspace(5.0, 0.05, 2 * scenario.BATCH_CAP + 1)]
        lone = [row_bytes(tmp_path, lone_row(spec, "ka", v)) for v in values]
        cpus(workers)
        rows = rs.sweep(spec, "ka", values)
        assert [r.value for r in rows] == values
        assert [row_bytes(tmp_path, r) for r in rows] == lone

    def test_a_swept_l1_gives_each_point_its_own_grid(self, tmp_path, cpus):
        spec = small_spec(t_end=2.0)
        values = [1.5, 2.0, 3.25]
        cpus(1)
        rows = rs.sweep(spec, "l1", values)
        assert [row_bytes(tmp_path, r) for r in rows] == [
            row_bytes(tmp_path, lone_row(spec, "l1", v)) for v in values]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("theta, dt, values, failed", [
        # invalid, then unstable explicit steps, refused when their steppers are built
        (0.0, 0.002, [0.3, -1.0, 1000.0, 3.0, 3000.0, 30.0],
         ["ValidationError", "spectral radius", "spectral radius"]),
        # a factorization that fails (ka 0.9), and a run that turns non-finite
        # mid-run (ka 2.0)
        (0.5, 0.05, [0.3, 0.9, -1.0, 2.0, 5.0, 0.7],
         ["factorization failed", "ValidationError", "advancing to t=0.5"]),
    ], ids=["build", "factorize-and-step"])
    def test_failures_stay_on_their_own_rows(self, tmp_path, cpus, faults, workers, theta, dt,
                                             values, failed):
        spec = small_spec(theta=theta, dt=dt, t_end=100 * dt)
        if theta:   # at theta = 0 every step matrix is the same
            faults(spec, unfactorable=0.9, poisoned=2.0)
        lone = [lone_row(spec, "ka", v) for v in values]
        assert [failure in r.error for r, failure in
                zip([r for r in lone if r.error], failed)] == [True] * len(failed)
        cpus(workers)
        rows = rs.sweep(spec, "ka", values)
        assert [r.status for r in rows] == [r.status for r in lone]
        assert [row_bytes(tmp_path, r) for r in rows] == [row_bytes(tmp_path, r) for r in lone]

    def test_local_sensitivity_raises_its_points_own_failure(self, faults):
        spec = small_spec()
        faults(spec, unfactorable=0.9, poisoned=0.6 * 1.05)
        with pytest.raises(NumericalError) as err:
            rs.local_sensitivity(spec, "ka")
        assert f"NumericalError: {err.value}" == lone_row(spec, "ka", 0.6 * 1.05).error
        assert "non-finite solution while advancing" in str(err.value)


class TestLocalSensitivity:
    def test_terminal_pool_rate_cannot_move_upstream_fields(self):
        # internalized drug feeds nothing back, so the matrix free peak is
        # exactly independent of its degradation rate
        rec = rs.local_sensitivity(small_spec(), "kid", metric="peak_c0_origin")
        assert abs(rec.forward) <= 1e-9
        assert abs(rec.backward) <= 1e-9
        assert abs(rec.central) <= 1e-9
        assert rec.base_metric > 0.1

    def test_dissolution_accelerates_degradation(self):
        rec = rs.local_sensitivity(small_spec(), "alpha0",
                                   metric="degraded_fraction_final")
        assert rec.forward > 0.0 and rec.backward > 0.0
        assert rec.central == pytest.approx(0.5 * (rec.forward + rec.backward),
                                            rel=1e-12)
        assert rec.param == "alpha0"
        assert rec.metric == "degraded_fraction_final"

    def test_elasticity_is_invariant_under_metric_rescaling(self):
        def scaled(ts):
            return 5.0 * rs.release_metrics(ts).degraded_fraction

        a = rs.local_sensitivity(small_spec(), "alpha0",
                                 metric="degraded_fraction_final")
        b = rs.local_sensitivity(small_spec(), "alpha0", metric=scaled)
        assert b.central == pytest.approx(a.central, rel=1e-10)
        assert b.base_metric == pytest.approx(5.0 * a.base_metric, rel=1e-12)

    def test_central_difference_is_the_more_stable_estimate(self):
        coarse = rs.local_sensitivity(small_spec(), "alpha0",
                                      metric="degraded_fraction_final",
                                      rel_step=0.2)
        fine = rs.local_sensitivity(small_spec(), "alpha0",
                                    metric="degraded_fraction_final",
                                    rel_step=0.1)
        drift_central = abs(coarse.central - fine.central)
        drift_forward = abs(coarse.forward - fine.forward)
        assert drift_central <= drift_forward + 1e-9

    def test_rel_step_domain(self):
        with pytest.raises(ValueError, match="rel_step"):
            rs.local_sensitivity(small_spec(), "alpha0", rel_step=0.0)
        with pytest.raises(ValueError, match="rel_step"):
            rs.local_sensitivity(small_spec(), "alpha0", rel_step=0.6)

    def test_zero_base_value_rejected(self):
        spec = small_spec()
        spec = rs.replace_param(spec, "beta0", 0.0)
        with pytest.raises(ValueError, match="beta0 = 0"):
            rs.local_sensitivity(spec, "beta0")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            rs.local_sensitivity(small_spec(), "alpha0", metric="auc")

    def test_non_finite_metric_raises(self):
        def bad(ts):
            return float("nan")

        with pytest.raises(NumericalError, match="non-finite"):
            rs.local_sensitivity(small_spec(), "alpha0", metric=bad)

    def test_named_metrics_all_evaluate(self):
        ts = rs.run_spec(small_spec())
        values = {name: fn(ts) for name, fn in rs.NAMED_METRICS.items()}
        for name, v in values.items():
            assert np.isfinite(v), name
        assert values["t_peak_c1_mid"] > 0.0
        assert values["peak_c1_mid"] > 0.0


# Runs in a fresh interpreter: a pool that waited for a dead worker would
# hang there, where the timeout of subprocess.run ends it, not here.
DEAD_WORKER = """
import os
from releasesim import scenario
from releasesim.errors import WorkerError
scenario._usable_cpus = lambda: 2
def fn(x):
    if x == 1:
        os._exit(1)
    return x
try:
    scenario.parallel_map(fn, [0, 1, 2, 3])
except WorkerError as exc:
    print("WorkerError:", exc)
"""

# The caller raises while it waits for the workers' results: a SIGALRM
# handler raises in it, as a Ctrl-C would, while the workers sleep.
INTERRUPTED_CALLER = """
import json, os, signal, threading, time
from releasesim import scenario
scenario._usable_cpus = lambda: 2
after = {}
for kind in (RuntimeError, KeyboardInterrupt):
    def interrupt(signum, frame):
        raise kind("interrupted")
    signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    try:
        scenario.parallel_map(lambda x: time.sleep(20), range(4))
        raised = False
    except kind:
        raised = True
    try:
        children = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        children = None
    after[kind.__name__] = {"raised": raised, "children": children,
                            "threads": threading.active_count(),
                            "quick": time.monotonic() - start < 10}
print(json.dumps(after))
"""


class TestParallelMap:
    def test_calls_go_to_one_worker_per_cpu_up_to_one_per_item(self, cpus):
        here = os.getpid()
        cpus(2)
        pids = scenario.parallel_map(lambda _: os.getpid(), range(4))
        assert here not in pids
        assert 1 <= len(set(pids)) <= 2
        assert scenario.parallel_map(lambda _: os.getpid(), [0]) == [here]
        cpus(1)
        assert scenario.parallel_map(lambda _: os.getpid(), range(4)) == [here] * 4

    def test_calls_stay_in_process_while_another_thread_runs(self, cpus):
        cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            pids = scenario.parallel_map(lambda _: os.getpid(), range(4))
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 4

    def test_results_keep_item_order_and_closures_need_not_pickle(self, cpus, tmp_path):
        # with more workers than CPUs as well: each item runs exactly once, so
        # a worker that took an index another one took fails to mark it
        offset = 0.5
        for workers in (2, 6):
            cpus(workers)
            marks = tmp_path / str(workers)
            marks.mkdir()

            def fn(x):
                os.close(os.open(marks / str(x), os.O_CREAT | os.O_EXCL))
                return x * x + offset

            items = (x for x in range(40))  # any iterable
            assert scenario.parallel_map(fn, items) == [x * x + offset for x in range(40)]
            assert len(list(marks.iterdir())) == 40

    def test_items_go_one_at_a_time_to_whichever_worker_is_free(self, cpus):
        cpus(2)

        def fn(x):
            if x == "slow":   # long enough for the other worker to start
                time.sleep(1.0)
            return x, os.getpid()

        results = scenario.parallel_map(fn, ["slow", "fast", "fast", "fast"])
        assert [x for x, _ in results] == ["slow", "fast", "fast", "fast"]
        slow, *fast = (pid for _, pid in results)
        assert len(set(fast)) == 1
        assert slow not in fast

    def test_nested_call_runs_in_the_worker(self, cpus):
        cpus(2)
        outer = scenario.parallel_map(
            lambda _: (os.getpid(), scenario.parallel_map(lambda _: os.getpid(), range(3))),
            range(2))
        for worker, inner in outer:
            assert worker != os.getpid()
            assert inner == [worker] * 3

    def test_exception_comes_back_as_itself_in_item_order(self, cpus):
        cpus(2)

        def fn(x):
            if x >= 2:
                raise NumericalError(f"item {x}")
            return x

        with pytest.raises(NumericalError, match="item 2"):
            scenario.parallel_map(fn, range(4))

    def test_a_dead_worker_raises_instead_of_hanging(self, run_fresh):
        proc = run_fresh(DEAD_WORKER)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("WorkerError: a worker process died")

    def test_an_exception_while_collecting_kills_and_reaps_every_worker(self, run_fresh):
        proc = run_fresh(INTERRUPTED_CALLER)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
            name: {"raised": True, "children": None, "threads": 1, "quick": True}
            for name in ("RuntimeError", "KeyboardInterrupt")}


class TestParallelRuns:
    def test_sweep_csv_is_the_same_with_one_and_two_workers(self, tmp_path, cpus):
        spec = small_spec()
        files = []
        for n in (1, 2):
            cpus(n)
            rows = rs.sweep(spec, "ka", [0.3, -1.0, 0.9])
            assert [r.status for r in rows] == ["ok", "error", "ok"]
            assert rows[1].error == "ValidationError: tissue.ka: must be >= 0, got -1.0"
            path = tmp_path / f"sweep{n}.csv"
            rs.write_sweep_csv(path, rows)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("metric", ["degraded_fraction_final", "custom"])
    def test_sensitivity_record_is_the_same_with_one_and_two_workers(self, cpus, metric):
        if metric == "custom":
            metric = lambda ts: 5.0 * rs.release_metrics(ts).degraded_fraction  # noqa: E731
        records = []
        for n in (1, 2):
            cpus(n)
            records.append(rs.local_sensitivity(small_spec(), "alpha0", metric=metric))
        assert records[0] == records[1]
