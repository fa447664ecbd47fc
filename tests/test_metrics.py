import json
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import releasesim as rs
from releasesim.errors import NumericalError


def small_spec(**solver_kwargs) -> rs.RunSpec:
    cfg = dict(dt=0.05, t_end=10.0, sample_every=10)
    cfg.update(solver_kwargs)
    return replace(rs.default_spec(), nx0=12, nx1=12, solver=rs.SolverConfig(**cfg))


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

    def test_still_rising_series_warns_and_flags(self):
        with pytest.warns(UserWarning, match="still rising"):
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = rs.sweep(spec, "ka", [0.6, -1.0])
        assert [r.status for r in rows] == ["ok", "error"]
        assert rows[1].metrics is None
        assert "ka" in rows[1].error

    def test_unknown_parameter_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            rs.sweep(small_spec(), "kmm", [0.1])

    def test_no_internalization_means_no_exposure(self):
        spec = small_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = rs.sweep(spec, "ki", [0.0])
        m = rows[0].metrics
        assert m.ci_exposure == 0.0
        assert m.degraded_fraction == 0.0

    def test_exposure_falls_as_degradation_speeds_up(self):
        spec = small_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = rs.sweep(spec, "kid", [0.05, 0.1, 0.2, 0.4])
        exposures = [r.metrics.ci_exposure for r in rows]
        assert all(r.status == "ok" for r in rows)
        assert all(a > b for a, b in zip(exposures, exposures[1:]))


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = rs.local_sensitivity(small_spec(), "alpha0",
                                     metric="degraded_fraction_final")
            b = rs.local_sensitivity(small_spec(), "alpha0", metric=scaled)
        assert b.central == pytest.approx(a.central, rel=1e-10)
        assert b.base_metric == pytest.approx(5.0 * a.base_metric, rel=1e-12)

    def test_central_difference_is_the_more_stable_estimate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = {name: fn(ts) for name, fn in rs.NAMED_METRICS.items()}
        for name, v in values.items():
            assert np.isfinite(v), name
        assert values["t_peak_c1_mid"] > 0.0
        assert values["peak_c1_mid"] > 0.0
