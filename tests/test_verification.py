from dataclasses import replace

import numpy as np
import pytest

import releasesim as rs
from releasesim.errors import NumericalError
from releasesim.verification import (_cumulative_trapezoid, _observed_orders,
                                     _rk4_linear, check_oracle)

from conftest import make_rng


class TestOdeOracle:
    def test_reference_balances_reintegrate_cleanly(self, ref_params, ref_mode):
        t = rs.oracle_time_grid(ref_params, ref_mode)
        for which, x in (("matrix_solid", 0.0), ("tissue_bound", 1.5),
                         ("internalized", 1.5)):
            dev = rs.ode_oracle(which, ref_params, ref_mode, x, t)
            assert dev <= 1e-6, (which, dev)

    def test_random_draws_reintegrate_cleanly(self):
        rng = make_rng(10)
        for _ in range(30):
            p = rs.sample_params(rng)
            ap = rs.sample_mode(rng)
            x_t = 0.5 * (p.l0 + p.l1)
            for which, x in (("matrix_solid", 0.3), ("tissue_bound", x_t),
                             ("internalized", x_t)):
                try:
                    dev = rs.ode_oracle(which, p, ap, x, rs.oracle_time_grid(p, ap))
                except NumericalError:
                    dev = rs.ode_oracle(which, p, ap, x,
                                        rs.oracle_time_grid(p, ap, n_min=20000))
                assert dev <= 1e-6, (which, dev)

    def test_coarse_grid_is_rejected_not_trusted(self, ref_params, ref_mode):
        t = np.linspace(0.0, 25.0, 11)
        with pytest.raises(NumericalError, match="too coarse"):
            rs.ode_oracle("matrix_solid", ref_params, ref_mode, 0.0, t)

    def test_grid_validation(self, ref_params, ref_mode):
        with pytest.raises(ValueError, match="at least 3"):
            rs.ode_oracle("matrix_solid", ref_params, ref_mode, 0.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="uniform"):
            rs.ode_oracle("matrix_solid", ref_params, ref_mode, 0.0,
                          [0.0, 0.1, 0.3, 0.4])

    def test_unknown_balance_rejected(self, ref_params, ref_mode):
        with pytest.raises(ValueError, match="unknown balance"):
            rs.ode_oracle("free_matrix", ref_params, ref_mode, 0.0,
                          np.linspace(0.0, 1.0, 11))

    def test_time_grid_shape(self, ref_params, ref_mode):
        t = rs.oracle_time_grid(ref_params, ref_mode, n_min=500)
        assert t[0] == 0.0
        assert len(t) >= 501
        steps = np.diff(t)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)


def _rk4_lfilter_reference(decay, forcing_half, dt, y0):
    """The oracle's RK4 step with its recurrence run by scipy.signal.lfilter:
    the reference the LAPACK solve must equal bit for bit."""
    from scipy.signal import lfilter

    z = -decay * dt
    k1 = forcing_half[0:-1:2]
    k2 = 0.5 * z * k1 + forcing_half[1::2]
    k3 = 0.5 * z * k2 + forcing_half[1::2]
    k4 = z * k3 + forcing_half[2::2]
    s = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    y = lfilter([1.0], [1.0, -rho], s, zi=[rho * y0])[0]
    return np.concatenate([[y0], y])


class TestOracleArithmetic:
    @pytest.mark.parametrize("decay, dt", [
        (0.0, 0.01),      # kid = 0: rho = 1
        (1e-7, 0.01),     # rho a hair below 1
        (0.37, 0.02),
        (40.0, 0.04),     # z = -1.6, close to RK4's smallest rho (~0.27)
    ])
    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
    def test_recurrence_matches_the_lfilter_run_bit_for_bit(self, decay, dt, magnitude):
        rng = make_rng(20)
        n = 500
        tt = dt * np.arange(2 * n + 1) / 2
        # forcing of both signs: a decaying oscillation plus noise
        f = magnitude * (np.exp(-0.1 * tt) * np.cos(3.0 * tt) + 0.3 * rng.standard_normal(2 * n + 1))
        for y0 in (0.0, magnitude, -0.5 * magnitude):
            np.testing.assert_array_equal(_rk4_linear(decay, f, dt, y0),
                                          _rk4_lfilter_reference(decay, f, dt, y0))

    @pytest.mark.parametrize("n", [1, 2, 3, 1601])
    def test_trapezoid_helper_matches_scipy_bit_for_bit(self, n):
        from scipy.integrate import cumulative_trapezoid

        rng = make_rng(21)
        t = np.cumsum(rng.uniform(0.01, 1.0, n))       # non-uniform spacing
        y = rng.standard_normal(n) * np.exp(rng.uniform(-5, 5, n))
        np.testing.assert_array_equal(_cumulative_trapezoid(y, t),
                                      cumulative_trapezoid(y, t, initial=0.0))


def _oracle_outcome(call):
    try:
        return call()
    except NumericalError as exc:
        return f"NumericalError: {exc}"


class TestSharedOracle:
    def _singles(self, p, ap, t):
        x_t = 0.5 * (p.l0 + p.l1)
        return (_oracle_outcome(lambda: rs.ode_oracle("matrix_solid", p, ap, 0.0, t)),
                _oracle_outcome(lambda: rs.ode_oracle("tissue_bound", p, ap, x_t, t)),
                _oracle_outcome(lambda: rs.ode_oracle("internalized", p, ap, x_t, t)))

    def test_check_returns_exactly_the_single_balance_values(self, ref_params, ref_mode):
        rng = make_rng(22)
        cases = [(ref_params, ref_mode)]
        for _ in range(3):
            p = rs.sample_params(rng)
            cases.append((p, rs.sample_mode(rng)))
        for p, ap in cases:
            t = rs.oracle_time_grid(p, ap)
            singles = self._singles(p, ap, t)
            x_t = 0.5 * (p.l0 + p.l1)
            pair = _oracle_outcome(
                lambda: rs.ode_oracle(("tissue_bound", "internalized"), p, ap, x_t, t))
            # a refusal is the first balance's refusal, word for word
            assert pair == next((v for v in singles[1:] if isinstance(v, str)), singles[1:])
            checked = _oracle_outcome(lambda: tuple(check_oracle(p, ap)["deviations"].values()))
            assert checked == next((v for v in singles if isinstance(v, str)), singles)

    def test_coarse_grid_raises_the_same_error(self, ref_params, ref_mode):
        t = np.linspace(0.0, 25.0, 11)
        x_t = 0.5 * (ref_params.l0 + ref_params.l1)
        pair = _oracle_outcome(
            lambda: rs.ode_oracle(("tissue_bound", "internalized"), ref_params, ref_mode, x_t, t))
        single = _oracle_outcome(
            lambda: rs.ode_oracle("tissue_bound", ref_params, ref_mode, x_t, t))
        assert isinstance(pair, str) and "too coarse" in pair
        assert pair == single

    def test_balances_of_both_layers_are_not_mixed(self, ref_params, ref_mode):
        with pytest.raises(ValueError, match="one layer"):
            rs.ode_oracle(("matrix_solid", "tissue_bound"), ref_params, ref_mode, 0.5,
                          np.linspace(0.0, 1.0, 11))

    def test_overflowing_run_is_refused_not_reported(self, ref_params, ref_mode):
        # z = -20 per step: RK4's growth factor is ~5.5e3, so the run overflows
        t = np.linspace(0.0, 200 * 20.0 / ref_params.solid_rate, 201)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="too coarse"):
            rs.ode_oracle("matrix_solid", ref_params, ref_mode, 0.0, t)


class TestSampling:
    def test_sampled_parameters_are_admissible(self):
        rng = make_rng(11)
        for _ in range(100):
            p = rs.sample_params(rng)
            matrix, tissue, interface = rs.redimensionalize(p)
            assert rs.validate_params(matrix, tissue, interface) == []

    def test_finite_permeability_option(self):
        rng = make_rng(12)
        p = rs.sample_params(rng, pm_infinite=False)
        assert np.isfinite(p.pm) and p.pm > 0

    def test_sampled_modes_are_valid(self):
        rng = make_rng(13)
        saw_zero = False
        for _ in range(100):
            p = rs.sample_params(rng)
            ap = rs.sample_mode(rng)
            assert ap.a >= 0.0 and ap.b >= 0.0
            saw_zero = saw_zero or ap.a == 0.0 or ap.b == 0.0
            # the rate splitter must accept every sampled mode
            rs.matrix_rates(p, ap.a)
            rs.tissue_rates(p, ap.b)
        assert saw_zero  # degenerate wavenumbers are part of the contract


class TestMassAudit:
    def test_closed_system_defect_is_round_off(self, ref_params):
        p = replace(ref_params, kid=0.0)
        grid = rs.make_grid(p, 32, 32)
        ts = rs.simulate(p, grid, rs.SolverConfig(dt=0.05, t_end=10.0, sample_every=10))
        led = rs.mass_audit(ts)
        assert led.max_rel_defect <= 1e-12
        assert led.initial_total == pytest.approx(1.0, rel=1e-12)  # unit loading, unit depth
        np.testing.assert_array_equal(led.outflow_cum, 0.0)

    def test_degradation_sink_accounts_for_the_loss(self, ref_params):
        grid = rs.make_grid(ref_params, 32, 32)
        ts = rs.simulate(ref_params, grid,
                         rs.SolverConfig(dt=0.01, t_end=5.0, sample_every=10))
        led = rs.mass_audit(ts)
        assert led.sink_cum[-1] > 1e-3          # kid > 0 really removes drug
        assert led.max_rel_defect <= 1e-4       # ...and the ledger closes

    def test_defect_shrinks_quadratically_with_sample_spacing(self, ref_params):
        grid = rs.make_grid(ref_params, 32, 32)
        defects = []
        for se in (20, 10, 5):
            cfg = rs.SolverConfig(dt=0.01, t_end=5.0, sample_every=se)
            defects.append(rs.mass_audit(rs.simulate(ref_params, grid, cfg)).max_rel_defect)
        for coarse, fine in zip(defects, defects[1:]):
            assert 3.2 <= coarse / fine <= 5.5

    def test_sink_boundary_outflow_is_tracked(self, ref_params):
        grid = rs.make_grid(ref_params, 32, 32)
        cfg = rs.SolverConfig(dt=0.01, t_end=5.0, sample_every=5, outer_bc=rs.SINK)
        led = rs.mass_audit(rs.simulate(ref_params, grid, cfg))
        assert led.outflow_cum[-1] > 0.25
        assert np.all(np.diff(led.outflow_cum) >= 0.0)
        assert led.max_rel_defect <= 1e-3

    def test_ledger_serialization(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        ts = rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.05, t_end=1.0))
        d = rs.mass_audit(ts).to_dict()
        for key in ("times", "matrix_mass", "tissue_mass", "sink_cum",
                    "outflow_cum", "initial_total", "max_rel_defect"):
            assert key in d
        assert len(d["times"]) == len(d["matrix_mass"])


class TestConvergence:
    def test_observed_orders_arithmetic(self):
        errors = [{name: 0.16 for name in ("c0s", "c0", "c1s", "c1", "ci")},
                  {name: 0.04 for name in ("c0s", "c0", "c1s", "c1", "ci")},
                  {name: 0.01 for name in ("c0s", "c0", "c1s", "c1", "ci")}]
        orders = _observed_orders(errors)
        for seq in orders.values():
            np.testing.assert_allclose(seq, [2.0, 2.0], rtol=1e-12)

    def test_report_takes_most_pessimistic_species(self):
        report = rs.ConvergenceReport(
            levels=(8, 16),
            errors=({"c0": 0.4, "c1": 0.4}, {"c0": 0.1, "c1": 0.2}),
            orders={"c0": [2.0], "c1": [1.0]},
        )
        assert report.observed_order == 1.0

    def test_non_monotone_errors_warn(self):
        report = rs.ConvergenceReport(
            levels=(8, 16),
            errors=({"c0": 0.1}, {"c0": 0.2}),
            orders={"c0": [-1.0]},
        )
        with pytest.warns(UserWarning, match="not monotone"):
            report.warn_if_preasymptotic("synthetic")

    def test_reference_mismatch_rejected(self, ref_params):
        cfg = rs.SolverConfig(dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match="multiple"):
            rs.spatial_convergence(ref_params, cfg, cells=(12,), ref_cells=64)

    def test_spatial_refinement_is_second_order(self, ref_params):
        cfg = rs.SolverConfig(dt=2e-3, t_end=0.5, theta=0.5, sample_every=10 ** 9)
        report = rs.spatial_convergence(ref_params, cfg, cells=(8, 16, 32), ref_cells=128)
        assert report.observed_order >= 1.7

    def test_trapezoid_stepping_is_second_order(self, ref_params):
        grid = rs.make_grid(ref_params, 24, 24)
        cfg = rs.SolverConfig(dt=0.25, t_end=1.0, theta=0.5, sample_every=10 ** 9)
        report = rs.temporal_convergence(ref_params, grid, cfg,
                                         dts=(0.2, 0.1, 0.05), ref_dt=0.003125)
        assert report.observed_order >= 1.7

    def test_implicit_stepping_is_first_order(self, ref_params):
        grid = rs.make_grid(ref_params, 24, 24)
        cfg = rs.SolverConfig(dt=0.25, t_end=1.0, theta=1.0, sample_every=10 ** 9)
        report = rs.temporal_convergence(ref_params, grid, cfg,
                                         dts=(0.2, 0.1, 0.05), ref_dt=0.003125)
        assert 0.8 <= report.observed_order <= 1.3


class TestAnalyticNumericComparison:
    def test_static_configuration_is_reproduced_exactly(self):
        # no kinetics, no mode: the closed form is a constant solid field,
        # which the solver must hold; every deviation is round-off
        p = rs.DimensionlessParams(
            alpha0=0.0, k=1.0, eps0=0.5, km=0.0, c_lim=0.0, beta0=0.0,
            delta0=0.3, gamma=1.0, ka=0.5, kd=0.1, ki=0.2, kid=0.1,
            d1=0.8, l1=2.0, pm=float("inf"), sigma=1.0,
        )
        ap = rs.AnalyticParams(a=1.0, b=1.0, e1=0.0, e2=0.0)
        grid = rs.make_grid(p, 16, 16)
        report = rs.compare_analytic_numeric(p, ap, grid,
                                             rs.SolverConfig(dt=0.02, t_end=1.0))
        assert max(report.deviations.values()) <= 1e-12
        assert report.max_flux_mismatch == 0.0

    def test_generic_mode_reports_honest_drift(self, ref_params, ref_mode):
        grid = rs.make_grid(ref_params, 32, 32)
        cfg = rs.SolverConfig(dt=0.01, t_end=1.0)
        report = rs.compare_analytic_numeric(ref_params, ref_mode, grid, cfg)
        assert report.t_final == pytest.approx(report.t_start + 10 * cfg.dt)
        assert set(report.deviations) == {"c0s", "c0", "c1s", "c1", "ci"}
        # the mode does not satisfy the discrete problem: drift must be
        # visible, and the interface flux gap is the dominant driver
        assert report.deviations["c0"] > 1e-3
        assert report.max_flux_mismatch > 0.1
        fm, ft = rs.interface_fluxes(ref_params, ref_mode, report.times)
        np.testing.assert_allclose(report.flux_mismatch,
                                   np.abs(np.asarray(fm) - np.asarray(ft)),
                                   rtol=1e-12)

    def test_analytic_state_matches_closed_forms_on_nodes(self, ref_params, ref_mode):
        grid = rs.make_grid(ref_params, 8, 8)
        s = rs.analytic_state(ref_params, ref_mode, grid, 1.25)
        c0, c0s = rs.eval_matrix(grid.x_matrix, 1.25, ref_params, ref_mode)
        np.testing.assert_array_equal(s.c0, c0)
        np.testing.assert_array_equal(s.c0s, c0s)
        assert s.t == 1.25
