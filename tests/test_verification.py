import json
from dataclasses import replace

import numpy as np
import pytest

import releasesim as rs
from releasesim import analytic
from releasesim.analytic import KINETIC_BALANCES
from releasesim.errors import NumericalError
from releasesim.solver import FIELD_TABLE, MATRIX, SINK, ZERO_FLUX
from releasesim.verification import (ORACLE_BLOCK, ORACLE_GRID_CAP, _cumulative_trapezoid,
                                     _field_deviations, _rk4_growth, _rk4_linear, _rk4_lu,
                                     check_mass, check_oracle)

from conftest import make_rng, sample_mode, sample_params


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
            p = sample_params(rng)
            ap = sample_mode(rng)
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

    @pytest.mark.parametrize("t_grid, message", [
        ([0.0, 0.0, 0.0], "must increase"),
        (np.linspace(0.0, -40.0, 4001), "must increase"),
        ([1.0, 1.0, 1.0], "start at 0"),
        (np.linspace(1.0, 41.0, 4001), "start at 0"),
    ])
    def test_degenerate_grids_are_rejected(self, ref_params, ref_mode, t_grid, message):
        # the initial values hold at t = 0; any other start, a zero step or
        # a backward grid would be reported as a passing deviation
        x_t = 0.5 * (ref_params.l0 + ref_params.l1)
        for which, x in (("matrix_solid", 0.0), ("tissue_bound", x_t), ("internalized", x_t)):
            with pytest.raises(ValueError, match=message):
                rs.ode_oracle(which, ref_params, ref_mode, x, t_grid)

    @pytest.mark.parametrize("which", ["free_matrix", ("tissue_bound", "internalized")])
    def test_unknown_balance_rejected(self, ref_params, ref_mode, which):
        with pytest.raises(ValueError, match="unknown balance"):
            rs.ode_oracle(which, ref_params, ref_mode, 0.0, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("which", ["matrix_solid", "tissue_bound", "internalized"])
    def test_a_step_past_the_stability_limit_is_refused_before_it_runs(
            self, ref_params, ref_mode, monkeypatch, which):
        # z = -20 per step: RK4's growth factor is ~5.5e3, so a run would
        # overflow; the refusal comes first, under the suite's
        # warnings-as-errors rule, with no closed form evaluated
        from releasesim import verification

        calls = []
        for name in ("matrix_free", "matrix_solid", "tissue_free", "tissue_bound",
                     "tissue_internalized"):
            monkeypatch.setattr(verification, name,
                                lambda *args, _name=name: calls.append(_name))
        decay = {"matrix_solid": ref_params.solid_rate, "tissue_bound": ref_params.bound_rate,
                 "internalized": ref_params.kid}[which]
        t = np.linspace(0.0, 200 * 20.0 / decay, 201)
        x = 0.0 if which == "matrix_solid" else 0.5 * (ref_params.l0 + ref_params.l1)
        with pytest.raises(NumericalError, match=f"^t_grid too coarse for the {which} oracle: "
                                                 r"step \S+ is past RK4's stability limit"):
            rs.ode_oracle(which, ref_params, ref_mode, x, t)
        assert calls == []

    def test_a_zero_balance_past_the_stability_limit_is_refused(self, ref_params, ref_mode):
        # with e2 = 0 the tissue balances are 0 throughout, and so is an
        # unstable RK4 run of them: a step-doubling test alone certifies it
        mode = replace(ref_mode, e2=0.0)
        x_t = 0.5 * (ref_params.l0 + ref_params.l1)
        t = np.linspace(0.0, 200 * 20.0 / min(ref_params.bound_rate, ref_params.kid), 201)
        for which in ("tissue_bound", "internalized"):
            assert rs.ode_oracle(which, ref_params, mode, x_t, np.linspace(0.0, 1.0, 11)) == 0.0
            with pytest.raises(NumericalError, match="stability limit"):
                rs.ode_oracle(which, ref_params, mode, x_t, t)

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


def _rk4_dgtsv_reference(decay, forcing_half, dt, y0):
    """The oracle's RK4 step as it solved its recurrence before the LU was
    written down: s formed by whole-array expressions, then LAPACK's dgtsv,
    which factorizes the unit lower-bidiagonal matrix again on every call."""
    from scipy.linalg.lapack import dgtsv

    z = -decay * dt
    k1 = forcing_half[0:-1:2]
    k2 = 0.5 * z * k1 + forcing_half[1::2]
    k3 = 0.5 * z * k2 + forcing_half[1::2]
    k4 = z * k3 + forcing_half[2::2]
    s = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    b = np.concatenate([[y0], s])
    m = len(b)
    return dgtsv(np.full(m - 1, -_rk4_growth(z)), np.ones(m), np.zeros(m - 1), b)[3]


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
            np.testing.assert_array_equal(_rk4_linear(decay, f, dt, y0, _rk4_lu(decay, dt, n + 1)),
                                          _rk4_lfilter_reference(decay, f, dt, y0))

    @pytest.mark.parametrize("m", [2, 3, 4, ORACLE_BLOCK - 1, ORACLE_BLOCK + 1])
    @pytest.mark.parametrize("decay, dt", [(0.0, 0.01), (0.37, 0.02), (40.0, 0.04)],
                             ids=["rho-1", "mild", "stiff"])
    def test_the_lu_solve_is_the_dgtsv_solve_bit_for_bit(self, m, decay, dt):
        # every value, NaN and the sign of every zero and NaN included; m = 2
        # takes the written-out sweeps, and an LU built for a longer block
        # (as ode_oracle builds it once per step) must give the same bits
        rng = make_rng(24)
        base = rng.standard_normal(2 * m - 1)
        cases = [base, np.full(2 * m - 1, -0.0), -base]
        for special in (np.inf, -np.inf, np.nan, -0.0, 1e308):
            for at in (0, 1, 2, m - 1, 2 * m - 2):
                f = base.copy()
                f[at] = special
                cases.append(f)
        longer = _rk4_lu(decay, dt, m + 5)
        with np.errstate(all="ignore"):
            for f in cases:
                for y0 in (0.0, -0.0, 1.0, -0.5, 1e308):
                    want = _rk4_dgtsv_reference(decay, f, dt, y0)
                    for got in (_rk4_linear(decay, f, dt, y0, _rk4_lu(decay, dt, m)),
                                _rk4_linear(decay, f, dt, y0, longer)):
                        assert np.array_equal(got, want, equal_nan=True), (f, y0)
                        assert np.array_equal(np.signbit(got), np.signbit(want)), (f, y0)

    def test_the_written_down_lu_is_what_dgttrf_returns(self):
        from scipy.linalg.lapack import dgttrf

        for decay, dt, m in ((0.0, 0.01, 3), (0.37, 0.02, 7), (40.0, 0.04, 64)):
            dl, d, du, du2, ipiv = _rk4_lu(decay, dt, m)
            rho = _rk4_growth(-decay * dt)
            *factors, info = dgttrf(np.full(m - 1, -rho), np.ones(m), np.zeros(m - 1))
            assert info == 0
            for mine, lapack in zip((dl, d, du, du2, ipiv), factors):
                assert mine.dtype == lapack.dtype and np.array_equal(mine, lapack)

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


class TestCheckOracle:
    def test_check_returns_exactly_the_single_balance_values(self, ref_params, ref_mode):
        rng = make_rng(22)
        cases = [(ref_params, ref_mode)]
        for _ in range(3):
            p = sample_params(rng)
            cases.append((p, sample_mode(rng)))
        for p, ap in cases:
            t = rs.oracle_time_grid(p, ap)
            x_t = 0.5 * (p.l0 + p.l1)
            singles = (_oracle_outcome(lambda: rs.ode_oracle("matrix_solid", p, ap, 0.0, t)),
                       _oracle_outcome(lambda: rs.ode_oracle("tissue_bound", p, ap, x_t, t)),
                       _oracle_outcome(lambda: rs.ode_oracle("internalized", p, ap, x_t, t)))
            # a refusal is the first balance's refusal, word for word
            checked = _oracle_outcome(lambda: tuple(check_oracle(p, ap)["deviations"].values()))
            assert checked == next((v for v in singles if isinstance(v, str)), singles)


def _all_fields_oracle(which, p, ap, x, t_grid):
    """The oracle as it was before the per-field evaluators: every field of
    the layer on the quarter-step grid, then every field again on t_grid.
    The reference the oracle must equal exactly on a grid within RK4's
    stability limit."""
    tissue = ("tissue_free", "tissue_bound", "tissue_internalized")
    layers = {"matrix_solid": (("matrix_free", "matrix_solid"), 1),
              "tissue_bound": (tissue, 1), "internalized": (tissue, 2)}
    forcing = {"matrix_solid": lambda f: p.free_rate * f[0] - p.km * p.c_lim,
               "tissue_bound": lambda f: p.ka * f[0], "internalized": lambda f: p.ki * f[1]}
    decay = {"matrix_solid": p.solid_rate, "tissue_bound": p.bound_rate, "internalized": p.kid}
    y0 = {"matrix_solid": 1.0, "tissue_bound": 0.0, "internalized": 0.0}
    names, index = layers[which]

    def closed(x, t, p, ap):  # every field of the layer, looked up when called
        return [getattr(analytic, name)(x, t, p, ap) for name in names]

    t = np.asarray(t_grid, dtype=float)
    dt = float(np.diff(t)[0])
    n = len(t) - 1
    f_quarter = forcing[which](closed(float(x), t[0] + 0.25 * dt * np.arange(4 * n + 1), p, ap))
    lu, lu_fine = _rk4_lu(decay[which], dt, n + 1), _rk4_lu(decay[which], 0.5 * dt, 2 * n + 1)
    y = _rk4_linear(decay[which], f_quarter[::2], dt, y0[which], lu)
    y_fine = _rk4_linear(decay[which], f_quarter, 0.5 * dt, y0[which], lu_fine)[::2]
    ref = closed(float(x), t, p, ap)[index]
    scale = max(float(np.max(np.abs(ref))), 1e-30)
    est = float(np.max(np.abs(y - y_fine))) / 15.0
    if not est <= 1e-9 * max(scale, 1.0):
        raise NumericalError(
            f"t_grid too coarse for the {which} oracle: step-doubling estimate {est:.3g}"
        )
    return float(np.max(np.abs(y - ref))) / scale


def _stiff_draws():
    """Four tissue-rate draws spread over the ranges of the stiff benchmark
    workload: ka in [3, 5], kd in [0.5, 1.5], kid in [0.015, 0.03]."""
    spec = rs.RunSpec()
    draws = []
    for ka, kd, kid in ((3.1, 1.4, 0.016), (3.6, 0.6, 0.029), (4.2, 1.1, 0.02), (4.9, 0.8, 0.024)):
        p = replace(spec, tissue=replace(spec.tissue, ka=ka, kd=kd, kid=kid)).dimensionless()
        draws.append((p, rs.default_mode(p)))
    return draws


def _edge_sizes(block):
    """Step counts around a block: below it, equal to it, one more than it
    and a whole multiple of it (a grid has at least 2 steps)."""
    return sorted({n for n in (block - 1, block, block + 1, 2 * block) if n >= 2})


class TestFieldwiseOracle:
    @pytest.mark.parametrize("block", [1, 7, ORACLE_BLOCK])
    def test_equals_the_all_fields_oracle_exactly(self, ref_params, ref_mode, monkeypatch, block):
        from releasesim import verification

        monkeypatch.setattr(verification, "ORACLE_BLOCK", block)
        rng = make_rng(23)
        sampled = []
        for _ in range(3):
            p = sample_params(rng)
            sampled.append((p, sample_mode(rng)))
        for p, ap in [(ref_params, ref_mode), *sampled, *_stiff_draws()]:
            t_full = rs.oracle_time_grid(p, ap)
            # the grid check_oracle runs, at the default block only, and
            # its first steps cut at the block's edges
            grids = [t_full[:n + 1] for n in _edge_sizes(block)]
            grids += [t_full] if block == ORACLE_BLOCK else []
            x_t = 0.5 * (p.l0 + p.l1)
            for t in grids:
                for which in KINETIC_BALANCES:
                    x = 0.0 if which == "matrix_solid" else x_t
                    new = _oracle_outcome(lambda: rs.ode_oracle(which, p, ap, x, t))
                    old = _oracle_outcome(lambda: _all_fields_oracle(which, p, ap, x, t))
                    assert new == old, (which, len(t), p)

    @pytest.mark.parametrize("block", [1, 7, ORACLE_BLOCK])
    def test_coarse_grid_message_is_unchanged(self, ref_params, ref_mode, monkeypatch, block):
        from releasesim import verification

        monkeypatch.setattr(verification, "ORACLE_BLOCK", block)
        x_t = 0.5 * (ref_params.l0 + ref_params.l1)
        for n in (10, *_edge_sizes(block)):
            t = np.linspace(0.0, 2.5 * n, n + 1)
            for which, x in (("matrix_solid", 0.0), ("tissue_bound", x_t), ("internalized", x_t)):
                new = _oracle_outcome(lambda: rs.ode_oracle(which, ref_params, ref_mode, x, t))
                old = _oracle_outcome(lambda: _all_fields_oracle(which, ref_params, ref_mode, x, t))
                assert isinstance(new, str) and "too coarse" in new
                assert new == old, (which, len(t))

    @pytest.mark.parametrize("which, poisoned", [
        ("matrix_solid", "matrix_free"), ("matrix_solid", "matrix_solid"),
        ("internalized", "tissue_bound"), ("internalized", "tissue_internalized"),
    ], ids=["solid-forcing", "solid-own", "internalized-forcing", "internalized-own"])
    def test_a_nan_in_the_last_block_is_refused(self, ref_params, ref_mode, monkeypatch,
                                                which, poisoned):
        # a running maximum must keep a NaN as one max over the whole grid
        # does; Python's max(0.0, nan) is 0.0, which would certify the run
        from releasesim import verification

        monkeypatch.setattr(verification, "ORACLE_BLOCK", 64)
        t = np.linspace(0.0, 25.0, 1001)          # last block: steps 960 to 1000
        x = 0.0 if which == "matrix_solid" else 0.5 * (ref_params.l0 + ref_params.l1)
        assert rs.ode_oracle(which, ref_params, ref_mode, x, t) <= 1e-8

        def nan_late(x, times, p, ap, _field=getattr(analytic, poisoned)):
            values = np.array(_field(x, times, p, ap), dtype=float)
            values[np.asarray(times) > t[990]] = np.nan
            return values
        for module in (analytic, verification):
            monkeypatch.setattr(module, poisoned, nan_late)
        new = _oracle_outcome(lambda: rs.ode_oracle(which, ref_params, ref_mode, x, t))
        old = _oracle_outcome(lambda: _all_fields_oracle(which, ref_params, ref_mode, x, t))
        assert isinstance(new, str) and "too coarse" in new
        assert new == old

    def test_each_field_is_evaluated_only_where_it_is_used(self, ref_params, ref_mode, monkeypatch):
        # the oracle's cost is the closed form on the 4n+1 quarter grid: a
        # balance may evaluate its forcing there, its own field only on the
        # n+1 output points, and no other field at all, one block at a time
        from releasesim import verification

        calls = []
        for name in ("matrix_free", "matrix_solid", "tissue_free", "tissue_bound",
                     "tissue_internalized"):
            def recording(x, t, p, ap, _name=name, _field=getattr(analytic, name)):
                calls.append((_name, np.size(t)))
                return _field(x, t, p, ap)
            for module in (analytic, verification):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recording)

        t = rs.oracle_time_grid(ref_params, ref_mode)
        n = len(t) - 1
        assert n > 2 * ORACLE_BLOCK
        x_t = 0.5 * (ref_params.l0 + ref_params.l1)
        for which, x, forcing, own in (("matrix_solid", 0.0, "matrix_free", "matrix_solid"),
                                       ("tissue_bound", x_t, "tissue_free", "tissue_bound"),
                                       ("internalized", x_t, "tissue_bound", "tissue_internalized")):
            calls.clear()
            rs.ode_oracle(which, ref_params, ref_mode, x, t)
            assert {name for name, _ in calls} == {forcing, own}
            own_sizes = [size for name, size in calls if name == own]
            assert sum(own_sizes) == n + 1
            assert max(own_sizes) <= ORACLE_BLOCK + 1
            assert max(size for name, size in calls if name == forcing) <= 4 * ORACLE_BLOCK + 1

    def test_memory_is_bounded_by_the_block_not_the_grid(self):
        # at the grid cap, over the stiffest benchmark draw's horizon; one
        # pass over the whole grid traced 88.5 MiB here, the blocks 6.5 MiB
        # for each of the two tissue balances
        import tracemalloc

        from releasesim import solver

        p, ap = max(_stiff_draws(), key=lambda case: len(rs.oracle_time_grid(*case)))
        t = np.linspace(0.0, rs.oracle_time_grid(p, ap)[-1], ORACLE_GRID_CAP + 1)
        x_t = 0.5 * (p.l0 + p.l1)
        solver.load_scipy()     # the first solve's import is not the oracle's memory
        tracemalloc.start()
        try:
            for which in ("tissue_bound", "internalized"):
                rs.ode_oracle(which, p, ap, x_t, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, peak / 2 ** 20


class TestSampling:
    def test_sampled_parameters_are_admissible(self):
        rng = make_rng(11)
        for _ in range(100):
            p = sample_params(rng)
            matrix, tissue, interface = rs.redimensionalize(p)
            assert rs.validate_params(matrix, tissue, interface) == []

    def test_finite_permeability_option(self):
        rng = make_rng(12)
        p = sample_params(rng, pm_infinite=False)
        assert np.isfinite(p.pm) and p.pm > 0

    def test_sampled_modes_are_valid(self):
        rng = make_rng(13)
        saw_zero = False
        for _ in range(100):
            p = sample_params(rng)
            ap = sample_mode(rng)
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

    def test_ledger_serialization(self, ref_params, tmp_path):
        grid = rs.make_grid(ref_params, 16, 16)
        ts = rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.05, t_end=1.0))
        led = rs.mass_audit(ts)
        rs.write_json(tmp_path / "ledger.json", led)
        d = json.loads((tmp_path / "ledger.json").read_text())
        assert set(d) == {"times", "matrix_mass", "tissue_mass", "sink_cum",
                          "outflow_cum", "initial_total", "rel_defect", "max_rel_defect"}
        assert len(d["times"]) == len(d["matrix_mass"])
        assert d["max_rel_defect"] == led.max_rel_defect == max(d["rel_defect"])
        with pytest.raises(TypeError):   # the defect is derived, never passed in
            rs.MassLedger(led.times, led.matrix_mass, led.tissue_mass, led.sink_cum,
                          led.outflow_cum, led.initial_total, rel_defect=led.rel_defect)


class TestConvergence:
    def test_observed_orders_arithmetic(self):
        errors = tuple({name: e for name in rs.FIELDS} for e in (0.16, 0.04, 0.01))
        report = rs.ConvergenceReport(levels=(8, 16, 32), errors=errors)
        assert list(report.orders) == list(rs.FIELDS)
        for seq in report.orders.values():
            np.testing.assert_allclose(seq, [2.0, 2.0], rtol=1e-12)

    def test_orders_are_derived_never_passed_in(self):
        report = rs.ConvergenceReport(levels=(8, 16, 32),
                                      errors=({"c0": 0.4}, {"c0": 0.0}, {"c0": 0.0}))
        assert all(np.isnan(report.orders["c0"]))
        assert np.isnan(report.observed_order)
        with pytest.raises(TypeError):
            rs.ConvergenceReport(levels=(8,), errors=({"c0": 0.1},), orders={"c0": []})

    def test_report_takes_most_pessimistic_species(self):
        report = rs.ConvergenceReport(
            levels=(8, 16),
            errors=({"c0": 0.4, "c1": 0.4}, {"c0": 0.1, "c1": 0.2}),
        )
        assert report.orders == {"c0": [2.0], "c1": [1.0]}
        assert report.observed_order == 1.0

    def test_monotone_only_while_every_error_falls(self):
        falling = rs.ConvergenceReport(levels=(8, 16, 32),
                                       errors=({"c0": 0.4, "c1": 0.4}, {"c0": 0.1, "c1": 0.2},
                                               {"c0": 0.025, "c1": 0.1}))
        assert falling.monotone
        rising = rs.ConvergenceReport(levels=(8, 16), errors=({"c0": 0.1}, {"c0": 0.2}))
        assert rising.orders == {"c0": [-1.0]}
        assert not rising.monotone
        # one field whose error stalls at one refinement is enough
        stalled = rs.ConvergenceReport(levels=(8, 16, 32),
                                       errors=({"c0": 0.4, "c1": 0.4}, {"c0": 0.1, "c1": 0.2},
                                               {"c0": 0.025, "c1": 0.2}))
        assert not stalled.monotone

    def test_deviations_take_each_layer_stride_from_the_grids(self, ref_params):
        cfg = rs.SolverConfig(dt=0.05, t_end=0.5, sample_every=10 ** 9)
        ref = rs.simulate(ref_params, rs.make_grid(ref_params, 32, 32), cfg)
        ts = rs.simulate(ref_params, rs.make_grid(ref_params, 8, 16), cfg)
        devs = _field_deviations(ts, ref)
        for name, (_, layer) in FIELD_TABLE.items():
            stride = 4 if layer == MATRIX else 2
            b = ref.u[-1, ref.grid.field_slice(name)][::stride]
            a = ts.u[-1, ts.grid.field_slice(name)]
            assert devs[name] == np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)
        assert set(_field_deviations(ref, ref).values()) == {0.0}

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


def _lone_spatial(p, config, cells, ref_cells):
    """spatial_convergence's errors with each run stepped alone, in turn."""
    ref = rs.simulate(p, rs.make_grid(p, ref_cells, ref_cells), config)
    return tuple(_field_deviations(rs.simulate(p, rs.make_grid(p, n, n), config), ref)
                 for n in cells)


def _lone_mass(spec):
    """check_mass's two defects with each run stepped alone, in turn."""
    base = replace(spec, nx0=32, nx1=32,
                   solver=replace(spec.solver, dt=0.01, t_end=5.0, sample_every=5,
                                  outer_bc=ZERO_FLUX))
    closed = replace(base, tissue=replace(base.tissue, kid=0.0))
    return (rs.mass_audit(rs.run_spec(closed)).max_rel_defect,
            rs.mass_audit(rs.run_spec(base)).max_rel_defect)


def _outcome(call):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _membrane_spec(**solver):
    return rs.RunSpec(interface=rs.InterfaceParams(pm=3.0, sigma=1.4),
                      solver=rs.SolverConfig(**solver))


class TestBatchedVerifyRuns:
    """The spatial study's runs, and the mass check's, step as one batch; each
    number, and each failure, is the one the runs give stepped alone."""

    @pytest.mark.parametrize("spec, config", [
        (rs.RunSpec(), dict(outer_bc=ZERO_FLUX)),
        (rs.RunSpec(), dict(outer_bc=SINK)),
        (_membrane_spec(), dict(outer_bc=ZERO_FLUX)),
        (_membrane_spec(), dict(outer_bc=SINK, theta=1.0)),
        (rs.RunSpec(), dict(outer_bc=ZERO_FLUX, theta=1.0)),
    ], ids=["zero-flux", "sink", "pm-3-sigma-1.4", "pm-sink-implicit", "implicit"])
    def test_spatial_errors_are_the_lone_runs(self, spec, config):
        p = spec.dimensionless()
        cfg = rs.SolverConfig(dt=2e-3, t_end=0.1, sample_every=10 ** 9, **config)
        for cells, ref_cells in (((8, 16, 32), 64), ((8, 16, 32, 64), 256)):
            report = rs.spatial_convergence(p, cfg, cells=cells, ref_cells=ref_cells)
            assert report.errors == _lone_spatial(p, cfg, cells, ref_cells)

    @pytest.mark.parametrize("spec", [
        rs.RunSpec(), _membrane_spec(), _membrane_spec(theta=1.0),
        rs.RunSpec(solver=rs.SolverConfig(theta=1.0, outer_bc=SINK)),
    ], ids=["default", "pm-3-sigma-1.4", "pm-implicit", "implicit"])
    def test_mass_defects_are_the_lone_runs(self, spec):
        check = check_mass(spec)
        defects = check["closed_system_defect"], check["with_degradation_defect"]
        assert defects == _lone_mass(spec)

    def test_an_unstable_explicit_level_fails_as_alone(self, ref_params):
        cfg = rs.SolverConfig(dt=2e-3, t_end=0.1, theta=0.25, sample_every=10 ** 9)
        spec = rs.RunSpec(solver=rs.SolverConfig(theta=0.25))
        # the 64-cell reference is past the explicit limit, the 16-cell one is not
        for cells, ref_cells in (((8, 16, 32), 64), ((4, 8), 16)):
            lone = _outcome(lambda: _lone_spatial(ref_params, cfg, cells, ref_cells))
            assert _outcome(lambda: rs.spatial_convergence(ref_params, cfg, cells,
                                                           ref_cells).errors) == lone
        assert "unstable" in _outcome(lambda: _lone_spatial(ref_params, cfg, (8, 16, 32), 64))[1]
        lone = _outcome(lambda: _lone_mass(spec))
        assert "unstable" in lone[1] and _outcome(lambda: check_mass(spec)) == lone

    @staticmethod
    def _poison(monkeypatch, factors, fail_to_build=()):
        """Runs whose (cells, kid) is in ``factors`` have their step scaled by
        its factor, so they overflow some steps in; those in ``fail_to_build``
        fail to prepare."""
        from releasesim import solver

        class Poisoned(solver.ThetaStepper):
            def __init__(self, grid, p, config):
                if (grid.nx0, p.kid) in fail_to_build:
                    raise rs.NumericalError(f"cannot build {grid.nx0}, {p.kid}")
                super().__init__(grid, p, config)
                if (grid.nx0, p.kid) in factors:
                    self._rhs_mat.data *= factors[grid.nx0, p.kid]
        monkeypatch.setattr(solver, "ThetaStepper", Poisoned)

    def test_the_first_failing_level_in_run_order_is_raised(self, ref_params, monkeypatch):
        # the 32-cell level overflows steps before the 16-cell one; alone, the
        # 16-cell level runs first, so its failure is the one raised
        kid = ref_params.kid
        cfg = rs.SolverConfig(dt=2e-3, t_end=0.1, sample_every=10 ** 9)
        self._poison(monkeypatch, {(16, kid): 1e30, (32, kid): 1e300})
        lone = _outcome(lambda: _lone_spatial(ref_params, cfg, (8, 16, 32), 64))
        assert lone[0] == "NumericalError" and "advancing to t=0.02" in lone[1], lone
        assert _outcome(lambda: rs.spatial_convergence(ref_params, cfg, (8, 16, 32), 64)) == lone

    @pytest.mark.parametrize("closed, sink, fails_to_build", [
        (1e30, None, False), (None, 1e30, False), (1e30, 1e300, False), (1e30, None, True),
    ], ids=["closed", "degrading", "both", "closed-then-unbuildable"])
    def test_the_mass_checks_first_failing_run_is_raised(self, monkeypatch, closed, sink,
                                                         fails_to_build):
        # a run that fails to prepare after one that overflows: alone, the
        # overflow comes first, so it must in the batch too
        spec = rs.RunSpec()
        kid = spec.dimensionless().kid
        factors = {key: f for key, f in (((32, 0.0), closed), ((32, kid), sink)) if f}
        self._poison(monkeypatch, factors, {(32, kid)} if fails_to_build else ())
        lone = _outcome(lambda: _lone_mass(spec))
        assert lone[0] == "NumericalError" and "advancing to t=" in lone[1], lone
        assert _outcome(lambda: check_mass(spec)) == lone


class TestAnalyticNumericComparison:
    def test_static_configuration_is_reproduced_exactly(self):
        # no kinetics, no mode: the closed form is a constant solid field,
        # which the solver must hold from any start; every deviation is round-off
        p = rs.DimensionlessParams(
            alpha0=0.0, k=1.0, eps0=0.5, km=0.0, c_lim=0.0, beta0=0.0,
            delta0=0.3, ka=0.5, kd=0.1, ki=0.2, kid=0.1,
            d1=0.8, l1=2.0, pm=float("inf"), sigma=1.0,
        )
        ap = rs.AnalyticParams(a=1.0, b=1.0, e1=0.0, e2=0.0)
        grid = rs.make_grid(p, 16, 16)
        ts = rs.simulate(p, grid, rs.SolverConfig(dt=0.02, t_end=0.2),
                         u0=rs.analytic_state(p, ap, grid, 0.5), t0=0.5)
        assert ts.times[-1] == pytest.approx(0.7)
        final = rs.analytic_state(p, ap, grid, float(ts.times[-1]))
        for name in rs.FIELDS:
            ref = final[grid.field_slice(name)]
            scale = max(float(np.max(np.abs(ref))), 1e-30)
            assert np.max(np.abs(ts.u[-1, grid.field_slice(name)] - ref)) <= 1e-12 * scale

    def test_analytic_state_matches_closed_forms_on_nodes(self, ref_params, ref_mode):
        grid = rs.make_grid(ref_params, 8, 8)
        u = rs.analytic_state(ref_params, ref_mode, grid, 1.25)
        assert u.shape == (grid.n,)
        x0, x1 = grid.layer_x("matrix"), grid.layer_x("tissue")
        c0, c0s = (f(x0, 1.25, ref_params, ref_mode) for f in (rs.matrix_free, rs.matrix_solid))
        c1, c1s, ci = (f(x1, 1.25, ref_params, ref_mode)
                       for f in (rs.tissue_free, rs.tissue_bound, rs.tissue_internalized))
        np.testing.assert_array_equal(u[grid.field_slice("c0")], c0)
        np.testing.assert_array_equal(u[grid.field_slice("c0s")], c0s)
        np.testing.assert_array_equal(u[grid.field_slice("c1")], c1)
        np.testing.assert_array_equal(u[grid.field_slice("c1s")], c1s)
        np.testing.assert_array_equal(u[grid.field_slice("ci")], ci)
