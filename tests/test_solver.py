import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import releasesim as rs
from releasesim import scenario, solver
from releasesim.errors import NumericalError

from conftest import make_rng


def inert_params(pm: float = 0.0, sigma: float = 1.0) -> rs.DimensionlessParams:
    """All kinetic rates zero: pure two-layer diffusion."""
    return rs.DimensionlessParams(
        alpha0=0.0, k=1.0, eps0=0.5, km=0.0, c_lim=0.0, beta0=0.0, delta0=0.0,
        ka=0.0, kd=0.0, ki=0.0, kid=0.0, d1=0.7, l1=2.0,
        pm=pm, sigma=sigma,
    )


def uniform_state(grid: rs.CompositeGrid, value: float = 1.0) -> np.ndarray:
    """Packed state with every field equal to ``value``."""
    return np.full(grid.n, value)


def total_drug(ts: rs.TimeSeries) -> np.ndarray:
    """Trapezoid-integrated drug in both layers at each sample."""
    wm = ts.grid.layer_weights("matrix")
    wt = ts.grid.layer_weights("tissue")
    return (ts.c0s + ts.c0) @ wm + (ts.c1s + ts.c1 + ts.ci) @ wt


class TestGridAndConfigValidation:
    def test_grid_needs_four_cells_per_layer(self):
        with pytest.raises(ValueError, match="4 cells"):
            rs.CompositeGrid(nx0=3, nx1=16)
        with pytest.raises(ValueError, match="4 cells"):
            rs.CompositeGrid(nx0=16, nx1=0)

    def test_grid_needs_positive_tissue_thickness(self):
        with pytest.raises(ValueError, match="exceed"):
            rs.CompositeGrid(nx0=8, nx1=8, l1=1.0)

    @pytest.mark.parametrize("kwargs", [dict(nx0=8.5, nx1=8), dict(nx0=8, nx1=8.0),
                                        dict(nx0="8", nx1=8)])
    def test_grid_rejects_non_integer_cell_counts(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            rs.CompositeGrid(**kwargs)

    @pytest.mark.parametrize("sample_every", [2.5, 2.0, np.float64(3.0)])
    def test_solver_config_rejects_non_integer_sample_every(self, sample_every):
        with pytest.raises(ValueError, match="sample_every must be an integer"):
            rs.SolverConfig(dt=0.1, t_end=1.0, sample_every=sample_every)

    def test_numpy_integer_counts_are_accepted(self, ref_params):
        grid = rs.make_grid(ref_params, np.int64(8), np.int32(8))
        cfg = rs.SolverConfig(dt=0.1, t_end=1.0, sample_every=np.int64(3))
        ts = rs.simulate(ref_params, grid, cfg)
        assert grid.nm == 9 and grid.nt == 9
        np.testing.assert_array_equal(ts.times, np.array([0, 3, 6, 9, 10]) * 0.1)

    def test_grid_geometry(self):
        g = rs.CompositeGrid(nx0=10, nx1=20, l1=3.0)
        assert g.nm == 11 and g.nt == 21
        assert g.h0 == pytest.approx(0.1)
        assert g.h1 == pytest.approx(0.1)
        assert g.layer_x("matrix")[0] == 0.0 and g.layer_x("matrix")[-1] == 1.0
        assert g.layer_x("tissue")[0] == 1.0 and g.layer_x("tissue")[-1] == 3.0
        assert g.layer_weights("matrix").sum() == pytest.approx(1.0, rel=1e-14)
        assert g.layer_weights("tissue").sum() == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0),
        dict(dt=-0.1),
        dict(t_end=-1.0),
        dict(theta=1.5),
        dict(theta=-0.1),
        dict(outer_bc="leaky"),
        dict(sample_every=0),
        # horizons off the step grid: 3 steps of 0.3 would stop at t = 0.9
        dict(dt=0.3, t_end=1.0),
        dict(dt=0.1, t_end=0.55),
        dict(dt=0.01, t_end=160.005),
        dict(dt=0.01, t_end=1e-12),
        dict(dt=1e-10, t_end=1e300),
    ])
    def test_solver_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            rs.SolverConfig(**kwargs)

    @pytest.mark.parametrize("dt, t_end, n", [(0.1, 0.3, 3), (0.01, 160.0, 16000),
                                              (2e-3, 1.0, 500), (0.0625 / 16, 1.0, 256),
                                              (0.1, 0.0, 0)])
    def test_horizon_on_the_step_grid_is_accepted(self, dt, t_end, n):
        # 0.3 / 0.1 and 160 / 0.01 are whole only up to round-off
        assert rs.SolverConfig(dt=dt, t_end=t_end).n_steps == n


class TestTrajectoryBookkeeping:
    def test_initial_state_is_unit_solid_loading(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        u = rs.initialize(grid)
        assert u.shape == (grid.n,)
        np.testing.assert_array_equal(u[grid.field_slice("c0s")], 1.0)
        for name in ("c0", "c1s", "c1", "ci"):
            np.testing.assert_array_equal(u[grid.field_slice(name)], 0.0)

    def test_zero_horizon_returns_single_sample(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        ts = rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.1, t_end=0.0))
        assert len(ts.times) == 1
        assert ts.times[0] == 0.0
        np.testing.assert_array_equal(ts.c0s[0], 1.0)

    def test_sample_times_are_exact_step_multiples(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        cfg = rs.SolverConfig(dt=0.02, t_end=1.0, sample_every=7)
        ts = rs.simulate(ref_params, grid, cfg)
        expected = np.array([0, 7, 14, 21, 28, 35, 42, 49, 50], dtype=float) * 0.02
        np.testing.assert_array_equal(ts.times, expected)

    def test_first_and_last_steps_always_sampled(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        cfg = rs.SolverConfig(dt=0.1, t_end=0.6, sample_every=1000)
        ts = rs.simulate(ref_params, grid, cfg)
        assert len(ts.times) == 2
        assert ts.times[-1] == pytest.approx(0.6)

    def test_doubling_sample_every_roughly_halves_samples(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        n = []
        for se in (10, 20):
            cfg = rs.SolverConfig(dt=0.01, t_end=10.0, sample_every=se)
            n.append(len(rs.simulate(ref_params, grid, cfg).times))
        assert n[0] == 101 and n[1] == 51

    def test_determinism_is_bitwise(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        cfg = rs.SolverConfig(dt=0.05, t_end=2.0, sample_every=4)
        a = rs.simulate(ref_params, grid, cfg)
        b = rs.simulate(ref_params, grid, cfg)
        for name in ("times", "u", "c0s", "c0", "c1s", "c1", "ci"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_restart_matches_uninterrupted_run(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        full = rs.simulate(ref_params, grid,
                           rs.SolverConfig(dt=0.05, t_end=2.0, sample_every=40))
        leg1 = rs.simulate(ref_params, grid,
                           rs.SolverConfig(dt=0.05, t_end=1.0, sample_every=20))
        leg2 = rs.simulate(ref_params, grid,
                           rs.SolverConfig(dt=0.05, t_end=1.0, sample_every=20),
                           u0=leg1.u[-1], t0=leg1.times[-1])
        assert leg2.times[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(leg2.times[-1], full.times[-1], rtol=0, atol=1e-12)
        for name in ("c0s", "c0", "c1s", "c1", "ci"):
            np.testing.assert_array_equal(getattr(leg2, name)[-1],
                                          getattr(full, name)[-1])



FIELDS = ("c0s", "c0", "c1s", "c1", "ci")


class TestPackedState:
    def test_field_slices_tile_the_packed_vector_in_field_order(self):
        grid = rs.CompositeGrid(nx0=8, nx1=12)
        assert rs.FIELDS == FIELDS
        assert grid.n == 2 * 9 + 3 * 13
        slices = [grid.field_slice(name) for name in FIELDS]
        assert [sl.stop - sl.start for sl in slices] == [9, 9, 13, 13, 13]
        assert slices[0].start == 0 and slices[-1].stop == grid.n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))

    @pytest.mark.parametrize("t_end", [0.0, 1.0])
    def test_simulate_leaves_u0_unmodified_and_unaliased(self, ref_params, t_end):
        grid = rs.make_grid(ref_params, 8, 8)
        u0 = uniform_state(grid, 0.5)
        ts = rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.1, t_end=t_end),
                         u0=u0, t0=2.0)
        np.testing.assert_array_equal(u0, 0.5)
        assert not np.shares_memory(ts.u, u0)
        np.testing.assert_array_equal(ts.u[0], u0)
        assert ts.times[0] == 2.0

    @pytest.mark.parametrize("shape", [(44,), (46,), (1, 45), ()])
    def test_u0_of_the_wrong_shape_raises(self, ref_params, shape):
        grid = rs.make_grid(ref_params, 8, 8)
        assert grid.n == 45
        with pytest.raises(ValueError, match="u0 must have shape"):
            rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.1, t_end=1.0),
                        u0=np.zeros(shape))

    def test_fields_are_read_only_views_of_u(self, short_run):
        grid = short_run.grid
        assert short_run.u.shape == (len(short_run.times), grid.n)
        assert short_run.u.flags.c_contiguous
        for name in FIELDS:
            field = getattr(short_run, name)
            assert np.shares_memory(field, short_run.u)
            np.testing.assert_array_equal(field, short_run.u[:, grid.field_slice(name)])
            assert field.shape == (len(short_run.times), grid.nm if name in ("c0s", "c0")
                                   else grid.nt)
            with pytest.raises(ValueError, match="read-only"):
                field[0, 0] = 0.0

    @pytest.mark.parametrize("n_times, u_shape", [(3, (3, 40)), (2, (3, 45))])
    def test_time_series_rejects_a_misshapen_state(self, n_times, u_shape):
        grid = rs.CompositeGrid(8, 8)
        assert grid.n == 45
        with pytest.raises(ValueError, match="shape"):
            rs.TimeSeries(times=np.zeros(n_times), u=np.zeros(u_shape), grid=grid,
                          params=rs.RunSpec().dimensionless(), config=rs.SolverConfig())


class NonFinite(Exception):
    """A state of the reference run is not all finite; ``args[0]`` is the
    message ``simulate`` must raise for it."""


def sampled_steps(cfg) -> list[int]:
    """The step numbers a run samples: every ``sample_every``-th, the first
    and the last."""
    return [j for j in range(cfg.n_steps + 1) if j % cfg.sample_every == 0 or j == cfg.n_steps]


def operator_reference(p, grid, cfg, u0=None, t0=0.0):
    """The sampled trajectory as a plain loop of the step through SciPy's
    public sparse operator, ``R @ u``, with R, the source and the LU from the
    stepper.  Every state, ``u0`` included, is tested with ``np.isfinite``;
    the first that fails raises ``NonFinite``: ``u0`` as the initial state at
    t0, a step's result with the clock of that step."""
    stepper = rs.ThetaStepper(grid, p, cfg)
    u = rs.initialize(grid) if u0 is None else np.asarray(u0, dtype=float)
    if not np.isfinite(u).all():
        raise NonFinite(f"non-finite initial state at t={t0:.6g}")
    states = [u]
    with np.errstate(all="ignore"):
        for j in range(1, cfg.n_steps + 1):
            u = stepper._lu.solve(stepper._rhs_mat @ u + stepper._rhs_src)
            if not np.isfinite(u).all():
                t = t0 + j * cfg.dt
                raise NonFinite(f"non-finite solution while advancing to t={t:.6g}; reduce dt")
            states.append(u)
    return np.stack([states[j] for j in sampled_steps(cfg)])


class TestPackedLoopMatchesStepper:
    @pytest.mark.parametrize("params_update, cfg_update, t0", [
        ({}, {}, 0.0),
        ({}, dict(outer_bc=rs.SINK), 0.0),
        (dict(pm=0.8, sigma=1.3), {}, 0.0),
        ({}, dict(sample_every=7), 0.0),
        ({}, dict(outer_bc=rs.SINK, sample_every=3), 3.0),
    ], ids=["zero-flux", "sink", "finite-pm", "ragged-sampling", "restart-clock"])
    def test_simulate_is_bitwise_a_loop_of_steps(self, ref_params, params_update,
                                                 cfg_update, t0):
        p = replace(ref_params, **params_update)
        grid = rs.make_grid(p, 8, 12)
        cfg = replace(rs.SolverConfig(dt=0.05, t_end=2.0, sample_every=4), **cfg_update)
        u0 = uniform_state(grid, 0.5) if t0 else rs.initialize(grid)
        ts = rs.simulate(p, grid, cfg, u0=u0, t0=t0)
        samples = operator_reference(p, grid, cfg, u0, t0)
        times = t0 + np.asarray(sampled_steps(cfg), float) * cfg.dt
        np.testing.assert_array_equal(ts.times, times)
        packed = np.concatenate([getattr(ts, name) for name in FIELDS], axis=1)
        np.testing.assert_array_equal(packed, samples)
        np.testing.assert_array_equal(ts.u, samples)
        assert ts.u.flags.c_contiguous
        for name in FIELDS:
            assert np.shares_memory(getattr(ts, name), ts.u)


class TestKernelStep:
    """The step calls SciPy's CSR kernel directly; its answers must be those
    of the public operator ``R @ u`` to the last bit."""

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("params_update, outer_bc", [
        ({}, rs.ZERO_FLUX), ({}, rs.SINK), (dict(pm=0.8, sigma=1.3), rs.ZERO_FLUX),
    ], ids=["zero-flux", "sink", "finite-pm"])
    def test_long_run_equals_the_operator_loop(self, ref_params, params_update, outer_bc,
                                               theta):
        p = replace(ref_params, **params_update)
        grid = rs.make_grid(p, 16, 16)
        cfg = rs.SolverConfig(dt=0.01, t_end=12.0, theta=theta, outer_bc=outer_bc,
                              sample_every=40)
        assert cfg.n_steps >= 1000
        ts = rs.simulate(p, grid, cfg)
        np.testing.assert_array_equal(ts.u, operator_reference(p, grid, cfg))

    @pytest.mark.parametrize("kind", ["strided", "integer"])
    def test_any_layout_of_u0_steps_as_its_float_copy(self, ref_params, kind):
        grid = rs.make_grid(ref_params, 8, 12)
        cfg = rs.SolverConfig(dt=0.05, t_end=2.0, sample_every=4)
        ints = np.arange(grid.n) % 3
        if kind == "strided":
            wide = np.zeros((grid.n, 2))
            wide[:, 0] = ints
            u0 = wide[:, 0]
            assert not u0.flags.c_contiguous
        else:
            u0 = ints
        ts = rs.simulate(ref_params, grid, cfg, u0=u0)
        expected = rs.simulate(ref_params, grid, cfg, u0=ints.astype(float))
        np.testing.assert_array_equal(ts.u, expected.u)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("params_update, outer_bc", [
        ({}, rs.ZERO_FLUX), ({}, rs.SINK), (dict(pm=0.8, sigma=1.3), rs.ZERO_FLUX),
    ], ids=["zero-flux", "sink", "finite-pm"])
    def test_a_one_step_run_is_one_operator_step(self, ref_params, params_update, outer_bc,
                                                 theta):
        # a single step is simulate with t_end = dt from any state and clock
        p = replace(ref_params, **params_update)
        grid = rs.make_grid(p, 8, 12)
        cfg = rs.SolverConfig(dt=0.05, t_end=0.05, theta=theta, outer_bc=outer_bc)
        u = make_rng(19).random(grid.n)
        ts = rs.simulate(p, grid, cfg, u0=u, t0=3.0)
        stepper = rs.ThetaStepper(grid, p, cfg)
        one_step = stepper._lu.solve(stepper._rhs_mat @ u + stepper._rhs_src)
        np.testing.assert_array_equal(ts.u, [u, one_step])
        np.testing.assert_array_equal(ts.times, [3.0, 3.0 + 0.05])


class TestBatchedMarch:
    """Runs stepped together as one block-diagonal system hold, to the last
    bit, the samples of a loop of each run's own LU; a lone run is a batch
    of one."""

    @given(pm=st.sampled_from([np.inf, 0.8, 3.0]), sigma=st.sampled_from([1.0, 1.4, 1.5]),
           theta=st.sampled_from([0.5, 1.0]), outer_bc=st.sampled_from([rs.ZERO_FLUX, rs.SINK]),
           nx=st.tuples(st.integers(4, 14), st.integers(4, 14)), every=st.integers(1, 9),
           name=st.sampled_from(["ka", "kid", "d1", "km", "l1"]),
           values=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=scenario.BATCH_CAP + 3),
           t_end=st.just(2.0))
    @example(pm=1.4, sigma=1.5, theta=1.0, outer_bc=rs.SINK, nx=(5, 13), every=3, name="l1",
             values=[0.1 * k for k in range(1, scenario.BATCH_CAP + 4)], t_end=2.0)
    @example(pm=0.8, sigma=1.4, theta=0.5, outer_bc=rs.ZERO_FLUX, nx=(6, 9), every=2, name="l1",
             values=[0.5, 1.0, 2.0], t_end=0.0)   # no step: each run holds its initial state
    @settings(max_examples=25)
    def test_every_run_of_a_batch_is_its_lone_run(self, ref_params, pm, sigma, theta, outer_bc,
                                                  nx, every, name, values, t_end):
        cfg = rs.SolverConfig(dt=0.05, t_end=t_end, theta=theta, outer_bc=outer_bc,
                              sample_every=every)
        runs, lone = [], []
        for v in values:
            # a swept l1 gives each run its own grid
            p = replace(ref_params, pm=pm, sigma=sigma, **{name: 1.0 + v if name == "l1" else v})
            grid = rs.make_grid(p, *nx)
            runs.append(solver.prepare(p, grid, cfg))
            lone.append(operator_reference(p, grid, cfg))
        assert solver.march(runs) == [None] * len(values)
        for (ts, _, _), alone in zip(runs, lone):
            assert np.array_equal(ts.u, alone)

    @pytest.mark.parametrize("kas", [(1.0,), (0.5, 1.0, 2.0)], ids=["lone", "batch"])
    def test_a_batch_factorizes_each_run_then_the_whole_once(self, ref_params, monkeypatch,
                                                             kas):
        solver.load_scipy()
        splu, calls = solver.splu, []
        monkeypatch.setattr(solver, "splu", lambda *a, **kw: calls.append(kw) or splu(*a, **kw))
        cfg = rs.SolverConfig(t_end=1.0)
        runs = [solver.prepare(p, rs.make_grid(p, 8, 8), cfg)
                for p in (replace(ref_params, ka=ka) for ka in kas)]
        assert solver.march(runs) == [None] * len(kas)
        assert calls == [{}] * len(kas) + [{"permc_spec": "NATURAL"}]

    def test_the_runs_of_a_batch_share_one_config(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        runs = [solver.prepare(ref_params, grid, rs.SolverConfig(dt=dt, t_end=1.0))
                for dt in (0.1, 0.05)]
        with pytest.raises(ValueError, match="the runs of a batch must share one SolverConfig"):
            solver.march(runs)

    def test_each_run_fails_at_its_own_clock(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        cfg = rs.SolverConfig(dt=0.1, t_end=1.0, sample_every=1)

        def run(t0, poisoned=False):
            series, stepper, u = solver.prepare(ref_params, grid, cfg, t0=t0)
            if poisoned:
                stepper._rhs_mat.data *= 1e300   # in place: the bound step sees it
            return series, stepper, u
        message = "non-finite solution while advancing to t=3.2; reduce dt"
        errors = solver.march([run(0.0), run(3.0, poisoned=True)])
        assert [e and (type(e), str(e)) for e in errors] == [None, (NumericalError, message)]
        with pytest.raises(NumericalError) as err:
            solver.simulate_all([run(3.0, poisoned=True)])
        assert str(err.value) == message


class TestPhysicalInvariants:
    @pytest.mark.parametrize("pm,sigma", [(0.0, 1.3), (float("inf"), 1.0)])
    def test_uniform_field_is_stationary_without_kinetics(self, pm, sigma):
        # a constant respecting the interface condition is an exact steady
        # state of pure diffusion; the stepper must hold it to round-off
        p = inert_params(pm=pm, sigma=sigma)
        grid = rs.make_grid(p, 8, 12)
        ts = rs.simulate(p, grid, rs.SolverConfig(dt=0.1, t_end=10.0),
                         u0=uniform_state(grid))
        for name in ("c0s", "c0", "c1s", "c1", "ci"):
            np.testing.assert_allclose(getattr(ts, name), 1.0, rtol=0, atol=1e-12)

    def test_superposition_doubles_fields(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        cfg = rs.SolverConfig(dt=0.05, t_end=3.0, sample_every=10)
        base = rs.simulate(ref_params, grid, cfg)
        doubled = rs.simulate(replace(ref_params, c_lim=2.0 * ref_params.c_lim),
                              grid, cfg, u0=2.0 * rs.initialize(grid))
        for name in ("c0s", "c0", "c1s", "c1", "ci"):
            np.testing.assert_allclose(getattr(doubled, name),
                                       2.0 * getattr(base, name),
                                       rtol=0, atol=1e-10)

    def test_interface_partition_holds_each_sample(self, ref_params):
        for sigma in (1.0, 2.0):
            p = replace(ref_params, sigma=sigma)
            grid = rs.make_grid(p, 16, 16)
            ts = rs.simulate(p, grid, rs.SolverConfig(dt=0.05, t_end=2.0))
            gap = np.abs(ts.c0[:, -1] - sigma * ts.c1[:, 0])
            assert gap.max() <= 1e-12

    def test_sink_boundary_pins_outer_node_to_zero(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        cfg = rs.SolverConfig(dt=0.05, t_end=2.0, outer_bc=rs.SINK)
        ts = rs.simulate(ref_params, grid, cfg)
        assert np.abs(ts.c1[:, -1]).max() <= 1e-14

    def test_closed_system_conserves_total_drug(self, ref_params):
        p = replace(ref_params, kid=0.0)
        grid = rs.make_grid(p, 24, 24)
        cfg = rs.SolverConfig(dt=0.05, t_end=20.0, outer_bc=rs.ZERO_FLUX)
        ts = rs.simulate(p, grid, cfg)
        total = total_drug(ts)
        np.testing.assert_allclose(total, total[0], rtol=0, atol=1e-12)

    def test_internalization_degradation_strictly_drains(self, ref_params):
        assert ref_params.kid > 0
        grid = rs.make_grid(ref_params, 24, 24)
        ts = rs.simulate(ref_params, grid,
                         rs.SolverConfig(dt=0.05, t_end=20.0, outer_bc=rs.ZERO_FLUX))
        total = total_drug(ts)
        assert np.all(np.diff(total) < 0.0)
        assert total[-1] < total[0] - 1e-3

    def test_undershoot_stays_at_round_off_except_solid(self, short_run):
        mins = short_run.min_values()
        for name in ("c0", "c1s", "c1", "ci"):
            assert mins[name] >= -1e-8, name
        # the solid pool legitimately relaxes below zero under constant
        # solubilisation; make sure that behaviour is real, not clipped
        assert mins["c0s"] < -1e-3

    def test_finite_permeability_limits_to_infinite(self, ref_params):
        grid = rs.make_grid(ref_params, 16, 16)
        cfg = rs.SolverConfig(dt=0.05, t_end=2.0)
        tight = rs.simulate(replace(ref_params, pm=1e6), grid, cfg)
        inf = rs.simulate(replace(ref_params, pm=float("inf")), grid, cfg)
        for name in ("c0s", "c0", "c1s", "c1", "ci"):
            np.testing.assert_allclose(getattr(tight, name), getattr(inf, name),
                                       rtol=0, atol=1e-4)

    def test_zero_permeability_decouples_tissue(self, ref_params):
        p = replace(ref_params, pm=0.0)
        grid = rs.make_grid(p, 16, 16)
        ts = rs.simulate(p, grid, rs.SolverConfig(dt=0.05, t_end=5.0))
        # nothing crosses: the tissue stays empty
        for name in ("c1s", "c1", "ci"):
            assert np.abs(getattr(ts, name)).max() == 0.0


class TestFailureModes:
    def test_non_finite_initial_state_raises(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        bad = uniform_state(grid)
        bad[grid.field_slice("c0")][3] = np.nan
        with pytest.raises(NumericalError, match=r"^non-finite initial state at t=0$"):
            rs.simulate(ref_params, grid, rs.SolverConfig(dt=0.1, t_end=1.0),
                        u0=bad)

    def test_explicit_scheme_with_large_step_raises(self, ref_params):
        grid = rs.make_grid(ref_params, 32, 32)
        cfg = rs.SolverConfig(dt=0.5, t_end=50.0, theta=0.0)
        with pytest.raises(NumericalError):
            rs.simulate(ref_params, grid, cfg)


def first_nonfinite_message(p, grid, cfg, u0, t0=0.0):
    """What ``simulate`` must raise for the first state of
    :func:`operator_reference` that is not all finite; None if none."""
    try:
        operator_reference(p, grid, cfg, u0, t0)
    except NonFinite as exc:
        return exc.args[0]
    return None


class TestNonFiniteStates:
    """``u0`` is tested before sample 0 is stored, and every step's state by
    one dot product with a zero vector; a non-finite ``u0`` fails as the
    initial state at t0, a run that goes non-finite at the clock of that
    step, and neither warns."""

    def test_the_dot_with_zero_flags_every_non_finite_entry(self):
        # a BLAS that skipped zero factors would let an inf through here;
        # solver.march tests each step's state by this dot
        nonfinite = np.zeros(325).dot
        u = np.random.default_rng(3).standard_normal(325) * 1e300
        u[:4] = [5e-324, -0.0, -1.7e308, 1.7e308]
        assert not nonfinite(u)
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf, -np.inf):
                for i in range(len(u)):
                    v = u.copy()
                    v[i] = bad
                    assert np.isnan(nonfinite(v)), (bad, i)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("pm, outer_bc, name, node", [
        *[(0.8, rs.ZERO_FLUX, name, node) for name in FIELDS for node in (0, -1)],
        (np.inf, rs.ZERO_FLUX, "c0", -1),   # the tie c0 = sigma*c1
        (np.inf, rs.SINK, "c1", -1),        # the sink pin
    ])
    def test_a_non_finite_u0_entry_is_refused_as_the_operator_reference_refuses_it(
            self, ref_params, pm, outer_bc, name, node, bad):
        p = replace(ref_params, pm=pm, sigma=1.3)
        grid = rs.make_grid(p, 8, 8)
        cfg = rs.SolverConfig(dt=0.05, t_end=1.0, outer_bc=outer_bc, sample_every=7)
        u0 = uniform_state(grid, 0.5)
        u0[grid.field_slice(name)][node] = bad
        message = first_nonfinite_message(p, grid, cfg, u0, t0=2.0)
        assert message == "non-finite initial state at t=2"
        with pytest.raises(NumericalError) as err:
            rs.simulate(p, grid, cfg, u0=u0, t0=2.0)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("outer_bc, name, node", [
        (rs.ZERO_FLUX, "c0", -1),   # the tie c0 = sigma*c1
        (rs.SINK, "c1", -1),        # the sink pin
        (rs.SINK, "c0s", 0),
        (rs.SINK, "ci", -1),
    ], ids=["tie", "sink-pin", "c0s-first", "ci-last"])
    @pytest.mark.parametrize("theta, t_end", [(1.0, 1.0), (0.5, 0.0), (1.0, 0.0)],
                             ids=["theta=1", "theta=0.5-zero-horizon", "theta=1-zero-horizon"])
    def test_a_non_finite_u0_is_refused_before_its_first_sample(
            self, ref_params, outer_bc, name, node, theta, t_end, bad):
        # with theta = 1 the tie's and the pin's columns of R are empty, so no
        # step reaches them; a zero-horizon run takes no step at all
        p = replace(ref_params, pm=np.inf, sigma=1.3)
        grid = rs.make_grid(p, 8, 8)
        cfg = rs.SolverConfig(dt=0.05, t_end=t_end, theta=theta, outer_bc=outer_bc)
        u0 = uniform_state(grid, 0.5)
        u0[grid.field_slice(name)][node] = bad
        with pytest.raises(NumericalError) as err:
            rs.simulate(p, grid, cfg, u0=u0, t0=2.0)
        assert str(err.value) == "non-finite initial state at t=2"

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_a_state_gone_non_finite_between_samples_fails_at_its_step(
            self, ref_params, monkeypatch, theta):
        grid = rs.make_grid(ref_params, 8, 8)
        cfg = rs.SolverConfig(dt=0.05, t_end=2.0, theta=theta, outer_bc=rs.SINK,
                              sample_every=7)
        pin = grid.field_slice("c1").stop - 1
        # with theta = 1 the pin's column of R is empty, so the next step
        # clears a NaN there: only a test of every step sees it
        u = rs.initialize(grid)
        u[pin] = np.nan
        stepper = rs.ThetaStepper(grid, ref_params, cfg)
        step = solver._kernel_step(stepper._rhs_mat, stepper._rhs_src, stepper._lu.solve)
        assert np.isfinite(step(u)).all() == (theta == 1.0)
        at = stepper._lu.perm_c[pin]   # the pin's place in the run's block
        kernel_step, solves = solver._kernel_step, []

        def nan_at_step_ten(R, src, solve):
            def solve_then_poison(rhs):
                solves.append(1)
                u_new = solve(rhs)
                if len(solves) == 10:   # between samples 7 and 14
                    u_new[at] = np.nan
                return u_new
            return kernel_step(R, src, solve_then_poison)
        monkeypatch.setattr(solver, "_kernel_step", nan_at_step_ten)
        with pytest.raises(NumericalError) as err:
            rs.simulate(ref_params, grid, cfg, t0=3.0)
        assert str(err.value) == "non-finite solution while advancing to t=3.5; reduce dt"
        assert len(solves) == 10


class TestCallerSamples:
    """A caller's array holds a run when it is the ``u`` of the run's series
    from :func:`solver.prepare`, stepped by :func:`solver.simulate_all`.  It
    must be float64 of the run's shape: anything else is refused as the
    series is built, so before any step."""

    CFG = rs.SolverConfig(dt=0.1, t_end=1.0, sample_every=2)   # 6 samples

    @pytest.mark.parametrize("make", [
        lambda shape: np.zeros(shape, dtype=np.int64),
        lambda shape: np.zeros(shape, dtype=np.float32),
        lambda shape: np.zeros((shape[0] + 1, shape[1])),
        lambda shape: np.zeros((shape[0] - 1, shape[1])),
        lambda shape: np.zeros(shape).tolist(),
    ], ids=["int", "float32", "extra-row", "missing-row", "list"])
    def test_anything_else_is_refused_before_the_first_step(self, ref_params, monkeypatch,
                                                             make):
        def no_march(*args):
            raise AssertionError("the run stepped before its samples were checked")
        monkeypatch.setattr(solver, "march", no_march)
        grid = rs.make_grid(ref_params, 8, 8)
        series, stepper, u = solver.prepare(ref_params, grid, self.CFG)
        with pytest.raises(ValueError, match=r"float64 u of shape \(len\(times\), 45\)"):
            solver.simulate_all((replace(series, u=make((6, grid.n))), stepper, u)
                                for _ in range(1))

    def test_a_float64_array_of_the_run_shape_holds_the_run(self, ref_params):
        grid = rs.make_grid(ref_params, 8, 8)
        series, stepper, u = solver.prepare(ref_params, grid, self.CFG)
        samples = np.full((6, grid.n), np.nan)
        [ts] = solver.simulate_all([(replace(series, u=samples), stepper, u)])
        assert ts.u is samples
        np.testing.assert_array_equal(samples, rs.simulate(ref_params, grid, self.CFG).u)


class TestThetaStability:
    """A theta < 1/2 step whose step matrix has spectral radius above 1 is
    refused when the stepper is built; theta >= 1/2 is never checked."""

    def test_unstable_explicit_step_is_refused(self, ref_params):
        grid = rs.make_grid(ref_params, 64, 64)
        with pytest.raises(NumericalError, match="spectral radius"):
            rs.ThetaStepper(grid, ref_params, rs.SolverConfig(dt=0.4, t_end=8.0, theta=0.0))

    @pytest.mark.parametrize("pm, outer_bc, theta, dt", [
        (np.inf, rs.ZERO_FLUX, 0.0, 0.4), (np.inf, rs.SINK, 0.2, 0.05),
        (3.0, rs.ZERO_FLUX, 0.45, 2.0), (3.0, rs.SINK, 0.0, 0.02),
    ])
    def test_reported_radius_is_the_step_matrix_radius(self, ref_params, monkeypatch,
                                                        pm, outer_bc, theta, dt):
        p = replace(ref_params, pm=pm, sigma=1.4)
        grid = rs.make_grid(p, 8, 8)
        cfg = rs.SolverConfig(dt=dt, t_end=dt, theta=theta, outer_bc=outer_bc)
        with pytest.raises(NumericalError) as err:
            rs.ThetaStepper(grid, p, cfg)
        reported = float(str(err.value).split("spectral radius ")[1].split()[0])
        # the same step matrix, formed densely without the check
        monkeypatch.setattr(solver, "_check_stable", lambda *args: None)
        stepper = rs.ThetaStepper(grid, p, cfg)
        step = stepper._lu.solve(stepper._rhs_mat.toarray())
        assert reported == pytest.approx(np.max(np.abs(np.linalg.eigvals(step))), rel=1e-5)

    @pytest.mark.parametrize("pm, outer_bc", [(np.inf, rs.ZERO_FLUX), (3.0, rs.SINK)])
    def test_gershgorin_discs_decide_a_stable_step(self, ref_params, monkeypatch, pm, outer_bc):
        def no_eigenvalues(_):
            raise AssertionError("the Gershgorin bound should have decided")
        monkeypatch.setattr(solver.np.linalg, "eigvals", no_eigenvalues)
        p = replace(ref_params, pm=pm)
        cfg = rs.SolverConfig(dt=1e-4, t_end=1e-3, theta=0.0, outer_bc=outer_bc)
        rs.ThetaStepper(rs.make_grid(p, 64, 64), p, cfg)

    def test_stable_step_the_discs_cannot_prove_runs(self, ref_params, monkeypatch):
        # finite membrane, sink wall: dt 1.2e-4 is stable, but its discs reach
        # outside the stable disc, so the eigenvalues decide
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(solver.np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or eigvals(a))
        p = replace(ref_params, pm=3.0)
        cfg = rs.SolverConfig(dt=1.2e-4, t_end=0.012, theta=0.0, outer_bc=rs.SINK)
        ts = rs.simulate(p, rs.make_grid(p, 64, 64), cfg)
        assert calls
        assert np.all(np.abs(ts.u) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    def test_theta_half_and_above_are_not_checked(self, ref_params, monkeypatch, theta):
        def unexpected(*args):
            raise AssertionError("theta >= 1/2 needs no stability check")
        monkeypatch.setattr(solver, "_check_stable", unexpected)
        cfg = rs.SolverConfig(dt=10.0, t_end=10.0, theta=theta)
        rs.ThetaStepper(rs.make_grid(ref_params, 16, 16), ref_params, cfg)


#: A fixed non-default set of rates, every one different from the reference.
DRAWN_RATES = dict(alpha0=1.7, k=0.35, eps0=0.4, km=0.13, c_lim=0.45, beta0=0.27,
                   delta0=0.09, ka=1.9, kd=0.45, ki=0.8, kid=0.33, d1=0.37, l1=2.6)


def operator_digest(ref_params, pm, outer_bc) -> str:
    """One sha256 over the CSR arrays of L and C, and g, of every grid, sigma
    and rate set of one (pm, outer_bc) pair."""
    digest = hashlib.sha256()
    for nx0, nx1 in [(4, 4), (5, 7), (16, 9)]:
        for sigma in (1.0, 1.4):
            for rates in ({}, DRAWN_RATES):
                p = replace(ref_params, pm=pm, sigma=sigma, **rates)
                L, g, C = solver._assemble(rs.make_grid(p, nx0, nx1), p, outer_bc)
                for a in (L.indptr, L.indices, L.data, C.indptr, C.indices, C.data, g):
                    digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestOperator:
    """The semi-discrete operator (L, g, C) of small grids, pinned bit for bit.

    The digests were taken with Python 3.11, NumPy 2.4 and SciPy 1.17.
    Another NumPy/SciPy build may store the CSR arrays with another index
    type or round differently and fail here without any fault in the
    program.  A change meant to alter the operator regenerates them (print
    ``operator_digest`` of each case) and says so in CHANGES.md.
    """

    DIGESTS = {
        "pm=inf zero-flux": "b7e28b9c690f30210f8ff808b79932bb7b5d7f42ffba5b1ebff870ae90200554",
        "pm=inf sink": "485757c8f41ad694373b80f66bd92fb6724f76b1a07c81473be17ce913d26b15",
        "pm=3 zero-flux": "8ecdd24981d455d57a40a6a532746b7770b9b5cdfcea660fd8081498acc1de17",
        "pm=3 sink": "ea052d4ee182bcbe1ea542a9660538f33eccb875997cbc6774d30c778e099245",
        "pm=0 zero-flux": "4d42733ea4b17978e570c463569793cfdc71717f6ec01b078c24e3ca82b91199",
        "pm=0 sink": "f8220285a1f2bfeab0ff189cab22891cc7d5566a0803b5aec2cd6ccdec958b11",
    }

    @pytest.mark.parametrize("pm", [np.inf, 3.0, 0.0], ids=["pm=inf", "pm=3", "pm=0"])
    @pytest.mark.parametrize("outer_bc", [rs.ZERO_FLUX, rs.SINK])
    def test_operator_is_pinned(self, ref_params, pm, outer_bc):
        key = f"pm={pm:g} {outer_bc}"
        assert operator_digest(ref_params, pm, outer_bc) == self.DIGESTS[key]


def sparse_arithmetic_operands(L, g, C, dt, theta):
    """The step operands as SciPy's sparse arithmetic forms them, the
    reference the stepper's direct build must equal array for array."""
    sp = solver.sp
    keep = (C.getnnz(axis=1) == 0).astype(float)
    keep_diag, eye = sp.diags(keep), sp.identity(L.shape[0], format="csr")
    lhs = (keep_diag @ (eye - theta * dt * L) + C).tocsc()
    rhs = (keep_diag @ (eye + (1.0 - theta) * dt * L)).tocsr()
    return lhs, rhs, dt * g * keep


def assert_same_arrays(got, want):
    """Equal formats, and equal arrays to the byte: dtype, order and the sign of 0."""
    assert got.format == want.format and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


class TestStepOperands:
    """The stepper builds A, B and the source from _assemble's arrays; they
    are, array for array, what SciPy's sparse arithmetic makes of L, g and C,
    entry order of B included, so SuperLU factorizes the same matrix."""

    @pytest.mark.parametrize("theta, dt", [(0.25, 1e-4), (0.5, 0.01), (1.0, 0.01)])
    @pytest.mark.parametrize("pm", [np.inf, 3.0, 0.0], ids=["pm=inf", "pm=3", "pm=0"])
    @pytest.mark.parametrize("outer_bc", [rs.ZERO_FLUX, rs.SINK])
    @pytest.mark.parametrize("kid", [None, 0.0], ids=["kid", "kid=0"])
    @pytest.mark.parametrize("nx", [4, 8, 64])
    def test_a_run_s_operands_are_the_sparse_arithmetic_s(self, ref_params, theta, dt, pm,
                                                          outer_bc, kid, nx):
        p = replace(ref_params, pm=pm, sigma=1.4, kid=ref_params.kid if kid is None else kid)
        grid = rs.make_grid(p, nx, nx)
        cfg = rs.SolverConfig(dt=dt, t_end=dt, theta=theta, outer_bc=outer_bc)
        stepper = rs.ThetaStepper(grid, p, cfg)
        lhs, rhs, src = sparse_arithmetic_operands(*solver._assemble(grid, p, outer_bc), dt, theta)
        assert_same_arrays(stepper._lhs, lhs)
        assert_same_arrays(stepper._rhs_mat, rhs)
        assert stepper._rhs_src.tobytes() == src.tobytes()
        lu = solver.splu(lhs)
        for name in ("perm_c", "perm_r"):
            assert np.array_equal(getattr(stepper._lu, name), getattr(lu, name)), name

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("pm, outer_bc", [(np.inf, rs.ZERO_FLUX), (3.0, rs.SINK)])
    def test_a_batch_s_operands_are_the_sparse_arithmetic_s(self, ref_params, monkeypatch,
                                                            theta, pm, outer_bc):
        cfg = rs.SolverConfig(dt=0.05, t_end=0.1, theta=theta, outer_bc=outer_bc)
        steppers = []
        for nx, ka in [(4, 0.5), (8, 1.0), (64, 2.0)]:
            p = replace(ref_params, pm=pm, ka=ka)
            steppers.append(rs.ThetaStepper(rs.make_grid(p, nx, nx + 3), p, cfg))
        built = {}
        splu, kernel_step = solver.splu, solver._kernel_step
        monkeypatch.setattr(solver, "splu", lambda a, **kw: built.update(lhs=a) or splu(a, **kw))
        monkeypatch.setattr(solver, "_kernel_step",
                            lambda R, src, solve: built.update(R=R, src=src) or kernel_step(
                                R, src, solve))
        _, perms = solver._block_diagonal(steppers)
        sp = solver.sp
        assert_same_arrays(built["lhs"], sp.block_diag(
            [s._lhs[:, np.argsort(perm)] for s, perm in zip(steppers, perms)], format="csc"))
        Rs, offsets = [s._rhs_mat for s in steppers], np.cumsum([0, *map(len, perms)])
        R = sp.csr_matrix((np.concatenate([r.data for r in Rs]),
                           np.concatenate([k + perm[r.indices]
                                           for r, perm, k in zip(Rs, perms, offsets)]),
                           np.concatenate([[0], *(np.diff(r.indptr) for r in Rs)]).cumsum()),
                          shape=(offsets[-1], offsets[-1]))
        assert_same_arrays(built["R"], R)
        assert built["src"].tobytes() == np.concatenate([s._rhs_src for s in steppers]).tobytes()
