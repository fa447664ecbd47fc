import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import releasesim as rs
from releasesim.analytic import _ediff, _ediff2, _ediff2_dt, _ediff_dt

from conftest import make_rng, sample_mode, sample_params


def rates() -> st.SearchStrategy[float]:
    return st.floats(min_value=-2.0, max_value=1.0).map(lambda e: 10.0 ** e)


def random_params(rng) -> rs.DimensionlessParams:
    return sample_params(rng)


# ---------------------------------------------------------------------------
# decay-rate quadratics


class TestRateQuadratics:
    def test_known_root_pair_matrix_style(self):
        # z^2 - 4 z + 1.2 = 0 -> 0.32668, 3.67332
        slow, fast = rs.analytic._split_rates(4.0, 1.2)
        assert slow == pytest.approx(0.3266799469318489, rel=1e-12)
        assert fast == pytest.approx(3.673320053068151, rel=1e-12)

    def test_known_root_pair_tissue_style(self):
        # z^2 - 0.8 z + 0.06 = 0 -> 0.08377, 0.71623
        slow, fast = rs.analytic._split_rates(0.8, 0.06)
        assert slow == pytest.approx(0.08377223398316208, rel=1e-12)
        assert fast == pytest.approx(0.7162277660168379, rel=1e-12)

    def test_matrix_rates_against_polynomial_solver(self, ref_params):
        mr = rs.matrix_rates(ref_params, math.pi / 2.0)
        roots = np.sort(np.roots([1.0, -mr.rate_sum, mr.rate_prod]))
        assert mr.slow == pytest.approx(roots[0], rel=1e-12)
        assert mr.fast == pytest.approx(roots[1], rel=1e-12)

    def test_tissue_rates_against_polynomial_solver(self, ref_params):
        tr = rs.tissue_rates(ref_params, math.pi / 2.0)
        roots = np.sort(np.roots([1.0, -tr.rate_sum, tr.rate_prod]))
        assert tr.slow == pytest.approx(roots[0], rel=1e-12)
        assert tr.fast == pytest.approx(roots[1], rel=1e-12)

    def test_vieta_identities_over_draws(self):
        rng = make_rng(1)
        for _ in range(300):
            p = random_params(rng)
            ap = sample_mode(rng)
            for r in (rs.matrix_rates(p, ap.a), rs.tissue_rates(p, ap.b)):
                disc = r.rate_sum ** 2 - 4.0 * r.rate_prod
                assert disc >= 0.0
                assert r.slow + r.fast == pytest.approx(r.rate_sum, rel=1e-12)
                assert r.slow * r.fast == pytest.approx(
                    r.rate_prod, rel=1e-12, abs=1e-12 * max(1.0, r.rate_sum ** 2))
                assert 0.0 <= r.slow <= r.fast

    def test_zero_wavenumber_matrix_has_zero_slow_rate(self, ref_params):
        mr = rs.matrix_rates(ref_params, 0.0)
        assert mr.slow == 0.0
        assert mr.fast == pytest.approx(mr.rate_sum, rel=1e-14)

    def test_negative_wavenumber_rejected(self, ref_params):
        with pytest.raises(ValueError):
            rs.matrix_rates(ref_params, -1.0)
        with pytest.raises(ValueError):
            rs.tissue_rates(ref_params, -1.0)


# ---------------------------------------------------------------------------
# stabilized exponential difference quotients


def plain_pair_quotient(p: float, q: float, t: float) -> float:
    """(exp(-p*t) - exp(-q*t)) / (q - p) in decimal arithmetic, with 50
    significant digits left after the subtraction cancels about
    -log10(|q - p|*t) of them."""
    p, q, t = (decimal.Decimal(x) for x in (p, q, t))
    with decimal.localcontext() as ctx:
        ctx.prec = 50 + max(0, -(abs(q - p) * t).adjusted())
        return float(((-p * t).exp() - (-q * t).exp()) / (q - p))


class TestDifferenceQuotients:
    @given(p=rates(), q=rates(), t=st.floats(0.0, 50.0))
    @example(p=1.0, q=10.0 ** 1e-6, t=44.0)   # where the float formula cancels
    @settings(max_examples=200)
    def test_pair_quotient_matches_plain_formula_when_separated(self, p, q, t):
        if q == p:
            return  # 0/0: the plain formula has no value there
        expected = plain_pair_quotient(p, q, t)
        assert float(_ediff(p, q, t)) == pytest.approx(expected, rel=1e-11, abs=1e-300)

    def test_pair_quotient_is_symmetric(self):
        t = np.linspace(0.0, 30.0, 7)
        np.testing.assert_array_equal(_ediff(0.3, 1.7, t), _ediff(1.7, 0.3, t))

    def test_pair_quotient_confluent_limit(self):
        t = np.linspace(0.0, 30.0, 7)
        np.testing.assert_allclose(_ediff(0.8, 0.8, t), t * np.exp(-0.8 * t), rtol=1e-14)

    @pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-12, 1e-10, 1e-8, 1e-6])
    def test_pair_quotient_continuous_across_resonance(self, delta):
        # the drift away from the confluent value is O(delta * t); assert the
        # branch switch introduces nothing beyond it
        t = np.linspace(0.0, 20.0, 9)
        base = np.asarray(_ediff(0.8, 0.8, t))
        got = np.asarray(_ediff(0.8, 0.8 + delta, t))
        np.testing.assert_allclose(got, base, rtol=max(1e-9, 40.0 * delta), atol=1e-300)

    @pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-11, 1e-8, 1e-6])
    def test_triple_quotient_continuous_across_resonance(self, delta):
        t = np.linspace(0.0, 20.0, 9)
        base = np.asarray(_ediff2(0.5, 0.5, 0.5, t))
        got = np.asarray(_ediff2(0.5, 0.5 + delta, 0.5 - delta, t))
        np.testing.assert_allclose(got, base, rtol=max(1e-7, 40.0 * delta), atol=1e-300)

    def test_triple_quotient_symmetric_in_nodes(self):
        t = np.linspace(0.0, 10.0, 5)
        a = _ediff2(0.2, 1.1, 3.0, t)
        for perm in ((1.1, 0.2, 3.0), (3.0, 1.1, 0.2), (0.2, 3.0, 1.1)):
            np.testing.assert_allclose(_ediff2(*perm, t), a, rtol=1e-12)

    def test_triple_quotient_partial_fraction_identity(self):
        u, v, w = 0.3, 1.2, 2.9
        t = np.linspace(0.0, 15.0, 11)
        expected = (np.exp(-u * t) / ((u - v) * (u - w))
                    + np.exp(-v * t) / ((v - u) * (v - w))
                    + np.exp(-w * t) / ((w - u) * (w - v)))
        np.testing.assert_allclose(np.asarray(_ediff2(u, v, w, t)), expected,
                                   rtol=1e-11, atol=1e-15)

    def test_no_overflow_for_large_rates_and_times(self):
        # factored form must not overflow even when exp(+rate*t) would
        v = float(_ediff(1e4, 2e4, 100.0))
        assert math.isfinite(v) and v >= 0.0
        v2 = float(_ediff2(1e4, 2e4, 3e4, 100.0))
        assert math.isfinite(v2)

    @pytest.mark.parametrize("pair", [(0.3, 1.7), (2.0, 2.0), (0.01, 9.0)])
    def test_pair_derivative_matches_finite_difference(self, pair):
        p, q = pair
        t = np.linspace(0.1, 5.0, 7)
        h = 1e-6
        fd = (np.asarray(_ediff(p, q, t + h)) - np.asarray(_ediff(p, q, t - h))) / (2 * h)
        np.testing.assert_allclose(np.asarray(_ediff_dt(p, q, t)), fd, rtol=1e-7, atol=1e-12)

    @pytest.mark.parametrize("nodes", [(0.3, 1.7, 2.2), (0.5, 0.5, 0.5), (0.2, 0.2, 3.0)])
    def test_triple_derivative_matches_finite_difference(self, nodes):
        t = np.linspace(0.1, 5.0, 7)
        h = 1e-6
        fd = (np.asarray(_ediff2(*nodes, t + h)) - np.asarray(_ediff2(*nodes, t - h))) / (2 * h)
        np.testing.assert_allclose(np.asarray(_ediff2_dt(*nodes, t)), fd, rtol=1e-6, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form fields


def solid_partial_fraction(x, t, p, ap):
    """Textbook partial-fraction form of the solid field; valid only for
    well-separated rates."""
    mr = rs.matrix_rates(p, ap.a)
    m1, m2 = mr.slow, mr.fast
    r, q = p.solid_rate, p.free_rate
    lead = ap.e1 * q * np.cos(ap.a * x) / ((m1 - r) * (m2 - r))
    bracket = ((m1 - r) * np.exp(-m2 * t) - (m2 - r) * np.exp(-m1 * t)
               + (m2 - m1) * np.exp(-r * t))
    return lead * bracket - (p.km * p.c_lim / r) * (1.0 - np.exp(-r * t)) + np.exp(-r * t)


def bound_partial_fraction(x, t, p, ap):
    tr = rs.tissue_rates(p, ap.b)
    n1, n2 = tr.slow, tr.fast
    s = p.bound_rate
    lead = ap.e2 * p.ka * np.cos(ap.b * x) / ((s - n1) * (s - n2))
    bracket = ((s - n2) * np.exp(-n1 * t) - (s - n1) * np.exp(-n2 * t)
               + (n2 - n1) * np.exp(-s * t))
    return lead * bracket


def internalized_partial_fraction(x, t, p, ap):
    tr = rs.tissue_rates(p, ap.b)
    n1, n2 = tr.slow, tr.fast
    s, kid = p.bound_rate, p.kid
    lead = ap.e2 * p.ka * p.ki * np.cos(ap.b * x) / ((s - n1) * (s - n2))
    bracket = ((s - n2) / (kid - n1) * (np.exp(-n1 * t) - np.exp(-kid * t))
               - (s - n1) / (kid - n2) * (np.exp(-n2 * t) - np.exp(-kid * t))
               + (n2 - n1) / (kid - s) * (np.exp(-s * t) - np.exp(-kid * t)))
    return lead * bracket


class TestClosedForms:
    def test_initial_conditions_on_reference(self, ref_params, ref_mode):
        x0 = np.linspace(0.0, 1.0, 9)
        x1 = np.linspace(1.0, 2.0, 9)
        c0, c0s = rs.eval_matrix(x0, 0.0, ref_params, ref_mode)
        c1, c1s, ci = rs.eval_tissue(x1, 0.0, ref_params, ref_mode)
        np.testing.assert_allclose(c0s, 1.0, atol=1e-12)
        for f in (c0, c1, c1s, ci):
            np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_matches_partial_fraction_forms(self, ref_params, ref_mode):
        # reference rates are well separated, so the naive forms are accurate
        p, ap = ref_params, ref_mode
        x0 = np.linspace(0.0, 1.0, 5)[None, :]
        x1 = np.linspace(1.0, 2.0, 5)[None, :]
        t = np.linspace(0.0, 25.0, 11)[:, None]
        _, c0s = rs.eval_matrix(x0, t, p, ap)
        np.testing.assert_allclose(c0s, solid_partial_fraction(x0, t, p, ap),
                                   rtol=1e-10, atol=1e-12)
        _, c1s, ci = rs.eval_tissue(x1, t, p, ap)
        np.testing.assert_allclose(c1s, bound_partial_fraction(x1, t, p, ap),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ci, internalized_partial_fraction(x1, t, p, ap),
                                   rtol=1e-10, atol=1e-12)

    def test_matches_partial_fraction_forms_on_random_separated_draws(self):
        rng = make_rng(2)
        kept = 0
        while kept < 25:
            p = random_params(rng)
            ap = sample_mode(rng)
            mr = rs.matrix_rates(p, ap.a)
            tr = rs.tissue_rates(p, ap.b)
            nodes = sorted([tr.slow, tr.fast, p.bound_rate, p.kid])
            gaps = [abs(mr.slow - p.solid_rate), abs(mr.fast - p.solid_rate),
                    mr.fast - mr.slow]
            gaps += [b - a for a, b in zip(nodes, nodes[1:])]
            if min(gaps) < 1e-3:
                continue  # partial fractions lose accuracy; skip the draw
            kept += 1
            x0 = np.linspace(0.0, p.l0, 4)[None, :]
            x1 = np.linspace(p.l0, p.l1, 4)[None, :]
            t = np.linspace(0.0, 3.0 / mr.slow if mr.slow > 0 else 3.0, 9)[:, None]
            _, c0s = rs.eval_matrix(x0, t, p, ap)
            np.testing.assert_allclose(c0s, solid_partial_fraction(x0, t, p, ap),
                                       rtol=1e-8, atol=1e-10)
            _, c1s, ci = rs.eval_tissue(x1, t, p, ap)
            np.testing.assert_allclose(c1s, bound_partial_fraction(x1, t, p, ap),
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(ci, internalized_partial_fraction(x1, t, p, ap),
                                       rtol=1e-8, atol=1e-10)

    def test_solid_long_time_limit(self, ref_params, ref_mode):
        p = ref_params
        t = 400.0  # hundreds of e-folds of every rate
        _, c0s = rs.eval_matrix(0.3, t, p, ref_mode)
        assert float(c0s) == pytest.approx(-p.km * p.c_lim / p.solid_rate, rel=1e-10)

    def test_no_internalization_means_no_internalized_drug(self, ref_params, ref_mode):
        from dataclasses import replace
        p = replace(ref_params, ki=0.0)
        x = np.linspace(1.0, 2.0, 5)
        _, _, ci = rs.eval_tissue(x, 7.3, p, ref_mode)
        np.testing.assert_array_equal(ci, 0.0)

    def test_no_association_means_no_bound_drug(self, ref_params, ref_mode):
        from dataclasses import replace
        p = replace(ref_params, ka=0.0)
        x = np.linspace(1.0, 2.0, 5)
        _, c1s, ci = rs.eval_tissue(x, 7.3, p, ref_mode)
        np.testing.assert_array_equal(c1s, 0.0)
        np.testing.assert_array_equal(ci, 0.0)

    def test_tissue_resonance_when_dissociation_vanishes(self, ref_params, ref_mode):
        # kd = 0 makes one tissue mode rate coincide with the bound-pool rate
        from dataclasses import replace
        p0 = replace(ref_params, kd=0.0)
        p_eps = replace(ref_params, kd=1e-13)
        x = np.linspace(1.0, 2.0, 5)
        t = np.linspace(0.0, 10.0, 7)[:, None]
        for a, b in zip(rs.eval_tissue(x, t, p0, ref_mode),
                        rs.eval_tissue(x, t, p_eps, ref_mode)):
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-12)

    def test_positions_outside_layer_rejected(self, ref_params, ref_mode):
        with pytest.raises(ValueError):
            rs.eval_matrix(1.5, 1.0, ref_params, ref_mode)
        with pytest.raises(ValueError):
            rs.eval_tissue(0.5, 1.0, ref_params, ref_mode)

    def test_amplitude_scaling_is_linear(self, ref_params, ref_mode):
        from dataclasses import replace
        ap2 = replace(ref_mode, e2=2.0 * ref_mode.e2)
        x = np.linspace(1.0, 2.0, 5)
        t = 3.0
        base = rs.eval_tissue(x, t, ref_params, ref_mode)
        doubled = rs.eval_tissue(x, t, ref_params, ap2)
        for a, b in zip(base, doubled):
            np.testing.assert_allclose(b, 2.0 * a, rtol=1e-14)


class TestPerFieldEvaluators:
    MATRIX = (rs.matrix_free, rs.matrix_solid)
    TISSUE = (rs.tissue_free, rs.tissue_bound, rs.tissue_internalized)

    @staticmethod
    def _cases(ref_params, ref_mode):
        rng = make_rng(3)
        cases = [(ref_params, ref_mode)]
        for _ in range(3):
            p = sample_params(rng)
            cases.append((p, sample_mode(rng)))
        return cases

    @staticmethod
    def _points(p):
        """(x_matrix, x_tissue, t) triples: residuals' (1, 9) x (41, 1)
        broadcast, equal-length 1-D arrays, and write_analytic_csv's
        scalar t against an array of nodes."""
        x0 = np.linspace(0.05, 0.95, 9) * p.l0
        x1 = p.l0 + np.linspace(0.05, 0.95, 9) * (p.l1 - p.l0)
        t = np.linspace(0.0, 12.0, 41)
        return [(x0[None, :], x1[None, :], t[:, None]),
                (np.linspace(0.0, p.l0, 41), np.linspace(p.l0, p.l1, 41), t),
                (np.linspace(0.0, p.l0, 17), np.linspace(p.l0, p.l1, 17), 2.5)]

    def test_each_field_is_its_combined_component_bit_for_bit(self, ref_params, ref_mode):
        for p, ap in self._cases(ref_params, ref_mode):
            for x0, x1, t in self._points(p):
                for field, combined in zip(self.MATRIX, rs.eval_matrix(x0, t, p, ap)):
                    np.testing.assert_array_equal(field(x0, t, p, ap), combined)
                for field, combined in zip(self.TISSUE, rs.eval_tissue(x1, t, p, ap)):
                    np.testing.assert_array_equal(field(x1, t, p, ap), combined)

    def test_positions_outside_the_layer_rejected_by_every_field(self, ref_params, ref_mode):
        p = ref_params
        for field in self.MATRIX:
            for x in (-0.1, 1.5 * p.l0, np.array([0.5 * p.l0, p.l1])):
                with pytest.raises(ValueError, match=r"matrix positions"):
                    field(x, 1.0, p, ref_mode)
        for field in self.TISSUE:
            for x in (0.5 * p.l0, p.l1 + 0.1, np.array([p.l1, 0.0])):
                with pytest.raises(ValueError, match=r"tissue positions"):
                    field(x, 1.0, p, ref_mode)


class TestResiduals:
    def test_kinetic_balances_vanish_on_reference(self, ref_params, ref_mode):
        res = rs.residuals(ref_params, ref_mode)
        assert res["matrix_solid"] <= 1e-10
        assert res["tissue_bound"] <= 1e-10
        assert res["internalized"] <= 1e-10

    def test_kinetic_balances_vanish_on_random_draws(self):
        rng = make_rng(3)
        for _ in range(25):
            p = random_params(rng)
            ap = sample_mode(rng)
            res = rs.residuals(p, ap)
            assert res["matrix_solid"] <= 1e-9
            assert res["tissue_bound"] <= 1e-9
            assert res["internalized"] <= 1e-9

    def test_free_matrix_residual_is_the_startup_transient(self, ref_params, ref_mode):
        # at t = 0 the defect is E1*(fast-slow)*cos(a x) - solid_rate - km*clim
        p, ap = ref_params, ref_mode
        mr = rs.matrix_rates(p, ap.a)
        res = rs.residuals(p, ap, x_matrix=np.array([0.0]), t=np.array([0.0]))
        expected = abs(ap.e1 * (mr.fast - mr.slow) - p.solid_rate - p.km * p.c_lim)
        assert res["matrix_free"] == pytest.approx(expected, rel=1e-10)

    def test_free_matrix_residual_nonzero_with_solubilisation(self, ref_params, ref_mode):
        assert rs.residuals(ref_params, ref_mode)["matrix_free"] > 0.1

    @pytest.mark.parametrize("kd", [0.0, 1e-13, 0.05, 0.52, 3.0])
    def test_free_tissue_residual_is_the_startup_transient(self, ref_params, ref_mode, kd):
        # the defect is exactly E2*(fast-slow)*exp(-bound_rate*t)*cos(b x),
        # for every dissociation rate including zero
        from dataclasses import replace
        p = replace(ref_params, kd=kd)
        ap = ref_mode
        tr = rs.tissue_rates(p, ap.b)
        x_star, t_star = 1.4, 0.7
        res = rs.residuals(p, ap, x_tissue=np.array([x_star]),
                           t=np.array([t_star]))
        expected = abs(ap.e2 * (tr.fast - tr.slow)
                       * math.exp(-p.bound_rate * t_star) * math.cos(ap.b * x_star))
        assert res["tissue_free"] == pytest.approx(expected, rel=1e-9)


class TestInterfaceFluxes:
    def test_zero_amplitudes_give_zero_fluxes(self, ref_params):
        ap = rs.AnalyticParams(a=1.0, b=1.0, e1=0.0, e2=0.0)
        fm, ft = rs.interface_fluxes(ref_params, ap, np.linspace(0.0, 5.0, 7))
        np.testing.assert_array_equal(fm, 0.0)
        np.testing.assert_array_equal(ft, 0.0)

    def test_generic_mode_has_nonzero_mismatch(self, ref_params, ref_mode):
        t = np.linspace(0.1, 5.0, 17)
        fm, ft = rs.interface_fluxes(ref_params, ref_mode, t)
        assert np.max(np.abs(np.asarray(fm) - np.asarray(ft))) > 1e-3
