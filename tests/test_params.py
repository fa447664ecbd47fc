import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import releasesim as rs
from releasesim.params import phi0


def rates() -> st.SearchStrategy[float]:
    # log-uniform over the admissible stiff-to-slow range
    return st.floats(min_value=-2.0, max_value=1.0).map(lambda e: 10.0 ** e)


class TestPhi0:
    def test_reference_value_is_exact(self):
        assert phi0(0.5, 0.5) == 0.5

    def test_unit_partition(self):
        assert phi0(1.0, 0.5) == 1.0
        assert phi0(2.0, 0.25) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("eps0", [0.0, 1.0, 1.5, -0.1])
    def test_porosity_domain(self, eps0):
        with pytest.raises(ValueError, match="porosity"):
            phi0(0.5, eps0)

    def test_negative_partition_coefficient(self):
        with pytest.raises(ValueError):
            phi0(-0.5, 0.5)

    @given(k=rates(), e1=st.floats(0.05, 0.9), e2=st.floats(0.05, 0.9))
    def test_monotone_in_porosity(self, k, e1, e2):
        lo, hi = sorted((e1, e2))
        assert phi0(k, lo) <= phi0(k, hi)


class TestNondimensionalize:
    def test_reference_scales_are_unit(self):
        p = rs.reference_params()
        assert p.length_scale == 1.0 and p.time_scale == 1.0 and p.conc_scale == 1.0
        assert p.phi0 == 0.5
        assert p.solid_rate == pytest.approx(0.6, rel=1e-15)
        assert p.free_rate == pytest.approx(1.25, rel=1e-15)
        assert p.bound_rate == pytest.approx(0.5, rel=1e-15)

    def test_matrix_diffusivity_scales_out_for_any_scales(self):
        m = rs.MatrixParams(d0=3.7e-6, l0=0.02, m0=5.0)
        t = rs.TissueParams(d1=1.1e-6, l1=0.05)
        p = rs.nondimensionalize(m, t, rs.InterfaceParams())
        assert "gamma" not in {f.name for f in dataclasses.fields(p)}
        assert p.d1 == pytest.approx(1.1e-6 / 3.7e-6, rel=1e-14)
        assert p.l1 == pytest.approx(2.5, rel=1e-14)

    def test_rates_scale_with_diffusion_time(self):
        # tau = l0^2/d0 = 4 here, so every 1/time field is multiplied by 4
        m = rs.MatrixParams(alpha0=1.0, km=0.2, beta0=0.1, delta0=0.05, d0=0.5, l0=math.sqrt(2.0))
        t = rs.TissueParams()
        p = rs.nondimensionalize(m, t, rs.InterfaceParams())
        assert p.alpha0 == pytest.approx(4.0, rel=1e-14)
        assert p.km == pytest.approx(0.8, rel=1e-14)

    def test_clim_is_scaled_by_loading(self):
        m = rs.MatrixParams(c_lim=0.3, m0=2.0)
        p = rs.nondimensionalize(m, rs.TissueParams(), rs.InterfaceParams())
        assert p.c_lim == pytest.approx(0.15, rel=1e-14)

    def test_infinite_permeability_survives(self):
        p = rs.reference_params()
        assert math.isinf(p.pm)

    @settings(max_examples=200, deadline=None)
    @given(alpha0=rates(), km=rates(), beta0=rates(), delta0=rates(),
           ka=rates(), kd=rates(), ki=rates(), kid=rates(),
           k=rates(), eps0=st.floats(0.05, 0.95),
           c_lim=rates(), d0=rates(), l0=rates(), m0=rates(),
           d1=rates(), ell=st.floats(0.1, 5.0),
           pm=rates(), sigma=st.floats(0.2, 5.0))
    def test_round_trip(self, alpha0, km, beta0, delta0, ka, kd, ki, kid,
                        k, eps0, c_lim, d0, l0, m0, d1, ell, pm, sigma):
        m = rs.MatrixParams(alpha0=alpha0, k=k, eps0=eps0, km=km, c_lim=c_lim,
                            beta0=beta0, delta0=delta0, d0=d0, l0=l0, m0=m0)
        t = rs.TissueParams(ka=ka, kd=kd, ki=ki, kid=kid, d1=d1, l1=l0 * (1.0 + ell))
        i = rs.InterfaceParams(pm=pm, sigma=sigma)
        m2, t2, i2 = rs.redimensionalize(rs.nondimensionalize(m, t, i))
        for orig, back in ((m, m2), (t, t2), (i, i2)):
            for name in vars(orig):
                a, b = getattr(orig, name), getattr(back, name)
                assert b == pytest.approx(a, rel=1e-12), name


class TestValidate:
    def test_defaults_are_clean(self):
        assert rs.validate_params(rs.MatrixParams(), rs.TissueParams(),
                                  rs.InterfaceParams()) == []

    def test_porosity_out_of_range(self):
        report = rs.validate_params(matrix=rs.MatrixParams(eps0=1.5))
        assert any("porosity" in v for v in report)

    def test_negative_rate(self):
        report = rs.validate_params(matrix=rs.MatrixParams(km=-0.2))
        assert any("matrix.km" in v for v in report)

    def test_layer_ordering(self):
        report = rs.validate_params(matrix=rs.MatrixParams(l0=2.0),
                                    tissue=rs.TissueParams(l1=1.0))
        assert any("l1" in v for v in report)

    def test_sealed_membrane_is_admissible(self):
        assert rs.validate_params(interface=rs.InterfaceParams(pm=0.0)) == []

    def test_negative_permeability(self):
        report = rs.validate_params(interface=rs.InterfaceParams(pm=-1.0))
        assert any("interface.pm" in v for v in report)

    def test_nonfinite_field(self):
        report = rs.validate_params(matrix=rs.MatrixParams(alpha0=float("nan")))
        assert any("finite" in v for v in report)

    def test_nondimensionalize_collects_all_violations(self):
        with pytest.raises(rs.ValidationError) as err:
            rs.nondimensionalize(rs.MatrixParams(eps0=1.5, km=-1.0),
                                 rs.TissueParams(), rs.InterfaceParams())
        assert len(err.value.violations) >= 2

    def test_zero_loading_rejected(self):
        report = rs.validate_params(matrix=rs.MatrixParams(m0=0.0))
        assert any("m0" in v for v in report)
