"""Mollifier profiles: normalization, scaling, square-root norms, sampled mass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from regnets import (
    MollifierSpec,
    RegnetsError,
    ResolutionError,
    SpatialGrid,
    cauchy_power_normalization,
    sampled_mass,
    scaled_mollifier,
    sqrt_delta_data,
)


class TestNormalization:
    def test_1d_cauchy_constant(self):
        # m = 2 in 1d is the Cauchy density: c = 1/pi
        assert cauchy_power_normalization(1, 2.0) == pytest.approx(1.0 / np.pi)

    def test_1d_m4_constant(self):
        # oracle: independent quadrature of (1+x^2)^(-2)
        integral, _ = quad(lambda x: (1 + x**2) ** -2.0, -np.inf, np.inf)
        assert cauchy_power_normalization(1, 4.0) == pytest.approx(1.0 / integral, rel=1e-10)

    def test_2d_m4_constant(self):
        integral, _ = quad(lambda r: 2 * np.pi * r * (1 + r**2) ** -2.0, 0, np.inf)
        assert cauchy_power_normalization(2, 4.0) == pytest.approx(1.0 / integral, rel=1e-10)

    @given(
        n=st.integers(1, 2),
        m=st.floats(2.5, 12.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_unit_mass_property(self, n, m):
        if m <= n:
            return
        spec = MollifierSpec(dim=n, exponent=m)
        # radial quadrature: 2 int_0^inf rho dr in 1d, 2 pi int_0^inf r rho dr in 2d
        if n == 1:
            val, _ = quad(spec.radial, 0.0, np.inf, limit=200)
            mass = 2.0 * val
        else:
            val, _ = quad(lambda r: r * spec.radial(r), 0.0, np.inf, limit=200)
            mass = 2.0 * np.pi * val
        assert mass == pytest.approx(1.0, rel=1e-8)


class TestMollifierSpec:
    def test_default_exponent_is_n_plus_one(self):
        assert MollifierSpec(dim=1).m == pytest.approx(2.0)
        assert MollifierSpec(dim=2).m == pytest.approx(3.0)

    def test_peak_value(self):
        # rho(0) = c; scaled peak = c / eps^n  — oracle: c(1, 4) = 2/pi
        spec = MollifierSpec(dim=1, exponent=4.0)
        assert spec.radial(0.0) == pytest.approx(2.0 / np.pi)
        grid = SpatialGrid(1, 4.0, 8192)
        rho = scaled_mollifier(spec, 0.2, grid)
        assert np.max(rho.values.real) == pytest.approx(10.0 / np.pi, rel=1e-12)

    def test_positive_everywhere(self):
        spec = MollifierSpec(dim=2, exponent=5.0)
        grid = SpatialGrid(2, 2.0, 256)
        rho = scaled_mollifier(spec, 0.5, grid)
        assert np.min(rho.values.real) > 0.0

    def test_rescaling_identity(self):
        # rho_eps(x) = eps^-n rho(x/eps) exactly at every node
        spec = MollifierSpec(dim=1, exponent=3.0)
        grid = SpatialGrid(1, 4.0, 4096)
        eps = 0.25
        rho = scaled_mollifier(spec, eps, grid)
        x = grid.axis_coords()
        expected = spec.radial(np.abs(x) / eps) / eps
        np.testing.assert_allclose(rho.values.real, expected, rtol=1e-12)

    # sqrt_delta_data samples through the same checks as scaled_mollifier;
    # exponent 4 keeps sqrt(rho) integrable so that only those checks fire
    def test_resolution_guard(self):
        spec = MollifierSpec(dim=1, exponent=4.0)
        grid = SpatialGrid(1, 4.0, 64)
        for sample in (scaled_mollifier, sqrt_delta_data):
            with pytest.raises(ResolutionError, match="need points_per_axis >= 8192"):
                sample(spec, 0.01, grid)

    def test_eps_range_guard(self):
        spec = MollifierSpec(dim=1, exponent=4.0)
        grid = SpatialGrid(1, 4.0, 1024)
        for sample in (scaled_mollifier, sqrt_delta_data):
            for eps in (1.5, 0.0, -0.25):
                with pytest.raises(RegnetsError, match=r"eps must lie in \(0, 1\]"):
                    sample(spec, eps, grid)

    @pytest.mark.parametrize("sample", [scaled_mollifier, sqrt_delta_data])
    def test_dimension_mismatch_guard(self, sample):
        spec = MollifierSpec(dim=2, exponent=6.0)
        grid = SpatialGrid(1, 4.0, 1024)
        with pytest.raises(RegnetsError, match="grid dim 1 != mollifier dim 2"):
            sample(spec, 0.5, grid)

    @pytest.mark.parametrize("dim, exponent", [(1, 1.0), (1, 0.5), (2, 2.0)])
    def test_exponent_must_exceed_dimension_at_construction(self, dim, exponent):
        with pytest.raises(RegnetsError, match=f"exponent m={exponent} must exceed dimension n={dim}"):
            MollifierSpec(dim=dim, exponent=exponent)


class TestSqrtAndTails:
    def test_sqrt_l1_requires_heavy_exponent(self):
        # sqrt(rho) integrable iff m > 2n
        with pytest.raises(RegnetsError):
            MollifierSpec(dim=1, exponent=2.0).sqrt_l1_norm()

    def test_sqrt_l1_norm_1d_oracle(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        c = cauchy_power_normalization(1, 6.0)
        oracle, _ = quad(lambda x: np.sqrt(c) * (1 + x**2) ** -1.5, -np.inf, np.inf)
        assert spec.sqrt_l1_norm() == pytest.approx(oracle, rel=1e-8)

    def test_sqrt_l1_norm_2d_oracle(self):
        spec = MollifierSpec(dim=2, exponent=8.0)
        c = cauchy_power_normalization(2, 8.0)
        oracle, _ = quad(
            lambda r: 2 * np.pi * r * np.sqrt(c) * (1 + r**2) ** -2.0, 0, np.inf
        )
        assert spec.sqrt_l1_norm() == pytest.approx(oracle, rel=1e-8)

    def test_sampled_mass_near_one(self):
        spec = MollifierSpec(dim=1, exponent=4.0)
        grid = SpatialGrid(1, 64.0, 16384)
        rho = scaled_mollifier(spec, 0.5, grid)
        assert sampled_mass(rho) == pytest.approx(1.0, abs=1e-4)

    def test_2d_unit_mass_against_dblquad(self):
        spec = MollifierSpec(dim=2, exponent=6.0)
        val, _ = dblquad(
            lambda y, x: spec.evaluate(x, y), -np.inf, np.inf, -np.inf, np.inf
        )
        assert val == pytest.approx(1.0, rel=1e-6)
