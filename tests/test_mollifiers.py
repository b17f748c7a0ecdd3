"""Mollifier profiles: normalization, scaling, square-root norms, sampled mass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import gamma

from regnets import (
    InputError,
    MollifierSpec,
    RegnetsError,
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

    @pytest.mark.parametrize("n, m", [(1, 2.0), (1, 3.0), (1, 4.0), (1, 6.0), (1, 8.0),
                                      (2, 3.0), (2, 4.0), (2, 6.0), (2, 8.0)])
    def test_lgamma_quotients_match_scipy_gamma(self, n, m):
        ulp = np.finfo(float).eps
        c = gamma(m / 2.0) / (np.pi ** (n / 2.0) * gamma((m - n) / 2.0))
        assert cauchy_power_normalization(n, m) == pytest.approx(c, rel=8 * ulp, abs=0.0)
        if m > 2 * n:
            s = m / 4.0
            sqrt_l1 = np.sqrt(c) * np.pi ** (n / 2.0) * gamma(s - n / 2.0) / gamma(s)
            assert MollifierSpec(dim=n, exponent=m).sqrt_l1_norm() == pytest.approx(sqrt_l1, rel=8 * ulp, abs=0.0)

    def test_large_exponent_stays_finite(self):
        # Gamma(200) overflows no float quotient: c(2, 400) = 199 / pi and, by
        # Gamma(199.5) = 398! sqrt(pi) / (4^199 199!), c(1, 400) = 4^199 199!^2 / (398! pi)
        assert cauchy_power_normalization(2, 400.0) == pytest.approx(199.0 / np.pi, rel=1e-13)
        exact = 4**199 * math.factorial(199) ** 2 / math.factorial(398) / np.pi
        assert cauchy_power_normalization(1, 400.0) == pytest.approx(exact, rel=1e-13)
        assert np.isfinite(MollifierSpec(dim=1, exponent=400.0).sqrt_l1_norm())

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
            val, _ = quad(lambda r: spec.evaluate_scaled(1.0, r), 0.0, np.inf, limit=200)
            mass = 2.0 * val
        else:
            val, _ = quad(lambda r: r * spec.evaluate_scaled(1.0, r), 0.0, np.inf, limit=200)
            mass = 2.0 * np.pi * val
        assert mass == pytest.approx(1.0, rel=1e-8)


class TestMollifierSpec:
    def test_default_exponent_is_n_plus_one(self):
        assert MollifierSpec(dim=1).m == pytest.approx(2.0)
        assert MollifierSpec(dim=2).m == pytest.approx(3.0)

    def test_peak_value(self):
        # rho(0) = c; scaled peak = c / eps^n  — oracle: c(1, 4) = 2/pi
        spec = MollifierSpec(dim=1, exponent=4.0)
        assert spec.evaluate_scaled(1.0, 0.0) == pytest.approx(2.0 / np.pi)
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
        expected = spec.evaluate_scaled(1.0, x / eps) / eps
        np.testing.assert_allclose(rho.values.real, expected, rtol=1e-12)

    @pytest.mark.parametrize("dim, exponent, power", [(1, 3.0, 1.0), (1, 6.0, 0.5), (2, 8.0, 0.5), (2, 5.0, 1.0)])
    def test_evaluate_scaled_is_bitwise_its_allocating_form(self, dim, exponent, power):
        # every step after |x/eps|^2 works in its buffer
        spec = MollifierSpec(dim=dim, exponent=exponent)
        grid, eps = SpatialGrid(dim, 4.0, 256), 0.3
        c_p = spec.normalization**power
        for coords in (np.ix_(*(grid.axis_coords(),) * dim), (0.7,) * dim):
            r2 = sum((np.asarray(c, dtype=float) / eps) ** 2 for c in coords)
            ref = c_p * (1.0 + r2) ** (-spec.m * power / 2.0) / eps ** (dim * power)
            out = spec.evaluate_scaled(eps, *coords, power=power)
            assert np.ndim(out) == np.ndim(ref) and np.asarray(out).tobytes() == np.asarray(ref).tobytes()
        assert isinstance(spec.evaluate_scaled(eps, *(0.7,) * dim, power=power), np.float64)

    # sqrt_delta_data samples through the same checks as scaled_mollifier;
    # exponent 4 keeps sqrt(rho) integrable so that only those checks fire
    def test_resolution_guard(self):
        spec = MollifierSpec(dim=1, exponent=4.0)
        grid = SpatialGrid(1, 4.0, 64)
        for sample in (scaled_mollifier, sqrt_delta_data):
            with pytest.raises(InputError, match="need points_per_axis >= 8192"):
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
        with pytest.raises(RegnetsError, match=f"exponent m={exponent} must exceed dimension n={dim}"):
            cauchy_power_normalization(dim, exponent)
        # m = inf gave a NaN normalization; NaN fails every comparison
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(RegnetsError, match=f"exponent must be finite, got {bad}"):
                MollifierSpec(dim=dim, exponent=bad)


class TestSqrtAndTails:
    def test_sqrt_l1_requires_heavy_exponent(self):
        # sqrt(rho) integrable iff m > 2n
        rule = r"m=2.0 must exceed dimension n=1 / 0.5 for an integrable rho\*\*0.5"
        with pytest.raises(RegnetsError, match=rule):
            MollifierSpec(dim=1, exponent=2.0).sqrt_l1_norm()
        MollifierSpec(dim=1, exponent=2.0).require_integrable(1.0)
        with pytest.raises(RegnetsError, match=r"m=5.0 must exceed dimension n=2 / 0.25"):
            MollifierSpec(dim=2, exponent=5.0).require_integrable(0.25)

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
            lambda y, x: spec.evaluate_scaled(1.0, x, y), -np.inf, np.inf, -np.inf, np.inf
        )
        assert val == pytest.approx(1.0, rel=1e-6)
