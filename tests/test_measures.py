"""Measures, mollified densities, square roots, cutoffs and their reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    BoxTooSmallError,
    CutoffFamily,
    Density,
    EpsGrid,
    EpsNet,
    Measure,
    MollifierSpec,
    RegnetsError,
    SpatialGrid,
    association_check,
    bump,
    cutoff_sqrt,
    linear_bump,
    lower_bound_check,
    lower_bound_sweep,
    mollify_measure,
    oscillatory_bump,
    sqrt_root,
)

SPEC_1D = MollifierSpec(dim=1, exponent=3.0)


class TestMeasure:
    def test_total_mass_must_be_one(self):
        with pytest.raises(RegnetsError):
            Measure(atoms=((0.0, 0.5),), dim=1)

    def test_dirac_constructor(self):
        mu = Measure.dirac()
        assert mu.atoms == (((0.0,), 1.0),)
        mu2 = Measure.dirac(location=0.5, dim=2)
        assert mu2.atoms == (((0.5, 0.5), 1.0),)

    def test_atom_dimension_checked(self):
        with pytest.raises(RegnetsError):
            Measure(atoms=(((0.0, 1.0), 1.0),), dim=1)

    def test_integrate_atoms_exact(self):
        grid = SpatialGrid(1, 4.0, 512)
        psi = bump(grid, 0.0, 2.0)
        mu = Measure(atoms=((0.5, 0.25), (-0.5, 0.75)), dim=1)
        expected = 0.25 * psi(0.5) + 0.75 * psi(-0.5)
        assert mu.integrate(psi) == pytest.approx(expected, rel=1e-12)

    def test_integrate_uniform_density_oracle(self):
        # uniform on [-1,1] against a bump: mu(psi) = (1/2) * integral of psi
        grid = SpatialGrid(1, 4.0, 1024)
        psi = bump(grid, 0.0, 0.5)
        from scipy.integrate import quad

        mu = Measure(
            density=Density(kind="uniform", params={"half_width": 1.0}),
            density_weight=1.0,
            dim=1,
        )
        oracle, _ = quad(psi.profile, -0.5, 0.5, limit=200)
        assert mu.integrate(psi) == pytest.approx(oracle / 2.0, rel=1e-8)

    def test_median_radius_gaussian(self):
        # half the mass of a standard gaussian lies within |x| <= 0.6745
        mu = Measure(
            density=Density(kind="gaussian", params={"sigma": 1.0}),
            density_weight=1.0,
            dim=1,
        )
        assert mu.median_radius() == pytest.approx(0.6745, abs=1e-3)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("gaussian", {"sgima": 0.5}, "gaussian density takes only 'sigma', got 'sgima'"),
            ("uniform", {"sigma": 0.5}, "uniform density takes only 'half_width', got 'sigma'"),
            ("gaussian", {"sigma": 0.0}, "sigma must be finite and > 0, got 0.0"),
            ("uniform", {"half_width": -1.0}, "half_width must be finite and > 0, got -1.0"),
            ("gaussian", {"sigma": float("nan")}, "sigma must be finite and > 0, got nan"),
        ],
        ids=["misspelled_key", "foreign_key", "zero_sigma", "negative_half_width", "nan_sigma"],
    )
    def test_density_rejects_foreign_keys_and_bad_values(self, kind, params, message):
        with pytest.raises(RegnetsError, match=message):
            Density(kind, params)
        Density(kind)  # the kind's default parameter stays valid


class TestMollifyMeasure:
    def test_dirac_gives_scaled_mollifier(self):
        from regnets import scaled_mollifier

        grid = SpatialGrid(1, 4.0, 2048)
        h = mollify_measure(Measure.dirac(), SPEC_1D, 0.25, grid)
        rho = scaled_mollifier(SPEC_1D, 0.25, grid)
        np.testing.assert_allclose(h.values.real, rho.values.real, rtol=1e-12)

    def test_two_atom_value_at_origin(self):
        # oracle: h(0) = 0.5 rho_eps(0.5) + 0.5 rho_eps(-0.5), m=2 Cauchy profile
        spec = MollifierSpec(dim=1, exponent=2.0)
        grid = SpatialGrid(1, 8.0, 4096)
        eps = 0.5
        mu = Measure(atoms=((0.5, 0.5), (-0.5, 0.5)), dim=1)
        h = mollify_measure(mu, spec, eps, grid)
        i0 = 2048  # node at x = 0
        # rho_eps(0.5) = (1/(pi eps)) / (1 + (0.5/eps)^2) = 2/(pi) / (1+1) / ... compute directly
        oracle = 2 * 0.5 * (1.0 / (np.pi * eps)) / (1.0 + (0.5 / eps) ** 2)
        assert h.values.real[i0] == pytest.approx(oracle, rel=1e-12)

    def test_strict_positivity(self):
        grid = SpatialGrid(1, 8.0, 2048)
        mu = Measure(atoms=((1.0, 1.0),), dim=1)
        h = mollify_measure(mu, SPEC_1D, 0.25, grid)
        assert np.min(h.values.real) > 0.0

    def test_density_component_mass_preserved(self):
        grid = SpatialGrid(1, 16.0, 8192)
        mu = Measure(
            atoms=((0.0, 0.5),),
            density=Density(kind="gaussian", params={"sigma": 0.5}),
            density_weight=0.5,
            dim=1,
        )
        h = mollify_measure(mu, SPEC_1D, 0.25, grid)
        mass = float(np.sum(h.values.real) * grid.cell_volume)
        assert mass == pytest.approx(1.0, abs=2e-3)

    def test_dimension_mismatch(self):
        grid = SpatialGrid(2, 4.0, 64)
        with pytest.raises(RegnetsError):
            mollify_measure(Measure.dirac(), SPEC_1D, 0.25, grid)


class TestSqrtRoot:
    def test_square_recovers_density(self):
        grid = SpatialGrid(1, 4.0, 2048)
        h = mollify_measure(Measure.dirac(), SPEC_1D, 0.25, grid)
        phi = sqrt_root(h)
        np.testing.assert_allclose(phi.abs2().values.real, h.values.real, rtol=1e-12)

    def test_value_at_origin_two_atoms(self):
        # oracle from the closed form above: phi(0) = sqrt(h(0))
        spec = MollifierSpec(dim=1, exponent=2.0)
        grid = SpatialGrid(1, 8.0, 4096)
        mu = Measure(atoms=((0.5, 0.5), (-0.5, 0.5)), dim=1)
        phi = sqrt_root(mollify_measure(mu, spec, 0.5, grid))
        oracle = np.sqrt(2 * 0.5 * (1.0 / (np.pi * 0.5)) / (1.0 + 1.0))
        assert phi.values.real[2048] == pytest.approx(oracle, rel=1e-12)

    def test_rejects_nonpositive_input(self):
        from regnets import GridFunction, PositivityError

        grid = SpatialGrid(1, 1.0, 16)
        with pytest.raises(PositivityError):
            sqrt_root(GridFunction.zeros(grid))

    def test_rejects_complex_dtype_even_with_zero_imaginary_part(self):
        from regnets import GridFunction, PositivityError

        grid = SpatialGrid(1, 1.0, 16)
        with pytest.raises(PositivityError, match="real"):
            sqrt_root(GridFunction(grid, np.ones(16, dtype=complex)))


class TestCutoff:
    def test_dyadic_index(self):
        assert CutoffFamily.j_of_eps(1.0) == 0
        assert CutoffFamily.j_of_eps(0.5) == 1
        assert CutoffFamily.j_of_eps(0.25) == 2
        assert CutoffFamily.j_of_eps(0.3) == 1  # 2^-2 < 0.3 <= 2^-1
        assert CutoffFamily.j_of_eps(2.0**-9) == 9

    def test_chi0_plateau_and_support(self):
        chi = CutoffFamily()
        r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        vals = chi.chi0_radial(r)
        assert np.all(vals[:3] == 1.0)
        assert np.all(vals[3:] == 0.0)

    def test_plateau_identity_bitwise(self):
        grid = SpatialGrid(1, 16.0, 8192)
        chi = CutoffFamily()
        eps = 0.25
        g, j = cutoff_sqrt(Measure.dirac(), SPEC_1D, chi, eps, grid)
        phi = sqrt_root(mollify_measure(Measure.dirac(), SPEC_1D, eps, grid))
        x = grid.axis_coords()
        inside = np.abs(x) <= 2.0**j
        assert np.array_equal(g.values[inside], phi.values.real[inside])

    def test_compact_support(self):
        grid = SpatialGrid(1, 16.0, 8192)
        g, j = cutoff_sqrt(Measure.dirac(), SPEC_1D, CutoffFamily(), 0.25, grid)
        x = grid.axis_coords()
        assert np.all(g.values[np.abs(x) >= 2.0 ** (j + 1)] == 0.0)

    def test_box_too_small(self):
        grid = SpatialGrid(1, 4.0, 8192)
        with pytest.raises(BoxTooSmallError) as exc:
            cutoff_sqrt(Measure.dirac(), SPEC_1D, CutoffFamily(), 2.0**-4, grid)
        assert exc.value.required_half_width >= 4.0


class TestReports:
    def _sqrt_net(self, mu, spec, eps_grid, grid):
        return EpsNet(
            eps_grid,
            [sqrt_root(mollify_measure(mu, spec, e, grid)) for e in eps_grid],
        )

    def test_lower_bound_check_dirac(self):
        grid = SpatialGrid(1, 4.0, 16384)
        eps = 2.0**-5
        h = mollify_measure(Measure.dirac(), SPEC_1D, eps, grid)
        rep = lower_bound_check(h, Measure.dirac(), SPEC_1D, eps, K_radius=1.0)
        assert rep["passes"]
        assert rep["measured_inf"] >= rep["sharp_bound"] * (1 - 1e-9)

    def test_lower_bound_sweep_slope_matches_m0_minus_n(self):
        grid = SpatialGrid(1, 4.0, 32768)
        eg = EpsGrid.dyadic(2, 9)
        sweep = lower_bound_sweep(Measure.dirac(), SPEC_1D, eg, grid, K_radius=1.0)
        assert abs(sweep["slope"] - (SPEC_1D.tail_exponent - 1)) < 0.15

    def test_association_of_squared_root(self):
        grid = SpatialGrid(1, 8.0, 32768)
        eg = EpsGrid.dyadic(2, 7)
        mu = Measure.dirac()
        net = self._sqrt_net(mu, SPEC_1D, eg, grid)
        squared = EpsNet(eg, [phi.abs2() for phi in net.items])
        tests = [bump(grid, 0.0, 1.0), oscillatory_bump(grid, 0.0, 1.0, 3.0)]
        rep = association_check(squared, mu, tests, tol=1e-2)
        assert rep["passes"]

@given(
    loc=st.floats(-1.0, 1.0),
    w=st.floats(0.1, 0.9),
)
@settings(max_examples=10, deadline=None)
def test_mollified_two_atom_mass_is_stable(loc, w):
    grid = SpatialGrid(1, 32.0, 8192)
    mu = Measure(atoms=((loc, w), (-loc if loc != 0 else 1.0, 1.0 - w)), dim=1)
    h = mollify_measure(mu, SPEC_1D, 0.5, grid)
    mass = float(np.sum(h.values.real) * grid.cell_volume)
    assert mass == pytest.approx(1.0, abs=5e-3)
