"""Measures, mollified densities, square roots, cutoffs and their reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from regnets import (
    CutoffFamily,
    Density,
    EpsGrid,
    EpsNet,
    GridFunction,
    InputError,
    Measure,
    MollifierSpec,
    RegnetsError,
    SpatialGrid,
    association_check,
    bump,
    cutoff_plateau_check,
    cutoff_sqrt,
    linear_bump,
    lower_bound_check,
    lower_bound_sweep,
    mollify_measure,
    oscillatory_bump,
    sqrt_root,
)
from regnets.grid import periodic_convolve

SPEC_1D = MollifierSpec(dim=1, exponent=3.0)


def _sqrt_net(mu, spec, eps_grid, grid):
    return EpsNet(eps_grid, [sqrt_root(mollify_measure(mu, spec, e, grid)) for e in eps_grid])


class TestMeasure:
    def test_total_mass_must_be_one(self):
        with pytest.raises(RegnetsError):
            Measure(atoms=((0.0, 0.5),), dim=1)

    def test_dirac_constructor(self):
        mu = Measure.dirac()
        assert mu.atoms == (((0.0,), 1.0),)
        mu2 = Measure.dirac(location=0.5, dim=2)
        assert mu2.atoms == (((0.5, 0.5), 1.0),)
        assert Measure.dirac((0.5,), dim=2).atoms == mu2.atoms
        assert Measure.dirac((0.1, 0.2), dim=2).atoms == (((0.1, 0.2), 1.0),)
        # the rule of the test-function catalog: 1 or n coordinates
        with pytest.raises(InputError, match="got 3"):
            Measure.dirac((0.0, 0.0, 0.0), dim=2)
        with pytest.raises(InputError, match="got 2"):
            Measure.dirac((0.0, 0.5), dim=1)

    @pytest.mark.parametrize(
        "atoms, density, weight, message",
        [
            ([((0.0,), 1.5)], None, -0.5, "density_weight must be >= 0, got -0.5"),
            ([((0.0,), 0.5)], None, 0.5, "density_weight 0.5 needs a density"),
            ([((0.0,), 1.0)], Density(kind="gaussian"), float("nan"), "got nan"),
            ([((0.0,), float("nan"))], None, 0.0, "atom weights must be positive"),
        ],
        ids=["negative_density_weight", "weight_without_density", "nan_density_weight",
             "nan_atom_weight"],
    )
    def test_weight_rules(self, atoms, density, weight, message):
        # the negative and NaN weights were accepted (mass 1 or NaN), the
        # first with an h of mass 1.5
        with pytest.raises(RegnetsError, match=message):
            Measure(atoms=atoms, density=density, density_weight=weight, dim=1)

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

    def test_density_rejects_unknown_kind(self):
        with pytest.raises(InputError, match="unknown density kind 'triangle'"):
            Density("triangle")


class TestDensityOracles:
    # the closed forms and quadratures against grid sums of Density.evaluate;
    # 1.5 lies between a and a*sqrt(2), where the 2-D box cuts the circle
    @pytest.mark.parametrize(
        "dim, points, rel", [(1, 16384, 2e-3), (2, 1024, 2e-2)], ids=["1d", "2d"]
    )
    @pytest.mark.parametrize(
        "kind, params",
        [("uniform", {"half_width": 1.25}), ("gaussian", {"sigma": 0.5})],
        ids=["uniform", "gaussian"],
    )
    def test_ball_mass_and_integral_match_grid_quadrature(self, dim, points, rel, kind, params):
        grid = SpatialGrid(dim, 4.0, points)
        density = Density(kind, params)
        dens = density.evaluate(*grid.meshgrid())
        psi = bump(grid, 0.2 if dim == 1 else (0.2, 0.1), 1.5)
        on_grid = grid.cell_volume * np.sum(dens * psi.gridfunc.values)
        assert density.integrate_against(psi) == pytest.approx(on_grid, rel=rel)
        r = grid.radius()
        for radius in (0.5, 1.0, 1.5, 2.0):
            on_grid = grid.cell_volume * np.sum(dens[r <= radius])
            assert density.ball_mass(dim, radius) == pytest.approx(on_grid, rel=rel)

    def test_integral_is_zero_when_the_supports_are_disjoint(self):
        grid = SpatialGrid(1, 4.0, 1024)
        psi = bump(grid, 3.0, 0.5)  # supported in [2.5, 3.5], the density in [-1.25, 1.25]
        assert Density("uniform", {"half_width": 1.25}).integrate_against(psi) == 0.0

    @staticmethod
    def _tight_target(density, psi, center, width):
        # quad over the bump's own support [c - w, c + w], cut to the uniform box
        lo, hi = center - width, center + width
        if density.kind == "uniform":
            a = density.params["half_width"]
            lo, hi = max(lo, -a), min(hi, a)
        f = lambda x: psi.profile(x) * float(density.evaluate(x))
        return quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    def test_integrate_matches_tight_quadrature_at_benchmark_seed_52(self):
        # the first association test of the benchmark's spectral_nets workload
        # at seed 52; a quad over [-8 sigma, 8 sigma] was off here by 2.9e-7
        center, width = -0.15390089571798005, 2.0
        psi = bump(SpatialGrid(1, 8.0, 8192), center, width)
        density = Density("gaussian", {"sigma": 0.5})
        mu = Measure(density=density, density_weight=1.0, dim=1)
        target = self._tight_target(density, psi, center, width)
        assert abs(mu.integrate(psi) - target) <= 1e-9

    @pytest.mark.parametrize(
        "kind, params",
        [("uniform", {"half_width": 1.25}), ("gaussian", {"sigma": 0.5})],
        ids=["uniform", "gaussian"],
    )
    def test_integrate_matches_tight_quadrature_over_centres(self, kind, params):
        grid = SpatialGrid(1, 8.0, 8192)
        density = Density(kind, params)
        mu = Measure(density=density, density_weight=1.0, dim=1)
        for center in np.linspace(-0.5, 0.5, 9):
            for width in (1.5, 2.0):
                psi = bump(grid, center, width)
                target = self._tight_target(density, psi, center, width)
                assert abs(mu.integrate(psi) - target) <= 1e-9, (center, width)

    def test_2d_uniform_ball_mass_against_box_angle_fraction(self):
        # oracle: 2 pi / (2a)^2 * int_0^r s f(s) ds, with f(s) the fraction of
        # the circle of radius s inside the box [-a, a]^2
        a = 1.25
        density = Density("uniform", {"half_width": a})

        def fraction(s):
            if s <= a:
                return 1.0
            if s >= a * np.sqrt(2.0):
                return 0.0
            return 1.0 - (4.0 / np.pi) * np.arccos(a / s)

        for r in (0.5 * a, a, 1.04 * a, 1.2 * a, 1.41 * a, 2.0 * a):
            kinks = [k for k in (a, a * np.sqrt(2.0)) if k < r]
            val, _ = quad(lambda s: s * fraction(s), 0.0, r, points=kinks or None,
                          epsabs=1e-14, epsrel=1e-13, limit=200)
            oracle = 2.0 * np.pi * val / (2.0 * a) ** 2
            assert abs(density.ball_mass(2, r) - oracle) <= 1e-9, r


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

    def test_roundoff_loss_of_positivity_is_a_computation_failure(self):
        # the true h_eps is about 3e-18 at the box edge, far below the FFT
        # roundoff of the density convolution: the input is valid and the
        # computation fails its own check, so the CLI exits 1, not 2
        mu = Measure(density=Density("uniform"), density_weight=1.0)
        with pytest.raises(RegnetsError, match="mollified measure non-positive") as exc:
            mollify_measure(mu, MollifierSpec(1, 6.0), 0.25, SpatialGrid(1, 256.0, 131072))
        assert not isinstance(exc.value, InputError)

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

    @pytest.mark.parametrize(
        "mu, spec",
        [
            (Measure(atoms=((-0.75, 0.25), (0.5, 0.75)), dim=1), SPEC_1D),
            (Measure(atoms=((0.3, 0.4),), density=Density(kind="gaussian", params={"sigma": 0.5}),
                     density_weight=0.6, dim=1), MollifierSpec(dim=1, exponent=4.0)),
            (Measure(atoms=((0.0, 0.5),), density=Density(kind="uniform"), density_weight=0.5,
                     dim=1), MollifierSpec(dim=1)),
            (Measure(atoms=(((0.25, -0.5), 0.7),), density=Density(kind="gaussian"),
                     density_weight=0.3, dim=2), MollifierSpec(dim=2, exponent=5.0)),
        ],
        ids=["1d_atoms", "1d_atom_gaussian", "1d_atom_uniform_default_m", "2d_atom_gaussian"],
    )
    def test_bitwise_equal_to_direct_evaluation(self, mu, spec):
        # the reference evaluates the profile itself, as mollify_measure did
        # before it sampled through the checked mollifier sampler
        grid = SpatialGrid(mu.dim, 4.0, 512)
        x, coords = grid.axis_coords(), grid.meshgrid()
        for eps in (0.5, 0.25, 0.125):
            ref = np.zeros(grid.shape)
            for loc, w in mu.atoms:
                ref += w * spec.evaluate_scaled(eps, *np.ix_(*(x - li for li in loc)))
            if mu.density is not None:
                dens, rho = mu.density.evaluate(*coords), spec.evaluate_scaled(eps, *coords)
                ref += mu.density_weight * periodic_convolve(dens, rho, grid)
            h = mollify_measure(mu, spec, eps, grid)
            assert np.array_equal(h.values, ref), eps

    @pytest.mark.parametrize("with_density", [False, True])
    def test_mollifier_checks_reach_atoms_and_density(self, with_density):
        # both used to return values: a 2-D profile on a 1-D grid (h of
        # mass 2), and eps = 2
        grid = SpatialGrid(1, 8.0, 1024)
        mu = Measure.dirac(0.0)
        if with_density:
            mu = Measure(density=Density(kind="gaussian"), density_weight=1.0, dim=1)
        with pytest.raises(RegnetsError, match="grid dim 1 != mollifier dim 2"):
            mollify_measure(mu, MollifierSpec(dim=2, exponent=4.0), 0.25, grid)
        with pytest.raises(RegnetsError, match=r"eps must lie in \(0, 1\], got 2.0"):
            mollify_measure(mu, SPEC_1D, 2.0, grid)


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
        grid = SpatialGrid(1, 1.0, 16)
        with pytest.raises(InputError):
            sqrt_root(GridFunction.zeros(grid))

    def test_rejects_complex_dtype_even_with_zero_imaginary_part(self):
        grid = SpatialGrid(1, 1.0, 16)
        with pytest.raises(InputError, match="real"):
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
        eg = EpsGrid([0.5, 0.4, 0.3, 0.25, 0.2, 0.15])
        net = _sqrt_net(Measure.dirac(), SPEC_1D, eg, grid)
        assert cutoff_plateau_check(net, Measure.dirac(), SPEC_1D)
        # h_eps = phi_eps^2 is not phi_eps on the plateau
        squared = EpsNet(eg, [phi.abs2() for phi in net.items])
        assert not cutoff_plateau_check(squared, Measure.dirac(), SPEC_1D)

    def test_plateau_identity_bitwise_2d(self):
        # the plateau is the disk r <= 2^j; chi_j is below 1 in the corners
        # of the square |x|_inf <= 2^j
        grid = SpatialGrid(2, 4.0, 128)
        mu = Measure.dirac((0.1, 0.2), dim=2)
        spec = MollifierSpec(dim=2, exponent=3.0)
        net = _sqrt_net(mu, spec, EpsGrid([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]), grid)
        assert cutoff_plateau_check(net, mu, spec)

    def test_compact_support(self):
        grid = SpatialGrid(1, 16.0, 8192)
        g, j = cutoff_sqrt(Measure.dirac(), SPEC_1D, CutoffFamily(), 0.25, grid)
        x = grid.axis_coords()
        assert np.all(g.values[np.abs(x) >= 2.0 ** (j + 1)] == 0.0)

    def test_box_too_small(self):
        grid = SpatialGrid(1, 4.0, 8192)
        with pytest.raises(InputError, match="< cutoff support radius 32.0"):
            cutoff_sqrt(Measure.dirac(), SPEC_1D, CutoffFamily(), 2.0**-4, grid)


class TestReports:
    def test_lower_bound_check_dirac(self):
        grid = SpatialGrid(1, 4.0, 16384)
        eps = 2.0**-5
        h = mollify_measure(Measure.dirac(), SPEC_1D, eps, grid)
        rep = lower_bound_check(h, Measure.dirac(), SPEC_1D, eps, K_radius=1.0)
        assert rep["passes"]
        assert rep["measured_inf"] >= rep["sharp_bound"] * (1 - 1e-9)
        # the origin is a node, so only a negative radius leaves the ball empty
        with pytest.raises(InputError, match="no grid nodes inside the requested ball"):
            lower_bound_check(h, Measure.dirac(), SPEC_1D, eps, K_radius=-1.0)

    def test_lower_bound_sweep_slope_matches_m0_minus_n(self):
        grid = SpatialGrid(1, 4.0, 32768)
        eg = EpsGrid.dyadic(2, 9)
        sweep = lower_bound_sweep(Measure.dirac(), SPEC_1D, eg, grid, K_radius=1.0)
        assert sweep["target_exponent"] == SPEC_1D.tail_exponent - 1
        assert sweep["passes"]
        # for eps near 1 the infimum has not reached its eps^(m0-n) regime
        coarse = lower_bound_sweep(
            Measure.dirac(), SPEC_1D, EpsGrid([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]),
            SpatialGrid(1, 4.0, 1024), K_radius=1.0,
        )
        assert not coarse["passes"]

    def test_lower_bound_sweep_fails_a_net_short_by_one_percent(self, monkeypatch):
        # h_eps scaled by 0.99 keeps the fitted slope, so only the chain bound
        # of lower_bound_check can catch it
        import regnets.measures

        real = regnets.measures.mollify_measure
        monkeypatch.setattr(
            regnets.measures, "mollify_measure",
            lambda *args: GridFunction(args[3], 0.99 * real(*args).values),
        )
        spec = MollifierSpec(dim=1, exponent=2.0)
        sweep = lower_bound_sweep(
            Measure.dirac(), spec, EpsGrid.dyadic(2, 9), SpatialGrid(1, 4.0, 65536), K_radius=1.0
        )
        assert abs(sweep["slope"] - sweep["target_exponent"]) <= 0.15
        assert not sweep["passes"]

    def test_sweep_finds_the_half_mass_radius_once_and_fits_given_nets_alike(self, monkeypatch):
        import regnets.measures

        mu = Measure(atoms=((-0.4, 0.3), (0.6, 0.7)), dim=1)
        grid, eg = SpatialGrid(1, 4.0, 8192), EpsGrid.dyadic(2, 7)
        calls = []
        real = Measure.median_radius
        monkeypatch.setattr(Measure, "median_radius", lambda self: calls.append(1) or real(self))
        sweep = lower_bound_sweep(mu, SPEC_1D, eg, grid, K_radius=1.0)
        assert len(calls) == 1
        h_net = [mollify_measure(mu, SPEC_1D, eps, grid) for eps in eg]
        assert regnets.measures._lower_bound_fit(h_net, mu, SPEC_1D, eg, 1.0) == sweep
        assert sweep["inf_values"] == [
            lower_bound_check(h, mu, SPEC_1D, eps, 1.0)["measured_inf"] for eps, h in zip(eg, h_net)
        ]

    def test_association_of_squared_root(self):
        grid = SpatialGrid(1, 8.0, 32768)
        eg = EpsGrid.dyadic(2, 7)
        mu = Measure.dirac()
        net = _sqrt_net(mu, SPEC_1D, eg, grid)
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
