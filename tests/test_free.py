"""Spectral free propagator: exactness, group law, probability snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    EpsGrid,
    GridFunction,
    MollifierSpec,
    ProbabilityDensitySnapshot,
    RegnetsError,
    SpatialGrid,
    bump,
    cross_validate_cn,
    dispersive_bound_check,
    free_evolve,
    mass_check,
    norm_l2,
    norm_linf,
    scaled_mollifier,
    sqrt_delta_data,
    vague_convergence_check,
)


class TestFreeEvolve:
    def test_gaussian_closed_form(self):
        # exact: e^{it d^2/dx^2} e^{-x^2} = (1+4it)^{-1/2} e^{-x^2/(1+4it)}
        grid = SpatialGrid(1, 16.0, 4096)
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        t = 0.3
        u = free_evolve(u0, t)
        x = grid.axis_coords()
        z = 1.0 + 4.0j * t
        exact = np.exp(-(x**2) / z) / np.sqrt(z)
        np.testing.assert_allclose(u.values, exact, atol=1e-12)

    def test_unitarity(self):
        grid = SpatialGrid(1, 8.0, 1024)
        rng = np.random.default_rng(2)
        u0 = GridFunction(grid, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        assert norm_l2(free_evolve(u0, 1.7)) == pytest.approx(norm_l2(u0), rel=1e-13)

    def test_group_law(self):
        grid = SpatialGrid(1, 8.0, 512)
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)) * np.cos(3 * x))
        once = free_evolve(u0, 0.7)
        twice = free_evolve(free_evolve(u0, 0.3), 0.4)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-13)

    def test_time_reversal(self):
        grid = SpatialGrid(1, 8.0, 512)
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-2 * x**2))
        back = free_evolve(free_evolve(u0, 0.9), -0.9)
        np.testing.assert_allclose(back.values, u0.values, atol=1e-13)

    @pytest.mark.parametrize("dim, points, rtol", [(1, 4096, 0.0), (2, 256, 1e-11)])
    def test_per_axis_phases_match_full_symbol(self, dim, points, rtol):
        # exp(-i t |xi|^2) applied as one full-grid symbol; at t = 10 the
        # phase reaches 5e4 in 2-D, so the two forms agree only to roundoff
        grid = SpatialGrid(dim, 8.0, points)
        rng = np.random.default_rng(5)
        u0 = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        t = 10.0
        xi_sq = sum(xi**2 for xi in np.ix_(*grid.wavenumbers()))
        ref = np.fft.ifftn(np.exp(-1j * t * xi_sq) * np.fft.fftn(u0.values))
        out = free_evolve(u0, t).values
        if rtol == 0.0:
            np.testing.assert_array_equal(out, ref)
        else:
            assert np.max(np.abs(out - ref)) <= rtol * np.max(np.abs(ref))

    @given(t1=st.floats(-1, 1), t2=st.floats(-1, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_group_law_random_states(self, t1, t2, seed):
        grid = SpatialGrid(1, 4.0, 128)
        rng = np.random.default_rng(seed)
        u0 = GridFunction(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        lhs = free_evolve(u0, t1 + t2)
        rhs = free_evolve(free_evolve(u0, t1), t2)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-11)


class TestSqrtDeltaData:
    def test_unit_l2_mass(self):
        # ||sqrt(rho_eps)||_L2^2 = integral rho_eps = 1
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 64.0, 32768)
        u0 = sqrt_delta_data(spec, 0.25, grid)
        assert norm_l2(u0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "dim, exponent, points, half_width, eps",
        [(1, 6.0, 32768, 64.0, 0.25), (1, 3.0, 8192, 8.0, 0.37), (2, 8.0, 512, 8.0, 0.25), (2, 5.0, 256, 4.0, 1.0)],
    )
    def test_square_is_the_scaled_mollifier(self, dim, exponent, points, half_width, eps):
        spec = MollifierSpec(dim=dim, exponent=exponent)
        grid = SpatialGrid(dim, half_width, points)
        sq = sqrt_delta_data(spec, eps, grid).values ** 2
        rho = scaled_mollifier(spec, eps, grid).values
        np.testing.assert_allclose(sq, rho, rtol=8 * np.finfo(float).eps, atol=0.0)

    def test_requires_integrable_sqrt(self):
        spec = MollifierSpec(dim=1, exponent=2.0)  # m = 2n: sqrt not L1
        grid = SpatialGrid(1, 8.0, 2048)
        with pytest.raises(RegnetsError):
            sqrt_delta_data(spec, 0.25, grid)

    def test_snapshot_mass_conserved_in_time(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 64.0, 32768)
        u0 = sqrt_delta_data(spec, 0.25, grid)
        for t in (0.1, 0.5, 1.0):
            snap = ProbabilityDensitySnapshot.from_state(free_evolve(u0, t), t, 0.25)
            assert mass_check(snap)["passes"]


class TestDispersiveBound:
    def test_bound_holds_and_is_near_sharp(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 256.0, 131072)
        eps, t = 0.0625, 1.0
        u = free_evolve(sqrt_delta_data(spec, eps, grid), t)
        rep = dispersive_bound_check(u, spec, eps, t)
        assert rep["passes"]
        assert rep["ratio"] > 0.9  # asymptotically saturated as eps -> 0

    def test_bound_scales_with_time(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 256.0, 131072)
        r1 = dispersive_bound_check(
            free_evolve(sqrt_delta_data(spec, 0.125, grid), 0.5), spec, 0.125, 0.5
        )
        r2 = dispersive_bound_check(
            free_evolve(sqrt_delta_data(spec, 0.125, grid), 2.0), spec, 0.125, 2.0
        )
        assert r2["bound"] == pytest.approx(r1["bound"] / 2.0, rel=1e-12)

    def test_rejects_t_zero(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 8.0, 1024)
        u0 = sqrt_delta_data(spec, 0.25, grid)
        with pytest.raises(RegnetsError):
            dispersive_bound_check(u0, spec, 0.25, 0.0)


class TestVagueConvergence:
    def test_density_pairings_decay_at_half_power_while_mass_stays_one(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 256.0, 131072)
        eg = EpsGrid([2.0 ** (-2 - 0.5 * j) for j in range(6)])
        tests = [bump(grid, 0.0, 1.0), bump(grid, 1.0, 0.5)]
        rep = vague_convergence_check(spec, eg, grid, 1.0, tests)
        assert rep["passes"]
        assert rep["mass_stays_one"]
        for p in rep["tests"]:
            assert p["decay_exponent"] >= 0.5 - 0.1

    def test_identical_test_functions_get_their_own_pairings(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 16.0, 2048)
        eg = EpsGrid(np.geomspace(0.5, 0.125, 6))
        rep = vague_convergence_check(spec, eg, grid, 0.5, [bump(grid, 0.0, 1.0)] * 2)
        first, second = rep["tests"]
        assert len(first["pairings"]) == len(second["pairings"]) == 6
        assert first["pairings"] == second["pairings"]
        assert first["decay_exponent"] == second["decay_exponent"]

    def test_rejects_t_zero(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 16.0, 2048)
        with pytest.raises(RegnetsError):
            vague_convergence_check(
                spec, EpsGrid.dyadic(1, 6), grid, 0.0, [bump(grid, 0.0, 1.0)]
            )


class TestCrossValidation:
    def test_cn_is_second_order_against_spectral_oracle(self):
        grid = SpatialGrid(1, 8.0, 256)
        rep = cross_validate_cn(
            lambda x: np.exp(-(x**2)), grid, T=0.25, time_steps=50, refinements=2
        )
        assert rep["min_order"] >= 1.8
        assert rep["errors"][-1] < rep["errors"][0]
