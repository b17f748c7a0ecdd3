"""Spectral free propagator: exactness, group law, probability snapshots."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    EpsGrid,
    GridFunction,
    InputError,
    MollifierSpec,
    ProbabilityDensitySnapshot,
    RegnetsError,
    SpatialGrid,
    bump,
    cross_validate_cn,
    free_evolve,
    linear_bump,
    loglog_fit,
    mass_check,
    norm_l2,
    norm_linf,
    oscillatory_bump,
    pair,
    scaled_mollifier,
    sqrt_delta_data,
    vague_convergence_check,
)
import regnets.free
from regnets.free import _dispersive_bound


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

    @pytest.mark.parametrize("dim, points", [(1, 131072), (1, 256), (2, 256), (2, 64)])
    @pytest.mark.parametrize("t", [0.25, 0.3, 1.0, -0.5])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_half_spectrum_phases_are_bitwise_the_full_ones(self, dim, points, t, complex_data):
        # the per-axis form that exponentiates all M wavenumbers of each axis
        grid = SpatialGrid(dim, 8.0, points)
        rng = np.random.default_rng(points + dim)
        values = rng.standard_normal(grid.shape)
        if complex_data:
            values = values + 1j * rng.standard_normal(grid.shape)
        F = np.fft.fftn(values)
        for xi in np.ix_(*grid.wavenumbers()):
            np.multiply(np.exp(-1j * t * xi**2), F, out=F)
        out = free_evolve(GridFunction(grid, values), t).values
        assert out.tobytes() == np.fft.ifftn(F).tobytes()

    @given(t1=st.floats(-1, 1), t2=st.floats(-1, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_group_law_random_states(self, t1, t2, seed):
        grid = SpatialGrid(1, 4.0, 128)
        rng = np.random.default_rng(seed)
        u0 = GridFunction(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        lhs = free_evolve(u0, t1 + t2)
        rhs = free_evolve(free_evolve(u0, t1), t2)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-11)


class TestPhaseCacheAndBuffers:
    @staticmethod
    def _uncached(u0, t):
        # free_evolve with a fresh phase array and allocating transforms
        F = np.fft.fftn(u0.values)
        h = u0.grid.points_per_axis // 2 + 1
        phase = np.exp(-1j * t * u0.grid.wavenumbers()[0][:h] ** 2)
        for axis in range(F.ndim):
            shape = (1,) * axis + (-1,) + (1,) * (F.ndim - axis - 1)
            for p, part in ((phase, slice(None, h)), (phase[h - 2 : 0 : -1], slice(h, None))):
                view = F[(slice(None),) * axis + (part,)]
                np.multiply(p.reshape(shape), view, out=view)
        return np.fft.ifftn(F)

    def test_one_read_only_phase_per_grid_and_time(self):
        grid = SpatialGrid(1, 4.0, 64)
        a = regnets.free._phase(grid, 0.5)
        assert regnets.free._phase(SpatialGrid(1, 4.0, 64), 0.5) is a
        assert not a.flags.writeable and a.shape == (33,)
        assert regnets.free._phase(grid, 0.25) is not a

    @pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_cached_and_uncached_evolutions_agree_bit_for_bit(self, dim, points, complex_data):
        grid = SpatialGrid(dim, 4.0, points)
        rng = np.random.default_rng(points)
        values = rng.standard_normal(grid.shape)
        if complex_data:
            values = values + 1j * rng.standard_normal(grid.shape)
        u0 = GridFunction(grid, values)
        regnets.free._phase_cached.cache_clear()
        # 0.0 fills the entry that -0.0 must not reuse; the second 0.3 hits the cache
        for t in (0.0, -0.0, 0.3, 0.3, -0.3, 1e-300, -1e-300):
            out = free_evolve(u0, t).values
            assert out.tobytes() == self._uncached(u0, t).tobytes(), t
            assert not np.shares_memory(out, u0.values)
        assert regnets.free._phase_cached.cache_info().hits == 1

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_snapshot_mass_is_bitwise_its_allocating_form(self, complex_data):
        grid = SpatialGrid(2, 4.0, 64)
        rng = np.random.default_rng(11)
        values = rng.standard_normal(grid.shape)
        if complex_data:
            values = values + 1j * rng.standard_normal(grid.shape)
        snap = ProbabilityDensitySnapshot.from_state(GridFunction(grid, values), 0.5, 0.25)
        assert snap.mass == float(grid.cell_volume * np.sum(np.abs(values) ** 2))


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
        rep = _dispersive_bound(norm_linf(u), spec, eps, t)
        assert rep["passes"]
        assert rep["ratio"] > 0.9  # asymptotically saturated as eps -> 0

    def test_bound_scales_with_time(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 256.0, 131072)
        r1 = _dispersive_bound(
            norm_linf(free_evolve(sqrt_delta_data(spec, 0.125, grid), 0.5)), spec, 0.125, 0.5
        )
        r2 = _dispersive_bound(
            norm_linf(free_evolve(sqrt_delta_data(spec, 0.125, grid), 2.0)), spec, 0.125, 2.0
        )
        assert r2["bound"] == pytest.approx(r1["bound"] / 2.0, rel=1e-12)

    def test_rejects_t_zero(self):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 8.0, 1024)
        u0 = sqrt_delta_data(spec, 0.25, grid)
        with pytest.raises(RegnetsError):
            _dispersive_bound(norm_linf(u0), spec, 0.25, 0.0)


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
        with pytest.raises(RegnetsError) as raised:
            vague_convergence_check(
                spec, EpsGrid.dyadic(1, 6), grid, 0.0, [bump(grid, 0.0, 1.0)]
            )
        assert raised.type is InputError

    @pytest.mark.parametrize(
        "dim, half_width, points, exponent, t",
        [(1, 16.0, 2048, 6.0, 0.5), (1, 3.3, 2048, 6.0, 0.3), (2, 8.0, 512, 8.0, 0.5), (2, 3.3, 256, 8.0, 0.5)],
    )
    def test_reduced_grid_matches_full_grid_reference(self, dim, half_width, points, exponent, t):
        # the reduced-grid evolution against free_evolve on the full grid;
        # off-centre psi make the fold average unequal values, and on the
        # non-dyadic half-width 3.3 the full-grid samples are even only up
        # to roundoff
        spec = MollifierSpec(dim=dim, exponent=exponent)
        grid = SpatialGrid(dim, half_width, points)
        eg = EpsGrid([2.0 ** (-0.75 - 0.25 * j) for j in range(6)])
        off = [0.3, -0.5, 0.25] if dim == 1 else [(0.3, -0.2), (-0.5, 0.4), (0.25, 0.6)]
        tests = [bump(grid, off[0], 1.0), oscillatory_bump(grid, off[1], 0.7), linear_bump(grid, off[2], 1.0)]
        rep = vague_convergence_check(spec, eg, grid, t, tests)
        masses, sups, ratios, pairings = [], [], [], [[] for _ in tests]
        for eps in eg:
            u = free_evolve(sqrt_delta_data(spec, eps, grid), t)
            snap = ProbabilityDensitySnapshot.from_state(u, t, eps)
            masses.append(snap.mass)
            disp = _dispersive_bound(norm_linf(u), spec, eps, t)
            sups.append(disp["measured_sup"])
            ratios.append(disp["ratio"])
            for row, psi in zip(pairings, tests):
                row.append(abs(pair(u.abs2(), psi)))
        decays = [-loglog_fit(np.asarray(eg.values), np.asarray(row))[0] for row in pairings]
        close = dict(rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(rep["masses"], masses, **close)
        np.testing.assert_allclose([d["measured_sup"] for d in rep["dispersive"]], sups, **close)
        np.testing.assert_allclose([d["ratio"] for d in rep["dispersive"]], ratios, **close)
        for p, row in zip(rep["tests"], pairings):
            np.testing.assert_allclose(p["pairings"], row, **close)
        np.testing.assert_allclose([p["decay_exponent"] for p in rep["tests"]], decays, **close)

    def test_pairings_zero_by_symmetry_fit_no_exponent(self):
        # an odd psi pairs to exactly 0 with the even density; the full-grid
        # sums read 0 to 1.7e-18 here and fitted a passing exponent 2.17
        spec = MollifierSpec(dim=2, exponent=8.0)
        grid = SpatialGrid(2, 8.0, 512)
        eg = EpsGrid([2.0 ** (-0.75 - 0.25 * j) for j in range(6)])
        rep = vague_convergence_check(spec, eg, grid, 0.5, [linear_bump(grid, (0.0, -0.1), 1.0)])
        (odd,) = rep["tests"]
        assert odd["pairings"] == [0.0] * 6
        assert np.isnan(odd["decay_exponent"])
        assert odd["passes"] is False
        assert rep["passes"] is False

    BAD_INPUT_MESSAGES = {
        "eps_above_one": r"eps must lie in \(0, 1\], got 1.5$",
        "under_resolved": "grid spacing 0.125 exceeds 0.5/8; need points_per_axis >= 512 at half_width 16$",
        "sqrt_not_integrable": r"exponent m=2.0 must exceed dimension n=1 / 0.5 for an integrable rho\*\*0.5$",
        "non_finite_samples": "values contain NaN or Inf$",
        "psi_on_other_grid": "operands live on different grids$",
        "t_zero": "dispersive bound is vacuous at t = 0$",
    }

    @pytest.mark.parametrize(
        "case, error",
        [
            ("eps_above_one", InputError),
            ("under_resolved", InputError),
            ("sqrt_not_integrable", InputError),
            ("non_finite_samples", InputError),
            ("psi_on_other_grid", InputError),
            ("t_zero", InputError),
        ],
    )
    def test_bad_input_raises_typed_error(self, case, error, monkeypatch):
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 16.0, 2048)
        eps, tests, t = EpsGrid(np.geomspace(0.5, 0.125, 6)), [bump(grid, 0.0, 1.0)], 0.5
        if case == "eps_above_one":
            # a plain sequence reaches the sampler's own range check, which
            # EpsGrid would pre-empt
            eps = (1.5,) + eps.values
        elif case == "under_resolved":
            grid = SpatialGrid(1, 16.0, 256)
            tests = [bump(grid, 0.0, 1.0)]
        elif case == "sqrt_not_integrable":
            spec = MollifierSpec(dim=1, exponent=2.0)
        elif case == "non_finite_samples":
            # a spec with m = inf no longer builds; an infinite constant
            # still reaches the sampler's finite-value rule
            monkeypatch.setattr(MollifierSpec, "normalization", np.inf)
        elif case == "psi_on_other_grid":
            tests = [bump(SpatialGrid(1, 16.0, 1024), 0.0, 1.0)]
        else:
            t = 0.0
        if case != "non_finite_samples":
            # every rule but finiteness holds before the sweep starts
            def no_sweep(*args):
                raise AssertionError("the eps-sweep started")

            monkeypatch.setattr(regnets.free, "_eps_map", no_sweep)
        with pytest.raises(error, match=self.BAD_INPUT_MESSAGES[case]) as raised:
            vague_convergence_check(spec, eps, grid, t, tests)
        assert raised.type is error

    def test_non_finite_sample_on_a_worker_raises_in_the_caller(self, monkeypatch):
        # two threads: eps index 3 runs on the pool's worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 16.0, 2048)
        eps = EpsGrid(np.geomspace(0.5, 0.125, 6))
        evaluate = MollifierSpec.evaluate_scaled
        bad = {eps[3]: threading.get_ident()}

        def poisoned(self, e, *coords, power=1.0):
            values = evaluate(self, e, *coords, power=power)
            if e in bad:
                bad[e] = threading.get_ident()
                values[0] = np.inf
            return values

        monkeypatch.setattr(MollifierSpec, "evaluate_scaled", poisoned)
        with pytest.raises(InputError, match="values contain NaN or Inf$"):
            vague_convergence_check(spec, eps, grid, 0.5, [bump(grid, 0.0, 1.0)])
        assert bad[eps[3]] != threading.get_ident()

    def test_one_cpu_runs_the_plain_loop(self, monkeypatch):
        spec = MollifierSpec(dim=2, exponent=8.0)
        grid = SpatialGrid(2, 8.0, 512)
        eg = EpsGrid([2.0 ** (-0.75 - 0.25 * j) for j in range(6)])
        tests = [bump(grid, (0.1, -0.2), 1.0), linear_bump(grid, (0.0, 0.3), 1.0)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        threaded = vague_convergence_check(spec, eg, grid, 0.75, tests)

        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert repr(vague_convergence_check(spec, eg, grid, 0.75, tests)) == repr(threaded)


class TestCrossValidation:
    def test_cn_is_second_order_against_spectral_oracle(self):
        grid = SpatialGrid(1, 8.0, 256)
        rep = cross_validate_cn(
            lambda x: np.exp(-(x**2)), grid, T=0.25, time_steps=50, refinements=2
        )
        assert rep["passes"]
        assert rep["errors"][-1] < rep["errors"][0]
        # two time steps on a 32-point grid are short of second order
        coarse = cross_validate_cn(
            lambda x: np.exp(-(x**2)), SpatialGrid(1, 8.0, 32), T=0.25, time_steps=2
        )
        assert not coarse["passes"]
