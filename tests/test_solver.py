"""Flux-form operator, coercivity, Crank-Nicolson evolution and its audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    CauchyProblem,
    CoefficientNet,
    EpsGrid,
    GridFunction,
    PositivityError,
    SpatialGrid,
    build_operator,
    coercivity_check,
    constant_coefficient,
    energy_audit,
    log_time_coefficient,
    mollified_jump_coefficient,
    norm_hk,
    norm_l2,
    power_time_coefficient,
    solution_sup_h1_net,
    solve,
    spatial_coefficient,
    uniqueness_probe,
)
from regnets.asymptotics import loglog_fit


def _free_net(c0=1.0):
    return CoefficientNet(
        c=(constant_coefficient(c0),), V=constant_coefficient(0.0), c0=c0 / 2
    )


def _free_net_2d(c0=1.0):
    return CoefficientNet(
        c=(constant_coefficient(c0), constant_coefficient(c0)),
        V=constant_coefficient(0.0),
        c0=c0 / 2,
    )


class TestCoefficients:
    def test_positivity_guard(self):
        with pytest.raises(PositivityError):
            CoefficientNet(c=(constant_coefficient(1.0),), V=None, c0=0.0)

    def test_check_positivity_catches_dips(self):
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(spatial_coefficient(lambda x: 0.1 + 0.0 * x),),
            V=None,
            c0=0.5,
        )
        with pytest.raises(PositivityError):
            net.check_positivity(0.5, 0.0, grid)

    def test_log_time_family_is_log_type(self):
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(log_time_coefficient(1.0, lambda x: 0.2 + 0.1 * np.cos(np.pi * x)),),
            V=None,
            c0=0.5,
        )
        rep = net.check_log_type(EpsGrid.dyadic(2, 9), grid)
        assert rep["passes"]

    def test_power_time_family_fails_log_type(self):
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(power_time_coefficient(1.0, lambda x: 0.2 + 0.0 * x, power=0.5),),
            V=None,
            c0=0.5,
        )
        rep = net.check_log_type(EpsGrid.dyadic(2, 9), grid)
        assert not rep["passes"]


class TestFluxFormOperator:
    def test_matches_spectral_laplacian_on_smooth_mode(self):
        # flux form with c = 1 is the standard 3-point laplacian:
        # eigenvalue -4 sin^2(xi dx / 2)/dx^2 vs -xi^2, agree to O(dx^2)
        grid = SpatialGrid(1, 1.0, 512)
        op = build_operator(_free_net(), 1.0, 0.0, grid)
        x = grid.axis_coords()
        u = np.exp(1j * np.pi * x)
        out = op.apply(u)
        xi = np.pi
        discrete_eig = -4.0 * np.sin(xi * grid.spacing / 2.0) ** 2 / grid.spacing**2
        np.testing.assert_allclose(out, discrete_eig * u, rtol=1e-10)

    def test_sparse_matches_apply(self):
        grid = SpatialGrid(1, 1.0, 128)
        net = CoefficientNet(
            c=(spatial_coefficient(lambda x: 1.0 + 0.5 * np.cos(np.pi * x)),),
            V=spatial_coefficient(lambda x: np.sin(np.pi * x)),
            c0=0.4,
        )
        op = build_operator(net, 1.0, 0.0, grid)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        np.testing.assert_allclose(
            op.as_sparse() @ u, op.apply(u).ravel(), rtol=1e-12, atol=1e-12
        )

    def test_sparse_matches_apply_2d(self):
        grid = SpatialGrid(2, 1.0, 16)
        net = CoefficientNet(
            c=(
                spatial_coefficient(lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x)),
                spatial_coefficient(lambda x, y: 1.0 + 0.3 * np.sin(np.pi * y)),
            ),
            V=spatial_coefficient(lambda x, y: x * y),
            c0=0.5,
        )
        op = build_operator(net, 1.0, 0.0, grid)
        rng = np.random.default_rng(11)
        u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        np.testing.assert_allclose(
            (op.as_sparse() @ u.ravel()).reshape(16, 16), op.apply(u), rtol=1e-12
        )

    def test_operator_is_symmetric(self):
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(spatial_coefficient(lambda x: 1.0 + 0.5 * x**2),),
            V=spatial_coefficient(lambda x: x),
            c0=0.5,
        )
        H = build_operator(net, 1.0, 0.0, grid).as_sparse().toarray()
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_coercivity_with_random_probes(self):
        grid = SpatialGrid(1, 1.0, 128)
        net = CoefficientNet(
            c=(spatial_coefficient(lambda x: 1.0 + 0.5 * np.cos(np.pi * x)),),
            V=spatial_coefficient(lambda x: 2.0 * np.sin(3 * x)),
            c0=0.5,
        )
        rng = np.random.default_rng(3)
        probes = [
            GridFunction(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
            for _ in range(8)
        ]
        rep = coercivity_check(net, 0.5, 0.0, grid, probes)
        assert rep["passes"]
        # lambda = c0 + sampled sup |V|, just below the analytic sup 2.0
        assert rep["lambda"] == pytest.approx(0.5 + 2.0, rel=1e-2)


class TestCrankNicolson:
    def test_constant_potential_phase(self):
        # c = 0-free part impossible (c0 > 0), so use V only on near-constant
        # data: with u0 = const the laplacian term vanishes and
        # u(T) = exp(i V T) u0 up to O(dt^2)
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(constant_coefficient(1.0),), V=constant_coefficient(2.0), c0=0.5
        )
        u0 = GridFunction(grid, np.ones(64, dtype=complex))
        problem = CauchyProblem(
            grid=grid, coeffs=net, initial=lambda e: u0, forcing=None,
            T=0.5, time_steps=200,
        )
        res = solve(problem, 1.0)
        expected = np.exp(1j * 2.0 * 0.5)
        np.testing.assert_allclose(res.final.values, expected, rtol=1e-5)

    def test_exact_discrete_unitarity(self):
        grid = SpatialGrid(1, 1.0, 256)
        net = CoefficientNet(
            c=(mollified_jump_coefficient(1.0, 3.0, 0.1),),
            V=spatial_coefficient(lambda x: np.cos(2 * x)),
            c0=0.5,
        )
        rng = np.random.default_rng(5)
        u0 = GridFunction(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        problem = CauchyProblem(
            grid=grid, coeffs=net, initial=lambda e: u0, forcing=None,
            T=1.0, time_steps=100,
        )
        res = solve(problem, 0.5)
        drift = np.abs(res.norm_history[:, 1] - res.norm_history[0, 1])
        assert np.max(drift) <= 1e-12 * res.norm_history[0, 1]

    def test_solver_linearity(self):
        grid = SpatialGrid(1, 1.0, 128)
        net = _free_net()
        rng = np.random.default_rng(9)
        a_vals = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        b_vals = rng.standard_normal(128) + 1j * rng.standard_normal(128)

        def run(vals):
            problem = CauchyProblem(
                grid=grid, coeffs=net,
                initial=lambda e: GridFunction(grid, vals),
                forcing=None, T=0.2, time_steps=40,
            )
            return solve(problem, 1.0).final.values

        lhs = run(2.0 * a_vals + 3.0 * b_vals)
        rhs = 2.0 * run(a_vals) + 3.0 * run(b_vals)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_snapshots_recorded_at_requested_times(self):
        grid = SpatialGrid(1, 1.0, 64)
        u0 = GridFunction(grid, np.ones(64, dtype=complex))
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: u0, forcing=None,
            T=1.0, time_steps=10,
        )
        res = solve(problem, 1.0, snapshot_times=[0.0, 0.5, 1.0])
        assert set(res.snapshots) == {0.0, 0.5, 1.0}

    def test_forcing_enters_linearly(self):
        grid = SpatialGrid(1, 2.0, 128)
        f_vals = np.cos(np.pi * grid.axis_coords() / 2.0)

        def run(scale):
            problem = CauchyProblem(
                grid=grid, coeffs=_free_net(),
                initial=lambda e: GridFunction.zeros(grid),
                forcing=lambda e, t: scale * f_vals,
                T=0.3, time_steps=60,
            )
            return solve(problem, 1.0).final.values

        np.testing.assert_allclose(run(2.0), 2.0 * run(1.0), atol=1e-11)

    def test_residuals_tracked(self):
        grid = SpatialGrid(1, 1.0, 64)
        u0 = GridFunction(grid, np.ones(64, dtype=complex))
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: u0, forcing=None,
            T=0.1, time_steps=20,
        )
        res = solve(problem, 1.0)
        assert len(res.residuals) == 20
        assert max(res.residuals) <= 1e-10

    def test_2d_unitarity(self):
        grid = SpatialGrid(2, 1.0, 32)
        rng = np.random.default_rng(12)
        u0 = GridFunction(grid, rng.standard_normal((32, 32)) * (1 + 0j))
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net_2d(), initial=lambda e: u0, forcing=None,
            T=0.2, time_steps=20,
        )
        res = solve(problem, 1.0)
        drift = np.abs(res.norm_history[:, 1] - res.norm_history[0, 1])
        assert np.max(drift) <= 1e-11


class TestAudits:
    def _dirac_problem(self, grid, coeffs, spec, T=0.1, steps=40, forcing=None):
        from regnets import scaled_mollifier

        return CauchyProblem(
            grid=grid, coeffs=coeffs,
            initial=lambda e: scaled_mollifier(spec, e, grid),
            forcing=forcing, T=T, time_steps=steps,
        )

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    def test_energy_audit_reports_finite_ratio(self, forced):
        from regnets import MollifierSpec

        grid = SpatialGrid(1, 2.0, 2048)
        spec = MollifierSpec(dim=1, exponent=3.0)
        net = CoefficientNet(
            c=(log_time_coefficient(1.0, lambda x: 0.1 + 0.05 * np.cos(np.pi * x / 2)),),
            V=constant_coefficient(1.0),
            c0=0.5,
        )
        shape = np.exp(-grid.axis_coords() ** 2)
        forcing = (lambda e, t: t * shape) if forced else None
        problem = self._dirac_problem(grid, net, spec, forcing=forcing)
        res = solve(problem, 0.125)
        rep = energy_audit(res, problem, 0.125)
        assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0.0
        assert rep["C1"] > 0.0
        assert rep["C2"] == pytest.approx(0.1 * (0.5 + 1.0), rel=1e-12)

    def test_sup_h1_net_grows_like_a_power(self):
        from regnets import MollifierSpec

        grid = SpatialGrid(1, 2.0, 4096)
        spec = MollifierSpec(dim=1, exponent=3.0)
        problem = self._dirac_problem(grid, _free_net(), spec, T=0.05, steps=25)
        eg = EpsGrid.dyadic(2, 7)
        net = solution_sup_h1_net(problem, eg)
        slope, _, rms, _ = loglog_fit(
            np.asarray(eg.values), np.asarray([abs(v) for v in net.items])
        )
        assert np.isfinite(slope) and slope > 0.0
        assert rms < 0.1

    @pytest.mark.parametrize("q", [4, 10])
    def test_uniqueness_probe_passes_for_negligible_perturbation(self, q):
        grid = SpatialGrid(1, 2.0, 512)
        rng = np.random.default_rng(21)
        w = GridFunction(grid, rng.standard_normal(512))
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-4 * x**2))
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: u0, forcing=None,
            T=0.1, time_steps=20,
        )
        rep = uniqueness_probe(problem, EpsGrid.dyadic(1, 6), q=q, perturbation=w)
        assert rep["passes"]
        assert rep["decay_exponent"] == pytest.approx(q, abs=0.1)


@given(steps=st.integers(10, 60), seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_unitarity_for_any_step_count(steps, seed):
    grid = SpatialGrid(1, 1.0, 64)
    rng = np.random.default_rng(seed)
    u0 = GridFunction(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    problem = CauchyProblem(
        grid=grid,
        coeffs=CoefficientNet(
            c=(constant_coefficient(1.0),), V=constant_coefficient(0.5), c0=0.5
        ),
        initial=lambda e: u0,
        forcing=None,
        T=0.5,
        time_steps=steps,
    )
    res = solve(problem, 1.0)
    assert abs(norm_l2(res.final) - norm_l2(u0)) <= 1e-11 * norm_l2(u0)
