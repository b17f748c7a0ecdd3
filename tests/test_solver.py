"""Flux-form operator, Crank-Nicolson evolution and its audits."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta

from regnets import (
    CauchyProblem,
    Coefficient,
    CoefficientNet,
    EpsGrid,
    FluxFormOperator,
    GridFunction,
    InputError,
    MollifierSpec,
    RegnetsError,
    SpatialGrid,
    build_operator,
    bump,
    cauchy_power_normalization,
    constant_coefficient,
    energy_audit,
    energy_moderateness,
    log_time_coefficient,
    loglog_fit,
    mollified_jump_coefficient,
    mollify_gridfunction,
    norm_hk,
    norm_l2,
    power_time_coefficient,
    sampled_mass,
    scaled_mollifier,
    solve,
    spatial_coefficient,
    uniqueness_probe,
)
from regnets.solver import _cn_matrices, _norm


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


def _wobbling_coefficient(T):
    """c = 1 + sin^2(pi t / 0.37T) sin^2(pi t / T) exp(-x^2), declared with its d_t.

    It equals 1 (to roundoff) at t = 0, 0.37T and T, so sampling those
    instants cannot tell it from a static coefficient.
    """
    a, b = np.pi / (0.37 * T), np.pi / T

    def bump(grid):
        return np.exp(-grid.meshgrid()[0] ** 2)

    return Coefficient(
        evaluate=lambda eps, t, grid: 1.0 + np.sin(a * t) ** 2 * np.sin(b * t) ** 2 * bump(grid),
        dt_evaluate=lambda eps, t, grid: (
            a * np.sin(2 * a * t) * np.sin(b * t) ** 2 + b * np.sin(a * t) ** 2 * np.sin(2 * b * t)
        ) * bump(grid),
    )


def _sparse_lu_march(problem, eps):
    """Reference march: sparse LU of S = I - i(dt/2)H, R = 2I - S, one LU per
    solve unless a coefficient declares time dependence. Returns the final
    state and the (t, l2, h1, h2) rows."""
    grid, dt = problem.grid, problem.dt
    time_dep = any(c.dt_evaluate is not None for c in (*problem.coeffs.c, problem.coeffs.V))

    def row(t, vec):
        gf = GridFunction(grid, vec.reshape(grid.shape))
        return (t, norm_l2(gf), norm_hk(gf, 1), norm_hk(gf, 2))

    u = problem.initial(eps).values.astype(complex).ravel()
    rows = [row(0.0, u)]
    lu = None
    for m in range(problem.time_steps):
        t_half = (m + 0.5) * dt
        if lu is None or time_dep:
            S = _cn_matrices(build_operator(problem.coeffs, eps, t_half, grid), dt)
            R = 2.0 * sp.identity(S.shape[0], format="csc") - S
            lu = scipy.sparse.linalg.splu(S)
        rhs = R @ u
        if problem.forcing is not None:
            rhs = rhs + dt * np.asarray(problem.forcing(eps, t_half), dtype=complex).ravel()
        u = lu.solve(rhs)
        rows.append(row((m + 1) * dt, u))
    return u.reshape(grid.shape), np.asarray(rows)


def _backend_case(name):
    """The problem of one backend cross-check case, solved at eps = 1/64."""
    dim = 2 if name.startswith("2d") else 1
    grid = SpatialGrid(dim, 4.0, 32 if dim == 2 else 512)

    def bump(*x):
        return np.exp(-sum(xk**2 for xk in x))

    shape = bump(*grid.meshgrid())
    wavy = spatial_coefficient(lambda x: 1.0 + 0.5 * np.cos(x))
    log_c = log_time_coefficient(1.0, lambda *x: 0.5 * bump(*x))
    c, V, forcing = {
        "1d_jump": ([mollified_jump_coefficient(0.5, 1.5, jump_at=0.3)], constant_coefficient(0.3), None),
        "1d_log_time_c": ([log_c], None, None),
        "1d_time_dependent_V": ([wavy], log_time_coefficient(0.0, bump), None),
        "1d_forced": ([wavy], None, lambda e, t: t * shape),
        "2d_uniform_forced": (
            [constant_coefficient(1.0), constant_coefficient(0.7)],
            constant_coefficient(0.4),
            lambda e, t: t * shape,
        ),
        "2d_log_time_c": ([log_c, log_c], None, None),
        "2d_jump": ([mollified_jump_coefficient(1.0, 4.0)] * 2, None, None),
    }[name]
    u0 = GridFunction.from_profile(grid, bump)
    return CauchyProblem(
        grid=grid, coeffs=CoefficientNet(c=c, V=V, c0=0.5), initial=lambda e: u0,
        forcing=forcing, T=0.5 if dim == 1 else 0.05, time_steps=50 if dim == 1 else 10,
    )


class TestCoefficients:
    def test_positivity_guard(self):
        with pytest.raises(InputError, match="c0 must be positive, got 0.0"):
            CoefficientNet(c=(constant_coefficient(1.0),), V=None, c0=0.0)

    def test_build_operator_rejects_a_dip_below_c0(self):
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(spatial_coefficient(lambda x: 0.1 + 0.0 * x),),
            V=None,
            c0=0.5,
        )
        with pytest.raises(InputError, match=r"c_0 dips below c0=0.5 at \(eps=0.5, t=0.0\): min=0.1"):
            build_operator(net, 0.5, 0.0, grid)

    @pytest.mark.parametrize("bad", ["nan_c", "nan_V"])
    def test_nan_coefficient_is_rejected_by_name(self, bad):
        grid = SpatialGrid(1, 1.0, 64)
        holed = spatial_coefficient(lambda x: np.where(np.abs(x) < 0.1, np.nan, 1.0))
        if bad == "nan_c":
            net = CoefficientNet(c=(holed,), V=None, c0=0.5)
        else:
            net = CoefficientNet(c=(constant_coefficient(1.0),), V=holed, c0=0.5)
        problem = CauchyProblem(
            grid=grid, coeffs=net, initial=lambda e: GridFunction.zeros(grid), forcing=None,
            T=0.1, time_steps=10,
        )
        if bad == "nan_c":
            with pytest.raises(InputError, match="c_0 dips below c0=0.5"):
                build_operator(net, 0.5, 0.0, grid)
            with pytest.raises(InputError, match="c_0 dips below c0=0.5"):
                solve(problem, 0.5)
        else:
            with pytest.raises(InputError, match=r"potential V is not finite at \(eps=0.5, t=0.005\)"):
                solve(problem, 0.5)

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

    @staticmethod
    def _roll_apply(op, u):
        """H u in the roll form: the bitwise reference of apply."""
        out = op.v * u
        for k, ch in enumerate(op.c_half):
            fwd = np.roll(u, -1, axis=k) - u
            flux = ch * fwd
            out = out + (flux - np.roll(flux, 1, axis=k)) / op.dx**2
        return out

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_apply_equals_the_roll_form_bit_for_bit(self, dim, dtype):
        grid = SpatialGrid(dim, 1.3, 256 if dim == 1 else 32)
        rng = np.random.default_rng(dim)
        c_fields = [0.5 + rng.random(grid.shape) for _ in range(dim)]
        op = FluxFormOperator(grid, c_fields, rng.standard_normal(grid.shape))
        u = rng.standard_normal(grid.shape).astype(dtype)
        if dtype == np.complex128:
            u += 1j * rng.standard_normal(grid.shape)
        out = op.apply(u)
        assert out.dtype == dtype
        assert np.array_equal(out, self._roll_apply(op, u))
        # a strided flat vector reshaped to the grid, as the Krylov matvec passes it
        flat = np.zeros(2 * u.size, dtype=dtype)
        flat[::2] = u.ravel()
        assert np.array_equal(op.apply(flat[::2].reshape(grid.shape)), out)

    def test_operator_is_symmetric(self):
        grid = SpatialGrid(1, 1.0, 64)
        net = CoefficientNet(
            c=(spatial_coefficient(lambda x: 1.0 + 0.5 * x**2),),
            V=spatial_coefficient(lambda x: x),
            c0=0.5,
        )
        H = build_operator(net, 1.0, 0.0, grid).as_sparse().toarray()
        np.testing.assert_allclose(H, H.T, atol=1e-12)


class TestCrankNicolson:
    @pytest.mark.parametrize("shape", [(1024,), (64, 64)])
    def test_residual_norm_is_bitwise_numpys(self, shape):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert _norm(x) == np.linalg.norm(x)

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
        res = solve(problem, 1.0, snapshot_times=[0.0, 0.04, 0.5, 1.0])
        assert set(res.snapshots) == {0.0, 0.04, 0.5, 1.0}
        # 0.04 is within dt/2 of t = 0 only
        np.testing.assert_array_equal(res.snapshots[0.04].values, u0.values)

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_snapshot_times_outside_interval_rejected(self, t):
        grid = SpatialGrid(1, 1.0, 64)
        u0 = GridFunction(grid, np.ones(64, dtype=complex))
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: u0, forcing=None,
            T=1.0, time_steps=10,
        )
        with pytest.raises(RegnetsError, match=rf"{t}.*T=1\.0"):
            solve(problem, 1.0, snapshot_times=[0.5, t])

    @pytest.mark.parametrize(
        "T, steps, message",
        [
            (0.0, 10, "T must be finite and > 0, got 0.0"),
            (-0.1, 10, "T must be finite and > 0, got -0.1"),
            (float("inf"), 10, "T must be finite and > 0, got inf"),
            (1.0, 0, "time_steps must be an integer >= 1, got 0"),
            (1.0, -5, "time_steps must be an integer >= 1, got -5"),
            (1.0, 2.5, "time_steps must be an integer >= 1, got 2.5"),
        ],
        ids=["zero_T", "negative_T", "infinite_T", "zero_steps", "negative_steps", "fractional_steps"],
    )
    def test_time_grid_must_be_positive(self, T, steps, message):
        with pytest.raises(RegnetsError, match=message):
            CauchyProblem(
                grid=SpatialGrid(1, 1.0, 64), coeffs=_free_net(), initial=lambda e: None,
                forcing=None, T=T, time_steps=steps,
            )

    @pytest.mark.parametrize(
        "c, V, factorizations",
        [
            (constant_coefficient(1.0), constant_coefficient(0.5), 1),
            (spatial_coefficient(lambda x: 1.0 + 0.5 * np.cos(x)),
             spatial_coefficient(lambda x: np.sin(x)), 1),
            (mollified_jump_coefficient(1.0, 2.0), constant_coefficient(0.0), 1),
            (_wobbling_coefficient(0.5), constant_coefficient(0.0), 50),
            (constant_coefficient(1.0), log_time_coefficient(0.0, lambda x: np.exp(-x**2)), 50),
        ],
        ids=["constant", "spatial", "jump", "custom_time_dependent", "time_dependent_V"],
    )
    def test_factorizations_follow_declared_time_dependence(self, c, V, factorizations):
        grid = SpatialGrid(1, 4.0, 256)
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        problem = CauchyProblem(
            grid=grid, coeffs=CoefficientNet(c=(c,), V=V, c0=0.5),
            initial=lambda e: u0, forcing=None, T=0.5, time_steps=50,
        )
        res = solve(problem, 0.5)
        assert res.backend == "tridiagonal"
        assert res.factorizations == factorizations

    @pytest.mark.parametrize(
        "case, backend",
        [
            ("1d_jump", "tridiagonal"),
            ("1d_log_time_c", "tridiagonal"),
            ("1d_time_dependent_V", "tridiagonal"),
            ("1d_forced", "tridiagonal"),
            ("2d_uniform_forced", "fft"),
            ("2d_log_time_c", "krylov"),
            ("2d_jump", "krylov"),
        ],
    )
    def test_backend_matches_sparse_lu_reference(self, case, backend):
        problem, eps = _backend_case(case), 1.0 / 64
        res = solve(problem, eps)
        ref_final, ref_rows = _sparse_lu_march(problem, eps)
        assert res.backend == backend
        time_dep = any(c.dt_evaluate is not None for c in (*problem.coeffs.c, problem.coeffs.V))
        assert res.factorizations == (problem.time_steps if time_dep else 1)
        assert (res.iterations > 0) == (backend == "krylov")
        final_gap = np.max(np.abs(res.final.values - ref_final))
        assert final_gap <= 1e-11 * np.max(np.abs(ref_final))
        row_gap = np.max(np.abs(res.norm_history - ref_rows), axis=0)
        assert np.all(row_gap <= 1e-11 * np.max(np.abs(ref_rows), axis=0))
        if problem.forcing is None:
            l2 = res.norm_history[:, 1]
            assert np.max(np.abs(np.diff(l2))) <= 1e-12 * l2[0]
        assert max(res.residuals) <= 1e-10

    @pytest.mark.parametrize(
        "case",
        ["1d_jump", "1d_log_time_c", "1d_time_dependent_V", "1d_forced",
         "2d_uniform_forced", "2d_log_time_c", "2d_jump"],
    )
    def test_norm_rows_equal_the_public_norms_bit_for_bit(self, case):
        problem = _backend_case(case)
        times = [m * problem.dt for m in range(problem.time_steps + 1)]
        res = solve(problem, 1.0 / 64, snapshot_times=times)
        rows = [
            (t, norm_l2(u), norm_hk(u, 1), norm_hk(u, 2)) for t, u in sorted(res.snapshots.items())
        ]
        assert len(rows) == problem.time_steps + 1
        assert np.array_equal(res.norm_history, np.asarray(rows))

    def test_time_dependent_coefficient_is_not_frozen(self):
        # the wobbling coefficient is 1 at the instants t = 0, 0.37T, T;
        # freezing it at t = dt/2 must give a visibly different solution
        T, steps = 0.5, 50
        c = _wobbling_coefficient(T)
        frozen = Coefficient(
            evaluate=lambda eps, t, grid: c.evaluate(eps, T / steps / 2, grid),
            dt_evaluate=None,
        )
        grid = SpatialGrid(1, 4.0, 256)
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))

        def run(coeff):
            problem = CauchyProblem(
                grid=grid, coeffs=CoefficientNet(c=(coeff,), V=None, c0=0.5),
                initial=lambda e: u0, forcing=None, T=T, time_steps=steps,
            )
            return solve(problem, 0.5)

        moving, still = run(c), run(frozen)
        sup_u = np.max(np.abs(moving.final.values))
        assert np.max(np.abs(moving.final.values - still.final.values)) > 0.01 * sup_u
        drift = np.abs(moving.norm_history[:, 1] - moving.norm_history[0, 1])
        assert np.max(drift) <= 1e-12 * moving.norm_history[0, 1]

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

    def test_l2_conservation_verdict(self):
        grid = SpatialGrid(1, 2.0, 128)
        gauss = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        forced = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: gauss,
            forcing=lambda e, t: gauss.values, T=0.3, time_steps=60,
        )
        res = solve(forced, 1.0)
        assert res.l2_drift > 1e-10 and not res.conserves_l2
        # zero data and no forcing: every norm is 0, and so is the drift
        zero = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: GridFunction.zeros(grid),
            forcing=None, T=0.3, time_steps=60,
        )
        res = solve(zero, 1.0)
        assert res.l2_drift == 0.0 and res.conserves_l2
        with pytest.raises(RegnetsError, match="record_norms"):
            solve(zero, 1.0, record_norms=False).l2_drift

    def test_nan_residual_raises_solver_error(self):
        grid = SpatialGrid(1, 1.0, 64)
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: GridFunction.zeros(grid),
            forcing=lambda e, t: np.full(grid.shape, np.nan), T=0.1, time_steps=10,
        )
        with pytest.raises(RegnetsError, match="residual nan above 1e-10 at step 0") as exc:
            solve(problem, 1.0, record_norms=False)
        assert not isinstance(exc.value, InputError)

    def test_krylov_that_stops_short_raises_solver_error(self, monkeypatch):
        def stalled_gmres(A, b, x0=None, callback=None, **kwargs):
            for _ in range(7):
                callback(1e-3)
            return x0.copy(), 7

        # the Krylov backend imports scipy.sparse.linalg and looks gmres up at call time
        monkeypatch.setattr(scipy.sparse.linalg, "gmres", stalled_gmres)
        with pytest.raises(RegnetsError, match=r"GMRES did not converge in 7 iterations at step 0 \(eps=0.015625\)") as exc:
            solve(_backend_case("2d_jump"), 1.0 / 64)
        assert not isinstance(exc.value, InputError)

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

    @pytest.mark.parametrize("case", ["unforced", "forced", "time_dependent_V"])
    def test_energy_audit_reports_finite_ratio(self, case):
        from regnets import MollifierSpec

        grid = SpatialGrid(1, 2.0, 2048)
        spec = MollifierSpec(dim=1, exponent=3.0)
        shape = np.exp(-grid.axis_coords() ** 2)
        if case == "time_dependent_V":
            # V grows in t; its sup is taken over the solve's times, which end at T = 0.1
            V = log_time_coefficient(1.0, lambda x: 0.5 * np.exp(-(x**2)))
            T, steps, eps = 0.1, 20, 0.25
        else:
            V = constant_coefficient(1.0)
            T, steps, eps = 0.1, 40, 0.125
        net = CoefficientNet(
            c=(log_time_coefficient(1.0, lambda x: 0.1 + 0.05 * np.cos(np.pi * x / 2)),),
            V=V,
            c0=0.5,
        )
        forcing = (lambda e, t: t * shape) if case == "forced" else None
        problem = self._dirac_problem(grid, net, spec, T=T, steps=steps, forcing=forcing)
        res = solve(problem, eps)
        rep = energy_audit(res, problem, eps)
        assert rep["passes"]
        assert 0.0 < rep["ratio"] <= 1.0
        assert rep["C1"] > 0.0

    @pytest.mark.parametrize(
        "case", ["1d_jump", "1d_log_time_c", "1d_time_dependent_V", "1d_forced",
                 "2d_uniform_forced", "2d_log_time_c", "2d_jump"],
    )
    def test_energy_estimate_holds_on_every_backend(self, case):
        problem, eps = _backend_case(case), 1.0 / 64
        res = solve(problem, eps)
        rep = energy_audit(res, problem, eps)
        assert rep["passes"]
        assert rep["ratio"] <= 1.0 + 1e-12
        time_dep = any(c.dt_evaluate is not None for c in (*problem.coeffs.c, problem.coeffs.V))
        assert (rep["C1"] > 0.0) == time_dep

    @pytest.mark.parametrize("data", ["oscillating", "gaussian"])
    def test_energy_estimate_catches_an_understated_time_derivative(self, data):
        # c = 1 + t log(1/eps) with c0 = c(0) = 1: at small t the energy grows
        # at the full rate d_t c ||D+ u||^2, so a d_t c declared at half its
        # value breaks the per-step rule. For the Gaussian the paper's end
        # bound still holds (ratio < 1); only the per-step rule sees it.
        grid = SpatialGrid(1, 2.0, 1024)
        profile = {
            "oscillating": lambda x: np.exp(-4.0 * x**2) * np.exp(8j * x),
            "gaussian": lambda x: np.exp(-4.0 * x**2),
        }[data]
        u0 = GridFunction.from_profile(grid, profile)
        eps = np.exp(-2.0)

        def audit(declared):
            c = Coefficient(
                evaluate=lambda e, t, g: np.full(g.shape, 1.0 + t * np.log(1.0 / e)),
                dt_evaluate=lambda e, t, g: np.full(g.shape, declared * np.log(1.0 / e)),
            )
            problem = CauchyProblem(
                grid=grid, coeffs=CoefficientNet(c=(c,), V=None, c0=1.0),
                initial=lambda e: u0, forcing=None, T=1.0, time_steps=200,
            )
            return energy_audit(solve(problem, eps), problem, eps)

        halved, honest = audit(0.5), audit(1.0)
        assert not halved["passes"]
        assert honest["passes"] and honest["ratio"] <= 1.0
        assert honest["C1"] == pytest.approx(2.0 * halved["C1"], rel=1e-12)

    def test_energy_audit_needs_norm_rows(self):
        problem = _backend_case("1d_forced")
        res = solve(problem, 0.5, record_norms=False)
        assert len(res.h_pairings) == 0 and len(res.forcing_pairings) == 0
        with pytest.raises(InputError, match="record_norms=True"):
            energy_audit(res, problem, 0.5)

    def test_sup_h1_net_grows_like_a_power(self):
        grid = SpatialGrid(1, 2.0, 4096)
        spec = MollifierSpec(dim=1, exponent=3.0)
        problem = self._dirac_problem(grid, _free_net(), spec, T=0.05, steps=25)
        eg = EpsGrid.dyadic(2, 7)
        results = [solve(problem, eps) for eps in eg]
        audits = [energy_audit(res, problem, eps) for eps, res in zip(eg, results)]
        assert energy_moderateness(eg, audits)["passes"]
        audits[-1] = {**audits[-1], "passes": False}
        assert not energy_moderateness(eg, audits)["passes"]
        sups = [np.max(res.norm_history[:, 2]) for res in results]
        assert loglog_fit(np.asarray(eg.values), np.asarray(sups))[0] > 0.0

    @pytest.mark.parametrize("T", [0.1, 0.5])
    def test_power_time_coefficient_is_not_moderate(self, T):
        # c = 1 + t eps^-1/2 exp(-x^2): every step obeys the energy rule, but
        # C1 grows like eps^-1/2, so exp(C1) is no power of 1/eps. The deleted
        # log-log classifier called both runs moderate: their sup_t H1 nets
        # fit a power law with rms 0.012 (T = 0.1) and 0.016 (T = 0.5).
        grid = SpatialGrid(1, 2.0, 2048)
        coeffs = CoefficientNet(
            c=(power_time_coefficient(1.0, lambda x: np.exp(-(x**2)), power=0.5),),
            V=None,
            c0=1.0,
        )
        problem = self._dirac_problem(grid, coeffs, MollifierSpec(dim=1, exponent=4.0), T=T, steps=50)
        eg = EpsGrid.dyadic(1, 6)
        audits = [energy_audit(solve(problem, eps), problem, eps) for eps in eg]
        assert all(a["passes"] for a in audits)
        assert not energy_moderateness(eg, audits)["passes"]

    def test_data_energy_order_per_data_kind(self):
        # The data energy e_0 = Q_0(g) = c0 ||g||^2 - <H_0 g, g> (V = 0), read
        # off the solve, on the CLI's log_time coefficient (c0 = 0.5):
        # rho_eps data (the cn_timedep benchmark's CLI config) has
        #   sqrt(e_0) eps^(3/2) -> sqrt(c(0)) ||rho'||_L2,
        # rho_eps * b data (the golden schrodinger_sweep config) has the bound
        #   sqrt(e_0) <= m_eps sqrt(c_max / c_min) sqrt(Q_0(b)).
        eg = EpsGrid.dyadic(1, 6)

        def sqrt_data_energy(problem):
            rows = [solve(problem, eps) for eps in eg]
            return np.sqrt([0.5 * r.norm_history[0, 1] ** 2 - r.h_pairings[0] for r in rows])

        def sweep_problem(half_width, spec, initial, T, steps):
            grid = SpatialGrid(1, half_width, 2048)
            c = log_time_coefficient(1.0, lambda x: 0.1 * np.cos(np.pi * x / half_width))
            return CauchyProblem(
                grid=grid, coeffs=CoefficientNet(c=(c,), V=None, c0=0.5),
                initial=lambda e: initial(spec, e, grid), forcing=None, T=T, time_steps=steps,
            )

        spec = MollifierSpec(dim=1, exponent=4.0)
        dirac = sweep_problem(2.0, spec, lambda s, e, grid: scaled_mollifier(s, e, grid), 0.5, 50)
        origin = dirac.grid.points_per_axis // 2
        c_origin = [dirac.coeffs.c[0].evaluate(e, dirac.dt / 2, dirac.grid)[origin] for e in eg]
        grad_rho = cauchy_power_normalization(1, 4.0) * 4.0 * np.sqrt(beta(1.5, 4.5))
        predicted = np.sqrt(c_origin) * grad_rho * np.asarray(eg.values) ** -1.5
        assert np.all(np.abs(sqrt_data_energy(dirac) / predicted - 1.0) < 0.05)

        spec = MollifierSpec(dim=1)
        grid = SpatialGrid(1, 1.5, 2048)
        b = bump(grid, 0.0, 1.0).gridfunc
        bumped = sweep_problem(1.5, spec, lambda s, e, _: mollify_gridfunction(b, s, e), 0.1, 10)
        for eps, root in zip(eg, sqrt_data_energy(bumped)):
            op = build_operator(bumped.coeffs, eps, bumped.dt / 2, grid)
            q_b = grid.cell_volume * np.vdot(b.values, 0.5 * b.values - op.apply(b.values)).real
            m_eps = sampled_mass(scaled_mollifier(spec, eps, grid))
            c_half = op.c_half[0]
            assert root <= m_eps * np.sqrt(c_half.max() / c_half.min() * q_b)

    @staticmethod
    def _uniqueness_problem(coeffs):
        grid = SpatialGrid(1, 2.0, 512)
        rng = np.random.default_rng(21)
        w = GridFunction(grid, rng.standard_normal(512))
        u0 = GridFunction.from_profile(grid, lambda x: np.exp(-4 * x**2))
        problem = CauchyProblem(
            grid=grid, coeffs=coeffs, initial=lambda e: u0, forcing=None,
            T=0.1, time_steps=20,
        )
        return problem, w

    @pytest.mark.parametrize(
        "q, family",
        [(4, "constant"), (10, "constant"), (4, "log_time"), (10, "log_time")],
        ids=["4", "10", "4-log_time", "10-log_time"],
    )
    def test_uniqueness_probe_passes_for_negligible_perturbation(self, q, family):
        # the CN step is linear and L2-unitary, so the difference net is
        # exactly eps^q * ||w||_L2 * sqrt(T + dt), whatever the coefficients
        coeffs = _free_net() if family == "constant" else CoefficientNet(
            c=(log_time_coefficient(1.0, lambda x: 0.1 * np.cos(np.pi * x / 2)),),
            V=constant_coefficient(0.0), c0=0.5,
        )
        problem, w = self._uniqueness_problem(coeffs)
        rep = uniqueness_probe(problem, EpsGrid.dyadic(1, 6), q=q, perturbation=w)
        assert rep["passes"]
        assert abs(rep["decay_exponent"] - q) <= 1e-9

    def test_uniqueness_probe_solves_only_the_difference(self, monkeypatch):
        import regnets.solver

        calls = []
        real_solve = regnets.solver.solve

        def counting_solve(*args, **kwargs):
            calls.append(args[1])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(regnets.solver, "solve", counting_solve)
        problem, w = self._uniqueness_problem(_free_net())
        eps_grid = EpsGrid.dyadic(1, 6)
        uniqueness_probe(problem, eps_grid, q=4, perturbation=w)
        assert calls == list(eps_grid.values)

    def test_uniqueness_probe_needs_four_nonzero_norms(self):
        # w = 0 and eps^q w underflowing to 0 leave no exponent to fit: such a
        # probe measured nothing and does not pass
        problem, w = self._uniqueness_problem(_free_net())
        eps_grid = EpsGrid.dyadic(1, 6)
        for q, perturbation in [(4, GridFunction.zeros(problem.grid)), (200, w)]:
            rep = uniqueness_probe(problem, eps_grid, q=q, perturbation=perturbation)
            assert np.isnan(rep["decay_exponent"])
            assert not rep["passes"]

    def test_uniqueness_probe_rejects_negative_q(self):
        grid = SpatialGrid(1, 2.0, 64)
        zero = GridFunction.zeros(grid)
        problem = CauchyProblem(
            grid=grid, coeffs=_free_net(), initial=lambda e: zero, forcing=None,
            T=0.1, time_steps=4,
        )
        with pytest.raises(RegnetsError, match="q must be nonnegative, got -1"):
            uniqueness_probe(problem, EpsGrid.dyadic(1, 6), q=-1, perturbation=zero)


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
