"""Coherence with a classical reference and association of solution nets."""

import threading

import numpy as np
import pytest

from regnets import (
    CauchyProblem,
    Coefficient,
    CoefficientNet,
    EpsGrid,
    GridFunction,
    InputError,
    MollifierSpec,
    RegnetsError,
    SpatialGrid,
    bump,
    constant_coefficient,
    free_evolve,
    linear_bump,
    log_time_coefficient,
    power_time_coefficient,
    mollify_gridfunction,
    norm_hk,
    pair,
    scaled_mollifier,
    spatial_coefficient,
)
import regnets.lab
from regnets.lab import association_of_solution, coherence_experiment

SPEC = MollifierSpec(dim=1, exponent=4.0)


def _const_net(base=1.0, V=0.0):
    return CoefficientNet(
        c=(constant_coefficient(base),), V=constant_coefficient(V), c0=base / 2
    )


class TestMollifyGridFunction:
    def test_smoothing_preserves_mass(self):
        grid = SpatialGrid(1, 16.0, 8192)
        u = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        v = mollify_gridfunction(u, SPEC, 0.25)
        assert v.values.dtype == np.float64
        assert np.sum(v.values) * grid.cell_volume == pytest.approx(
            np.sum(u.values) * grid.cell_volume, rel=1e-3
        )

    def test_converges_to_identity(self):
        grid = SpatialGrid(1, 16.0, 16384)
        u = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        gaps = []
        for eps in (0.25, 0.125, 0.0625):
            v = mollify_gridfunction(u, SPEC, eps)
            gaps.append(float(np.max(np.abs(v.values - u.values))))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_mollifying_delta_like_data_matches_direct_convolution(self):
        # convolving rho_eps1 with rho_eps2 stays a probability density
        grid = SpatialGrid(1, 16.0, 8192)
        rho = scaled_mollifier(SPEC, 0.5, grid)
        out = mollify_gridfunction(rho, SPEC, 0.25)
        assert np.sum(out.values.real) * grid.cell_volume == pytest.approx(1.0, abs=5e-3)
        assert np.argmax(out.values.real) == grid.points_per_axis // 2


class TestCoherence:
    def test_gaussian_data_constant_coefficients(self):
        grid = SpatialGrid(1, 8.0, 4096)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442])
        result = coherence_experiment(
            grid, _const_net(), g0, None, SPEC, eg, T=0.1, time_steps=100,
            reference_tol=1e-3,
        )
        assert result.monotone and result.first_order
        assert result.final_diff < result.h1_sup_diffs[0]
        # at eps = 0.0442 the difference, 4.3e-3, is still above reference_tol
        assert not result.final_below_tol and result.final_diff >= 1e-3
        assert result.reference_gap < 1e-4

    def test_zero_data_gives_zero_differences(self):
        grid = SpatialGrid(1, 8.0, 2048)
        g0 = GridFunction.zeros(grid)
        eg = EpsGrid([0.5, 0.42, 0.35, 0.3, 0.27, 0.25])
        result = coherence_experiment(
            grid, _const_net(), g0, None, SPEC, eg, T=0.1, time_steps=50,
        )
        assert max(result.h1_sup_diffs) == pytest.approx(0.0, abs=1e-13)
        # zero differences are below any tolerance but show no eps-rate
        assert result.final_below_tol and not result.first_order

    def test_underresolved_reference_aborts(self):
        # high-frequency data on a coarse grid cannot self-converge
        grid = SpatialGrid(1, 8.0, 256)
        g0 = GridFunction.from_profile(
            grid, lambda x: np.exp(-(x**2)) * np.cos(12.0 * x)
        )
        eg = EpsGrid([0.5, 0.42, 0.35, 0.3, 0.27, 0.25])
        with pytest.raises(RegnetsError, match="reference self-convergence gap") as exc:
            coherence_experiment(
                grid, _const_net(), g0, None, SPEC, eg, T=0.5, time_steps=25,
                reference_tol=1e-4,
            )
        assert not isinstance(exc.value, InputError)

    def test_constant_coefficient_gaps_equal_the_data_gap(self):
        # with constant c the CN step is a unimodular Fourier multiplier, so
        # each gap is ||rho_eps * g - g||_H1 up to the roundoff of one solve
        grid = SpatialGrid(1, 4.0, 4096)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442, 0.03125, 0.0221, 0.015625])
        result = coherence_experiment(
            grid, _const_net(), g0, None, SPEC, eg, T=0.1, time_steps=200,
            reference_tol=1e-3,
        )
        data_gaps = [norm_hk(mollify_gridfunction(g0, SPEC, e) - g0, 1) for e in eg]
        for gap, data_gap in zip(result.h1_sup_diffs, data_gaps):
            assert gap == pytest.approx(data_gap, rel=1e-12, abs=0.0)

    def test_variable_coefficient_enters_the_gaps(self):
        # with constant c the CN step is unitary in H1, so each gap equals
        # ||rho_eps * g - g||_H1 and no PDE effect is measured; c(x) breaks that
        grid = SpatialGrid(1, 4.0, 4096)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        coeffs = CoefficientNet(
            c=(spatial_coefficient(lambda x: 1.0 + 0.5 * np.exp(-(x**2))),),
            V=constant_coefficient(0.0), c0=1.0,
        )
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442, 0.03125, 0.0221, 0.015625])
        result = coherence_experiment(
            grid, coeffs, g0, None, SPEC, eg, T=0.1, time_steps=200,
            reference_tol=1e-3,
        )
        assert result.monotone and result.first_order and result.final_below_tol
        data_gaps = [norm_hk(mollify_gridfunction(g0, SPEC, e) - g0, 1) for e in eg]
        assert max(abs(d / m - 1.0) for d, m in zip(result.h1_sup_diffs, data_gaps)) > 0.01

    def test_eps_dependent_coefficient_is_rejected(self):
        # the reference is solved at eps = 1, so a log-time net would be judged
        # against the solution for its eps = 1 coefficients
        grid = SpatialGrid(1, 4.0, 4096)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        coeffs = CoefficientNet(
            c=(log_time_coefficient(1.0, lambda x: 0.1 * np.cos(np.pi * x / 4.0)),),
            V=None, c0=0.5,
        )
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442, 0.03125, 0.0221, 0.015625])
        with pytest.raises(InputError, match=r"c_0 at \(eps=0.25, t=0.00025\)"):
            coherence_experiment(grid, coeffs, g0, None, SPEC, eg, T=0.1, time_steps=200)

    def test_every_half_step_is_compared(self):
        # equal to its eps = 1 field before T/2, eps-dependent after
        T, steps = 0.1, 10
        late = Coefficient(
            evaluate=lambda eps, t, grid: np.full(grid.shape, 1.0 + (t > T / 2) * (1.0 - eps)),
            dt_evaluate=lambda eps, t, grid: np.zeros(grid.shape),
        )
        grid = SpatialGrid(1, 8.0, 2048)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        eg = EpsGrid([0.5, 0.42, 0.35, 0.3, 0.27, 0.25])
        with pytest.raises(InputError, match=r"c_0 at \(eps=0.5, t=0.055\)"):
            coherence_experiment(
                grid, CoefficientNet(c=(late,), V=None, c0=1.0), g0, None, SPEC, eg, T, steps
            )

    def test_time_dependent_eps_independent_coefficient_runs(self):
        # eps^0 = 1: c = 1 + t * s(x) changes every step but not with eps
        grid = SpatialGrid(1, 4.0, 2048)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        coeffs = CoefficientNet(
            c=(power_time_coefficient(1.0, lambda x: 0.5 * np.exp(-(x**2)), power=0.0),),
            V=None, c0=1.0,
        )
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442])
        result = coherence_experiment(
            grid, coeffs, g0, None, SPEC, eg, T=0.1, time_steps=50, reference_tol=1e-3,
        )
        assert result.monotone and result.first_order
        assert result.reference_gap < 1e-4

    def test_forcing_is_mollified_too(self):
        grid = SpatialGrid(1, 8.0, 4096)
        g0 = GridFunction.zeros(grid)

        def f0(t, gr):
            return np.exp(-gr.axis_coords() ** 2) * np.cos(t)

        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442])
        result = coherence_experiment(
            grid, _const_net(), g0, f0, SPEC, eg, T=0.1, time_steps=100,
            reference_tol=1e-3,
        )
        assert result.monotone
        assert result.h1_sup_diffs[-1] < result.h1_sup_diffs[0]


class TestAssociationOfSolution:
    def _dirac_problem(self, grid, T=0.2, steps=100):
        return CauchyProblem(
            grid=grid,
            coeffs=_const_net(),
            initial=lambda e: scaled_mollifier(SPEC, e, grid),
            forcing=None,
            T=T,
            time_steps=steps,
        )

    def test_dirac_data_pairings_converge_to_free_solution(self):
        # oracle: the same pairing computed from the spectral free propagator
        # applied to the mollified data at the smallest eps
        grid = SpatialGrid(1, 4.0, 8192)
        eg = EpsGrid([0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125])
        psi = bump(grid, 0.0, 1.0)
        rep = association_of_solution(self._dirac_problem(grid, steps=400), eg, [psi], 0.2)
        assert all(p["cauchy"] for p in rep["tests"])
        oracle = pair(free_evolve(scaled_mollifier(SPEC, eg.values[-1], grid), 0.2), psi)
        measured = rep["tests"][0]["pairings"][-1]
        assert abs(measured - oracle) < 5e-3

    def test_a_test_function_listed_twice_gets_two_entries(self):
        grid = SpatialGrid(1, 4.0, 2048)
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442])
        psi = bump(grid, 0.0, 1.0)
        problem = self._dirac_problem(grid, T=0.1, steps=20)
        once = association_of_solution(problem, eg, [psi], 0.1)["tests"]
        twice = association_of_solution(problem, eg, [psi, psi], 0.1)["tests"]
        assert len(once[0]["pairings"]) == len(eg)
        assert twice == [once[0], once[0]]

    def test_symmetric_zero_pairing_counts_as_converged(self):
        grid = SpatialGrid(1, 4.0, 8192)
        eg = EpsGrid([0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125])
        rep = association_of_solution(
            self._dirac_problem(grid), eg, [linear_bump(grid, 0.0, 1.5)], 0.2
        )
        assert all(p["cauchy"] for p in rep["tests"])
        assert max(abs(v) for v in rep["tests"][0]["pairings"]) < 1e-10

    def test_sqrt_delta_dichotomy(self):
        # the net itself pairs to ~0 (its square associates with delta:
        # association_check on squared nets in test_measures)
        spec6 = MollifierSpec(dim=1, exponent=6.0)
        grid = SpatialGrid(1, 64.0, 32768)
        eg = EpsGrid([2.0 ** (-1 - 0.5 * j) for j in range(8)])
        problem = CauchyProblem(
            grid=grid,
            coeffs=_const_net(),
            initial=lambda e: GridFunction(
                grid, np.sqrt(scaled_mollifier(spec6, e, grid).values.real)
            ),
            forcing=None,
            T=0.5,
            time_steps=50,
        )
        # pair at t = 0: the data g = sqrt(rho_eps) itself pairs to zero
        psi = bump(grid, 0.0, 1.0)
        amp = association_of_solution(problem, eg, [psi], 0.0)
        amp_vals = [abs(v) for v in amp["tests"][0]["pairings"]]
        assert amp_vals[-1] < 0.5 * amp_vals[0]  # amplitude pairing vanishes


class TestThreadCount:
    """The eps-maps of coherence and association give the same results and
    the same error on any number of threads, and one thread starts none."""

    @pytest.fixture(params=[1, 2, 3])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(regnets.lab, "_cpu_count", lambda: request.param)
        if request.param == 1:
            monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("thread started"))
        return request.param

    @staticmethod
    def _variable_net():
        return CoefficientNet(
            c=(spatial_coefficient(lambda x: 1.0 + 0.5 * np.exp(-(x**2))),),
            V=constant_coefficient(0.0), c0=1.0,
        )

    def _coherence(self, eg, grid=None, reference_tol=1e-2):
        grid = grid or SpatialGrid(1, 8.0, 2048)
        g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
        return coherence_experiment(
            grid, self._variable_net(), g0, None, SPEC, eg, T=0.1, time_steps=50,
            reference_tol=reference_tol,
        )

    def test_coherence_result_does_not_depend_on_threads(self, cpus):
        eg = EpsGrid([0.5, 0.35, 0.25, 0.177, 0.125, 0.088, 0.0625])
        result = self._coherence(eg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regnets.lab, "_cpu_count", lambda: 1)
            serial = self._coherence(eg)
        assert result == serial

    def test_association_pairings_do_not_depend_on_threads(self, cpus):
        grid = SpatialGrid(1, 4.0, 2048)
        problem = CauchyProblem(
            grid=grid, coeffs=self._variable_net(),
            initial=lambda e: scaled_mollifier(SPEC, e, grid), forcing=None, T=0.1, time_steps=20,
        )
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442, 0.03125])
        tests = [bump(grid, 0.0, 1.0), linear_bump(grid, 0.0, 1.5)]
        rep = association_of_solution(problem, eg, tests, 0.1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regnets.lab, "_cpu_count", lambda: 1)
            serial = association_of_solution(problem, eg, tests, 0.1)
        assert rep == serial

    def test_underresolved_finest_eps_raises_its_input_error(self, cpus):
        # 2048 points on [-8, 8] resolve eps >= 0.0625: the certificate
        # passes and the difference solve at eps = 0.05 raises
        eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.05])
        with pytest.raises(InputError, match=r"exceeds 0.05/8"):
            self._coherence(eg)

    def test_failed_certificate_raises_before_any_difference(self, cpus):
        # at 256 points no eps of the sweep is resolved either, yet the
        # certificate, item 0 of the map, raises first
        grid = SpatialGrid(1, 8.0, 256)
        eg = EpsGrid([0.5, 0.42, 0.35, 0.3, 0.27, 0.25])
        with pytest.raises(RegnetsError, match="reference self-convergence gap") as exc:
            self._coherence(eg, grid, reference_tol=1e-12)
        assert not isinstance(exc.value, InputError)
