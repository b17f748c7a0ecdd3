"""Coherence with a classical reference and association of solution nets."""

import numpy as np
import pytest

from regnets import (
    CauchyProblem,
    CoefficientNet,
    EpsGrid,
    GridFunction,
    MollifierSpec,
    ReferenceError_,
    SpatialGrid,
    bump,
    constant_coefficient,
    free_evolve,
    linear_bump,
    mollify_gridfunction,
    pair,
    scaled_mollifier,
)
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
        assert result.monotone
        assert result.slope >= 0.9
        assert result.final_diff < result.h1_sup_diffs[0]
        assert result.reference_gap < 1e-4

    def test_zero_data_gives_zero_differences(self):
        grid = SpatialGrid(1, 8.0, 2048)
        g0 = GridFunction.zeros(grid)
        eg = EpsGrid([0.5, 0.42, 0.35, 0.3, 0.27, 0.25])
        result = coherence_experiment(
            grid, _const_net(), g0, None, SPEC, eg, T=0.1, time_steps=50,
        )
        assert max(result.h1_sup_diffs) == pytest.approx(0.0, abs=1e-13)

    def test_underresolved_reference_aborts(self):
        # high-frequency data on a coarse grid cannot self-converge
        grid = SpatialGrid(1, 8.0, 256)
        g0 = GridFunction.from_profile(
            grid, lambda x: np.exp(-(x**2)) * np.cos(12.0 * x)
        )
        eg = EpsGrid([0.5, 0.42, 0.35, 0.3, 0.27, 0.25])
        with pytest.raises(ReferenceError_):
            coherence_experiment(
                grid, _const_net(), g0, None, SPEC, eg, T=0.5, time_steps=25,
                reference_tol=1e-4,
            )

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
        assert rep["all_cauchy"]
        oracle = pair(free_evolve(scaled_mollifier(SPEC, eg.values[-1], grid), 0.2), psi)
        measured = rep["tests"][0]["pairings"][-1]
        assert abs(measured - oracle) < 5e-3

    def test_symmetric_zero_pairing_counts_as_converged(self):
        grid = SpatialGrid(1, 4.0, 8192)
        eg = EpsGrid([0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125])
        rep = association_of_solution(
            self._dirac_problem(grid), eg, [linear_bump(grid, 0.0, 1.5)], 0.2
        )
        assert rep["all_cauchy"]
        assert abs(rep["tests"][0]["extrapolated_limit"]) < 1e-10

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
