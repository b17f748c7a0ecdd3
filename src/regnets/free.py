"""Exact constant-coefficient evolution via Fourier multiplier.

Realizes d_t u = i Laplacian u on the periodic box: u(t) has spectrum
exp(-i t |xi|^2) times the spectrum of u(0). Used for the square-root-of-
delta evolution experiments (probability density snapshots, dispersive
bound, vague convergence of the density measures) and as the oracle for
the Crank-Nicolson scheme's convergence order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import EpsGrid, loglog_fit
from .errors import RegnetsError
from .grid import (
    GridFunction,
    SpatialGrid,
    TestFunction,
    norm_l2,
    norm_linf,
    pair,
)
from .mollifiers import MollifierSpec, scaled_mollifier


def free_evolve(u0: GridFunction, t: float) -> GridFunction:
    grid = u0.grid
    xi_sq = sum(xi**2 for xi in np.ix_(*grid.wavenumbers()))
    F = np.fft.fftn(u0.values)
    out = np.fft.ifftn(np.exp(-1j * t * xi_sq) * F)
    return GridFunction(grid, out)


def sqrt_delta_data(spec: MollifierSpec, eps: float, grid: SpatialGrid) -> GridFunction:
    """sqrt(rho_eps): the regularized square root of delta as initial data."""
    if spec.tail_exponent <= 2 * spec.dim:
        raise RegnetsError(
            "square-root evolution needs an integrable sqrt(rho): tail exponent > 2n"
        )
    rho = scaled_mollifier(spec, eps, grid)
    return GridFunction(grid, np.sqrt(rho.values.real))


@dataclass(frozen=True)
class ProbabilityDensitySnapshot:
    """|u_eps(t, .)|^2 on the grid, with its recorded mass."""

    t: float
    eps: float
    density: GridFunction
    mass: float

    @classmethod
    def from_state(cls, u: GridFunction, t: float, eps: float):
        dens = u.abs2()
        mass = float(u.grid.cell_volume * np.sum(dens.values.real))
        return cls(t=t, eps=eps, density=dens, mass=mass)


def mass_check(snapshot: ProbabilityDensitySnapshot, tol: float = 1e-8) -> dict:
    gap = abs(snapshot.mass - 1.0)
    return {
        "t": snapshot.t,
        "eps": snapshot.eps,
        "mass": snapshot.mass,
        "gap": gap,
        "passes": gap <= tol,
    }


def wrap_flag(grid: SpatialGrid, t: float, eps: float, decades: float = 8.0) -> bool:
    """True when the dispersed wave packet may have wrapped around the box.

    Heuristic envelope: spectral content of sqrt(rho_eps) decays like
    exp(-eps |xi|), so frequencies above xi_eff = decades*ln(10)/eps carry
    negligible amplitude and the envelope reaches |x| ~ 2 t xi_eff.
    """
    xi_eff = decades * np.log(10.0) / eps
    return bool(2.0 * abs(t) * xi_eff > grid.half_width)


def dispersive_bound_check(
    u_t: GridFunction, spec: MollifierSpec, eps: float, t: float
) -> dict:
    """Measured sup norm against ||sqrt(rho_eps)||_L1 / (4 pi |t|)^(n/2)."""
    if t == 0.0:
        raise RegnetsError("dispersive bound is vacuous at t = 0")
    n = spec.dim
    sqrt_l1 = eps ** (n / 2.0) * spec.sqrt_l1_norm()
    bound = sqrt_l1 / (4.0 * np.pi * abs(t)) ** (n / 2.0)
    measured = norm_linf(u_t)
    return {
        "eps": eps,
        "t": t,
        "measured_sup": measured,
        "bound": bound,
        "ratio": measured / bound,
        "passes": measured <= bound,
        "wrapped": wrap_flag(u_t.grid, t, eps),
    }


def vague_convergence_check(
    spec: MollifierSpec,
    eps_grid: EpsGrid,
    grid: SpatialGrid,
    t: float,
    tests: list[TestFunction],
) -> dict:
    """Density pairings vanish at rate >= n/2 while total mass stays 1.

    For each psi the slope of |<|u_eps(t)|^2, psi>| vs eps must be at least
    n/2 - 0.1; simultaneously the pairing against the constant 1 (full-box
    sum) equals 1 for every eps: the vague limit is 0 but no mass is lost.
    """
    if t == 0.0:
        raise RegnetsError("vague-convergence check requires t != 0")
    n = grid.dim
    pairings = {psi.name + repr(sorted(psi.params.items())): [] for psi in tests}
    masses = []
    bound_reports = []
    for eps in eps_grid:
        u0 = sqrt_delta_data(spec, eps, grid)
        u_t = free_evolve(u0, t)
        snap = ProbabilityDensitySnapshot.from_state(u_t, t, eps)
        masses.append(snap.mass)
        bound_reports.append(dispersive_bound_check(u_t, spec, eps, t))
        for psi in tests:
            key = psi.name + repr(sorted(psi.params.items()))
            pairings[key].append(abs(pair(snap.density, psi)))
    eps_arr = np.asarray(eps_grid.values)
    per_test = []
    for psi in tests:
        key = psi.name + repr(sorted(psi.params.items()))
        vals = np.asarray(pairings[key])
        slope, _, rms, _ = loglog_fit(eps_arr, vals)
        decay = -slope
        per_test.append(
            {
                "psi": psi.name,
                "params": psi.params,
                "pairings": vals.tolist(),
                "decay_exponent": float(decay),
                "fit_rms": rms,
                "passes": decay >= n / 2.0 - 0.1,
            }
        )
    mass_ok = all(abs(m - 1.0) <= 1e-8 for m in masses)
    return {
        "t": t,
        "masses": masses,
        "mass_stays_one": mass_ok,
        "tests": per_test,
        "dispersive": bound_reports,
        "dispersive_all_pass": all(r["passes"] for r in bound_reports),
        "passes": mass_ok and all(p["passes"] for p in per_test),
    }


def cross_validate_cn(
    u0_profile,
    grid: SpatialGrid,
    T: float,
    time_steps: int,
    refinements: int = 2,
) -> dict:
    """CN error against the spectral oracle under (dx, dt) halving.

    Constant coefficients c = 1, V = 0, f = 0. The spectral solution is
    computed on the finest grid and restricted to coarser (nested) grids;
    the observed order should be about 2 (assert >= 1.8 upstream).
    """
    from .solver import CauchyProblem, CoefficientNet, constant_coefficient, solve

    errors = []
    sizes = []
    for level in range(refinements + 1):
        M = grid.points_per_axis * 2**level
        Nt = time_steps * 2**level
        g = SpatialGrid(grid.dim, grid.half_width, M)
        u0 = GridFunction.from_profile(g, u0_profile)
        coeffs = CoefficientNet(
            c=[constant_coefficient(1.0)] * g.dim,
            V=constant_coefficient(0.0),
            c0=1.0,
        )
        problem = CauchyProblem(
            grid=g, coeffs=coeffs, initial=lambda e: u0, forcing=None, T=T, time_steps=Nt
        )
        cn = solve(problem, eps=1.0, record_norms=False)
        exact = free_evolve(u0, T)
        errors.append(norm_l2(cn.final - exact))
        sizes.append((M, Nt))
    orders = [
        float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)
    ]
    return {
        "sizes": sizes,
        "errors": errors,
        "orders": orders,
        "min_order": min(orders) if orders else np.nan,
    }
