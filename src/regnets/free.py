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
from .mollifiers import MollifierSpec, _sample_scaled
from .solver import CauchyProblem, CoefficientNet, constant_coefficient, solve


def free_evolve(u0: GridFunction, t: float) -> GridFunction:
    """exp(i t Laplacian) u0: the symbol exp(-i t |xi|^2) is a product of per-axis phases."""
    F = np.fft.fftn(u0.values)
    for xi in np.ix_(*u0.grid.wavenumbers()):
        # phase first: with FMA, complex products depend on operand order
        np.multiply(np.exp(-1j * t * xi**2), F, out=F)
    return GridFunction(u0.grid, np.fft.ifftn(F))


def sqrt_delta_data(spec: MollifierSpec, eps: float, grid: SpatialGrid) -> GridFunction:
    """sqrt(rho_eps): the regularized square root of delta as initial data.

    Sampled directly as c^(1/2) eps^(-n/2) (1 + |x/eps|^2)^(-m/4).
    """
    if spec.tail_exponent <= 2 * spec.dim:
        raise RegnetsError(
            "square-root evolution needs an integrable sqrt(rho): tail exponent > 2n"
        )
    return _sample_scaled(spec, eps, grid, power=0.5)


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
        mass = float(u.grid.cell_volume * np.sum(dens.values))
        return cls(t=t, eps=eps, density=dens, mass=mass)


def mass_check(snapshot: ProbabilityDensitySnapshot, tol: float = 1e-8) -> dict:
    """The mass law: passes iff |mass - 1| <= tol."""
    gap = abs(snapshot.mass - 1.0)
    return {"gap": gap, "passes": gap <= tol}


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
        "measured_sup": measured,
        "bound": bound,
        "ratio": measured / bound,
        "passes": measured <= bound,
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
    n = grid.dim
    pairings = [[] for _ in tests]
    masses, mass_ok = [], True
    bound_reports = []
    for eps in eps_grid:
        u0 = sqrt_delta_data(spec, eps, grid)
        u_t = free_evolve(u0, t)
        snap = ProbabilityDensitySnapshot.from_state(u_t, t, eps)
        masses.append(snap.mass)
        mass_ok = mass_check(snap)["passes"] and mass_ok
        bound_reports.append(dispersive_bound_check(u_t, spec, eps, t))
        for row, psi in zip(pairings, tests):
            row.append(abs(pair(snap.density, psi)))
    eps_arr = np.asarray(eps_grid.values)
    per_test = []
    for row, psi in zip(pairings, tests):
        vals = np.asarray(row)
        decay = -loglog_fit(eps_arr, vals)[0]
        per_test.append(
            {
                "psi": psi.name,
                "pairings": vals.tolist(),
                "decay_exponent": float(decay),
                "passes": decay >= n / 2.0 - 0.1,
            }
        )
    return {
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

    Constant coefficients c = 1, V = 0, f = 0. Each level samples u0 on its
    own grid and compares the Crank-Nicolson solution there with the exact
    spectral evolution of the same samples; the observed order should be
    about 2, and the check passes iff every order is >= 1.8.
    """
    errors = []
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
    orders = [
        float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)
    ]
    min_order = min(orders) if orders else np.nan
    return {
        "errors": errors,
        "orders": orders,
        "min_order": min_order,
        "passes": min_order >= 1.8,
    }
