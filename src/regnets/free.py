"""Exact constant-coefficient evolution via Fourier multiplier.

Realizes d_t u = i Laplacian u on the periodic box: u(t) has spectrum
exp(-i t |xi|^2) times the spectrum of u(0). Used for the square-root-of-
delta evolution experiments (probability density snapshots, dispersive
bound, vague convergence of the density measures) and as the oracle for
the Crank-Nicolson scheme's convergence order.

free_evolve takes general data on the full grid. vague_convergence_check
evolves only sqrt(rho_eps), which is even about x = 0 in every axis by
construction (it depends on |x|^2 alone); nothing tests for the symmetry.
The periodic grid maps onto itself under x -> -x (index j <-> M - j), so
an even state is determined by its values on the reduced nodes
x = 0, h, ..., L of each axis (indices M/2 ... M - 1 and the periodic node
-L = L), its DFT is the type-I DCT of those M/2 + 1 values per axis, and
the evolved state stays even. Sums over the full grid become sums over the
reduced nodes with per-axis weights 1 at x = 0 and x = L and 2 inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotics import EpsGrid, _cpu_count, _eps_map, loglog_fit
from .errors import InputError
from .grid import (
    GridFunction,
    SpatialGrid,
    TestFunction,
    _abs2,
    _check_same_grid,
    norm_l2,
)
from .mollifiers import MollifierSpec, _require_sampleable, _sample_scaled
from .solver import CauchyProblem, CoefficientNet, constant_coefficient, solve


def free_evolve(u0: GridFunction, t: float) -> GridFunction:
    """exp(i t Laplacian) u0: the symbol exp(-i t |xi|^2) is a product of per-axis phases.

    fftfreq makes xi_{M-k} exactly -xi_k, so the M/2 + 1 phases of
    k = 0 ... M/2 serve every axis: the upper half of the spectrum takes
    the lower phases in mirror order. The transforms and the phases work in
    one buffer, which becomes the result.
    """
    F = u0.values.astype(complex)  # fft(x) is bitwise fft(x + 0j)
    np.fft.fftn(F, out=F)
    h = u0.grid.points_per_axis // 2 + 1
    phase = _phase(u0.grid, t)
    for axis in range(F.ndim):
        shape = (1,) * axis + (-1,) + (1,) * (F.ndim - axis - 1)
        for p, part in ((phase, slice(None, h)), (phase[h - 2 : 0 : -1], slice(h, None))):
            view = F[(slice(None),) * axis + (part,)]
            # phase first: with FMA, complex products depend on operand order
            np.multiply(p.reshape(shape), view, out=view)
    return GridFunction._adopt(u0.grid, np.fft.ifftn(F, out=F))


def _phase(grid: SpatialGrid, t: float) -> np.ndarray:
    """exp(-i t xi_k^2) for k = 0 ... M/2, read-only and cached per (grid, t).
    t = -0.0 gets its own entry: 0.0 == -0.0, but a complex-by-real product
    that keeps signed zeros would give their phases zeros of opposite sign."""
    return _phase_cached(grid, t, np.copysign(1.0, t))


@lru_cache(maxsize=8)
def _phase_cached(grid: SpatialGrid, t: float, sign: float) -> np.ndarray:
    phase = np.exp(-1j * t * grid.wavenumbers()[0][: grid.points_per_axis // 2 + 1] ** 2)
    phase.setflags(write=False)
    return phase


def sqrt_delta_data(spec: MollifierSpec, eps: float, grid: SpatialGrid) -> GridFunction:
    """sqrt(rho_eps): the regularized square root of delta as initial data.

    Sampled directly as c^(1/2) eps^(-n/2) (1 + |x/eps|^2)^(-m/4).
    """
    return GridFunction._adopt(grid, _sample_scaled(spec, eps, grid, 0.5, (grid.axis_coords(),) * grid.dim))


@dataclass(frozen=True)
class ProbabilityDensitySnapshot:
    """The mass of |u_eps(t, .)|^2 on the grid."""

    t: float
    eps: float
    mass: float

    @classmethod
    def from_state(cls, u: GridFunction, t: float, eps: float):
        mass = float(u.grid.cell_volume * np.sum(_abs2(u.values)))
        return cls(t=t, eps=eps, mass=mass)


_MASS_TOL = 1e-8


def _mass_law(mass: float, tol: float = _MASS_TOL) -> dict:
    gap = abs(mass - 1.0)
    return {"gap": gap, "passes": gap <= tol}


def mass_check(snapshot: ProbabilityDensitySnapshot, tol: float = _MASS_TOL) -> dict:
    """The mass law: passes iff |mass - 1| <= tol."""
    return _mass_law(snapshot.mass, tol)


def _require_nonzero_time(t: float):
    if t == 0.0:
        raise InputError("dispersive bound is vacuous at t = 0")


def _dispersive_bound(measured: float, spec: MollifierSpec, eps: float, t: float) -> dict:
    """Measured sup norm against ||sqrt(rho_eps)||_L1 / (4 pi |t|)^(n/2)."""
    _require_nonzero_time(t)
    n = spec.dim
    sqrt_l1 = eps ** (n / 2.0) * spec.sqrt_l1_norm()
    bound = sqrt_l1 / (4.0 * np.pi * abs(t)) ** (n / 2.0)
    return {
        "measured_sup": measured,
        "bound": bound,
        "ratio": measured / bound,
        "passes": measured <= bound,
    }


def _fold(values: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Full-grid samples onto the reduced nodes: the average over the
    reflections x_k -> -x_k, one axis at a time (2 terms in 1-D, 4 in 2-D)."""
    for axis in range(values.ndim):
        values = (values.take(plus, axis) + values.take(minus, axis)) / 2.0
    return values


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
    Pairings that vanish (a psi odd in some axis pairs to exactly 0 with
    the even density) are left out of the fit, and a psi with fewer than
    four nonzero pairings does not pass.

    Works on the reduced grid only (see the module docstring): sqrt(rho_eps)
    is sampled on x = 0 ... L per axis and evolved by dctn(type=1), the
    phases exp(-i t xi_k^2) with xi_k = pi k / L, k = 0 ... M/2, and
    idctn(type=1). Mass and pairings are weighted sums over those nodes,
    each psi folded once into its reflection average; the dispersive sup
    is their max. Every input rule is checked first; the eps-values then
    run on one thread per CPU (asymptotics._eps_map), bitwise as a loop.
    """
    for psi in tests:
        _check_same_grid(psi.grid, grid)
    for eps in eps_grid:
        _require_sampleable(spec, eps, grid, 0.5)
    _require_nonzero_time(t)
    # the one DCT user: a free_evolve or solver run never loads scipy.fft
    from scipy.fft import dctn, idctn

    n, M = grid.dim, grid.points_per_axis
    k = np.arange(M // 2 + 1)
    plus, minus = (M // 2 + k) % M, (M // 2 - k) % M
    nodes = np.abs(grid.axis_coords()[plus])
    phase = np.exp(-1j * t * grid.wavenumbers()[0][: M // 2 + 1] ** 2)
    w = np.where((k == 0) | (k == M // 2), 1.0, 2.0)
    weight = w if n == 1 else np.outer(w, w)
    # the constant 1 first: its pairing is the mass
    weighted = [weight] + [weight * _fold(psi.gridfunc.values, plus, minus) for psi in tests]
    first, *rest = np.ix_(*(phase,) * n)

    def one_eps(eps):
        # overwrite_x, out= and the reused buffer only spare allocations (each
        # worker thread has its own malloc arena): the operations and their
        # order are those of the allocating forms
        F = dctn(_sample_scaled(spec, eps, grid, 0.5, (nodes,) * n), type=1, overwrite_x=True)
        G = first * F  # phase first, as in free_evolve
        for p in rest:
            np.multiply(p, G, out=G)
        H = idctn(G, type=1, overwrite_x=True)
        dens = np.abs(H, out=F)  # F is spent once G holds the phased spectrum
        np.square(dens, out=dens)
        buf = np.empty_like(dens)
        sums = [grid.cell_volume * np.sum(np.multiply(row, dens, out=buf)) for row in weighted]
        return sums, _dispersive_bound(float(np.sqrt(dens.max())), spec, eps, t)

    per_eps = _eps_map(one_eps, eps_grid, _cpu_count())
    sums = np.array([s for s, _ in per_eps])
    bound_reports = [b for _, b in per_eps]
    masses = [float(m) for m in sums[:, 0]]
    mass_ok = all(_mass_law(m)["passes"] for m in masses)
    eps_arr = np.asarray(eps_grid.values)
    per_test = []
    for vals, psi in zip(np.abs(sums[:, 1:]).T, tests):
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
