"""Square roots of probability measures via mollification.

From a finite atoms + density mixture mu build h_eps = mu * rho_eps, its
strictly positive pointwise square root phi_eps, and the compactly
supported cutoff representative g_eps = chi_j phi_eps with the dyadic index
j coupled to eps. Reports verify the interior lower bound of h_eps and the
association of phi_eps^2 with mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .asymptotics import EpsGrid, EpsNet, loglog_fit
from .errors import BoxTooSmallError, PositivityError, RegnetsError
from .grid import GridFunction, SpatialGrid, TestFunction, pair, periodic_convolve
from .mollifiers import MollifierSpec


@dataclass(frozen=True)
class Density:
    """Piecewise-smooth density component of a measure.

    kind 'uniform': constant on the centered box/interval of half-width a.
    kind 'gaussian': exp(-|x|^2 / (2 sigma^2)) normalized.
    params holds at most the kind's own key ('half_width' or 'sigma'),
    finite and > 0; a missing key means 1. Both are normalized to unit
    mass; the Measure applies the weight.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        allowed = {"uniform": "half_width", "gaussian": "sigma"}.get(self.kind)
        if allowed is None:
            raise RegnetsError(f"unknown density kind {self.kind!r}")
        for key, value in self.params.items():
            if key != allowed:
                raise RegnetsError(f"{self.kind} density takes only {allowed!r}, got {key!r}")
            if not (math.isfinite(value) and value > 0.0):
                raise RegnetsError(f"{key} must be finite and > 0, got {value}")

    def evaluate(self, dim: int, *coords):
        arrs = [np.asarray(c, dtype=float) for c in coords]
        if self.kind == "uniform":
            a = float(self.params.get("half_width", 1.0))
            inside = np.ones_like(arrs[0], dtype=bool)
            for c in arrs:
                inside &= np.abs(c) <= a
            return inside / (2.0 * a) ** dim
        sigma = float(self.params.get("sigma", 1.0))
        r2 = sum(c**2 for c in arrs)
        return np.exp(-r2 / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2) ** (dim / 2.0)

    def support_radius(self) -> float:
        """Radius beyond which the density is negligible (exact for uniform)."""
        if self.kind == "uniform":
            a = float(self.params.get("half_width", 1.0))
            return a * math.sqrt(2.0)  # box corner in 2d, |a| in 1d is <= this
        return 8.0 * float(self.params.get("sigma", 1.0))

    def ball_mass(self, dim: int, r: float) -> float:
        """Mass of the centered ball of radius r (1d exact; 2d radial quad)."""
        if dim == 1:
            if self.kind == "uniform":
                a = float(self.params.get("half_width", 1.0))
                return min(r, a) / a / 2.0 * 2.0 if r < a else 1.0
            sigma = float(self.params.get("sigma", 1.0))
            return math.erf(r / (sigma * math.sqrt(2.0)))
        if self.kind == "uniform":
            # radial integral of the box indicator; do it numerically
            val, _ = integrate.quad(
                lambda s: s * self._box_angle_fraction(s), 0.0, r, limit=200
            )
            a = float(self.params.get("half_width", 1.0))
            return val * 2.0 * np.pi / (2.0 * a) ** 2
        sigma = float(self.params.get("sigma", 1.0))
        return 1.0 - math.exp(-(r**2) / (2.0 * sigma**2))

    def _box_angle_fraction(self, s: float) -> float:
        """Fraction of the circle of radius s inside the centered box (2d)."""
        a = float(self.params.get("half_width", 1.0))
        if s <= a:
            return 1.0
        if s >= a * math.sqrt(2.0):
            return 0.0
        return 1.0 - (4.0 / np.pi) * (math.acos(a / s) * 2.0) / 2.0

    def integrate_against(self, dim: int, profile) -> float:
        """Integral of density * profile (quadrature oracle for mu(psi))."""
        if dim == 1:
            if self.kind == "uniform":
                a = float(self.params.get("half_width", 1.0))
                val, _ = integrate.quad(profile, -a, a, limit=200)
                return val / (2.0 * a)
            sigma = float(self.params.get("sigma", 1.0))
            f = lambda x: profile(x) * math.exp(-(x**2) / (2 * sigma**2))
            val, _ = integrate.quad(f, -8 * sigma, 8 * sigma, limit=200)
            return val / (sigma * math.sqrt(2 * np.pi))
        dens = lambda y, x: float(self.evaluate(dim, x, y))
        a = self.support_radius()
        val, _ = integrate.dblquad(
            lambda y, x: profile(x, y) * dens(y, x), -a, a, -a, a
        )
        return val


@dataclass(frozen=True)
class Measure:
    """Finite Borel probability measure: atoms plus an optional density."""

    atoms: tuple = ()
    density: Density | None = None
    density_weight: float = 0.0
    dim: int = 1

    def __init__(self, atoms=(), density=None, density_weight=0.0, dim=1):
        norm_atoms = []
        for loc, w in atoms:
            loc = tuple(float(v) for v in np.atleast_1d(loc))
            if len(loc) != dim:
                raise RegnetsError(f"atom location {loc} has wrong dimension")
            if w <= 0:
                raise RegnetsError("atom weights must be positive")
            norm_atoms.append((loc, float(w)))
        total = sum(w for _, w in norm_atoms) + density_weight
        if abs(total - 1.0) > 1e-12:
            raise RegnetsError(f"total mass {total} != 1")
        if density_weight > 0 and density is None:
            raise RegnetsError("density_weight > 0 requires a density")
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "density_weight", float(density_weight))
        object.__setattr__(self, "dim", dim)

    @classmethod
    def dirac(cls, location=0.0, dim: int = 1) -> "Measure":
        loc = tuple(float(v) for v in np.atleast_1d(location))
        if len(loc) == 1 and dim == 2:
            loc = (loc[0], loc[0])
        return cls(atoms=[(loc, 1.0)], dim=dim)

    def support_radius(self) -> float:
        r = max((np.linalg.norm(loc) for loc, _ in self.atoms), default=0.0)
        if self.density is not None and self.density_weight > 0:
            r = max(r, self.density.support_radius())
        return float(r)

    def ball_mass(self, r: float) -> float:
        """mu of the closed centered ball of radius r."""
        m = sum(w for loc, w in self.atoms if np.linalg.norm(loc) <= r + 1e-15)
        if self.density is not None and self.density_weight > 0:
            m += self.density_weight * self.density.ball_mass(self.dim, r)
        return m

    def median_radius(self) -> float:
        """Radius of the smallest centered ball A with mu(A) >= 1/2."""
        lo, hi = 0.0, max(self.support_radius(), 1e-6)
        if self.ball_mass(0.0) >= 0.5:
            return 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.ball_mass(mid) >= 0.5:
                hi = mid
            else:
                lo = mid
        return hi

    def integrate(self, psi: TestFunction) -> float:
        """mu(psi) = sum of atom weights * psi(atom) + density quadrature."""
        val = sum(w * float(psi(*loc)) for loc, w in self.atoms)
        if self.density is not None and self.density_weight > 0:
            val += self.density_weight * self.density.integrate_against(
                self.dim, psi.profile
            )
        return val


# ---------------------------------------------------------------------------
# mollification and square roots


def mollify_measure(
    mu: Measure, spec: MollifierSpec, eps: float, grid: SpatialGrid
) -> GridFunction:
    """h_eps = mu * rho_eps: closed-form sums for atoms, FFT for the density."""
    if mu.dim != grid.dim:
        raise RegnetsError("measure and grid dimension mismatch")
    grid.require_resolves(eps)
    x = grid.axis_coords()
    h = np.zeros(grid.shape)
    for loc, w in mu.atoms:
        h += w * spec.evaluate_scaled(eps, *np.ix_(*(x - li for li in loc)))
    if mu.density is not None and mu.density_weight > 0:
        coords = grid.meshgrid()
        dens = mu.density.evaluate(grid.dim, *coords)
        rho = spec.evaluate_scaled(eps, *coords)
        h += mu.density_weight * periodic_convolve(dens, rho, grid)
    if h.min() <= 0.0:
        raise PositivityError(
            "mollified measure non-positive at a node (quadrature/underflow failure)"
        )
    return GridFunction(grid, h)


def sqrt_root(h: GridFunction) -> GridFunction:
    """Pointwise positive square root of a strictly positive float64 grid function."""
    if np.iscomplexobj(h.values):
        raise PositivityError("square root input must be real (float64)")
    vals = h.values
    if vals.min() <= 0.0:
        raise PositivityError(f"input not strictly positive (min {vals.min()})")
    return GridFunction(h.grid, np.sqrt(vals))


@dataclass(frozen=True)
class CutoffFamily:
    """Dyadic cutoffs chi_j(x) = chi_0(2^-j x) with the canonical smooth chi_0.

    chi_0 is radial, identically 1 for |x| <= 1 and 0 for |x| >= 2, built
    from the exp(-1/t) transition.
    """

    @staticmethod
    def j_of_eps(eps: float) -> int:
        """Unique integer j with 2^(-j-1) < eps <= 2^-j."""
        if not (0.0 < eps <= 1.0):
            raise RegnetsError(f"eps must lie in (0, 1], got {eps}")
        j = int(math.floor(-math.log2(eps)))
        while 2.0 ** (-j) < eps:
            j -= 1
        while eps <= 2.0 ** (-j - 1):
            j += 1
        return j

    @staticmethod
    def chi0_radial(r):
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        out[r >= 2.0] = 0.0
        mid = (r > 1.0) & (r < 2.0)
        if np.any(mid):
            t = r[mid]
            up = np.exp(-1.0 / (2.0 - t))
            down = np.exp(-1.0 / (t - 1.0))
            out[mid] = up / (up + down)
        return out

    def chi_j(self, j: int, grid: SpatialGrid) -> GridFunction:
        coords = grid.meshgrid()
        r = np.sqrt(sum(np.asarray(c) ** 2 for c in coords))
        return GridFunction(grid, self.chi0_radial(r / 2.0**j))


def cutoff_sqrt(
    mu: Measure,
    spec: MollifierSpec,
    chi: CutoffFamily,
    eps: float,
    grid: SpatialGrid,
):
    """g_eps = chi_j(eps) * sqrt(mu * rho_eps); returns (GridFunction, j)."""
    j = CutoffFamily.j_of_eps(eps)
    support = 2.0 ** (j + 1)
    if grid.half_width < support:
        raise BoxTooSmallError(
            f"box half_width {grid.half_width} < cutoff support radius {support}",
            required_half_width=support,
        )
    phi = sqrt_root(mollify_measure(mu, spec, eps, grid))
    g = GridFunction(grid, chi.chi_j(j, grid).values * phi.values)
    return g, j


# ---------------------------------------------------------------------------
# reports


def lower_bound_check(
    h: GridFunction,
    mu: Measure,
    spec: MollifierSpec,
    eps: float,
    K_radius: float,
) -> dict:
    """Interior lower bound for h_eps = mu * rho_eps over the ball |x| <= K_radius.

    Reports the measured infimum, the half-mass chain bound
    eps^(m0-n)/(2 r^m0) with r = K_radius + radius(A) for the canonical
    half-mass ball A, and the sharp chain mu(A) * rho_eps(r) which uses the
    actual profile rather than the idealized tail inequality. The pass flag
    asserts the sharp chain; the half-mass constant is reported only.
    """
    n = spec.dim
    m0 = spec.tail_exponent
    r_A = mu.median_radius()
    r_K = K_radius + r_A
    coords = h.grid.meshgrid()
    r = np.sqrt(sum(np.asarray(c) ** 2 for c in coords))
    inside = r <= K_radius
    if not np.any(inside):
        raise RegnetsError("no grid nodes inside the requested ball")
    measured_inf = float(h.values[inside].min())
    mu_A = mu.ball_mass(r_A)
    sharp_bound = mu_A * float(spec.evaluate_scaled(eps, r_K))
    paper_bound = None
    precondition_ok = eps < 1.0 / r_K if r_K > 0 else True
    if precondition_ok and r_K > 0:
        paper_bound = eps ** (m0 - n) / (2.0 * r_K**m0)
    passes = measured_inf >= sharp_bound * (1.0 - 1e-9)
    return {
        "eps": eps,
        "K_radius": K_radius,
        "r_A": r_A,
        "r_K": r_K,
        "mu_A": mu_A,
        "measured_inf": measured_inf,
        "sharp_bound": sharp_bound,
        "half_mass_bound": paper_bound,
        "precondition_ok": precondition_ok,
        "passes": passes,
    }


def lower_bound_sweep(
    mu: Measure,
    spec: MollifierSpec,
    eps_grid: EpsGrid,
    grid: SpatialGrid,
    K_radius: float,
) -> dict:
    """Per-eps lower bound reports plus the exponent fit of inf_K h_eps.

    The decisive certificate is the slope of log(inf) vs log(1/eps): it must
    match -(m0 - n), i.e. the infimum scales like eps^(m0-n).
    """
    reports = []
    infs = []
    for eps in eps_grid:
        h = mollify_measure(mu, spec, eps, grid)
        rep = lower_bound_check(h, mu, spec, eps, K_radius)
        reports.append(rep)
        infs.append(rep["measured_inf"])
    slope, intercept, rms, _ = loglog_fit(np.asarray(eps_grid.values), np.asarray(infs))
    target = spec.tail_exponent - spec.dim
    return {
        "reports": reports,
        "inf_values": infs,
        "slope": -slope,  # exponent of eps (positive = decay)
        "target_exponent": target,
        "fit_rms": rms,
        "all_sharp_pass": all(r["passes"] for r in reports),
    }


def association_check(
    squared_net: EpsNet, mu: Measure, tests: list[TestFunction], tol: float = 1e-2
) -> dict:
    """Does <phi_eps^2, psi> converge to mu(psi) for every psi in the catalog?

    Passes iff for every psi the gaps decrease monotonically up to 10% slack
    and the final gap is below tol.
    """
    per_test = []
    for psi in tests:
        target = mu.integrate(psi)
        gaps = [abs(pair(item, psi) - target) for item in squared_net.items]
        monotone = all(
            gaps[i + 1] <= gaps[i] * 1.1 + 1e-15 for i in range(len(gaps) - 1)
        )
        per_test.append(
            {
                "psi": psi.name,
                "params": psi.params,
                "target": target,
                "gaps": gaps,
                "monotone": monotone,
                "final_gap": gaps[-1],
                "passes": monotone and gaps[-1] < tol,
            }
        )
    return {"tests": per_test, "passes": all(t["passes"] for t in per_test)}
