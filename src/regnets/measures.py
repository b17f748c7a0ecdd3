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

from .asymptotics import EpsGrid, EpsNet, _require_eps, loglog_fit
from .errors import InputError, RegnetsError
from .grid import GridFunction, SpatialGrid, TestFunction, _point, _support_box, pair, periodic_convolve
from .mollifiers import MollifierSpec, _sample_scaled

_DENSITY_PARAMETER = {"uniform": "half_width", "gaussian": "sigma"}


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
        allowed = _DENSITY_PARAMETER.get(self.kind)
        if allowed is None:
            raise InputError(f"unknown density kind {self.kind!r}")
        for key, value in self.params.items():
            if key != allowed:
                raise InputError(f"{self.kind} density takes only {allowed!r}, got {key!r}")
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{key} must be finite and > 0, got {value}")

    @classmethod
    def from_scale(cls, kind: str, scale: float | None = None) -> "Density":
        """The kind's density with its own key ('half_width' or 'sigma') set to scale."""
        return cls(kind, {} if scale is None else {_DENSITY_PARAMETER.get(kind): scale})

    @property
    def _scale(self) -> float:
        """a (uniform) or sigma (gaussian); 1 when the key is absent."""
        return float(next(iter(self.params.values()), 1.0))

    def evaluate(self, *coords):
        arrs = [np.asarray(c, dtype=float) for c in coords]
        dim, s = len(arrs), self._scale
        if self.kind == "uniform":
            inside = np.logical_and.reduce([np.abs(c) <= s for c in arrs])
            return inside / (2.0 * s) ** dim
        r2 = sum(c**2 for c in arrs)
        return np.exp(-r2 / (2.0 * s**2)) / (2.0 * np.pi * s**2) ** (dim / 2.0)

    def support_radius(self) -> float:
        """Radius beyond which the density is negligible (exact for uniform)."""
        # uniform: the box corner a sqrt(2) in 2d (a in 1d is below it)
        return self._scale * (math.sqrt(2.0) if self.kind == "uniform" else 8.0)

    def ball_mass(self, dim: int, r: float) -> float:
        """Mass of the centered ball of radius r, in closed form."""
        s = self._scale
        if self.kind == "gaussian":
            if dim == 1:
                return math.erf(r / (s * math.sqrt(2.0)))
            return 1.0 - math.exp(-(r**2) / (2.0 * s**2))
        if dim == 1:
            return min(r / s, 1.0)
        if r >= s * math.sqrt(2.0):
            return 1.0
        # the disk minus the four circular segments outside the square [-a, a]^2
        area = math.pi * r**2
        if r > s:
            area -= 4.0 * (r**2 * math.acos(s / r) - s * math.sqrt(r**2 - s**2))
        return area / (2.0 * s) ** 2

    def integrate_against(self, psi: TestFunction) -> float:
        """Integral of density * psi (quadrature oracle for mu(psi)).

        One nquad over the box [-a, a]^n (uniform) or [-8 sigma, 8 sigma]^n
        (gaussian) cut down to the support of psi; 0 if they do not meet.
        """
        # scipy.integrate pulls in scipy.optimize; only this oracle needs it
        from scipy import integrate

        b = self._scale * (1.0 if self.kind == "uniform" else 8.0)
        ranges = [(max(lo, -b), min(hi, b)) for lo, hi in _support_box(psi)]
        if any(lo >= hi for lo, hi in ranges):
            return 0.0
        f = lambda *x: psi.profile(*x) * float(self.evaluate(*x))
        return integrate.nquad(f, ranges, opts={"limit": 200})[0]


@dataclass(frozen=True)
class Measure:
    """Finite Borel probability measure: atoms plus an optional density; NaN weights fail."""

    atoms: tuple = ()
    density: Density | None = None
    density_weight: float = 0.0
    dim: int = 1

    def __init__(self, atoms=(), density=None, density_weight=0.0, dim=1):
        norm_atoms = []
        for loc, w in atoms:
            loc = tuple(float(v) for v in np.atleast_1d(loc))
            if len(loc) != dim:
                raise InputError(f"atom location {loc} has wrong dimension")
            if not w > 0:
                raise InputError("atom weights must be positive")
            norm_atoms.append((loc, float(w)))
        if not density_weight >= 0:
            raise InputError(f"density_weight must be >= 0, got {density_weight}")
        if density_weight and density is None:
            raise InputError(f"density_weight {density_weight} needs a density")
        total = sum(w for _, w in norm_atoms) + density_weight
        if not abs(total - 1.0) <= 1e-12:
            raise InputError(f"total mass {total} != 1")
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "density_weight", float(density_weight))
        object.__setattr__(self, "dim", dim)

    @classmethod
    def dirac(cls, location=0.0, dim: int = 1) -> "Measure":
        """Unit atom at location; a scalar or one coordinate stands for every axis."""
        return cls(atoms=[(_point(location, dim), 1.0)], dim=dim)

    def support_radius(self) -> float:
        r = max((np.linalg.norm(loc) for loc, _ in self.atoms), default=0.0)
        if self.density_weight > 0:
            r = max(r, self.density.support_radius())
        return float(r)

    def ball_mass(self, r: float) -> float:
        """mu of the closed centered ball of radius r."""
        m = sum(w for loc, w in self.atoms if np.linalg.norm(loc) <= r + 1e-15)
        if self.density_weight > 0:
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
        if self.density_weight > 0:
            val += self.density_weight * self.density.integrate_against(psi)
        return val


# ---------------------------------------------------------------------------
# mollification and square roots


def mollify_measure(
    mu: Measure, spec: MollifierSpec, eps: float, grid: SpatialGrid
) -> GridFunction:
    """h_eps = mu * rho_eps: closed-form sums for atoms, FFT for the density."""
    if mu.dim != grid.dim:
        raise InputError("measure and grid dimension mismatch")
    x = grid.axis_coords()
    h = np.zeros(grid.shape)
    for loc, w in mu.atoms:
        atom = _sample_scaled(spec, eps, grid, 1.0, [x - li for li in loc])
        atom *= w
        h += atom
    if mu.density_weight > 0:
        dens = mu.density.evaluate(*grid.meshgrid())
        rho = _sample_scaled(spec, eps, grid, 1.0, (x,) * grid.dim)
        h += mu.density_weight * periodic_convolve(dens, rho, grid)
    if h.min() <= 0.0:
        raise RegnetsError(
            "mollified measure non-positive at a node (quadrature/underflow failure)"
        )
    return GridFunction._adopt(grid, h)


def sqrt_root(h: GridFunction) -> GridFunction:
    """Pointwise positive square root of a strictly positive float64 grid function."""
    if np.iscomplexobj(h.values):
        raise InputError("square root input must be real (float64)")
    vals = h.values
    if vals.min() <= 0.0:
        raise InputError(f"input not strictly positive (min {vals.min()})")
    return GridFunction._adopt(h.grid, np.sqrt(vals))


@dataclass(frozen=True)
class CutoffFamily:
    """Dyadic cutoffs chi_j(x) = chi_0(2^-j x) with the canonical smooth chi_0.

    chi_0 is radial, identically 1 for |x| <= 1 and 0 for |x| >= 2, built
    from the exp(-1/t) transition.
    """

    @staticmethod
    def j_of_eps(eps: float) -> int:
        """Unique integer j with 2^(-j-1) < eps <= 2^-j."""
        _require_eps(eps)
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
        return GridFunction._adopt(grid, self.chi0_radial(grid.radius() / 2.0**j))


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
        raise InputError(f"box half_width {grid.half_width} < cutoff support radius {support}")
    phi = sqrt_root(mollify_measure(mu, spec, eps, grid))
    g = GridFunction._adopt(grid, chi.chi_j(j, grid).values * phi.values)
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

    Reports the measured infimum and the sharp chain bound mu(A) * rho_eps(r)
    with r = K_radius + radius(A) for the canonical half-mass ball A, which
    uses the actual profile rather than the idealized tail inequality; the
    pass flag asserts it. The eps^(m0-n) scaling of the infimum is certified
    by the slope of lower_bound_sweep, not here.
    """
    return _lower_bound(h, mu, spec, eps, K_radius, mu.median_radius())


def _lower_bound(h, mu, spec, eps, K_radius, r_A) -> dict:
    """lower_bound_check with the half-mass radius r_A = mu.median_radius() given."""
    inside = h.grid.radius() <= K_radius
    if not np.any(inside):
        raise InputError("no grid nodes inside the requested ball")
    measured_inf = float(h.values[inside].min())
    sharp_bound = mu.ball_mass(r_A) * float(spec.evaluate_scaled(eps, K_radius + r_A))
    return {
        "measured_inf": measured_inf,
        "sharp_bound": sharp_bound,
        "passes": measured_inf >= sharp_bound * (1.0 - 1e-9),
    }


def lower_bound_sweep(
    mu: Measure,
    spec: MollifierSpec,
    eps_grid: EpsGrid,
    grid: SpatialGrid,
    K_radius: float,
) -> dict:
    """Per-eps infima of h_eps on the ball and their exponent fit.

    Passes iff every infimum clears lower_bound_check's chain bound and the
    slope of log(inf) vs log(1/eps) matches -(m0 - n) within 0.15.
    """
    h_net = (mollify_measure(mu, spec, eps, grid) for eps in eps_grid)
    return _lower_bound_fit(h_net, mu, spec, eps_grid, K_radius)


def _lower_bound_fit(h_net, mu, spec, eps_grid, K_radius) -> dict:
    """lower_bound_sweep on given h_eps, one per eps of eps_grid in its order."""
    r_A = mu.median_radius()
    reps = [_lower_bound(h, mu, spec, eps, K_radius, r_A) for eps, h in zip(eps_grid, h_net)]
    infs = [rep["measured_inf"] for rep in reps]
    slope = -loglog_fit(np.asarray(eps_grid.values), np.asarray(infs))[0]  # exponent of eps
    target = spec.tail_exponent - spec.dim
    return {
        "inf_values": infs,
        "slope": slope,
        "target_exponent": target,
        "passes": all(rep["passes"] for rep in reps) and abs(slope - target) <= 0.15,
    }


def cutoff_plateau_check(sqrt_net: EpsNet, mu: Measure, spec: MollifierSpec) -> bool:
    """Does cutoff_sqrt's g_eps equal sqrt_net's phi_eps bitwise on the ball r <= 2^j,
    where chi_j is exactly 1, for every eps?"""
    r = sqrt_net.items[0].grid.radius()
    for eps, phi in zip(sqrt_net.eps, sqrt_net.items):
        g, j = cutoff_sqrt(mu, spec, CutoffFamily(), eps, phi.grid)
        mask = r <= 2.0**j
        if not np.array_equal(g.values[mask], phi.values[mask]):
            return False
    return True


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
                "gaps": gaps,
                "final_gap": gaps[-1],
                "passes": monotone and gaps[-1] < tol,
            }
        )
    return {"tests": per_test, "passes": all(t["passes"] for t in per_test)}
