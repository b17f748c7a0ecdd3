"""The mollifier profile and scaled mollifier sampling.

The profile is rho(x) = c (1 + |x|^2)^(-m/2) with m > n, normalized so
that the integral over R^n is one. This profile is positive everywhere,
smooth with bounded derivatives, and its tail decays like |x|^(-m), so it
has tail exponent m0 = m. The case m = n + 1 is the canonical choice; for
square-root evolution experiments one needs m > 2n so that sqrt(rho) is
integrable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma

from .errors import RegnetsError
from .grid import GridFunction, SpatialGrid


def cauchy_power_normalization(n: int, m: float) -> float:
    """c with integral of c (1+|x|^2)^(-m/2) over R^n equal to 1 (m > n)."""
    if m <= n:
        raise RegnetsError(f"exponent m={m} must exceed dimension n={n}")
    return gamma(m / 2.0) / (np.pi ** (n / 2.0) * gamma((m - n) / 2.0))


@dataclass(frozen=True)
class MollifierSpec:
    """The profile rho = c (1 + |x|^2)^(-m/2) on R^dim, with tail exponent m0 = m.

    exponent is m; 0 means the default m = n + 1. m > n is checked here, so
    a spec that exists can be sampled.
    """

    dim: int
    exponent: float = 0.0

    def __post_init__(self):
        if self.m <= self.dim:
            raise RegnetsError(f"exponent m={self.m} must exceed dimension n={self.dim}")

    @property
    def m(self) -> float:
        return self.exponent if self.exponent else self.dim + 1.0

    @property
    def tail_exponent(self) -> float:
        """m0 such that rho(x) >= C |x|^(-m0) for |x| >= 1 with some C > 0."""
        return self.m

    @property
    def normalization(self) -> float:
        return cauchy_power_normalization(self.dim, self.m)

    # -- profile evaluation ------------------------------------------------

    def radial(self, r):
        """rho as a function of |x|."""
        return self.of_r2(np.asarray(r, dtype=float) ** 2)

    def of_r2(self, r2, power: float = 1.0):
        """rho**power as a function of |x|^2: c^p (1 + |x|^2)^(-m p / 2)."""
        return self.normalization**power * (1.0 + r2) ** (-self.m * power / 2.0)

    def evaluate(self, *coords):
        return self.of_r2(sum(np.asarray(c, dtype=float) ** 2 for c in coords))

    def evaluate_scaled(self, eps: float, *coords, power: float = 1.0):
        """rho_eps(x)**power with rho_eps(x) = eps^(-n) rho(x / eps).

        coords may be open axes (np.ix_); they broadcast to the full grid
        only in |x/eps|^2.
        """
        r2 = sum((np.asarray(c, dtype=float) / eps) ** 2 for c in coords)
        return self.of_r2(r2, power) / eps ** (self.dim * power)

    def sqrt_l1_norm(self) -> float:
        """Integral of sqrt(rho) over R^n (finite iff the tail has m0 > 2n)."""
        if self.tail_exponent <= 2 * self.dim:
            raise RegnetsError(
                f"sqrt(rho) not integrable: tail exponent {self.tail_exponent} <= 2n"
            )
        f = lambda r: np.sqrt(self.radial(r))
        if self.dim == 1:
            val, _ = integrate.quad(f, 0.0, np.inf, limit=200)
            return 2.0 * val
        val, _ = integrate.quad(lambda r: r * f(r), 0.0, np.inf, limit=200)
        return 2.0 * np.pi * val


def _sample_scaled(spec: MollifierSpec, eps: float, grid: SpatialGrid, power: float):
    """Sample rho_eps**power on the grid; requires eps in (0, 1] and spacing <= eps/8."""
    if not (0.0 < eps <= 1.0):
        raise RegnetsError(f"eps must lie in (0, 1], got {eps}")
    if grid.dim != spec.dim:
        raise RegnetsError(f"grid dim {grid.dim} != mollifier dim {spec.dim}")
    grid.require_resolves(eps)
    axes = np.ix_(*(grid.axis_coords(),) * grid.dim)
    return GridFunction(grid, spec.evaluate_scaled(eps, *axes, power=power))


def scaled_mollifier(spec: MollifierSpec, eps: float, grid: SpatialGrid) -> GridFunction:
    """Sample rho_eps = eps^(-n) rho(./eps); requires spacing <= eps/8."""
    return _sample_scaled(spec, eps, grid, power=1.0)


def sampled_mass(u: GridFunction) -> float:
    """cell_volume * sum of values (records how much mass the box captures)."""
    return float(np.real(u.grid.cell_volume * np.sum(u.values)))
