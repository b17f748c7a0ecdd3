"""The mollifier profile and scaled mollifier sampling.

The profile is rho(x) = c (1 + |x|^2)^(-m/2) with m > n, normalized so
that the integral over R^n is one. This profile is positive everywhere,
smooth with bounded derivatives, and its tail decays like |x|^(-m), so it
has tail exponent m0 = m. The case m = n + 1 is the canonical choice.

_sample_scaled is the package's only sampler of rho_eps**p on grid nodes,
and it owns every rule a sample must meet: rho**p integrable (m p > n, in
MollifierSpec.require_integrable; sqrt(rho) needs m > 2n), eps in (0, 1],
spec dim = grid dim, spacing <= eps/8 (grid.require_resolves) and finite
values. Each violation raises InputError. _require_sampleable checks all
but the last, for a caller that checks a whole sweep before it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _require_eps
from .errors import InputError
from .grid import GridFunction, SpatialGrid, _require_finite


def cauchy_power_normalization(n: int, m: float) -> float:
    """c with integral of c (1+|x|^2)^(-m/2) over R^n equal to 1 (m > n)."""
    if m <= n:
        raise InputError(f"exponent m={m} must exceed dimension n={n}")
    # each Gamma overflows from m = 344 on, their quotient does not
    return math.exp(math.lgamma(m / 2.0) - math.lgamma((m - n) / 2.0)) / np.pi ** (n / 2.0)


@dataclass(frozen=True)
class MollifierSpec:
    """The profile rho = c (1 + |x|^2)^(-m/2) on R^dim, with tail exponent m0 = m.

    exponent is m; 0 means the default m = n + 1. A finite m > n is checked
    here, so a spec that exists can be sampled.
    """

    dim: int
    exponent: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.exponent):
            raise InputError(f"exponent must be finite, got {self.exponent}")
        self.require_integrable(1.0)

    @property
    def m(self) -> float:
        return self.exponent if self.exponent else self.dim + 1.0

    @property
    def tail_exponent(self) -> float:
        """m0 such that rho(x) >= C |x|^(-m0) for |x| >= 1 with some C > 0."""
        return self.m

    def require_integrable(self, power: float):
        """Raise InputError unless rho**power is integrable on R^n: m power > n."""
        if self.tail_exponent * power <= self.dim:
            p = "" if power == 1.0 else f" / {power:g} for an integrable rho**{power:g}"
            raise InputError(f"exponent m={self.m} must exceed dimension n={self.dim}{p}")

    @property
    def normalization(self) -> float:
        return cauchy_power_normalization(self.dim, self.m)

    def evaluate_scaled(self, eps: float, *coords, power: float = 1.0):
        """rho_eps(x)**power = c^p (1 + |x/eps|^2)^(-m p / 2) / eps^(n p).

        coords may be open axes (np.ix_); they broadcast to the full grid
        only in |x/eps|^2, whose buffer then takes every later step. A scalar
        point gives a scalar.
        """
        r2 = np.asarray(sum((np.asarray(c, dtype=float) / eps) ** 2 for c in coords))
        r2 += 1.0
        r2 **= -self.m * power / 2.0
        r2 *= self.normalization**power
        r2 /= eps ** (self.dim * power)
        return r2 if r2.ndim else r2[()]

    def sqrt_l1_norm(self) -> float:
        """Integral of sqrt(rho) over R^n (finite iff the tail has m0 > 2n).

        Closed form c^(1/2) pi^(n/2) Gamma(m/4 - n/2) / Gamma(m/4).
        """
        self.require_integrable(0.5)
        n, s = self.dim, self.m / 4.0
        ratio = math.exp(math.lgamma(s - n / 2.0) - math.lgamma(s))
        return float(np.sqrt(self.normalization) * np.pi ** (n / 2.0) * ratio)


def _require_sampleable(spec: MollifierSpec, eps: float, grid: SpatialGrid, power: float):
    """Every rule of _sample_scaled that holds before sampling: all but finite values."""
    spec.require_integrable(power)
    _require_eps(eps)
    if grid.dim != spec.dim:
        raise InputError(f"grid dim {grid.dim} != mollifier dim {spec.dim}")
    grid.require_resolves(eps)


def _sample_scaled(
    spec: MollifierSpec, eps: float, grid: SpatialGrid, power: float, axes
) -> np.ndarray:
    """rho_eps**power on the tensor product of axes, one node array per grid
    axis (the grid's axis_coords, or an atom's shifted nodes x - l_k); the
    rules it checks are listed in the module docstring."""
    _require_sampleable(spec, eps, grid, power)
    values = spec.evaluate_scaled(eps, *np.ix_(*axes), power=power)
    _require_finite(values)
    return values


def scaled_mollifier(spec: MollifierSpec, eps: float, grid: SpatialGrid) -> GridFunction:
    """Sample rho_eps = eps^(-n) rho(./eps); requires spacing <= eps/8."""
    return GridFunction._adopt(grid, _sample_scaled(spec, eps, grid, 1.0, (grid.axis_coords(),) * grid.dim))


def sampled_mass(u: GridFunction) -> float:
    """cell_volume * sum of values (records how much mass the box captures)."""
    return float(np.real(u.grid.cell_volume * np.sum(u.values)))
