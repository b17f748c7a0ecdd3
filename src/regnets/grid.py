"""Uniform periodic grids, grid functions, discrete norms and pairings.

Everything else in the package computes on these. Grids live on the box
[-L, L)^n with n in {1, 2} and a power-of-two number of points per axis,
so spectral differentiation and Sobolev norms come from plain FFTs. The
dtype is the realness contract: a grid function is real exactly when its
values are float64 (complex ones are complex128), real factors convolve to
a real array, and test functions must be float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import GridError, ResolutionError, UnsupportedOrderError

MAX_SOBOLEV_ORDER = 4


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [-L, L)^dim with M points per axis."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if not self.half_width > 0:
            raise GridError(f"half_width must be positive, got {self.half_width}")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise GridError(
                f"points_per_axis must be a power of two >= 8, got {self.points_per_axis}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        M = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(M)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coords()
        if self.dim == 1:
            return (x,)
        return np.meshgrid(x, x, indexing="ij")

    @lru_cache(maxsize=64)
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers xi_k = pi k / L along each axis (fft order).

        Cached per grid; the arrays are shared and read-only.
        """
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        xi.setflags(write=False)
        return (xi,) * self.dim

    def require_resolves(self, scale: float):
        """Raise ResolutionError unless spacing <= scale / 8."""
        if self.spacing > scale / 8.0 + 1e-15:
            needed = 2.0 * self.half_width * 8.0 / scale
            m_min = 8
            while m_min < needed:
                m_min *= 2
            raise ResolutionError(
                f"grid spacing {self.spacing:.3g} exceeds {scale:.3g}/8; "
                f"need points_per_axis >= {m_min} at half_width {self.half_width:g}",
                required_points=m_min,
            )


class GridFunction:
    """Function sampled on a SpatialGrid. Immutable.

    Real input is stored as float64 and complex input as complex128, in a
    read-only copy of the caller's array.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: SpatialGrid, values: np.ndarray):
        values = np.array(values, dtype=float if np.isrealobj(values) else complex)
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("values contain NaN or Inf")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @classmethod
    def from_profile(cls, grid: SpatialGrid, profile) -> "GridFunction":
        """Sample a callable profile(x) (1d) or profile(x, y) (2d)."""
        return cls(grid, profile(*grid.meshgrid()))

    @classmethod
    def zeros(cls, grid: SpatialGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape))

    def __add__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def abs2(self) -> "GridFunction":
        return GridFunction(self.grid, np.abs(self.values) ** 2)


def _check_same_grid(u, v):
    if u.grid != v.grid:
        raise GridError("operands live on different grids")


def _edge_max(values: np.ndarray):
    """Max |value| over the outermost grid layer (first and last node of every axis)."""
    return max(np.abs(np.take(values, [0, -1], axis=k)).max() for k in range(values.ndim))


@dataclass(frozen=True)
class TestFunction:
    """Real compactly supported test function with a symbolic descriptor.

    Carries the sampled GridFunction plus the generating profile so that
    exact point evaluations (e.g. at measure atoms) remain available. The
    samples must be float64: a complex array is rejected even when its
    imaginary part is zero.
    """

    __test__ = False  # not a pytest collectible despite the name

    gridfunc: GridFunction
    name: str
    params: dict = field(default_factory=dict)
    profile: object = None  # callable x -> psi(x); (x, y) in 2d

    def __post_init__(self):
        v = self.gridfunc.values
        if np.iscomplexobj(v):
            raise GridError("test function must be real-valued (float64)")
        if _edge_max(v) != 0.0:
            raise GridError("test function must vanish on the outermost grid layer")

    @property
    def grid(self) -> SpatialGrid:
        return self.gridfunc.grid

    def __call__(self, *point):
        return self.profile(*point)


def _bump_profile(center: np.ndarray, width):
    def profile(*coords):
        arrs = [np.asarray(c, dtype=float) for c in coords]
        r2 = sum((c - ci) ** 2 for c, ci in zip(arrs, center)) / width**2
        scalar = np.ndim(r2) == 0
        r2 = np.atleast_1d(np.asarray(r2, dtype=float))
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(1.0 - 1.0 / (1.0 - np.where(inside, r2, 0.0)))
        out[inside] = vals[inside]
        return float(out[0]) if scalar else out

    return profile


def _catalog_entry(
    grid: SpatialGrid, name: str, center, width: float, factor=None, **params
) -> TestFunction:
    """Sample a catalog test function: a bump of radius width at center, times
    factor(x_1 - c_1) when factor is given. params join center and width."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if np.max(np.abs(center)) + width >= grid.half_width:
        raise GridError("bump support reaches the box boundary")
    base = _bump_profile(center, width)
    if factor is None:
        profile = base
    else:
        def profile(*coords):
            return base(*coords) * factor(coords[0] - center[0])

    return TestFunction(
        gridfunc=GridFunction.from_profile(grid, profile),
        name=name,
        params={"center": tuple(center), "width": width, **params},
        profile=profile,
    )


def bump(grid: SpatialGrid, center=0.0, width: float = 1.0) -> TestFunction:
    """Smooth bump with value 1 at its center, supported in a ball of radius width."""
    return _catalog_entry(grid, "bump", center, width)


def oscillatory_bump(
    grid: SpatialGrid, center=0.0, width: float = 1.0, wavenumber: float = 3.0
) -> TestFunction:
    """Bump modulated by cos(k x_1): oscillatory member of the test catalog."""
    return _catalog_entry(
        grid, "oscillatory_bump", center, width,
        factor=lambda s: np.cos(wavenumber * s), wavenumber=wavenumber,
    )


def linear_bump(grid: SpatialGrid, center=0.0, width: float = 1.0) -> TestFunction:
    """x_1 times a bump: odd test function, useful for symmetry checks."""
    return _catalog_entry(grid, "linear_bump", center, width, factor=lambda s: s)


# ---------------------------------------------------------------------------
# norms, derivatives, pairings


def norm_l2(u: GridFunction) -> float:
    """Discrete L2 norm (cell volume weighted)."""
    return float(np.sqrt(u.grid.cell_volume * np.sum(np.abs(u.values) ** 2)))


def norm_linf(u: GridFunction) -> float:
    return float(np.max(np.abs(u.values)))


@lru_cache(maxsize=64)
def _sobolev_weights(grid: SpatialGrid, k: int):
    """Sum over multi-indices |alpha| <= k of prod xi_i^(2 alpha_i)."""
    axes = np.meshgrid(*grid.wavenumbers(), indexing="ij")
    w = np.zeros(grid.shape)
    for alpha in product(range(k + 1), repeat=grid.dim):
        if sum(alpha) > k:
            continue
        term = np.ones_like(w)
        for ax, a in zip(axes, alpha):
            if a:
                term = term * ax ** (2 * a)
        w += term
    w.setflags(write=False)
    return w


def norm_hk(u: GridFunction, k: int) -> float:
    """Discrete Sobolev norm: spectral derivatives up to total order k <= 4."""
    if k < 0 or k > MAX_SOBOLEV_ORDER:
        raise UnsupportedOrderError(f"Sobolev order {k} not supported (0 <= k <= 4)")
    if k == 0:
        return norm_l2(u)
    g = u.grid
    F = np.fft.fftn(u.values)
    w = _sobolev_weights(g, k)
    total = np.sum(w * np.abs(F) ** 2)
    # Parseval: sum |u|^2 = sum |F|^2 / M^n
    return float(np.sqrt(g.cell_volume * total / g.points_per_axis**g.dim))


def norm_h_minus1(u: GridFunction) -> float:
    """Spectral H^-1 norm: (1 + |xi|^2)^(-1/2) weight in frequency."""
    g = u.grid
    F = np.fft.fftn(u.values)
    w = _sobolev_weights(g, 1)
    total = np.sum(np.abs(F) ** 2 / w)
    return float(np.sqrt(g.cell_volume * total / g.points_per_axis**g.dim))


def derivative(u: GridFunction, axis: int = 0, order: int = 1) -> GridFunction:
    """Fourier-collocation derivative along one axis; exact for band-limited u."""
    if order not in (1, 2):
        raise UnsupportedOrderError(f"derivative order must be 1 or 2, got {order}")
    g = u.grid
    if axis < 0 or axis >= g.dim:
        raise GridError(f"axis {axis} out of range for dim {g.dim}")
    mult = (1j * g.wavenumbers()[axis]) ** order
    if order % 2 == 1:
        mult[g.points_per_axis // 2] = 0.0  # drop the unsigned Nyquist mode
    shape = [1] * g.dim
    shape[axis] = g.points_per_axis
    F = np.fft.fft(u.values, axis=axis)
    out = np.fft.ifft(mult.reshape(shape) * F, axis=axis)
    return GridFunction(g, out)


def pair(u: GridFunction, psi: TestFunction) -> complex:
    """Distributional pairing <u, psi> = cell_volume * sum(u * psi), no conjugation."""
    _check_same_grid(u, psi.gridfunc)
    return complex(u.grid.cell_volume * np.sum(u.values * psi.gridfunc.values))


def periodic_convolve(a: np.ndarray, b: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Periodic convolution (a * b)(x) = integral a(x - y) b(y) dy by FFT.

    Both factors are samples starting at x_0 = -L, so the FFT product picks
    up a shift of L = M/2 cells per axis, which the roll undoes. The result
    is float64 when both factors are real and complex128 otherwise.
    """
    conv = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))
    shift = grid.points_per_axis // 2
    out = grid.cell_volume * np.roll(conv, shift, axis=tuple(range(grid.dim)))
    return out.real if np.isrealobj(a) and np.isrealobj(b) else out
