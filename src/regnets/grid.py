"""Uniform periodic grids, grid functions, discrete norms and pairings.

Everything else in the package computes on these. Grids live on the box
[-L, L)^n with n in {1, 2} and a power-of-two number of points per axis,
so spectral differentiation and Sobolev norms come from plain FFTs. The
dtype is the realness contract: a grid function is real exactly when its
values are float64 (complex ones are complex128), real factors convolve to
a real array, and test functions must be float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import InputError

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
            raise InputError(f"dim must be 1 or 2, got {self.dim}")
        if not self.half_width > 0:
            raise InputError(f"half_width must be positive, got {self.half_width}")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise InputError(
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

    def radius(self) -> np.ndarray:
        """|x| at every node."""
        return np.sqrt(sum(c**2 for c in self.meshgrid()))

    @lru_cache(maxsize=64)
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers xi_k = pi k / L along each axis (fft order).

        Cached per grid; the arrays are shared and read-only.
        """
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        xi.setflags(write=False)
        return (xi,) * self.dim

    def require_resolves(self, scale: float):
        """Raise InputError, naming the points needed, unless spacing <= scale / 8."""
        if self.spacing > scale / 8.0 + 1e-15:
            needed = 2.0 * self.half_width * 8.0 / scale
            m_min = 8
            while m_min < needed:
                m_min *= 2
            raise InputError(
                f"grid spacing {self.spacing:.3g} exceeds {scale:.3g}/8; "
                f"need points_per_axis >= {m_min} at half_width {self.half_width:g}"
            )


class GridFunction:
    """Function sampled on a SpatialGrid. Immutable.

    Real input is stored as float64 and complex input as complex128, in a
    read-only copy of the caller's array (the package's own results are
    adopted without the copy, see _adopt).
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: SpatialGrid, values: np.ndarray):
        self._hold(grid, np.array(values, dtype=float if np.isrealobj(values) else complex))

    @classmethod
    def _adopt(cls, grid: SpatialGrid, values: np.ndarray) -> "GridFunction":
        """A GridFunction whose values are values itself, made read-only: for a
        writeable float64/complex128 array just computed and held by no one else."""
        if values.dtype not in (np.float64, np.complex128) or not values.flags.writeable:
            raise InputError("only a writeable float64 or complex128 array can be adopted")
        u = cls.__new__(cls)
        u._hold(grid, values)
        return u

    def _hold(self, grid: SpatialGrid, values: np.ndarray):
        if values.shape != grid.shape:
            raise InputError(f"values shape {values.shape} != grid shape {grid.shape}")
        _require_finite(values)
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
        _check_same_grid(self.grid, other.grid)
        return GridFunction._adopt(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self.grid, other.grid)
        return GridFunction._adopt(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def abs2(self) -> "GridFunction":
        return GridFunction._adopt(self.grid, _abs2(self.values))


def _abs2(values: np.ndarray) -> np.ndarray:
    """|values|^2 in the buffer of |values|: bitwise np.abs(values) ** 2."""
    a = np.abs(values)
    return np.square(a, out=a)


def _require_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise InputError("values contain NaN or Inf")


def _check_same_grid(a: SpatialGrid, b: SpatialGrid):
    if a != b:
        raise InputError("operands live on different grids")


def _edge_max(values: np.ndarray):
    """Max |value| over the outermost grid layer (first and last node of every axis)."""
    return max(np.abs(np.take(values, [0, -1], axis=k)).max() for k in range(values.ndim))


@dataclass(frozen=True)
class TestFunction:
    """Real compactly supported test function with a name.

    Carries the sampled GridFunction plus the generating profile so that
    exact point evaluations (e.g. at measure atoms) remain available. The
    samples must be float64: a complex array is rejected even when its
    imaginary part is zero.
    """

    __test__ = False  # not a pytest collectible despite the name

    gridfunc: GridFunction
    name: str
    profile: object = None  # callable x -> psi(x); (x, y) in 2d

    def __post_init__(self):
        v = self.gridfunc.values
        if np.iscomplexobj(v):
            raise InputError("test function must be real-valued (float64)")
        if _edge_max(v) != 0.0:
            raise InputError("test function must vanish on the outermost grid layer")

    @property
    def grid(self) -> SpatialGrid:
        return self.gridfunc.grid

    def __call__(self, *point):
        return self.profile(*point)


def _support_box(psi: TestFunction) -> list[tuple[float, float]]:
    """Per axis, the span of psi's nonzero nodes widened by one spacing: it
    holds the support of the profile. Empty, (inf, -inf), if psi samples to 0."""
    x, h = psi.grid.axis_coords(), psi.grid.spacing
    nodes = [x[i] for i in np.nonzero(psi.gridfunc.values)]
    return [(c.min(initial=np.inf) - h, c.max(initial=-np.inf) + h) for c in nodes]


def _point(coords, dim: int) -> tuple[float, ...]:
    """A point of R^dim. A scalar or a single coordinate stands for every
    axis; any other number of coordinates than dim raises InputError."""
    point = tuple(float(v) for v in np.atleast_1d(coords))
    if len(point) == 1:
        return point * dim
    if len(point) != dim:
        raise InputError(f"a point of R^{dim} takes 1 or {dim} coordinates, got {len(point)}")
    return point


def _bump_profile(center, width):
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
    grid: SpatialGrid, name: str, center, width: float, factor=None
) -> TestFunction:
    """Sample a catalog test function: a bump of radius width at center (see
    _point), times factor(x_1 - c_1) when factor is given.

    The profile is evaluated on the support slab only, per axis the nodes
    with |x_k - c_k| < width, and is 0 elsewhere. The box must exceed
    max|center| + width and the slab must miss the first and last node of
    every axis, else InputError naming the half-width needed.
    """
    center = _point(center, grid.dim)
    L, M, x = grid.half_width, grid.points_per_axis, grid.axis_coords()
    reach = float(np.max(np.abs(center))) + width
    slab = []
    for c in center:
        inside = np.flatnonzero(np.abs(x - c) < width)
        slab.append(slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0))
    if reach >= L or any(s.stop > s.start and (s.start == 0 or s.stop == M) for s in slab):
        # above reach * M / (M - 2) the last node, L - 2L/M, lies beyond reach too
        needed = reach if reach >= L else reach * M / (M - 2)
        raise InputError(
            f"bump support reaches the box boundary: half_width must exceed {needed:g}"
        )
    base = _bump_profile(center, width)
    if factor is None:
        profile = base
    else:
        def profile(*coords):
            return base(*coords) * factor(coords[0] - center[0])

    values = np.zeros(grid.shape)
    values[tuple(slab)] = profile(*np.meshgrid(*(x[s] for s in slab), indexing="ij"))
    return TestFunction(gridfunc=GridFunction(grid, values), name=name, profile=profile)


def bump(grid: SpatialGrid, center=0.0, width: float = 1.0) -> TestFunction:
    """Smooth bump with value 1 at its center, supported in a ball of radius width."""
    return _catalog_entry(grid, "bump", center, width)


def oscillatory_bump(
    grid: SpatialGrid, center=0.0, width: float = 1.0, wavenumber: float = 3.0
) -> TestFunction:
    """Bump modulated by cos(k x_1): oscillatory member of the test catalog."""
    return _catalog_entry(
        grid, "oscillatory_bump", center, width, factor=lambda s: np.cos(wavenumber * s)
    )


def linear_bump(grid: SpatialGrid, center=0.0, width: float = 1.0) -> TestFunction:
    """x_1 times a bump: odd test function, useful for symmetry checks."""
    return _catalog_entry(grid, "linear_bump", center, width, factor=lambda s: s)


# ---------------------------------------------------------------------------
# norms, derivatives, pairings


def norm_l2(u: GridFunction) -> float:
    """Discrete L2 norm (cell volume weighted)."""
    return _l2_norm(u.grid, u.values)


def _l2_norm(grid: SpatialGrid, values: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(_abs2(values))))


def norm_linf(u: GridFunction) -> float:
    v = u.values  # |x| is exact for real x: its max needs no |x| array
    return float(abs(max(v.max(), -v.min())) if np.isrealobj(v) else np.max(np.abs(v)))


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
        raise InputError(f"Sobolev order {k} not supported (0 <= k <= 4)")
    if k == 0:
        return norm_l2(u)
    return _parseval_norm(u.grid, _sobolev_weights(u.grid, k), np.abs(np.fft.fftn(u.values)) ** 2)


def _parseval_norm(grid: SpatialGrid, weights: np.ndarray, power: np.ndarray) -> float:
    """H^k norm of the samples whose fftn has power = |F|^2, weights = _sobolev_weights(grid, k)."""
    total = np.sum(weights * power)
    # Parseval: sum |u|^2 = sum |F|^2 / M^n
    return float(np.sqrt(grid.cell_volume * total / grid.points_per_axis**grid.dim))


def derivative(u: GridFunction, axis: int = 0, order: int = 1) -> GridFunction:
    """Fourier-collocation derivative along one axis; exact for band-limited u.

    Real u gives a real derivative, from the half spectrum (rfft / irfft).
    """
    if order not in (1, 2):
        raise InputError(f"derivative order must be 1 or 2, got {order}")
    g = u.grid
    if axis < 0 or axis >= g.dim:
        raise InputError(f"axis {axis} out of range for dim {g.dim}")
    M = g.points_per_axis
    real = np.isrealobj(u.values)
    # the half spectrum ends at Nyquist, -M/2 in fft order: even orders square its sign away
    mult = (1j * g.wavenumbers()[axis][: M // 2 + 1 if real else M]) ** order
    if order % 2 == 1:
        mult[M // 2] = 0.0  # drop the unsigned Nyquist mode
    shape = [1] * g.dim
    shape[axis] = mult.size
    F = (np.fft.rfft if real else np.fft.fft)(u.values, axis=axis)
    np.multiply(mult.reshape(shape), F, out=F)  # multiplier first: operand order can change bits
    out = np.fft.irfft(F, n=M, axis=axis) if real else np.fft.ifft(F, axis=axis, out=F)
    return GridFunction._adopt(g, out)


def pair(u: GridFunction, psi: TestFunction) -> complex:
    """Distributional pairing <u, psi> = cell_volume * sum(u * psi), no conjugation."""
    _check_same_grid(u.grid, psi.grid)
    return complex(u.grid.cell_volume * np.sum(u.values * psi.gridfunc.values))


def periodic_convolve(a: np.ndarray, b: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Periodic convolution (a * b)(x) = integral a(x - y) b(y) dy by FFT.

    Both factors are samples starting at x_0 = -L, so the FFT product picks
    up a shift of L = M/2 cells per axis, which the roll undoes. The result
    is float64 when both factors are real (the .real view of a complex
    buffer) and complex128 otherwise.
    """
    A = np.fft.fftn(a)
    conv = np.fft.ifftn(np.multiply(A, np.fft.fftn(b), out=A), out=A)
    shift = grid.points_per_axis // 2
    out = grid.cell_volume * np.roll(conv, shift, axis=tuple(range(grid.dim)))
    return out.real if np.isrealobj(a) and np.isrealobj(b) else out
