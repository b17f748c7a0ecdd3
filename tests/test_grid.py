"""Grids, grid functions, spectral norms, derivatives and pairings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    GridError,
    GridFunction,
    ResolutionError,
    SpatialGrid,
    TestFunction,
    UnsupportedOrderError,
    bump,
    derivative,
    linear_bump,
    norm_h_minus1,
    norm_hk,
    norm_l2,
    norm_linf,
    oscillatory_bump,
    pair,
)
from regnets.grid import periodic_convolve


# ---------------------------------------------------------------------------
# SpatialGrid


class TestSpatialGrid:
    def test_spacing_and_cell_volume(self):
        g = SpatialGrid(1, 1.0, 8)
        assert g.spacing == pytest.approx(0.25)
        assert g.cell_volume == pytest.approx(0.25)
        g2 = SpatialGrid(2, 2.0, 16)
        assert g2.spacing == pytest.approx(0.25)
        assert g2.cell_volume == pytest.approx(0.0625)

    def test_axis_coords_cover_half_open_box(self):
        g = SpatialGrid(1, 1.0, 8)
        x = g.axis_coords()
        assert x[0] == pytest.approx(-1.0)
        assert x[-1] == pytest.approx(1.0 - g.spacing)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GridError):
            SpatialGrid(3, 1.0, 8)
        with pytest.raises(GridError):
            SpatialGrid(1, -1.0, 8)
        with pytest.raises(GridError):
            SpatialGrid(1, 1.0, 12)  # not a power of two
        with pytest.raises(GridError):
            SpatialGrid(1, 1.0, 4)  # below minimum

    def test_require_resolves_names_minimal_resolution(self):
        g = SpatialGrid(1, 1.0, 8)
        with pytest.raises(ResolutionError) as exc:
            g.require_resolves(0.1)
        assert exc.value.required_points is not None
        fine = SpatialGrid(1, 1.0, exc.value.required_points)
        fine.require_resolves(0.1)  # must now pass

    def test_wavenumbers_match_fft_convention(self):
        g = SpatialGrid(1, 2.0, 16)
        xi = g.wavenumbers()[0]
        expected = 2.0 * np.pi * np.fft.fftfreq(16, d=g.spacing)
        np.testing.assert_allclose(xi, expected)
        assert g.wavenumbers()[0] is xi  # cached per grid
        with pytest.raises(ValueError):
            xi[0] = 1.0


# ---------------------------------------------------------------------------
# GridFunction


class TestGridFunction:
    def test_from_profile_and_immutability(self):
        g = SpatialGrid(1, 1.0, 16)
        u = GridFunction.from_profile(g, lambda x: x**2)
        with pytest.raises((ValueError, AttributeError)):
            u.values[0] = 99.0

    def test_shape_mismatch_rejected(self):
        g = SpatialGrid(1, 1.0, 16)
        with pytest.raises(GridError):
            GridFunction(g, np.zeros(8))

    def test_nonfinite_rejected(self):
        g = SpatialGrid(1, 1.0, 16)
        for dtype in (float, complex):
            vals = np.zeros(16, dtype=dtype)
            vals[3] = np.nan
            with pytest.raises(GridError):
                GridFunction(g, vals)

    @pytest.mark.parametrize(
        "given, stored",
        [(np.float64, np.float64), (np.int64, np.float64), (np.complex128, np.complex128)],
    )
    def test_values_keep_realness_in_a_read_only_copy(self, given, stored):
        g = SpatialGrid(1, 1.0, 16)
        vals = np.arange(16).astype(given)
        u = GridFunction(g, vals)
        assert u.values.dtype == stored
        assert not u.values.flags.writeable
        assert not np.shares_memory(u.values, vals)
        vals[0] = 7
        assert u.values[0] == 0

    def test_algebra_and_abs2(self):
        g = SpatialGrid(1, 1.0, 16)
        u = GridFunction.from_profile(g, lambda x: x)
        v = GridFunction.from_profile(g, lambda x: 1.0 + 0.0 * x)
        w = u + v - u
        np.testing.assert_allclose(w.values, v.values)
        z = GridFunction(g, (1.0 + 1.0j) * np.ones(16))
        np.testing.assert_allclose(z.abs2().values, 2.0 * np.ones(16))

    def test_mixed_grid_operands_rejected(self):
        a = GridFunction.zeros(SpatialGrid(1, 1.0, 16))
        b = GridFunction.zeros(SpatialGrid(1, 1.0, 32))
        with pytest.raises(GridError):
            a + b


class TestPeriodicConvolve:
    @pytest.mark.parametrize(
        "a_dtype, b_dtype, out_dtype",
        [
            (np.float64, np.float64, np.float64),
            (np.complex128, np.float64, np.complex128),
            (np.float64, np.complex128, np.complex128),
        ],
    )
    def test_dtype_is_real_exactly_when_both_factors_are(self, a_dtype, b_dtype, out_dtype):
        g = SpatialGrid(2, 4.0, 32)
        x, y = g.meshgrid()
        a = np.exp(-(x**2 + y**2)).astype(a_dtype)
        b = np.exp(-((x - 1.0) ** 2 + 2.0 * y**2)).astype(b_dtype)
        out = periodic_convolve(a, b, g)
        assert out.dtype == out_dtype
        # the real result is the real part of the complex computation, bit for bit
        reference = periodic_convolve(a.astype(complex), b, g)
        assert np.array_equal(out, reference if out_dtype == np.complex128 else reference.real)


# ---------------------------------------------------------------------------
# norms: closed-form oracles


class TestNorms:
    def test_l2_norm_of_identity_map(self):
        # exact: ||x||_L2([-1,1]) = sqrt(2/3)
        g = SpatialGrid(1, 1.0, 4096)
        u = GridFunction.from_profile(g, lambda x: x)
        assert norm_l2(u) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-3)

    def test_h1_norm_of_sine(self):
        # exact: ||sin(pi x)||_H1([-1,1]) = sqrt(1 + pi^2)
        g = SpatialGrid(1, 1.0, 1024)
        u = GridFunction.from_profile(g, lambda x: np.sin(np.pi * x))
        assert norm_hk(u, 1) == pytest.approx(np.sqrt(1.0 + np.pi**2), rel=1e-10)

    def test_h2_norm_of_sine(self):
        # exact: sqrt(1 + pi^2 + pi^4) for one period on [-1, 1]
        g = SpatialGrid(1, 1.0, 1024)
        u = GridFunction.from_profile(g, lambda x: np.sin(np.pi * x))
        exact = np.sqrt(1.0 + np.pi**2 + np.pi**4)
        assert norm_hk(u, 2) == pytest.approx(exact, rel=1e-10)

    def test_h_minus1_of_oscillation_divides_by_frequency_weight(self):
        # single Fourier mode e^{i k pi x}: ||u||_{H^-1} = 1/sqrt(1 + (k pi)^2) * ||u||_L2
        g = SpatialGrid(1, 1.0, 256)
        k = 5
        u = GridFunction(g, np.exp(1j * k * np.pi * g.axis_coords()))
        expected = norm_l2(u) / np.sqrt(1.0 + (k * np.pi) ** 2)
        assert norm_h_minus1(u) == pytest.approx(expected, rel=1e-12)

    def test_h0_equals_l2(self):
        g = SpatialGrid(2, 1.0, 64)
        u = GridFunction.from_profile(g, lambda x, y: np.cos(np.pi * x) * y)
        assert norm_hk(u, 0) == pytest.approx(norm_l2(u), rel=1e-12)

    def test_unsupported_order(self):
        g = SpatialGrid(1, 1.0, 16)
        u = GridFunction.zeros(g)
        with pytest.raises(UnsupportedOrderError):
            norm_hk(u, 5)

    @given(k=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_norm_monotone_in_order(self, k, seed):
        g = SpatialGrid(1, 1.0, 64)
        rng = np.random.default_rng(seed)
        u = GridFunction(g, rng.standard_normal(64))
        assert norm_hk(u, k + 1) >= norm_hk(u, k) - 1e-12

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        g = SpatialGrid(1, 1.0, 128)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(128)
        u = GridFunction(g, vals)
        physical = np.sqrt(np.sum(vals**2) * g.cell_volume)
        assert norm_l2(u) == pytest.approx(physical, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral derivative


class TestDerivative:
    def test_first_derivative_of_sine(self):
        g = SpatialGrid(1, 1.0, 256)
        u = GridFunction.from_profile(g, lambda x: np.sin(np.pi * x))
        du = derivative(u, axis=0, order=1)
        np.testing.assert_allclose(
            du.values.real, np.pi * np.cos(np.pi * g.axis_coords()), atol=1e-10
        )

    def test_laplacian_eigenfunction(self):
        # exact: -(d/dx)^2 sin(3 pi x) = (3 pi)^2 sin(3 pi x)
        g = SpatialGrid(1, 1.0, 256)
        u = GridFunction.from_profile(g, lambda x: np.sin(3 * np.pi * x))
        d2 = derivative(u, axis=0, order=2)
        np.testing.assert_allclose(d2.values.real, -((3 * np.pi) ** 2) * u.values, atol=1e-8)

    def test_axis_selection_2d(self):
        g = SpatialGrid(2, 1.0, 64)
        u = GridFunction.from_profile(g, lambda x, y: np.sin(np.pi * x) + 0.0 * y)
        dy = derivative(u, axis=1, order=1)
        assert norm_linf(dy) < 1e-10

    def test_unsupported_derivative_order(self):
        g = SpatialGrid(1, 1.0, 16)
        with pytest.raises(UnsupportedOrderError):
            derivative(GridFunction.zeros(g), order=3)

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b, seed):
        g = SpatialGrid(1, 1.0, 64)
        rng = np.random.default_rng(seed)
        u = GridFunction(g, rng.standard_normal(64))
        v = GridFunction(g, rng.standard_normal(64))
        lhs = derivative(u * a + v * b)
        rhs = derivative(u) * a + derivative(v) * b
        assert norm_linf(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# test functions and pairings


class TestTestFunctions:
    def test_bump_is_compactly_supported_and_real(self):
        g = SpatialGrid(1, 4.0, 512)
        psi = bump(g, 0.0, 1.0)
        vals = psi.gridfunc.values
        x = g.axis_coords()
        assert np.all(vals[np.abs(x) >= 1.0] == 0.0)
        assert np.max(vals) == pytest.approx(1.0, abs=1e-6)

    def test_test_function_must_vanish_near_boundary(self):
        g = SpatialGrid(1, 1.0, 64)
        wide = GridFunction.from_profile(g, lambda x: 1.0 + 0.0 * x)
        with pytest.raises(GridError):
            TestFunction(wide, name="constant", params={})

    @pytest.mark.parametrize(
        "shape, node",
        [
            ((16,), (0,)),
            ((16,), (-1,)),
            ((16, 16), (0, 5)),
            ((16, 16), (-1, 7)),
            ((16, 16), (3, 0)),
            ((16, 16), (9, -1)),
        ],
        ids=["1d-first", "1d-last", "2d-axis0-first", "2d-axis0-last", "2d-axis1-first", "2d-axis1-last"],
    )
    def test_each_outer_side_is_on_the_edge(self, shape, node):
        g = SpatialGrid(len(shape), 1.0, shape[0])

        def peak_plus_node(at):
            v = np.zeros(shape)
            v[(8,) * len(shape)] = 4.0
            v[at] = 1.0
            return GridFunction(g, v)

        with pytest.raises(GridError):
            TestFunction(peak_plus_node(node), name="edge", params={})
        # one cell further in, the same node is interior
        inward = tuple(1 if i == 0 else -2 if i == -1 else i for i in node)
        TestFunction(peak_plus_node(inward), name="interior", params={})

    def test_complex_dtype_is_not_real_even_with_zero_imaginary_part(self):
        g = SpatialGrid(1, 4.0, 256)
        real = bump(g, 0.0, 1.0).gridfunc
        TestFunction(real, name="real", params={})
        with pytest.raises(GridError, match="real-valued"):
            TestFunction(GridFunction(g, real.values.astype(complex)), name="cplx", params={})

    @pytest.mark.parametrize("make", [bump, oscillatory_bump, linear_bump])
    def test_support_reaching_the_box_is_rejected(self, make):
        g = SpatialGrid(1, 4.0, 256)
        make(g, 2.9, 1.0)
        with pytest.raises(GridError, match="bump support reaches the box boundary"):
            make(g, 3.0, 1.0)

    def test_pair_against_bump_matches_quadrature(self):
        from scipy.integrate import quad

        g = SpatialGrid(1, 4.0, 4096)
        psi = bump(g, 0.0, 1.0)
        u = GridFunction.from_profile(g, lambda x: np.cos(x))
        prof = psi.profile
        oracle, _ = quad(lambda x: np.cos(x) * prof(x), -1, 1, limit=200)
        assert pair(u, psi) == pytest.approx(oracle, rel=1e-6)

    def test_pairing_does_not_conjugate(self):
        g = SpatialGrid(1, 4.0, 256)
        psi = bump(g, 0.0, 1.0)
        u = GridFunction(g, 1j * np.ones(256, dtype=complex))
        val = pair(u, psi)
        assert val.imag > 0.0  # <i, psi> = i * integral(psi), not -i

    def test_oscillatory_bump_oscillates(self):
        g = SpatialGrid(1, 4.0, 1024)
        psi = oscillatory_bump(g, 0.0, 1.0, 4.0)
        assert np.min(psi.gridfunc.values) < -0.1

    def test_linear_bump_is_odd(self):
        g = SpatialGrid(1, 4.0, 1024)
        psi = linear_bump(g, 0.0, 1.0)
        u = GridFunction.from_profile(g, lambda x: np.exp(-(x**2)))
        assert abs(pair(u, psi)) < 1e-12

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_pairing_linear_in_first_slot(self, a, b, seed):
        g = SpatialGrid(1, 4.0, 128)
        psi = bump(g, 0.0, 1.0)
        rng = np.random.default_rng(seed)
        u = GridFunction(g, rng.standard_normal(128))
        v = GridFunction(g, rng.standard_normal(128))
        lhs = pair(u * a + v * b, psi)
        rhs = a * pair(u, psi) + b * pair(v, psi)
        assert lhs == pytest.approx(rhs, abs=1e-9)
