"""Eps grids, nets, log-log classification and the log-type coefficient test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    EpsGrid,
    EpsNet,
    GridFunction,
    RegnetsError,
    SpatialGrid,
    check_log_type,
    classify_moderate,
    loglog_fit,
)


class TestEpsGrid:
    def test_dyadic_defaults(self):
        eg = EpsGrid.dyadic()
        assert eg.values[0] == pytest.approx(0.25)
        assert eg.values[-1] == pytest.approx(2.0**-9)
        assert len(eg) == 8

    def test_requires_at_least_six_points(self):
        with pytest.raises(RegnetsError):
            EpsGrid([0.5, 0.25, 0.125])

    def test_rejects_increasing(self):
        with pytest.raises(RegnetsError):
            EpsGrid([0.01, 0.02, 0.04, 0.08, 0.16, 0.32])

    def test_rejects_out_of_range(self):
        with pytest.raises(RegnetsError):
            EpsGrid([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
        with pytest.raises(RegnetsError):
            EpsGrid([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.0])

    def test_geometric_endpoints(self):
        eg = EpsGrid(np.geomspace(0.5, 0.01, 7))
        assert eg.values[0] == pytest.approx(0.5)
        assert eg.values[-1] == pytest.approx(0.01)
        assert len(eg) == 7


class TestEpsNet:
    def test_length_mismatch_rejected(self):
        eg = EpsGrid.dyadic(2, 7)
        with pytest.raises(RegnetsError):
            EpsNet(eg, [1.0, 2.0])

    def test_mixed_grids_rejected(self):
        eg = EpsGrid.dyadic(2, 7)
        grids = [SpatialGrid(1, 1.0, 16), SpatialGrid(1, 1.0, 32)]
        items = [GridFunction.zeros(grids[i % 2]) for i in range(6)]
        with pytest.raises(RegnetsError):
            EpsNet(eg, items)


class TestLogLogFit:
    def test_exact_power_law(self):
        eg = EpsGrid.dyadic(2, 9)
        eps = np.asarray(eg.values)
        slope, intercept, rms, n = loglog_fit(eps, 3.0 * eps**-2.5)
        assert slope == pytest.approx(2.5, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
        assert rms < 1e-12
        assert n == 8

    def test_decaying_power_law_has_negative_slope(self):
        eps = np.asarray(EpsGrid.dyadic(2, 9).values)
        slope, _, _, _ = loglog_fit(eps, eps**3)
        assert slope == pytest.approx(-3.0, abs=1e-12)

    def test_zero_values_are_excluded(self):
        eps = np.asarray(EpsGrid.dyadic(2, 9).values)
        vals = eps**1.0
        vals[:5] = 0.0
        slope, _, _, n = loglog_fit(eps, vals)
        assert n == 3
        assert not np.isfinite(slope) or n < 4  # too few points to trust

    @given(
        a=st.floats(-4, 4),
        c=st.floats(0.1, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_arbitrary_exponent(self, a, c):
        eps = np.asarray(EpsGrid.dyadic(1, 8).values)
        slope, _, rms, _ = loglog_fit(eps, c * eps ** (-a))
        assert slope == pytest.approx(a, abs=1e-9)
        assert rms < 1e-9


class TestClassification:
    def _scalar_net(self, fn):
        eg = EpsGrid.dyadic(2, 9)
        return EpsNet(eg, [fn(e) for e in eg.values])

    def test_growth_is_moderate(self):
        fit = classify_moderate(self._scalar_net(lambda e: e**-2))
        assert fit.verdict == "moderate"
        assert fit.order == 2

    def test_decay_is_moderate_with_order_zero_bound(self):
        fit = classify_moderate(self._scalar_net(lambda e: 5.0))
        assert fit.verdict == "moderate"
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_exponential_growth_is_not_a_power_law(self):
        fit = classify_moderate(self._scalar_net(lambda e: np.exp(1.0 / e)))
        assert fit.verdict == "inconclusive"

    def test_grid_valued_net_with_seminorm(self):
        eg = EpsGrid.dyadic(2, 9)
        grid = SpatialGrid(1, 1.0, 64)
        items = [GridFunction(grid, np.full(64, 1.0 / e)) for e in eg.values]
        fit = classify_moderate(EpsNet(eg, items))
        assert fit.verdict == "moderate"
        assert fit.slope == pytest.approx(1.0, abs=1e-10)


class TestLogType:
    def test_exact_log_law_passes(self):
        eg = EpsGrid.dyadic(2, 9)
        sup = [2.0 + 0.7 * np.log(1.0 / e) for e in eg.values]
        rep = check_log_type(eg, sup)
        assert rep["passes"]

    def test_power_growth_fails(self):
        eg = EpsGrid.dyadic(2, 9)
        sup = [e**-0.5 for e in eg.values]
        rep = check_log_type(eg, sup)
        assert not rep["passes"]

    def test_constant_passes(self):
        eg = EpsGrid.dyadic(2, 9)
        rep = check_log_type(eg, [3.0] * len(eg))
        assert rep["passes"]

    def test_zero_passes(self):
        eg = EpsGrid.dyadic(2, 9)
        rep = check_log_type(eg, [0.0] * len(eg))
        assert rep["passes"]
