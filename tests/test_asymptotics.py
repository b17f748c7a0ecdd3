"""Eps grids, nets, log-log regression and the log-type coefficient test."""

import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnets import (
    CutoffFamily,
    EpsGrid,
    EpsNet,
    GridFunction,
    InputError,
    MollifierSpec,
    RegnetsError,
    SpatialGrid,
    check_log_type,
    loglog_fit,
    scaled_mollifier,
)
from regnets.asymptotics import _cpu_count, _eps_map


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

    @pytest.mark.parametrize("eps", [1.5, 0.0, -0.25, float("nan")])
    def test_eps_rule_is_one_rule(self, eps):
        # an eps grid, the dyadic cutoff index and the sampler reject the
        # same values with the same message
        spec, grid = MollifierSpec(dim=1, exponent=4.0), SpatialGrid(1, 4.0, 1024)
        attempts = [
            lambda: EpsGrid((eps,) + tuple(2.0**-j for j in range(10, 15))),
            lambda: CutoffFamily.j_of_eps(eps),
            lambda: scaled_mollifier(spec, eps, grid),
        ]
        for attempt in attempts:
            with pytest.raises(InputError, match=re.escape(f"eps must lie in (0, 1], got {eps}")):
                attempt()

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

    def test_bad_sup_norms_rejected(self):
        eg = EpsGrid.dyadic(2, 9)
        with pytest.raises(InputError, match="sup_norms length must match eps grid"):
            check_log_type(eg, [1.0] * (len(eg) - 1))
        with pytest.raises(InputError, match="sup norms must be nonnegative"):
            check_log_type(eg, [1.0] * (len(eg) - 1) + [-1.0])


class TestEpsMap:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 9])
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 6, 7])
    def test_results_in_item_order(self, threads, count):
        caller, ran_on = threading.get_ident(), {}

        def fn(e):
            ran_on[e] = threading.get_ident()
            return e * e

        items = [0.5 * i for i in range(count)]
        assert _eps_map(fn, items, threads) == [e * e for e in items]
        used = max(1, min(threads, count))
        # the calling thread takes every used-th item, the pool the rest
        assert [i for i, e in enumerate(items) if ran_on[e] == caller] == list(range(0, count, used))

    def test_earliest_failing_item_raises(self):
        # three threads: items 2 and 4 run on the two pool workers
        def fn(e):
            if e == 2:
                time.sleep(0.05)  # fails after item 4 has failed
                raise ValueError("item 2")
            if e == 4:
                raise ValueError("item 4")
            return e

        with pytest.raises(ValueError, match="item 2"):
            _eps_map(fn, range(8), 3)

    def test_failure_on_the_caller_wins_over_a_later_worker_failure(self):
        # two threads: item 2 runs on the caller, item 5 on the worker
        def fn(e):
            if e == 2:
                time.sleep(0.05)
                raise KeyError("item 2")
            if e == 5:
                raise KeyError("item 5")
            return e

        with pytest.raises(KeyError, match="item 2"):
            _eps_map(fn, range(8), 2)

    def test_items_not_started_are_cancelled(self):
        ran = []

        def fn(e):
            ran.append(e)
            if e == 0:
                raise ValueError("item 0")
            time.sleep(0.1)  # holds the one worker while the caller fails
            return e

        with pytest.raises(ValueError, match="item 0"):
            _eps_map(fn, range(8), 2)
        assert set(ran) <= {0, 1}

    def test_cpu_count_falls_back_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        assert _cpu_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cpu_count() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _cpu_count() == 4
