"""Epsilon-indexed nets, log-log regression and the log-type test.

A net is a family of grid functions (or scalars) indexed by a decreasing
eps-grid. loglog_fit measures power exponents in 1/eps and check_log_type
tests growth like log(1/eps), both on the tested range only: verdicts are
finite-grid certificates, not proofs of the quantified statements they
mirror. _eps_map is the package's one way to run an eps-sweep on threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .grid import GridFunction


def _require_eps(eps: float):
    """Raise InputError unless eps lies in (0, 1]: the package's one copy of the rule."""
    if not (0.0 < eps <= 1.0):
        raise InputError(f"eps must lie in (0, 1], got {eps}")


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep_threads(requested: int, items) -> int:
    """The threads _eps_map runs items on: requested, at most one per item."""
    return max(1, min(requested, len(items)))


def _eps_map(fn, items, requested: int) -> list:
    """[fn(e) for e in items], in order and bitwise the same, on
    _sweep_threads(requested, items) threads.

    The calling thread computes the items i with i % threads == 0 and a
    pool of threads - 1 workers the rest; one thread is the plain loop and
    starts none. As in the loop, the first failing item in item order
    raises; the items not yet started are cancelled. fn must be safe to
    call from several threads at once.
    """
    items = list(items)
    threads = _sweep_threads(requested, items)
    if threads == 1:
        return [fn(e) for e in items]
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        jobs = [None if i % threads == 0 else pool.submit(fn, e) for i, e in enumerate(items)]
        try:
            return [fn(e) if job is None else job.result() for e, job in zip(items, jobs)]
        finally:
            for job in jobs:
                if job is not None:
                    job.cancel()


@dataclass(frozen=True)
class EpsGrid:
    """Strictly decreasing eps values in (0, 1], at least 6 of them."""

    values: tuple

    def __init__(self, values: Sequence[float]):
        values = tuple(float(v) for v in values)
        if len(values) < 6:
            raise InputError(f"eps grid needs >= 6 points, got {len(values)}")
        for v in values:
            _require_eps(v)
        if any(a <= b for a, b in zip(values, values[1:])):
            raise InputError("eps values must be strictly decreasing")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @classmethod
    def dyadic(cls, j_min: int = 2, j_max: int = 9) -> "EpsGrid":
        """Default grid eps_j = 2^-j, j = j_min .. j_max."""
        return cls([2.0**-j for j in range(j_min, j_max + 1)])


@dataclass(frozen=True)
class EpsNet:
    """Items (grid functions or scalars) indexed by an EpsGrid."""

    eps: EpsGrid
    items: tuple

    def __init__(self, eps: EpsGrid, items: Sequence):
        items = tuple(items)
        if len(items) != len(eps):
            raise InputError("items length must match eps grid length")
        grids = {it.grid for it in items if isinstance(it, GridFunction)}
        if len(grids) > 1:
            raise InputError("grid-valued items must share one SpatialGrid")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "items", items)


def loglog_fit(eps: np.ndarray, values: np.ndarray):
    """Least squares of log(values) against log(1/eps); returns slope,
    intercept, rms residual, and the number of usable (nonzero) points."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 0.0
    x = np.log(1.0 / eps[mask])
    y = np.log(values[mask])
    n = int(mask.sum())
    if n < 4:
        return math.nan, math.nan, math.inf, n
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2))), n


def check_log_type(eps: EpsGrid, sup_norms: Sequence[float]):
    """Fit s(eps) = A + B log(1/eps) to time-derivative sup norms.

    Returns a report dict with keys 'passes' and 'rel_residual'. Passes iff
    the relative rms residual of the log model is below 0.2 (identically
    zero data passes) and no clean power law with exponent > 0.1 fits better.
    """
    s = np.asarray([float(v) for v in sup_norms])
    if len(s) != len(eps):
        raise InputError("sup_norms length must match eps grid")
    if np.any(s < 0):
        raise InputError("sup norms must be nonnegative")
    x = np.log(1.0 / np.asarray(eps.values))
    if np.all(s == 0.0):
        return {"passes": True, "rel_residual": 0.0}
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, s, rcond=None)
    fitted = A @ coef
    rel = float(np.sqrt(np.mean((s - fitted) ** 2)) / np.sqrt(np.mean(fitted**2)))
    # a genuine power law eps^-a can sneak under the residual threshold on a
    # short range; reject when the power model is the strictly better fit
    if np.all(s > 0.0):
        p_slope, _, p_rms, _ = loglog_fit(np.asarray(eps.values), s)
        log_rms_logspace = float(
            np.sqrt(np.mean((np.log(s) - np.log(np.maximum(fitted, 1e-300))) ** 2))
        )
        if p_slope > 0.1 and p_rms < 0.5 * log_rms_logspace:
            return {"passes": False, "rel_residual": rel}
    return {"passes": rel < 0.2, "rel_residual": rel}
