"""Epsilon-indexed nets and empirical asymptotic classification.

A net is a family of grid functions (or scalars) indexed by a decreasing
eps-grid. Moderateness (at most power growth in 1/eps) is decided by
log-log least squares on the tested range only; verdicts are explicitly
finite-grid certificates, not proofs of the quantified statements they
mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RegnetsError
from .grid import GridFunction, norm_linf

RESIDUAL_THRESHOLD = 0.1  # log-units rms accepted as a clean power law


@dataclass(frozen=True)
class EpsGrid:
    """Strictly decreasing eps values in (0, 1], at least 6 of them."""

    values: tuple

    def __init__(self, values: Sequence[float]):
        values = tuple(float(v) for v in values)
        if len(values) < 6:
            raise RegnetsError(f"eps grid needs >= 6 points, got {len(values)}")
        if any(not (0.0 < v <= 1.0) for v in values):
            raise RegnetsError("eps values must lie in (0, 1]")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise RegnetsError("eps values must be strictly decreasing")
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
            raise RegnetsError("items length must match eps grid length")
        grids = {it.grid for it in items if isinstance(it, GridFunction)}
        if len(grids) > 1:
            raise RegnetsError("grid-valued items must share one SpatialGrid")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "items", items)

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class AsymptoticFit:
    """Result of a log-log regression of a net's sizes against 1/eps.

    slope is the fitted exponent a in size ~ eps^(-a); negative slope means
    decay. verdict is 'moderate' or 'inconclusive'; order carries ceil(slope)
    for a moderate net.
    """

    slope: float
    intercept: float
    residual_rms: float
    verdict: str
    order: int | None = None
    n_points: int = 0


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


def classify_moderate(net: EpsNet) -> AsymptoticFit:
    """Fit log size vs log(1/eps); 'moderate' iff the power law is clean.

    The size of a grid item is its sup norm, of a scalar its absolute value.
    """
    vals = np.asarray(
        [norm_linf(it) if isinstance(it, GridFunction) else abs(float(it)) for it in net.items]
    )
    slope, intercept, rms, n = loglog_fit(np.asarray(net.eps.values), vals)
    if n < 4:
        return AsymptoticFit(slope, intercept, rms, "inconclusive", n_points=n)
    if rms < RESIDUAL_THRESHOLD:
        return AsymptoticFit(
            slope, intercept, rms, "moderate", order=math.ceil(slope), n_points=n
        )
    return AsymptoticFit(slope, intercept, rms, "inconclusive", n_points=n)


def check_log_type(eps: EpsGrid, sup_norms: Sequence[float]):
    """Fit s(eps) = A + B log(1/eps) to time-derivative sup norms.

    Returns a report dict with key 'passes'. Passes iff the relative rms
    residual of the log model is below 0.2 (identically zero data passes
    with B = 0).
    """
    s = np.asarray([float(v) for v in sup_norms])
    if len(s) != len(eps):
        raise RegnetsError("sup_norms length must match eps grid")
    if np.any(s < 0):
        raise RegnetsError("sup norms must be nonnegative")
    x = np.log(1.0 / np.asarray(eps.values))
    if np.all(s == 0.0):
        return {"passes": True, "A": 0.0, "B": 0.0, "rel_residual": 0.0}
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, s, rcond=None)
    fitted = A @ coef
    rel = float(np.sqrt(np.mean((s - fitted) ** 2)) / np.sqrt(np.mean(fitted**2)))
    fit = {"A": float(coef[0]), "B": float(coef[1]), "rel_residual": rel}
    # a genuine power law eps^-a can sneak under the residual threshold on a
    # short range; reject when the power model is the strictly better fit
    if np.all(s > 0.0):
        p_slope, _, p_rms, _ = loglog_fit(np.asarray(eps.values), s)
        log_rms_logspace = float(
            np.sqrt(np.mean((np.log(s) - np.log(np.maximum(fitted, 1e-300))) ** 2))
        )
        fit["power_exponent"] = p_slope
        fit["power_rms"] = p_rms
        if p_slope > 0.1 and p_rms < 0.5 * log_rms_logspace:
            return {"passes": False, **fit}
    return {"passes": rel < 0.2, **fit}
