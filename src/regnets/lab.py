"""Epsilon-sweep experiments for association and classical coherence.

Two experiment drivers: coherence of the regularized solutions with a
resolution-verified classical reference when the data are embedded by
mollification, and distributional association of solution nets computed
from pairings across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import EpsGrid, loglog_fit
from .errors import ReferenceError_
from .grid import (
    GridFunction,
    SpatialGrid,
    TestFunction,
    norm_hk,
    pair,
    periodic_convolve,
)
from .mollifiers import MollifierSpec, scaled_mollifier
from .solver import CauchyProblem, CoefficientNet, solve


def mollify_gridfunction(u: GridFunction, spec: MollifierSpec, eps: float) -> GridFunction:
    """u * rho_eps on the periodic box by FFT."""
    grid = u.grid
    rho = scaled_mollifier(spec, eps, grid)
    return GridFunction(grid, periodic_convolve(u.values, rho.values, grid))


def _restrict(fine: GridFunction, coarse_grid: SpatialGrid) -> GridFunction:
    """Restriction of a nested finer grid function to the coarse nodes."""
    step = fine.grid.points_per_axis // coarse_grid.points_per_axis
    sl = (slice(None, None, step),) * fine.grid.dim
    return GridFunction(coarse_grid, fine.values[sl])


@dataclass(frozen=True)
class CoherenceResult:
    eps_grid: EpsGrid
    h1_sup_diffs: list
    slope: float
    fit_rms: float
    final_diff: float
    monotone: bool
    reference_gap: float


def coherence_experiment(
    grid: SpatialGrid,
    coeffs: CoefficientNet,
    g0: GridFunction,
    f0,  # callable t -> ndarray on the grid, or None
    spec: MollifierSpec,
    eps_grid: EpsGrid,
    T: float,
    time_steps: int,
    reference_tol: float = 1e-4,
) -> CoherenceResult:
    """Regularized solutions against the classical (unregularized) solution.

    The reference is the same scheme run with unmollified data; its validity
    is certified by a self-convergence check against a (2M, 2Nt) run, which
    must agree to reference_tol / 10 in sup-t H1, else ReferenceError. Per
    eps the data are mollified in x and the larger H1 difference at the
    snapshot times T/2 and T is recorded; monotone decay and the fitted
    eps-rate form the verdict.
    """
    snapshot_times = [T / 2.0, T]
    reference = CauchyProblem(
        grid=grid,
        coeffs=coeffs,
        initial=lambda e: g0,
        forcing=None if f0 is None else lambda e, t: f0(t, grid),
        T=T,
        time_steps=time_steps,
    )
    fine_grid = SpatialGrid(grid.dim, grid.half_width, grid.points_per_axis * 2)
    g0_fine = _spectral_prolong(g0, fine_grid)
    certificate = replace(
        reference,
        grid=fine_grid,
        initial=lambda e: g0_fine,
        forcing=None if f0 is None else lambda e, t: f0(t, fine_grid),
        time_steps=time_steps * 2,
    )
    mollified = replace(
        reference,
        initial=lambda e: mollify_gridfunction(g0, spec, e),
        forcing=None if f0 is None else lambda e, t: mollify_gridfunction(
            GridFunction(grid, f0(t, grid)), spec, e
        ).values,
    )

    def snapshots(problem, eps):
        return solve(problem, eps, snapshot_times=snapshot_times, record_norms=False).snapshots

    ref = snapshots(reference, 1.0)
    ref_fine = snapshots(certificate, 1.0)
    gap = max(norm_hk(_restrict(ref_fine[t], grid) - ref[t], 1) for t in snapshot_times)
    if gap > reference_tol / 10.0:
        raise ReferenceError_(
            f"reference self-convergence gap {gap:.3e} exceeds {reference_tol / 10.0:.3e}; "
            "refine the reference resolution"
        )

    diffs = []
    for eps in eps_grid:
        u = snapshots(mollified, eps)
        diffs.append(max(norm_hk(u[t] - ref[t], 1) for t in snapshot_times))

    slope, _, rms, _ = loglog_fit(np.asarray(eps_grid.values), np.asarray(diffs))
    monotone = all(
        diffs[i + 1] <= diffs[i] * 1.1 + 1e-15 for i in range(len(diffs) - 1)
    )
    return CoherenceResult(
        eps_grid=eps_grid,
        h1_sup_diffs=diffs,
        slope=-slope,  # exponent of eps
        fit_rms=rms,
        final_diff=diffs[-1],
        monotone=monotone,
        reference_gap=gap,
    )


def _spectral_prolong(u: GridFunction, fine_grid: SpatialGrid) -> GridFunction:
    """Zero-padded spectral interpolation onto the doubled grid."""
    M = u.grid.points_per_axis
    M2 = fine_grid.points_per_axis
    lo = (M2 - M) // 2
    pad = np.zeros(fine_grid.shape, dtype=complex)
    pad[(slice(lo, lo + M),) * u.grid.dim] = np.fft.fftshift(np.fft.fftn(u.values))
    out = np.fft.ifftn(np.fft.ifftshift(pad)) * (M2 / M) ** u.grid.dim
    return GridFunction(fine_grid, out.real if np.isrealobj(u.values) else out)


def association_of_solution(
    problem: CauchyProblem,
    eps_grid: EpsGrid,
    tests: list[TestFunction],
    snapshot_time: float,
) -> dict:
    """Cauchy behavior of pairings <u_eps(t*), psi> across the sweep.

    Successive differences must shrink by an average factor >= 1.5 for an
    association verdict; otherwise the report states that no association was
    detected at this tolerance.
    """
    pairings = {id(psi): [] for psi in tests}
    for eps in eps_grid:
        res = solve(problem, eps, snapshot_times=[snapshot_time], record_norms=False)
        u = res.snapshots[snapshot_time]
        for psi in tests:
            pairings[id(psi)].append(pair(u, psi))
    per_test = []
    for psi in tests:
        vals = pairings[id(psi)]
        deltas = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        # deltas at roundoff level are already converged; exclude them from
        # the shrink-factor statistic so noise ratios cannot mask a limit
        floor = 1e-10 * (1.0 + max(abs(v) for v in vals))
        live = [d for d in deltas if d > floor]
        ratios = [
            live[i] / live[i + 1] for i in range(len(live) - 1) if live[i + 1] > 0
        ]
        avg_ratio = float(np.mean(ratios)) if ratios else np.inf
        cauchy = avg_ratio >= 1.5
        if cauchy and deltas and deltas[-1] > 0 and ratios:
            limit = vals[-1] + deltas[-1] / (avg_ratio - 1.0) * np.sign(
                (vals[-1] - vals[-2]).real
            )
        else:
            limit = vals[-1]
        per_test.append(
            {
                "psi": psi.name,
                "params": psi.params,
                "pairings": vals,
                "deltas": deltas,
                "avg_ratio": avg_ratio,
                "cauchy": cauchy,
                "extrapolated_limit": limit,
                "verdict": "associated" if cauchy else "no association detected at tolerance",
            }
        )
    return {"t": snapshot_time, "tests": per_test, "all_cauchy": all(p["cauchy"] for p in per_test)}
