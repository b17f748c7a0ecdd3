"""Epsilon-sweep experiments for association and classical coherence.

Two experiment drivers: coherence of the regularized solutions with a
resolution-verified classical reference when the data are embedded by
mollification, read off the solved difference net (no solution is
subtracted), and association of solution nets from pairings across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .asymptotics import EpsGrid, _cpu_count, _eps_map, loglog_fit
from .errors import InputError, RegnetsError
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
    h1_sup_diffs: list
    slope: float
    final_diff: float
    monotone: bool  # the differences shrink, up to 10% slack per step
    final_below_tol: bool  # final_diff < reference_tol
    first_order: bool  # slope >= 0.9: the difference is O(eps)
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
    must agree to reference_tol / 10 in sup-t H1, else RegnetsError. The
    scheme is linear, so per eps the difference net is solved from the data
    rho_eps * g - g (the forcing likewise) and no solution is subtracted;
    its larger H1 norm at T/2 and T, monotone decay, the final difference
    and the fitted eps-rate form the verdict. The reference and certificate
    use eps = 1, so coeffs must not depend on eps: before any transform or
    solve, a c_k or V that differs from its eps = 1 field at some eps of the
    sweep raises InputError (see _require_eps_independent).

    The certified gap (reference, certificate and their comparison) and the
    difference solves run on one thread per CPU (asymptotics._eps_map), with
    the certified gap as item 0 and the eps in sweep order after it: the
    results are bitwise those of a loop, and so is the error raised, since
    the first failing item raises. A failed certificate therefore wins over
    any difference's error, and among the differences the largest failing
    eps wins.
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
    _require_eps_independent(coeffs, eps_grid, grid, reference.dt, time_steps)

    fine_grid = SpatialGrid(grid.dim, grid.half_width, grid.points_per_axis * 2)
    g0_fine = _spectral_prolong(g0, fine_grid)
    certificate = replace(
        reference,
        grid=fine_grid,
        initial=lambda e: g0_fine,
        forcing=None if f0 is None else lambda e, t: f0(t, fine_grid),
        time_steps=time_steps * 2,
    )
    difference = replace(
        reference,
        initial=lambda e: mollify_gridfunction(g0, spec, e) - g0,
        forcing=None if f0 is None else lambda e, t: (
            mollify_gridfunction(f := GridFunction(grid, f0(t, grid)), spec, e) - f
        ).values,
    )

    def snapshots(problem, eps):
        return solve(problem, eps, snapshot_times=snapshot_times, record_norms=False).snapshots

    def certified_gap():
        ref = snapshots(reference, 1.0)
        ref_fine = snapshots(certificate, 1.0)
        gap = max(norm_hk(_restrict(ref_fine[t], grid) - ref[t], 1) for t in snapshot_times)
        if gap > reference_tol / 10.0:
            raise RegnetsError(
                f"reference self-convergence gap {gap:.3e} exceeds {reference_tol / 10.0:.3e}; "
                "refine the reference resolution"
            )
        return gap

    def difference_gap(eps):
        v = snapshots(difference, eps)
        return max(norm_hk(v[t], 1) for t in snapshot_times)

    # item 0 is the certified gap, so a failed certificate raises before any
    # difference's error, as in a loop
    jobs = [certified_gap, *(partial(difference_gap, eps) for eps in eps_grid)]
    gap, *diffs = _eps_map(lambda job: job(), jobs, _cpu_count())

    slope = -loglog_fit(np.asarray(eps_grid.values), np.asarray(diffs))[0]  # exponent of eps
    return CoherenceResult(
        h1_sup_diffs=diffs,
        slope=slope,
        final_diff=diffs[-1],
        monotone=all(diffs[i + 1] <= diffs[i] * 1.1 + 1e-15 for i in range(len(diffs) - 1)),
        final_below_tol=diffs[-1] < reference_tol,
        first_order=slope >= 0.9,
        reference_gap=gap,
    )


def _require_eps_independent(
    coeffs: CoefficientNet, eps_grid: EpsGrid, grid: SpatialGrid, dt: float, time_steps: int
):
    """InputError unless every c_k and V equals its eps = 1 field at every eps.

    The fields are compared exactly at the half-step times the difference
    solves read: the first one for a field declared static, every one of the
    time_steps otherwise.
    """
    fields = {**{f"c_{k}": c for k, c in enumerate(coeffs.c)}, "V": coeffs.V}
    for name, c in fields.items():
        for m in range(1 if c.dt_evaluate is None else time_steps):
            t = (m + 0.5) * dt
            at_one = c.evaluate(1.0, t, grid)
            for eps in eps_grid:
                if not np.array_equal(c.evaluate(eps, t, grid), at_one):
                    raise InputError(
                        f"coherence needs eps-independent coefficients: {name} at "
                        f"(eps={eps:g}, t={t:g}) differs from its eps=1 field"
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
    association verdict (cauchy); otherwise no association was detected at
    this tolerance. The solves run on one thread per CPU
    (asymptotics._eps_map), bitwise as a loop and raising the error of the
    largest failing eps. Pairings are kept by the position of psi in tests,
    so a test function listed twice gets its own entry each time.
    """
    def pairings_at(eps):
        res = solve(problem, eps, snapshot_times=[snapshot_time], record_norms=False)
        u = res.snapshots[snapshot_time]
        return [pair(u, psi) for psi in tests]

    rows = _eps_map(pairings_at, eps_grid, _cpu_count())
    per_test = []
    for k, psi in enumerate(tests):
        vals = [row[k] for row in rows]
        deltas = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        # deltas at roundoff level are already converged; exclude them from
        # the shrink-factor statistic so noise ratios cannot mask a limit
        floor = 1e-10 * (1.0 + max(abs(v) for v in vals))
        live = [d for d in deltas if d > floor]
        ratios = [
            live[i] / live[i + 1] for i in range(len(live) - 1) if live[i + 1] > 0
        ]
        avg_ratio = float(np.mean(ratios)) if ratios else np.inf
        per_test.append(
            {
                "psi": psi.name,
                "pairings": vals,
                "avg_ratio": avg_ratio,
                "cauchy": avg_ratio >= 1.5,
            }
        )
    return {"tests": per_test}
