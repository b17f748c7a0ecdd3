"""Crank-Nicolson solver for the regularized Schrodinger-type Cauchy problem.

Per eps the problem is

    d_t u = i sum_k d_k(c_k(x,t) d_k u) + i V(x,t) u + f(x,t),  u(0) = g,

with real coefficients c_k >= c0 > 0 and real V. Space is discretized in
flux form (forward difference, half-node coefficient, backward difference),
which keeps the operator real symmetric; time stepping is the implicit
midpoint (Crank-Nicolson) rule with coefficients frozen at half steps, a
Cayley transform that preserves the discrete L2 norm exactly when f = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import trapezoid

from .asymptotics import EpsGrid, EpsNet, check_log_type, loglog_fit
from .errors import PositivityError, SolverError
from .grid import GridFunction, SpatialGrid, norm_h_minus1, norm_hk, norm_l2

LINEAR_RESIDUAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# coefficient generators


@dataclass(frozen=True)
class Coefficient:
    """Closed-form coefficient family c(eps, t, x) with analytic d_t.

    evaluate(eps, t, grid) -> real array on the grid; dt_evaluate gives the
    time derivative (used by log-type checks and energy constants).
    """

    evaluate: Callable
    dt_evaluate: Callable
    label: str = ""


def constant_coefficient(value: float) -> Coefficient:
    return Coefficient(
        evaluate=lambda eps, t, grid: np.full(grid.shape, float(value)),
        dt_evaluate=lambda eps, t, grid: np.zeros(grid.shape),
        label=f"const({value})",
    )


def spatial_coefficient(profile, label: str = "spatial") -> Coefficient:
    """Time- and eps-independent coefficient c(x)."""
    return Coefficient(
        evaluate=lambda eps, t, grid: np.asarray(profile(*grid.meshgrid()), dtype=float),
        dt_evaluate=lambda eps, t, grid: np.zeros(grid.shape),
        label=label,
    )


def log_time_coefficient(base: float, shape_profile, label: str = "logtime") -> Coefficient:
    """c_eps(x,t) = base + t * log(1/eps) * s(x) with s >= 0 bounded.

    Time derivative sup norm grows exactly like log(1/eps).
    """

    def ev(eps, t, grid):
        s = np.asarray(shape_profile(*grid.meshgrid()), dtype=float)
        return base + t * np.log(1.0 / eps) * s

    def dt(eps, t, grid):
        s = np.asarray(shape_profile(*grid.meshgrid()), dtype=float)
        return np.log(1.0 / eps) * s

    return Coefficient(evaluate=ev, dt_evaluate=dt, label=label)


def power_time_coefficient(base: float, shape_profile, power: float = 0.5) -> Coefficient:
    """c_eps(x,t) = base + t * eps^(-power) * s(x): violates the log-type law."""

    def ev(eps, t, grid):
        s = np.asarray(shape_profile(*grid.meshgrid()), dtype=float)
        return base + t * eps ** (-power) * s

    def dt(eps, t, grid):
        s = np.asarray(shape_profile(*grid.meshgrid()), dtype=float)
        return eps ** (-power) * s

    return Coefficient(evaluate=ev, dt_evaluate=dt, label=f"powertime({power})")


def mollified_jump_coefficient(
    low: float, high: float, jump_at: float = 0.0, width: float = 0.05
) -> Coefficient:
    """Smoothed step: rough-but-positive time-independent coefficient.

    The regularized representative of a discontinuous wave speed; the solver
    only ever sees this smooth field, with the transition width standing in
    for the mollification scale.
    """

    def ev(eps, t, grid):
        x = grid.meshgrid()[0]
        return low + (high - low) * 0.5 * (1.0 + np.tanh((x - jump_at) / width))

    return Coefficient(
        evaluate=ev,
        dt_evaluate=lambda eps, t, grid: np.zeros(grid.shape),
        label="mollified_jump",
    )


@dataclass(frozen=True)
class CoefficientNet:
    """Principal coefficients (one per axis), potential, and lower bound c0."""

    c: tuple  # Coefficient per axis
    V: Coefficient
    c0: float

    def __init__(self, c: Sequence[Coefficient], V: Coefficient | None, c0: float):
        if c0 <= 0:
            raise PositivityError(f"c0 must be positive, got {c0}")
        object.__setattr__(self, "c", tuple(c))
        object.__setattr__(self, "V", V or constant_coefficient(0.0))
        object.__setattr__(self, "c0", float(c0))

    def check_positivity(self, eps: float, t: float, grid: SpatialGrid):
        for k, ck in enumerate(self.c):
            vals = ck.evaluate(eps, t, grid)
            if vals.min() < self.c0 - 1e-12:
                raise PositivityError(
                    f"c_{k} dips below c0={self.c0} at (eps={eps}, t={t}): "
                    f"min={vals.min()}"
                )

    def dt_sup_norms(self, eps_grid: EpsGrid, grid: SpatialGrid, t_samples):
        """max over coefficients, t-samples of ||d_t c_eps||_inf, per eps."""
        sups = []
        for eps in eps_grid:
            s = 0.0
            for coeff in (*self.c, self.V):
                for t in t_samples:
                    s = max(s, float(np.max(np.abs(coeff.dt_evaluate(eps, t, grid)))))
            sups.append(s)
        return sups

    def check_log_type(self, eps_grid: EpsGrid, grid: SpatialGrid, t_samples=(0.0, 0.5, 1.0)):
        sups = self.dt_sup_norms(eps_grid, grid, t_samples)
        return check_log_type(eps_grid, sups)


# ---------------------------------------------------------------------------
# discrete operator


class FluxFormOperator:
    """H = sum_k D-_k ( c_k at half nodes * D+_k ) / dx^2 + diag(V).

    Real symmetric under the discrete L2 pairing; constants are in the
    kernel of the divergence part.
    """

    def __init__(self, grid: SpatialGrid, c_fields: Sequence[np.ndarray], v_field: np.ndarray):
        self.grid = grid
        self.dx = grid.spacing
        # half-node coefficient along axis k: mean of node i and node i+1
        self.c_half = [
            0.5 * (ck + np.roll(ck, -1, axis=k)) for k, ck in enumerate(c_fields)
        ]
        self.v = np.asarray(v_field, dtype=float)

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.v * u
        for k, ch in enumerate(self.c_half):
            fwd = np.roll(u, -1, axis=k) - u  # D+ u at node i
            flux = ch * fwd
            out = out + (flux - np.roll(flux, 1, axis=k)) / self.dx**2
        return out

    def quadratic_form(self, u: np.ndarray) -> float:
        """a(u, u) = sum_k <c_k D+u, D+u> - <V u, u> sign convention:
        returns sum_k <c_half D+u/dx, D+u/dx> + <V u, u> (the sesquilinear
        energy form; note apply() realizes -div form + V, so
        <(-A_div + V) u, u> equals this exactly by summation by parts)."""
        vol = self.grid.cell_volume
        total = float(np.sum(self.v * np.abs(u) ** 2) * vol)
        for k, ch in enumerate(self.c_half):
            fwd = (np.roll(u, -1, axis=k) - u) / self.dx
            total += float(np.sum(ch * np.abs(fwd) ** 2) * vol)
        return total

    def as_sparse(self) -> sp.csc_matrix:
        g = self.grid
        N = g.points_per_axis**g.dim
        node = np.arange(N).reshape(g.shape)

        def axis_matrix(ch, axis):
            up = np.roll(node, -1, axis=axis).ravel()
            dn = np.roll(node, 1, axis=axis).ravel()
            rows = node.ravel()
            c_plus = ch.ravel()
            c_minus = np.roll(ch, 1, axis=axis).ravel()
            data = np.concatenate([c_plus, c_minus, -(c_plus + c_minus)])
            r = np.concatenate([rows, rows, rows])
            c = np.concatenate([up, dn, rows])
            return sp.coo_matrix((data, (r, c)), shape=(N, N))

        H = sp.diags(self.v.ravel()).tocoo()
        for k, ch in enumerate(self.c_half):
            H = H + axis_matrix(ch, k) / self.dx**2
        return H.tocsc()


def build_operator(
    coeffs: CoefficientNet, eps: float, t: float, grid: SpatialGrid
) -> FluxFormOperator:
    coeffs.check_positivity(eps, t, grid)
    c_fields = [ck.evaluate(eps, t, grid) for ck in coeffs.c]
    v_field = coeffs.V.evaluate(eps, t, grid)
    return FluxFormOperator(grid, c_fields, v_field)


def coercivity_check(
    coeffs: CoefficientNet,
    eps: float,
    t: float,
    grid: SpatialGrid,
    probes: Sequence[GridFunction],
) -> dict:
    """a(phi,phi) + lambda ||phi||^2 >= c0 ||phi||^2_{H1,discrete} per probe.

    lambda = c0 + ||V||_inf; the discrete H1 norm uses the same forward
    differences as the flux form, so the inequality is exact given the
    coefficient lower bound.
    """
    op = build_operator(coeffs, eps, t, grid)
    lam = coeffs.c0 + float(np.max(np.abs(op.v)))
    results = []
    vol = grid.cell_volume
    for phi in probes:
        u = phi.values
        a_val = op.quadratic_form(u)
        l2sq = float(np.sum(np.abs(u) ** 2) * vol)
        h1sq = l2sq
        for k in range(grid.dim):
            fwd = (np.roll(u, -1, axis=k) - u) / grid.spacing
            h1sq += float(np.sum(np.abs(fwd) ** 2) * vol)
        lhs = a_val + lam * l2sq
        rhs = coeffs.c0 * h1sq
        results.append(
            {"a": a_val, "lambda": lam, "lhs": lhs, "rhs": rhs, "passes": lhs >= rhs * (1 - 1e-12)}
        )
    return {"lambda": lam, "probes": results, "passes": all(r["passes"] for r in results)}


# ---------------------------------------------------------------------------
# Cauchy problem and Crank-Nicolson stepping


@dataclass(frozen=True)
class CauchyProblem:
    """Everything needed to solve one regularized Cauchy problem family."""

    grid: SpatialGrid
    coeffs: CoefficientNet
    initial: Callable  # eps -> GridFunction
    forcing: Callable | None  # (eps, t) -> ndarray, or None for f = 0
    T: float
    time_steps: int

    @property
    def dt(self) -> float:
        return self.T / self.time_steps

    def forcing_values(self, eps: float, t: float) -> np.ndarray:
        if self.forcing is None:
            return np.zeros(self.grid.shape, dtype=complex)
        return np.asarray(self.forcing(eps, t), dtype=complex)


@dataclass
class SolveResult:
    eps: float
    times: np.ndarray
    norm_history: np.ndarray  # rows (t, l2, h1, h2)
    snapshots: dict  # t -> GridFunction
    residuals: list
    final: GridFunction


def _cn_matrices(op: FluxFormOperator, dt: float):
    H = op.as_sparse()
    N = H.shape[0]
    I = sp.identity(N, format="csc", dtype=complex)
    lam = 0.5j * dt
    S = (I - lam * H).tocsc()
    R = (I + lam * H).tocsc()
    return S, R


def _coefficients_time_dependent(coeffs: CoefficientNet, eps: float, grid: SpatialGrid, T: float) -> bool:
    fields = (*coeffs.c, coeffs.V)
    ref = [c.evaluate(eps, 0.0, grid) for c in fields]
    for t in (0.37 * T, T):
        for c, a in zip(fields, ref):
            if not np.array_equal(c.evaluate(eps, t, grid), a):
                return True
    return False


def solve(
    problem: CauchyProblem,
    eps: float,
    snapshot_times: Sequence[float] = (),
    record_norms: bool = True,
) -> SolveResult:
    """Crank-Nicolson march with coefficients frozen at half steps.

    Linear systems are solved by sparse LU; the relative residual of every
    step is recorded and must meet 1e-10, else SolverError.
    """
    grid, dt, Nt = problem.grid, problem.dt, problem.time_steps
    u = problem.initial(eps).values.astype(complex).copy()
    times = [0.0]
    snapshots = {}
    residuals = []

    snap_set = sorted(set(float(t) for t in snapshot_times))

    def norms_row(t, vec):
        gf = GridFunction(grid, vec)
        return (t, norm_l2(gf), norm_hk(gf, 1), norm_hk(gf, 2))

    history = [norms_row(0.0, u)] if record_norms else []
    if snap_set and abs(snap_set[0]) < 1e-12:
        snapshots[0.0] = GridFunction(grid, u)

    time_dep = _coefficients_time_dependent(problem.coeffs, eps, grid, problem.T)
    lu = None
    S = R = None
    for m in range(Nt):
        t_half = (m + 0.5) * dt
        if lu is None or time_dep:
            op = build_operator(problem.coeffs, eps, t_half, grid)
            S, R = _cn_matrices(op, dt)
            lu = spla.splu(S)
        rhs = R @ u.ravel() + dt * problem.forcing_values(eps, t_half).ravel()
        new = lu.solve(rhs)
        rhs_norm = np.linalg.norm(rhs)
        resid = np.linalg.norm(S @ new - rhs) / (rhs_norm if rhs_norm else 1.0)
        residuals.append(float(resid))
        if resid > LINEAR_RESIDUAL_TOL:
            raise SolverError(
                f"linear solve residual {resid:.3e} above {LINEAR_RESIDUAL_TOL} "
                f"at step {m} (eps={eps})"
            )
        u = new.reshape(grid.shape)
        t_new = (m + 1) * dt
        times.append(t_new)
        if record_norms:
            history.append(norms_row(t_new, u))
        for ts in snap_set:
            if abs(ts - t_new) <= dt / 2.0 + 1e-12 and ts not in snapshots:
                snapshots[ts] = GridFunction(grid, u)

    return SolveResult(
        eps=eps,
        times=np.asarray(times),
        norm_history=np.asarray(history) if record_norms else np.zeros((0, 4)),
        snapshots=snapshots,
        residuals=residuals,
        final=GridFunction(grid, u),
    )


# ---------------------------------------------------------------------------
# audits


def energy_audit(
    result: SolveResult,
    problem: CauchyProblem,
    eps: float,
    kappa: float = 1.0,
    t_samples=(0.0, 0.5, 1.0),
) -> dict:
    """Compare sup_t ||u||_H1^2 with the growth bound built from the data.

    The bound realizes the a priori estimate with all O-constants set to
    kappa (default 1): rhs = kappa * C2 * exp(C1) * (||g||_H1^2 +
    int_0^T (||f||_L2^2 + ||d_t f||_{H-1}^2) dt), with
    C2 = T (c0 + ||V||_inf) and C1 = (T / c0) (max_k ||d_t c_k||_inf +
    ||d_t V||_inf). Because the absolute constants in the estimate are not
    specified, the report carries the ratio rather than asserting <= 1.
    """
    grid, T = problem.grid, problem.T
    lhs = float(np.max(result.norm_history[:, 2]) ** 2)
    g = problem.initial(eps)
    g_h1sq = norm_hk(g, 1) ** 2

    # forcing integrals by trapezoid over the solver's own time grid
    f_int = 0.0
    if problem.forcing is not None:
        ts = result.times
        f_l2 = []
        fdot_hm1 = []
        dt = problem.dt
        for t in ts:
            fv = GridFunction(grid, problem.forcing_values(eps, t))
            f_l2.append(norm_l2(fv) ** 2)
            fp = problem.forcing_values(eps, min(t + dt, T))
            fm = problem.forcing_values(eps, max(t - dt, 0.0))
            span = min(t + dt, T) - max(t - dt, 0.0)
            dfi = GridFunction(grid, (fp - fm) / span)
            fdot_hm1.append(norm_h_minus1(dfi) ** 2)
        f_int = float(trapezoid(np.asarray(f_l2) + np.asarray(fdot_hm1), ts))

    sup_dtc = 0.0
    for coeff in problem.coeffs.c:
        for t in t_samples:
            sup_dtc = max(sup_dtc, float(np.max(np.abs(coeff.dt_evaluate(eps, t, grid)))))
    sup_dtv = max(
        float(np.max(np.abs(problem.coeffs.V.dt_evaluate(eps, t, grid))))
        for t in t_samples
    )
    sup_v = max(
        float(np.max(np.abs(problem.coeffs.V.evaluate(eps, t, grid))))
        for t in t_samples
    )
    C1 = (T / problem.coeffs.c0) * (sup_dtc + sup_dtv)
    C2 = T * (problem.coeffs.c0 + sup_v)
    rhs = kappa * max(C2, 1e-300) * np.exp(C1) * (g_h1sq + f_int)
    return {
        "eps": eps,
        "lhs_sup_h1_sq": lhs,
        "rhs_bound": float(rhs),
        "ratio": float(lhs / rhs) if rhs > 0 else np.inf,
        "C1": C1,
        "C2": C2,
        "kappa": kappa,
        "note": "O-constants in the growth bound are unspecified; ratio reported, not asserted",
    }


def solution_sup_h1_net(problem: CauchyProblem, eps_grid: EpsGrid) -> EpsNet:
    """sup over steps of ||u_eps(t)||_H1 per eps (moderateness experiments)."""
    sups = []
    for eps in eps_grid:
        res = solve(problem, eps)
        sups.append(float(np.max(res.norm_history[:, 2])))
    return EpsNet(eps_grid, sups, label="sup_t H1 of solution net")


def uniqueness_probe(
    problem: CauchyProblem,
    eps_grid: EpsGrid,
    q: int,
    perturbation: GridFunction,
) -> dict:
    """Negligible-in / negligible-out: perturb the data by eps^q * w.

    The scheme is linear, so the perturbed solution minus the unperturbed
    one solves the difference problem: data eps^q * w, zero forcing. Per eps
    that problem is solved directly (no subtraction of two O(1) solutions,
    so no roundoff floor) and its space-time L2 norm
    sqrt(dt * sum_m ||v_m||_L2^2) over all Nt + 1 states is recorded. Passes
    iff the fitted decay exponent is at least q - N, with N the measured
    growth order of the unperturbed solution.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    difference = replace(problem, initial=lambda e: e**q * perturbation, forcing=None)
    diffs = []
    sups = []
    for eps in eps_grid:
        base = solve(problem, eps)
        l2 = solve(difference, eps).norm_history[:, 1]
        diffs.append(float(np.sqrt(problem.dt * np.sum(l2**2))))
        sups.append(float(np.max(base.norm_history[:, 2])))
    eps_arr = np.asarray(eps_grid.values)
    slope, _, rms, npts = loglog_fit(eps_arr, np.asarray(diffs))
    growth_slope, _, _, _ = loglog_fit(eps_arr, np.asarray(sups))
    decay = -slope if npts >= 4 else np.inf  # exponent of eps
    N = max(growth_slope, 0.0)
    return {
        "q": q,
        "diff_norms": diffs,
        "decay_exponent": float(decay),
        "growth_order": float(N),
        "fit_rms": rms,
        "passes": bool(decay >= q - N - 0.2),
    }
