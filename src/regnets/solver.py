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
from scipy.linalg import lapack

from .asymptotics import EpsGrid, EpsNet, check_log_type, loglog_fit
from .errors import GridError, PositivityError, RegnetsError, SolverError
from .grid import GridFunction, SpatialGrid, norm_h_minus1, norm_hk, norm_l2

LINEAR_RESIDUAL_TOL = 1e-10
# GMRES of the 2-D Krylov path: Krylov vectors per restart cycle, and cycles
# before it gives up. A 1 -> 4 jump in c at 256^2 needs about 30 per step.
_KRYLOV_RESTART = 40
_KRYLOV_CYCLES = 10


# ---------------------------------------------------------------------------
# coefficient generators


@dataclass(frozen=True)
class Coefficient:
    """Closed-form coefficient family c(eps, t, x) with its time dependence.

    evaluate(eps, t, grid) -> real array on the grid. dt_evaluate declares
    how c depends on t: None means c does not depend on t, so the solver
    builds its Crank-Nicolson operator and solver once per solve; otherwise
    it is the analytic d_t c with the same signature (used by the solver to
    rebuild the operator and its factorization or preconditioner every
    step, and by log-type checks and energy constants). It has no default,
    so every coefficient states which kind it is.
    """

    evaluate: Callable
    dt_evaluate: Callable | None


def constant_coefficient(value: float) -> Coefficient:
    return Coefficient(
        evaluate=lambda eps, t, grid: np.full(grid.shape, float(value)),
        dt_evaluate=None,
    )


def spatial_coefficient(profile) -> Coefficient:
    """Time- and eps-independent coefficient c(x)."""
    return Coefficient(
        evaluate=lambda eps, t, grid: np.asarray(profile(*grid.meshgrid()), dtype=float),
        dt_evaluate=None,
    )


def _linear_in_time(base: float, shape_profile, rate) -> Coefficient:
    """c_eps(x,t) = base + t * rate(eps) * s(x), so d_t c = rate(eps) * s(x)."""

    def s(grid):
        return np.asarray(shape_profile(*grid.meshgrid()), dtype=float)

    return Coefficient(
        evaluate=lambda eps, t, grid: base + t * rate(eps) * s(grid),
        dt_evaluate=lambda eps, t, grid: rate(eps) * s(grid),
    )


def log_time_coefficient(base: float, shape_profile) -> Coefficient:
    """c_eps(x,t) = base + t * log(1/eps) * s(x) with s >= 0 bounded.

    Time derivative sup norm grows exactly like log(1/eps).
    """
    return _linear_in_time(base, shape_profile, lambda eps: np.log(1.0 / eps))


def power_time_coefficient(base: float, shape_profile, power: float = 0.5) -> Coefficient:
    """c_eps(x,t) = base + t * eps^(-power) * s(x): violates the log-type law."""
    return _linear_in_time(base, shape_profile, lambda eps: eps ** (-power))


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

    return Coefficient(evaluate=ev, dt_evaluate=None)


def _dt_sup(coeffs: Sequence[Coefficient], eps: float, times, grid: SpatialGrid) -> float:
    """max over coeffs and times of ||d_t c_eps(t)||_inf.

    Coefficients declared independent of t contribute 0 without evaluation.
    """
    return max(
        (
            float(np.max(np.abs(c.dt_evaluate(eps, t, grid))))
            for c in coeffs
            if c.dt_evaluate is not None
            for t in times
        ),
        default=0.0,
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

    def check_log_type(self, eps_grid: EpsGrid, grid: SpatialGrid):
        """Log-type test of max over coefficients and t in {0, 1/2, 1} of ||d_t c_eps||_inf."""
        sups = [_dt_sup((*self.c, self.V), eps, (0.0, 0.5, 1.0), grid) for eps in eps_grid]
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
    c_fields = [ck.evaluate(eps, t, grid) for ck in coeffs.c]
    for k, vals in enumerate(c_fields):
        low = vals.min()
        if not low >= coeffs.c0 - 1e-12:  # also catches a NaN minimum
            raise PositivityError(
                f"c_{k} dips below c0={coeffs.c0} at (eps={eps}, t={t}): min={low}"
            )
    v_field = coeffs.V.evaluate(eps, t, grid)
    if not np.all(np.isfinite(v_field)):
        raise GridError(f"potential V is not finite at (eps={eps}, t={t})")
    return FluxFormOperator(grid, c_fields, v_field)


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
    backend: str  # "tridiagonal", "fft" (direct) or "krylov" (GMRES), picked by _cn_solver
    factorizations: int  # operator and solver (LU or preconditioner) builds
    iterations: int  # Krylov iterations over the march; 0 for direct backends


def _cn_matrices(op: FluxFormOperator, dt: float) -> sp.csc_matrix:
    """S = I - i(dt/2)H as a sparse matrix: the reference the solver is tested against."""
    H = op.as_sparse()
    return (sp.identity(H.shape[0], format="csc", dtype=complex) - 0.5j * dt * H).tocsc()


def _cn_solver(op: FluxFormOperator, dt: float):
    """(backend, step) for S = I - i(dt/2)H; step maps a grid-shaped rhs to
    (S^-1 rhs, Krylov iterations, Krylov info), both 0 for direct backends.

    The choice depends only on the dimension and the fields being inverted.
    1-D: S is cyclic tridiagonal. Moving the corner entry g to the diagonal
    gives S = T + g e e^T with e = e_0 + e_{N-1} and T tridiagonal of the
    same Cayley form, so banded LU of T plus Sherman-Morrison solves S in
    O(N) (Temperton 1975). Uniform c_k and V (2-D): S is the Fourier
    multiplier 1 - i(dt/2)(V - 4 sum_k c_k sin^2(xi_k dx/2)/dx^2).
    Otherwise (2-D): GMRES on the matrix-free S, left-preconditioned by that
    multiplier built from the means of c_half[k] and V. With c0 <= c_k <=
    c_max the two are spectrally equivalent, with a condition bound that
    depends only on c_max/c0 (Concus & Golub 1973). Each solve starts from
    the rhs and stops at a true relative residual of LINEAR_RESIDUAL_TOL / 100.
    """
    lam = 0.5j * dt
    dx2 = op.dx**2
    if op.grid.dim == 1:
        ch = op.c_half[0]
        off = -lam * ch / dx2  # S[i, i+1] = S[i+1, i]; off[-1] is the corner S[0, N-1]
        diag = 1.0 - lam * (op.v - (ch + np.roll(ch, 1)) / dx2)
        corner = off[-1]
        diag[[0, -1]] -= corner
        lu = lapack.zgttrf(off[:-1], diag, off[:-1])[:-1]  # T is never singular
        e = np.zeros(diag.shape, dtype=complex)
        e[[0, -1]] = 1.0
        z = lapack.zgttrs(*lu, e)[0]
        z *= corner / (1.0 + corner * (z[0] + z[-1]))

        def solve_tridiagonal(rhs):
            y = lapack.zgttrs(*lu, rhs)[0]
            return y - (y[0] + y[-1]) * z, 0, 0

        return "tridiagonal", solve_tridiagonal
    uniform = all(np.all(a == a.flat[0]) for a in (*op.c_half, op.v))
    level = (lambda a: a.flat[0]) if uniform else np.mean
    xi = np.ix_(*op.grid.wavenumbers())
    sin_sq = [level(ch) * np.sin(x * op.dx / 2.0) ** 2 for ch, x in zip(op.c_half, xi)]
    multiplier = 1.0 - lam * (level(op.v) - 4.0 * sum(sin_sq) / dx2)

    def precondition(rhs):
        return np.fft.ifftn(np.fft.fftn(rhs) / multiplier)

    if uniform:
        return "fft", lambda rhs: (precondition(rhs), 0, 0)

    shape, n = op.grid.shape, multiplier.size

    def on_vectors(grid_map):
        return spla.LinearOperator((n, n), lambda u: grid_map(u.reshape(shape)).ravel(), dtype=complex)

    S = on_vectors(lambda u: u - lam * op.apply(u))
    M = on_vectors(precondition)

    def solve_krylov(rhs):
        pr_norms = []
        b = rhs.ravel()
        x, info = spla.gmres(
            S, b, x0=b, rtol=LINEAR_RESIDUAL_TOL / 100, atol=0.0, restart=_KRYLOV_RESTART,
            maxiter=_KRYLOV_CYCLES, M=M, callback=pr_norms.append, callback_type="pr_norm",
        )
        return x.reshape(shape), len(pr_norms), info

    return "krylov", solve_krylov


def solve(
    problem: CauchyProblem,
    eps: float,
    snapshot_times: Sequence[float] = (),
    record_norms: bool = True,
) -> SolveResult:
    """Crank-Nicolson march with coefficients frozen at half steps.

    Each step solves S u_new = R u + dt f with S, R = I -/+ i(dt/2)H by the
    backend _cn_solver picks for the step's operator. R u and the relative
    residual ||S u_new - rhs|| / ||rhs|| are computed matrix-free; every
    step's residual is recorded and must meet 1e-10, else SolverError, as
    is a Krylov solve that stops short of its tolerance.
    """
    grid, dt, Nt = problem.grid, problem.dt, problem.time_steps
    lam = 0.5j * dt
    u = problem.initial(eps).values.astype(complex)
    times = [0.0]
    snapshots = {}
    residuals = []

    snap_set = sorted(set(float(t) for t in snapshot_times))
    for ts in snap_set:
        if not 0.0 <= ts <= problem.T:
            raise RegnetsError(f"snapshot time {ts} is outside [0, T] with T={problem.T}")

    def norms_row(t, vec):
        gf = GridFunction(grid, vec)
        return (t, norm_l2(gf), norm_hk(gf, 1), norm_hk(gf, 2))

    def take_snapshots(t, vec):
        # each requested time takes the first state within dt/2 of it
        for ts in snap_set:
            if abs(ts - t) <= dt / 2.0 + 1e-12 and ts not in snapshots:
                snapshots[ts] = GridFunction(grid, vec)

    history = [norms_row(0.0, u)] if record_norms else []
    take_snapshots(0.0, u)

    time_dep = any(c.dt_evaluate is not None for c in (*problem.coeffs.c, problem.coeffs.V))
    factorizations = iterations = 0
    for m in range(Nt):
        t_half = (m + 0.5) * dt
        if factorizations == 0 or time_dep:
            op = build_operator(problem.coeffs, eps, t_half, grid)
            backend, solve_step = _cn_solver(op, dt)
            factorizations += 1
            h_u = op.apply(u)
        rhs = u + lam * h_u
        if problem.forcing is not None:
            rhs = rhs + dt * problem.forcing_values(eps, t_half)
        new, its, info = solve_step(rhs)
        iterations += its
        if info:
            raise SolverError(
                f"GMRES did not converge in {its} iterations at step {m} (eps={eps})"
            )
        # H u_new serves the residual and, while H is unchanged, the next R u
        h_u = op.apply(new)
        rhs_norm = np.linalg.norm(rhs)
        resid = np.linalg.norm(new - lam * h_u - rhs) / (rhs_norm if rhs_norm else 1.0)
        residuals.append(float(resid))
        if not resid <= LINEAR_RESIDUAL_TOL:
            raise SolverError(
                f"linear solve residual {resid:.3e} above {LINEAR_RESIDUAL_TOL} "
                f"at step {m} (eps={eps})"
            )
        u = new
        t_new = (m + 1) * dt
        times.append(t_new)
        if record_norms:
            history.append(norms_row(t_new, u))
        take_snapshots(t_new, u)

    return SolveResult(
        eps=eps,
        times=np.asarray(times),
        norm_history=np.asarray(history) if record_norms else np.zeros((0, 4)),
        snapshots=snapshots,
        residuals=residuals,
        final=GridFunction(grid, u),
        backend=backend,
        factorizations=factorizations,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# audits


def energy_audit(result: SolveResult, problem: CauchyProblem, eps: float) -> dict:
    """Compare sup_t ||u||_H1^2 with the growth bound built from the data.

    The bound realizes the a priori estimate with all O-constants set to 1:
    rhs = C2 * exp(C1) * (||g||_H1^2 +
    int_0^T (||f||_L2^2 + ||d_t f||_{H-1}^2) dt), with
    C2 = T (c0 + ||V||_inf) and C1 = (T / c0) (max_k ||d_t c_k||_inf +
    ||d_t V||_inf). The sup norms run over the solve's own times
    result.times; coefficients declared independent of t need one
    evaluation and contribute 0 to C1. Because the absolute constants in
    the estimate are not specified, the report carries the ratio rather
    than asserting <= 1.
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

    c, V = problem.coeffs.c, problem.coeffs.V
    sup_dtc = _dt_sup(c, eps, result.times, grid)
    sup_dtv = _dt_sup((V,), eps, result.times, grid)
    v_times = (0.0,) if V.dt_evaluate is None else result.times
    sup_v = max(float(np.max(np.abs(V.evaluate(eps, t, grid)))) for t in v_times)
    C1 = (T / problem.coeffs.c0) * (sup_dtc + sup_dtv)
    C2 = T * (problem.coeffs.c0 + sup_v)
    rhs = max(C2, 1e-300) * np.exp(C1) * (g_h1sq + f_int)
    return {
        "eps": eps,
        "lhs_sup_h1_sq": lhs,
        "rhs_bound": float(rhs),
        "ratio": float(lhs / rhs) if rhs > 0 else np.inf,
        "C1": C1,
        "C2": C2,
    }


def solution_sup_h1_net(problem: CauchyProblem, eps_grid: EpsGrid) -> EpsNet:
    """sup over steps of ||u_eps(t)||_H1 per eps (moderateness experiments)."""
    sups = []
    for eps in eps_grid:
        res = solve(problem, eps)
        sups.append(float(np.max(res.norm_history[:, 2])))
    return EpsNet(eps_grid, sups)


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
        raise RegnetsError(f"q must be nonnegative, got {q}")
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
