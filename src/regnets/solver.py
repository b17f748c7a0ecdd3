"""Crank-Nicolson solver for the regularized Schrodinger-type Cauchy problem.

Per eps the problem is

    d_t u = i sum_k d_k(c_k(x,t) d_k u) + i V(x,t) u + f(x,t),  u(0) = g,

with real coefficients c_k >= c0 > 0 and real V. Space is discretized in
flux form (forward difference, half-node coefficient, backward difference),
which keeps the operator real symmetric; time stepping is the implicit
midpoint (Crank-Nicolson) rule with coefficients frozen at half steps, a
Cayley transform that preserves the discrete L2 norm exactly when f = 0.
The same transform preserves the energy K ||u||^2 - <H u, u>, so the
paper's energy estimate holds step by step on the grid (energy_audit), and
the moderateness of the solution net follows from it (energy_moderateness).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

from .asymptotics import EpsGrid, EpsNet, check_log_type, loglog_fit
from .errors import InputError, RegnetsError
from .grid import GridFunction, SpatialGrid, _l2_norm, _parseval_norm, _sobolev_weights

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
    s = spatial_coefficient(shape_profile).evaluate
    return Coefficient(
        evaluate=lambda eps, t, grid: base + t * rate(eps) * s(eps, t, grid),
        dt_evaluate=lambda eps, t, grid: rate(eps) * s(eps, t, grid),
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
    return spatial_coefficient(
        lambda x, *_: low + (high - low) * 0.5 * (1.0 + np.tanh((x - jump_at) / width))
    )


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
        if not c0 > 0:
            raise InputError(f"c0 must be positive, got {c0}")
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
        """H u for a grid-shaped u, real or complex.

        Bitwise equal to the roll form out = v * u, then per axis
        flux = c_half * (roll(u, -1) - u), out = out + (flux - roll(flux, 1)) / dx**2:
        the same operations in the same order (c_half first in the product,
        since with FMA complex products depend on operand order), with the
        periodic wrap taken by slices into two buffers updated in place.
        For complex u the division by dx**2 is a product of the float view
        with 1 / dx**2: numpy divides a complex number by a real d by Smith's
        rule, whose zero imaginary part reduces it to each component times
        1 / d, so finite values keep their bits (an exact zero may change
        sign) without complex arithmetic.
        """
        out = self.v * u
        fwd, flux_diff = np.empty_like(out), np.empty_like(out)
        inv_dx2 = 1.0 / self.dx**2
        for k, ch in enumerate(self.c_half):
            uk, fk, dk = u.swapaxes(0, k), fwd.swapaxes(0, k), flux_diff.swapaxes(0, k)
            np.subtract(uk[1:], uk[:-1], out=fk[:-1])  # D+ u at node i
            np.subtract(uk[:1], uk[-1:], out=fk[-1:])
            np.multiply(ch, fwd, out=fwd)  # the flux
            np.subtract(fk[1:], fk[:-1], out=dk[1:])
            np.subtract(fk[:1], fk[-1:], out=dk[:1])
            if flux_diff.dtype.kind == "c":
                np.multiply(flux_diff.view(float), inv_dx2, out=flux_diff.view(float))
            else:
                np.divide(flux_diff, self.dx**2, out=flux_diff)
            np.add(out, flux_diff, out=out)
        return out

    def as_sparse(self):
        # a test reference, like _cn_matrices: no solve loads scipy.sparse
        import scipy.sparse as sp

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
            raise InputError(
                f"c_{k} dips below c0={coeffs.c0} at (eps={eps}, t={t}): min={low}"
            )
    v_field = coeffs.V.evaluate(eps, t, grid)
    if not np.all(np.isfinite(v_field)):
        raise InputError(f"potential V is not finite at (eps={eps}, t={t})")
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

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise InputError(f"T must be finite and > 0, got {self.T}")
        if not (isinstance(self.time_steps, (int, np.integer)) and self.time_steps >= 1):
            raise InputError(f"time_steps must be an integer >= 1, got {self.time_steps}")

    @property
    def dt(self) -> float:
        return self.T / self.time_steps


@dataclass
class SolveResult:
    norm_history: np.ndarray  # rows (t, l2, h1, h2)
    snapshots: dict  # t -> GridFunction
    residuals: list
    final: GridFunction
    backend: str  # "tridiagonal", "fft" (direct) or "krylov" (GMRES), picked by _cn_solver
    factorizations: int  # operator and solver (LU or preconditioner) builds
    iterations: int  # Krylov iterations over the march; 0 for direct backends
    h_pairings: np.ndarray  # <H u, u> per norm row, H the operator of the step that made u (H_0 for g)
    forcing_pairings: np.ndarray  # rows (||f_j||^2, <H_j f_j, f_j>) per step of a forced solve

    @property
    def l2_drift(self) -> float:
        """Largest per-step change of ||u||_L2 relative to ||g||_L2; 0 for zero data."""
        l2 = self.norm_history[:, 1]
        if len(l2) == 0:
            raise InputError("the L2 drift needs a solve with record_norms=True")
        step = float(np.max(np.abs(np.diff(l2))))
        return step / l2[0] if l2[0] else (np.inf if step else 0.0)

    @property
    def conserves_l2(self) -> bool:
        """Discrete unitarity: the per-step relative L2 drift is at most 1e-10."""
        return self.l2_drift <= 1e-10


def _cn_matrices(op: FluxFormOperator, dt: float):
    """S = I - i(dt/2)H as a sparse matrix: the reference the solver is tested against."""
    # a test reference, so no solve loads scipy.sparse
    import scipy.sparse as sp

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

    # only the 2-D non-uniform backend needs GMRES; the others skip this import
    import scipy.sparse.linalg as spla

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


def _norm(x: np.ndarray):
    """np.linalg.norm(x) of a complex array by its own formula, without its dispatch."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im))


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
    step's residual is recorded and must meet 1e-10, else RegnetsError, as
    is a Krylov solve that stops short of its tolerance. Norm rows also
    record the inner products energy_audit reads (SolveResult fields).
    """
    grid, dt, Nt = problem.grid, problem.dt, problem.time_steps
    lam = 0.5j * dt
    u = problem.initial(eps).values.astype(complex)
    snapshots = {}
    residuals = []

    snap_set = sorted(set(float(t) for t in snapshot_times))
    for ts in snap_set:
        if not 0.0 <= ts <= problem.T:
            raise InputError(f"snapshot time {ts} is outside [0, T] with T={problem.T}")

    weights = [_sobolev_weights(grid, k) for k in (1, 2)]

    def norms_row(t, vec):
        # vec is finite: g was checked as a GridFunction, and a NaN or Inf
        # state fails its step's residual audit before its row is taken
        power = np.abs(np.fft.fftn(vec)) ** 2
        h1, h2 = (_parseval_norm(grid, w, power) for w in weights)
        return (t, _l2_norm(grid, vec), h1, h2)

    def take_snapshots(t, vec):
        # each requested time takes the first state within dt/2 of it
        for ts in snap_set:
            if abs(ts - t) <= dt / 2.0 + 1e-12 and ts not in snapshots:
                snapshots[ts] = GridFunction(grid, vec)

    history = [norms_row(0.0, u)] if record_norms else []
    # real part of <a, b>: <a, a> and <a, H a> are real, H being real symmetric
    pairing = lambda a, b: grid.cell_volume * np.vdot(a, b).real
    h_pairings, forcing_pairings = [], []
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
            lam_h_u = lam * h_u
        if record_norms and m == 0:
            h_pairings.append(pairing(u, h_u))
        rhs = u + lam_h_u
        if problem.forcing is not None:
            f = np.asarray(problem.forcing(eps, t_half), dtype=complex)
            rhs = rhs + dt * f
            if record_norms:
                forcing_pairings.append((pairing(f, f), pairing(f, op.apply(f))))
        new, its, info = solve_step(rhs)
        iterations += its
        if info:
            raise RegnetsError(
                f"GMRES did not converge in {its} iterations at step {m} (eps={eps})"
            )
        # lam H u_new serves the residual and, while H is unchanged, the next R u
        h_u = op.apply(new)
        lam_h_u = lam * h_u
        rhs_norm = _norm(rhs)
        resid = _norm(new - lam_h_u - rhs) / (rhs_norm if rhs_norm else 1.0)
        residuals.append(float(resid))
        if not resid <= LINEAR_RESIDUAL_TOL:
            raise RegnetsError(
                f"linear solve residual {resid:.3e} above {LINEAR_RESIDUAL_TOL} "
                f"at step {m} (eps={eps})"
            )
        u = new
        t_new = (m + 1) * dt
        if record_norms:
            history.append(norms_row(t_new, u))
            h_pairings.append(pairing(u, h_u))
        take_snapshots(t_new, u)

    return SolveResult(
        norm_history=np.asarray(history) if record_norms else np.zeros((0, 4)),
        snapshots=snapshots,
        residuals=residuals,
        final=GridFunction(grid, u),
        backend=backend,
        factorizations=factorizations,
        iterations=iterations,
        h_pairings=np.asarray(h_pairings),
        forcing_pairings=np.reshape(forcing_pairings, (-1, 2)),
    )


# ---------------------------------------------------------------------------
# audits


def energy_audit(result: SolveResult, problem: CauchyProblem, eps: float) -> dict:
    """The paper's energy estimate, checked at every step of the solve.

    With K = c0 + sup|V|, Q_j(u) = K ||u||^2 - <H_j u, u> = sum_k <c_k D+_k u,
    D+_k u> + <(K - V) u, u> >= c0 (||D+ u||^2 + ||u||^2) is a squared norm.
    Step j maps u to C u + dt S^-1 f_j, where C = S^-1 R is the Cayley
    transform of H_j: unitary and commuting with H_j, so Q_j(C u) = Q_j(u),
    and S^-1 commutes with H_j with norm <= 1. From one step to the next,
    |Q_{j+1}(u) - Q_j(u)| <= (dt C1 / T) Q_j(u), C1 = (T / c0) (sup|d_t c| +
    sup|d_t V|). So e_m = Q(u_m), taken with the operator of the step that
    produced u_m (H_0 for g), obeys
    sqrt(e_{m+1}) <= sqrt(1 + dt C1 / T) sqrt(e_m) + dt sqrt(Q_m(f_m)), and
    max_m e_m <= (sqrt(e_0) + sum_m dt sqrt(Q_m(f_m)))^2 exp(C1) follows.

    passes iff no step exceeds that rule by more than 1e-10 of its right
    side; ratio is max_m e_m over the bound. The sups run over the solve's
    half-step times. Needs a solve with norm rows, else InputError.
    """
    if len(result.h_pairings) == 0:
        raise InputError("the energy audit needs a solve with record_norms=True")
    grid, T, dt, c0 = problem.grid, problem.T, problem.dt, problem.coeffs.c0
    c, V = problem.coeffs.c, problem.coeffs.V
    half = (np.arange(problem.time_steps) + 0.5) * dt
    v_times = half[:1] if V.dt_evaluate is None else half
    K = c0 + max(float(np.max(np.abs(V.evaluate(eps, t, grid)))) for t in v_times)
    C1 = (T / c0) * (_dt_sup(c, eps, half, grid) + _dt_sup((V,), eps, half, grid))

    root = np.sqrt(K * result.norm_history[:, 1] ** 2 - result.h_pairings)
    f_sq, h_f = result.forcing_pairings.T
    push = dt * np.sqrt(K * f_sq - h_f) if len(f_sq) else np.zeros(len(root) - 1)
    rule = np.sqrt(1.0 + dt * C1 / T) * root[:-1] + push
    excess = np.max((root[1:] - rule) / np.where(rule > 0, rule, 1.0))
    bound = (root[0] + np.sum(push)) ** 2 * np.exp(C1)
    ratio = float(np.max(root) ** 2 / bound) if bound > 0 else 0.0
    return {"ratio": ratio, "C1": C1, "passes": bool(excess <= 1e-10)}


def energy_moderateness(eps_grid: EpsGrid, audits: Sequence[dict]) -> dict:
    """Moderateness of the solution net, read from its energy audits (one per eps).

    A passing audit certifies at every step m, with c0 the lower bound of c,
    ||u_m||_H1^2 <= (pi^2/4) e_m / c0
                 <= (pi^2/4) (sqrt(e_0) + sum_m dt sqrt(Q_m(f_m)))^2 exp(C1) / c0,
    because xi^2 <= (pi^2/4) 4 sin^2(xi dx/2) / dx^2 on the grid's wavenumbers
    (|xi dx/2| <= pi/2) and Q >= c0 (||D+ u||^2 + ||u||^2). If C1(eps) =
    A + B log(1/eps), then exp(C1) = e^A eps^-B is a power of 1/eps (the
    Colombeau embedding of log-type coefficients, Oberguggenberger 1992),
    so the net is moderate whenever its data are.

    Data moderateness is a hypothesis, declared per data kind, not fitted.
    For rho_eps data, sqrt(e_0) ~ eps^-(n/2+1) sqrt(c(0)) ||grad rho||_L2 as
    eps -> 0, c(0) the coefficient at the origin. For rho_eps * b data and a
    constant V, sqrt(e_0) <= m_eps sqrt(c_max / c_min) sqrt(Q_0(b)), m_eps
    the sampled mass of rho_eps: convolution with rho_eps >= 0 commutes with
    D+ and has L2 norm <= m_eps, so e_0 stays bounded.

    passes iff every audit passes and check_log_type accepts the C1 net;
    log_type is that report.
    """
    log_type = check_log_type(eps_grid, [a["C1"] for a in audits])
    passes = all(a["passes"] for a in audits) and log_type["passes"]
    return {"passes": passes, "log_type": log_type}


def solution_sup_h1_net(problem: CauchyProblem, eps_grid: EpsGrid) -> EpsNet:
    """sup over steps of ||u_eps(t)||_H1 per eps."""
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
    only that problem is solved (no subtraction of two O(1) solutions, so no
    roundoff floor) and its space-time L2 norm sqrt(dt * sum_m ||v_m||_L2^2)
    is recorded. The step is L2-unitary, so that net is eps^q times a constant
    (growth order 0): passes iff the fitted decay exponent is at least q - 0.2,
    which fails only if the solver stops being linear or unitary in the data
    or fewer than four norms are nonzero (w = 0, eps^q w underflowing).
    Negligible changes of the coefficients are ROADMAP item 11.
    """
    if q < 0:
        raise InputError(f"q must be nonnegative, got {q}")
    difference = replace(problem, initial=lambda e: e**q * perturbation, forcing=None)
    diffs = []
    for eps in eps_grid:
        l2 = solve(difference, eps).norm_history[:, 1]
        diffs.append(float(np.sqrt(problem.dt * np.sum(l2**2))))
    slope, _, rms, _ = loglog_fit(np.asarray(eps_grid.values), np.asarray(diffs))
    decay = -slope  # exponent of eps
    return {
        "decay_exponent": float(decay),
        "fit_rms": rms,
        "passes": bool(decay >= q - 0.2),
    }
