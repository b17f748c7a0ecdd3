"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test measures the relevant asymptotic quantity at desk scale, prints a
single [PASS]/[FAIL] line with the measured numbers (run with -s to see all
of them), and asserts the package's verdict on it plus a generous runtime
budget. The bounds live with the functions that decide them; only the
mollifier derivative slopes are judged here.
"""

import time

import numpy as np

from regnets import (
    CauchyProblem,
    CoefficientNet,
    Density,
    EpsGrid,
    EpsNet,
    GridFunction,
    Measure,
    MollifierSpec,
    SpatialGrid,
    association_check,
    bump,
    coherence_experiment,
    constant_coefficient,
    cross_validate_cn,
    cutoff_plateau_check,
    derivative,
    energy_audit,
    energy_moderateness,
    free_evolve,
    linear_bump,
    log_time_coefficient,
    loglog_fit,
    lower_bound_sweep,
    mass_check,
    mollified_jump_coefficient,
    mollify_measure,
    norm_linf,
    oscillatory_bump,
    scaled_mollifier,
    solve,
    sqrt_delta_data,
    sqrt_root,
    uniqueness_probe,
    vague_convergence_check,
)
from regnets.free import ProbabilityDensitySnapshot

DYADIC6 = EpsGrid([2.0 ** (-j) for j in range(1, 7)])


def _verdict(name, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{name}: {detail} (elapsed {elapsed:.1f}s, budget {budget}s)"


def _deriv(u, alpha):
    out = u
    for axis, order in enumerate(alpha):
        if order:
            out = derivative(out, axis=axis, order=order)
    return out


def test_mollifier_derivative_supnorm_slopes():
    # slope of ||d^alpha rho_eps||_inf vs 1/eps equals n + |alpha| within 0.1
    t0 = time.perf_counter()
    cases = {
        1: (MollifierSpec(dim=1, exponent=6.0), SpatialGrid(1, 4.0, 8192),
            DYADIC6, [(0,), (1,), (2,)]),
        2: (MollifierSpec(dim=2, exponent=8.0), SpatialGrid(2, 4.0, 1024),
            EpsGrid([2.0 ** (-0.5 * j) for j in range(1, 9)]),
            [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    }
    worst = 0.0
    for n, (spec, grid, eg, alphas) in cases.items():
        fields = [scaled_mollifier(spec, e, grid) for e in eg]
        for alpha in alphas:
            sups = [norm_linf(_deriv(f, alpha)) for f in fields]
            slope, _, _, _ = loglog_fit(np.asarray(eg.values), np.asarray(sups))
            worst = max(worst, abs(slope - (n + sum(alpha))))
    _verdict(
        "mollifier derivative sup-norm slopes",
        worst <= 0.1,
        f"max |slope - (n+|alpha|)| = {worst:.3f}",
        time.perf_counter() - t0,
        60,
    )


def test_interior_lower_bound_exponent():
    # inf over a compact ball of the mollified measure decays like eps^(m0-n)
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=2.0)
    grid = SpatialGrid(1, 4.0, 65536)
    eg = EpsGrid([2.0 ** (-j) for j in range(2, 10)])  # eps in [2^-9, 2^-2]
    reps = [
        lower_bound_sweep(mu, spec, eg, grid, K_radius=1.0)
        for mu in (Measure.dirac(0.0), Measure(atoms=[((-0.5,), 0.5), ((0.5,), 0.5)]))
    ]
    worst = max(abs(rep["slope"] - rep["target_exponent"]) for rep in reps)
    _verdict(
        "interior lower bound exponent",
        all(rep["passes"] for rep in reps),
        f"max |slope - {reps[0]['target_exponent']}| = {worst:.3f}",
        time.perf_counter() - t0,
        60,
    )


def test_square_root_association_with_measure():
    # <phi_eps^2, psi> -> mu(psi) monotonically (10% slack), final gap < 1e-2
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=4.0)
    grid = SpatialGrid(1, 8.0, 8192)
    measures = [
        Measure.dirac(0.0),
        Measure(atoms=[((-1.0,), 0.3), ((1.0,), 0.7)]),
        Measure(
            atoms=[((0.0,), 0.5)],
            density=Density("gaussian", {"sigma": 0.5}),
            density_weight=0.5,
        ),
    ]
    tests = [
        bump(grid, 0.0, 2.0),
        bump(grid, 0.5, 1.5),
        oscillatory_bump(grid, 0.0, 2.0, wavenumber=3.0),
        linear_bump(grid, 0.25, 2.0),
    ]
    worst_gap, all_ok = 0.0, True
    for mu in measures:
        net = EpsNet(
            DYADIC6,
            tuple(
                sqrt_root(mollify_measure(mu, spec, e, grid)).abs2()
                for e in DYADIC6
            ),
        )
        rep = association_check(net, mu, tests, tol=1e-2)
        all_ok = all_ok and rep["passes"]
        worst_gap = max(worst_gap, max(t["final_gap"] for t in rep["tests"]))
    _verdict(
        "square root associates with the measure",
        all_ok,
        f"3 measures x 4 tests, worst final gap {worst_gap:.2e}",
        time.perf_counter() - t0,
        120,
    )


def test_cutoff_plateau_bitwise_identity():
    # g_eps equals sqrt(h_eps) node-for-node inside |x| <= 2^j(eps)
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=2.0)
    grid = SpatialGrid(1, 128.0, 131072)
    mu = Measure.dirac(0.0)
    sqrt_net = EpsNet(DYADIC6, [sqrt_root(mollify_measure(mu, spec, e, grid)) for e in DYADIC6])
    _verdict(
        "cutoff plateau bitwise identity",
        cutoff_plateau_check(sqrt_net, mu, spec),
        f"node equality inside |x| <= 2^j for all {len(DYADIC6.values)} eps",
        time.perf_counter() - t0,
        60,
    )


def test_discrete_unitarity_rough_coefficient():
    # per-step L2 drift <= 1e-10 over 10^3 steps, rough positive c, real V
    t0 = time.perf_counter()
    grid = SpatialGrid(1, 8.0, 1024)
    coeffs = CoefficientNet(
        c=[mollified_jump_coefficient(0.5, 1.5, jump_at=0.3, width=0.05)],
        V=constant_coefficient(0.3),
        c0=0.5,
    )
    g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
    problem = CauchyProblem(
        grid=grid, coeffs=coeffs, initial=lambda e: g0, forcing=None,
        T=1.0, time_steps=1000,
    )
    res = solve(problem, eps=0.1)
    _verdict(
        "discrete unitarity with rough coefficient",
        res.conserves_l2,
        f"max per-step relative L2 drift {res.l2_drift:.2e} over 1000 steps",
        time.perf_counter() - t0,
        120,
    )


def test_solution_net_moderateness_log_type():
    # Dirac data + log-type time-dependent c: every energy audit holds and
    # C1 grows like log(1/eps), so the certified sup_t H1 bound is a power
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=4.0)
    grid = SpatialGrid(1, 4.0, 8192)
    coeffs = CoefficientNet(
        c=[log_time_coefficient(1.0, lambda x: 0.5 * np.exp(-(x**2)))],
        V=constant_coefficient(0.0),
        c0=1.0,
    )
    problem = CauchyProblem(
        grid=grid, coeffs=coeffs,
        initial=lambda e: scaled_mollifier(spec, e, grid),
        forcing=None, T=0.5, time_steps=100,
    )
    audits = [energy_audit(solve(problem, eps), problem, eps) for eps in DYADIC6]
    rep = energy_moderateness(DYADIC6, audits)
    _verdict(
        "solution net moderateness under log-type coefficients",
        rep["passes"],
        f"C1 {audits[0]['C1']:.3f} -> {audits[-1]['C1']:.3f}, log-type relative residual "
        f"{rep['log_type']['rel_residual']:.1e}, worst energy ratio "
        f"{max(a['ratio'] for a in audits):.3f}",
        time.perf_counter() - t0,
        600,
    )


def test_negligible_perturbation_stays_negligible():
    # eps^6 data perturbation yields difference decay >= 6 - 0.2 (exactly 6 by unitarity)
    t0 = time.perf_counter()
    grid = SpatialGrid(1, 4.0, 2048)
    coeffs = CoefficientNet(
        c=[constant_coefficient(1.0)], V=constant_coefficient(0.0), c0=1.0
    )
    g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
    w = GridFunction.from_profile(grid, lambda x: np.exp(-((x - 0.5) ** 2)))
    problem = CauchyProblem(
        grid=grid, coeffs=coeffs, initial=lambda e: g0, forcing=None,
        T=0.25, time_steps=50,
    )
    rep = uniqueness_probe(problem, DYADIC6, q=6, perturbation=w)
    _verdict(
        "negligible perturbations stay negligible",
        rep["passes"],
        f"q=6 difference decay exponent {rep['decay_exponent']:.2f}",
        time.perf_counter() - t0,
        300,
    )


def test_coherence_with_classical_solution():
    # smooth coefficients + mollified smooth data: H1 gap slope >= 0.9,
    # final gap < 1e-3 against a self-converged reference
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=4.0)
    grid = SpatialGrid(1, 8.0, 8192)
    coeffs = CoefficientNet(
        c=[constant_coefficient(1.0)], V=constant_coefficient(0.0), c0=1.0
    )
    g0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
    eg = EpsGrid([0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442, 0.03125, 0.0221, 0.015625])
    result = coherence_experiment(
        grid, coeffs, g0, None, spec, eg, T=0.1, time_steps=200,
        reference_tol=1e-3,
    )
    _verdict(
        "coherence with the classical solution",
        result.final_below_tol and result.first_order,
        f"H1 gap slope {result.slope:.2f}, final gap {result.final_diff:.2e}, "
        f"reference certificate gap {result.reference_gap:.2e}",
        time.perf_counter() - t0,
        600,
    )


def test_evolved_density_mass_law():
    # |u_eps(t)|^2 has total mass 1 +- 1e-8 on the full 8x4 (eps, t) sweep
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=6.0)
    grid = SpatialGrid(1, 256.0, 131072)
    eg = EpsGrid([2.0 ** (-1.5 - 0.5 * j) for j in range(8)])
    worst, ok = 0.0, True
    for eps in eg:
        u0 = sqrt_delta_data(spec, eps, grid)
        for t in (0.25, 0.5, 0.75, 1.0):
            snap = ProbabilityDensitySnapshot.from_state(free_evolve(u0, t), t, eps)
            rep = mass_check(snap)
            ok = ok and rep["passes"]
            worst = max(worst, rep["gap"])
    _verdict(
        "evolved density mass law",
        ok,
        f"8x4 sweep, worst |mass - 1| = {worst:.2e}",
        time.perf_counter() - t0,
        120,
    )


def test_vague_convergence_rate_1d():
    # pairings decay with slope >= 1/2 - 0.1 while total mass stays 1 and
    # the dispersive sup-norm bound holds at every sweep point
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=1, exponent=6.0)
    grid = SpatialGrid(1, 256.0, 131072)
    eg = EpsGrid([2.0 ** (-2.0 - 0.5 * j) for j in range(6)])
    tests = [bump(grid, 0.0, 1.0), oscillatory_bump(grid, 0.0, 1.0), linear_bump(grid, 0.25, 1.0)]
    ok, slopes = True, []
    for t in (0.5, 1.0):
        rep = vague_convergence_check(spec, eg, grid, t, tests)
        ok = ok and rep["passes"] and rep["dispersive_all_pass"]
        slopes += [p["decay_exponent"] for p in rep["tests"]]
    _verdict(
        "vague convergence rate (1d)",
        ok,
        f"min decay exponent {min(slopes):.2f} (target >= 0.4), mass and "
        f"dispersive bound hold at every point",
        time.perf_counter() - t0,
        300,
    )


def test_vague_convergence_rate_2d():
    t0 = time.perf_counter()
    spec = MollifierSpec(dim=2, exponent=8.0)
    grid = SpatialGrid(2, 24.0, 2048)
    eg = EpsGrid([2.0 ** (-0.75 - 0.25 * j) for j in range(6)])
    tests = [
        bump(grid, (0.0, 0.0), 1.0),
        oscillatory_bump(grid, (0.0, 0.0), 1.0),
        linear_bump(grid, (0.25, 0.0), 1.0),
    ]
    ok, slopes = True, []
    for t in (0.5, 1.0):
        rep = vague_convergence_check(spec, eg, grid, t, tests)
        ok = ok and rep["passes"] and rep["dispersive_all_pass"]
        slopes += [p["decay_exponent"] for p in rep["tests"]]
    _verdict(
        "vague convergence rate (2d)",
        ok,
        f"min decay exponent {min(slopes):.2f} (target >= 0.9), mass and "
        f"dispersive bound hold at every point",
        time.perf_counter() - t0,
        1200,
    )


def test_scheme_order_against_spectral_oracle():
    # CN error order under (dx, dt) halving >= 1.8 vs the spectral solution
    t0 = time.perf_counter()
    rep = cross_validate_cn(
        lambda x: np.exp(-(x**2)), SpatialGrid(1, 8.0, 256),
        T=0.25, time_steps=50, refinements=2,
    )
    _verdict(
        "scheme order against spectral oracle",
        rep["passes"],
        f"observed orders {[f'{o:.2f}' for o in rep['orders']]}",
        time.perf_counter() - t0,
        180,
    )
