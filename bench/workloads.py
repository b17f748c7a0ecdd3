"""The benchmark's three workloads and their verdict gates.

Each workload has a `setup(rng, size, workdir)` that builds every input
(grids, specs, test-function catalogs, measures, coefficient nets, CLI
config files) from the seeded generator, and a `verdicts(inputs)` list of
named checks. A check returns (ok, detail); `detail` prints the measured
slopes and gaps next to the verdict. Thresholds are those of
tests/test_acceptance.py, the CLI's own checks.csv rows, the 1e-10
per-step residual audit and the per-step L2 drift of the CN scheme.

Workloads call regnets through the package namespace at call time, so the
tracer's replacements are seen.

Seeded draws stay inside ranges where every verdict held on seeds 0-15 and
101-110.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

import regnets as rn
import regnets.cli

DYADIC6 = [2.0 ** (-j) for j in range(1, 7)]
CLI_WORKERS = 2  # `regnets run schrodinger_sweep --workers`

# Verdicts that read wrong at the commit that introduced the benchmark.
# They are counted in `failed`; `correct` ignores their outcome.
KNOWN_DEFECTS = {
    # subtracts two O(1) solutions, so the difference hits the roundoff floor
    "cn_static/uniqueness_q10",
    # energy_audit calls np.trapz, which numpy 2.4 removed
    "cn_static/energy_audit_forced",
}


def _write_config(path, entries):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


def _floats(values):
    return ", ".join(repr(float(v)) for v in values)


def _cli_verdicts(workdir, config, extra_args=()):
    """Run `regnets run` in-process; one verdict per checks.csv row plus the exit code."""
    results = {}

    def run_cli():
        results.clear()
        out = workdir / f"out_{config.stem}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = rn.cli.main(["run", str(config), "--out", str(out), *extra_args])
        detail = f"exit code {code} {err.getvalue().strip()}".strip()
        if not (out / "checks.csv").is_file():
            return False, detail
        with open(out / "checks.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        results["rows"] = {name: (passed == "1", note) for name, passed, note in rows}
        return code == 0, detail

    def row(name):
        def check():
            if "rows" not in results:
                raise RuntimeError("regnets run produced no checks.csv")
            return results["rows"][name]
        return check

    return run_cli, row


def _max_step_drift(result):
    l2 = result.norm_history[:, 1]
    return float(np.max(np.abs(np.diff(l2)))) / l2[0]


# ---------------------------------------------------------------------------
# spectral_nets: FFTs, GridFunction copies, mollifier sampling and pairings


SPECTRAL_SIZES = {
    "full": dict(m2=1024, m1=131072, L1=256.0, slope_m1=8192, slope_m2=512,
                 assoc_m=8192, lower_m=65536, plateau_m=131072, cli_m=32768),
    "tiny": dict(m2=64, m1=4096, L1=8.0, slope_m1=1024, slope_m2=64,
                 assoc_m=1024, lower_m=2048, plateau_m=8192, cli_m=1024),
}


def spectral_setup(rng, size, workdir):
    p = SPECTRAL_SIZES[size]
    x = {}
    x["spec2"] = rn.MollifierSpec(dim=2, exponent=8.0)
    x["grid2"] = rn.SpatialGrid(2, 16.0, p["m2"])
    x["eps2"] = rn.EpsGrid([2.0 ** (-0.75 - 0.25 * j) for j in range(6)])
    c = [tuple(rng.uniform(-0.5, 0.5) for _ in range(2)) for _ in range(3)]
    g2 = x["grid2"]
    x["tests2"] = [rn.bump(g2, c[0], 1.0), rn.oscillatory_bump(g2, c[1], 1.0), rn.linear_bump(g2, c[2], 1.0)]

    x["spec1"] = rn.MollifierSpec(dim=1, exponent=6.0)
    x["grid1"] = rn.SpatialGrid(1, p["L1"], p["m1"])
    x["eps1"] = rn.EpsGrid([2.0 ** (-2.0 - 0.5 * j) for j in range(6)])
    x["eps_mass"] = rn.EpsGrid([2.0 ** (-1.5 - 0.5 * j) for j in range(8)])
    c = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    g1 = x["grid1"]
    x["tests1"] = [rn.bump(g1, c[0], 1.0), rn.oscillatory_bump(g1, c[1], 1.0), rn.linear_bump(g1, c[2], 1.0)]

    # square roots of a measure with one atom plus a Gaussian density
    wa = rng.uniform(0.4, 0.6)
    x["assoc_measure"] = rn.Measure(
        atoms=[((rng.uniform(-0.25, 0.25),), wa)],
        density=rn.Density("gaussian", {"sigma": 0.5}),
        density_weight=1.0 - wa,
    )
    x["assoc_spec"] = rn.MollifierSpec(dim=1, exponent=4.0)
    ga = rn.SpatialGrid(1, 8.0, p["assoc_m"])
    x["assoc_grid"] = ga
    x["assoc_eps"] = rn.EpsGrid(DYADIC6)
    c = [rng.uniform(-0.5, 0.5) for _ in range(4)]
    x["assoc_tests"] = [
        rn.bump(ga, c[0], 2.0), rn.bump(ga, c[1], 1.5),
        rn.oscillatory_bump(ga, c[2], 2.0, wavenumber=3.0), rn.linear_bump(ga, c[3], 2.0),
    ]

    # interior lower bound and cutoff plateau: atoms only
    b1, b2 = rng.uniform(-0.75, -0.25), rng.uniform(0.25, 0.75)
    wb1 = rng.uniform(0.3, 0.7)
    x["atoms_measure"] = rn.Measure(atoms=[((b1,), wb1), ((b2,), 1.0 - wb1)])
    dirac_at = rng.uniform(-0.3, 0.3)
    x["dirac_measure"] = rn.Measure.dirac(dirac_at)
    x["lower_spec"] = rn.MollifierSpec(dim=1, exponent=2.0)
    x["lower_grid"] = rn.SpatialGrid(1, 4.0, p["lower_m"])
    x["lower_eps"] = rn.EpsGrid([2.0 ** (-j) for j in range(2, 10)])
    x["plateau_grid"] = rn.SpatialGrid(1, 128.0, p["plateau_m"])
    x["plateau_eps"] = rn.EpsGrid(DYADIC6)

    # mollifier derivative sup-norm slopes
    x["slope_cases"] = [
        (rn.MollifierSpec(dim=1, exponent=6.0), rn.SpatialGrid(1, 4.0, p["slope_m1"]),
         rn.EpsGrid(DYADIC6), [(0,), (1,), (2,)]),
        (rn.MollifierSpec(dim=2, exponent=8.0), rn.SpatialGrid(2, 2.0, p["slope_m2"]),
         rn.EpsGrid([2.0 ** (-0.5 * j) for j in range(1, 9)]),
         [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    ]

    x["free_config"] = _write_config(workdir / "free_example.txt", {
        "experiment": "free_example", "dim": 1, "half_width": 128.0,
        "points_per_axis": p["cli_m"], "mollifier_exponent": 6.0,
        "eps_grid": _floats(2.0 ** (-1.0 - 0.5 * j) for j in range(6)),
        "times": "0.5, 1.0",
    })
    x["sqrt_config"] = _write_config(workdir / "sqrt_measure.txt", {
        "experiment": "sqrt_measure", "dim": 1, "half_width": 128.0,
        "points_per_axis": p["plateau_m"], "mollifier_exponent": 3.0,
        "eps_grid": _floats(DYADIC6), "atoms": f"{dirac_at!r}:1.0",
    })
    x["workdir"] = workdir
    return x


def _vague(x, grid_key, spec_key, eps_key, tests_key, t):
    def check():
        rep = rn.vague_convergence_check(x[spec_key], x[eps_key], x[grid_key], t, x[tests_key])
        n = x[grid_key].dim
        slopes = [p["decay_exponent"] for p in rep["tests"]]
        worst_ratio = max(d["ratio"] for d in rep["dispersive"])
        worst_mass = max(abs(m - 1.0) for m in rep["masses"])
        ok = rep["passes"] and rep["dispersive_all_pass"]
        return ok, (f"decay exponents {', '.join(f'{s:.3f}' for s in slopes)} (>= {n / 2 - 0.1:.1f}), "
                    f"worst dispersive ratio {worst_ratio:.4f} (<= 1), worst |mass-1| {worst_mass:.1e} (<= 1e-8)")
    return check


def spectral_verdicts(x):
    checks = []
    for t in (0.5, 0.75):
        checks.append((f"vague_2d_t{t}", _vague(x, "grid2", "spec2", "eps2", "tests2", t)))
    for t in (0.5, 1.0):
        checks.append((f"vague_1d_t{t}", _vague(x, "grid1", "spec1", "eps1", "tests1", t)))

    def mass_law():
        worst = 0.0
        ok = True
        for eps in x["eps_mass"]:
            u0 = rn.sqrt_delta_data(x["spec1"], eps, x["grid1"])
            for t in (0.25, 0.5, 0.75, 1.0):
                snap = rn.ProbabilityDensitySnapshot.from_state(rn.free_evolve(u0, t), t, eps)
                rep = rn.mass_check(snap, tol=1e-8)
                ok = ok and rep["passes"]
                worst = max(worst, rep["gap"])
        return ok, f"8x4 sweep, worst |mass-1| {worst:.2e} (<= 1e-8)"

    def association():
        mu, spec, grid, eps = x["assoc_measure"], x["assoc_spec"], x["assoc_grid"], x["assoc_eps"]
        net = rn.EpsNet(eps, [rn.sqrt_root(rn.mollify_measure(mu, spec, e, grid)).abs2() for e in eps])
        rep = rn.association_check(net, mu, x["assoc_tests"], tol=1e-2)
        worst = max(t["final_gap"] for t in rep["tests"])
        return rep["passes"], f"worst final gap {worst:.2e} (< 1e-2, monotone within 10%)"

    def lower_bound():
        target = x["lower_spec"].tail_exponent - 1
        devs = []
        for mu in (x["dirac_measure"], x["atoms_measure"]):
            rep = rn.lower_bound_sweep(mu, x["lower_spec"], x["lower_eps"], x["lower_grid"], K_radius=1.0)
            devs.append(abs(rep["slope"] - target))
        return max(devs) <= 0.15, f"max |slope - {target:g}| {max(devs):.3f} (<= 0.15)"

    def plateau():
        mu, grid = x["atoms_measure"], x["plateau_grid"]
        xs = grid.axis_coords()
        ok = True
        for eps in x["plateau_eps"]:
            g, j = rn.cutoff_sqrt(mu, x["lower_spec"], rn.CutoffFamily(), eps, grid)
            phi = rn.sqrt_root(rn.mollify_measure(mu, x["lower_spec"], eps, grid))
            inside = np.abs(xs) <= 2.0 ** j
            ok = ok and np.array_equal(g.values[inside], phi.values[inside])
        return ok, f"bitwise equal inside |x| <= 2^j for all {len(x['plateau_eps'])} eps"

    def mollifier_slopes():
        worst = 0.0
        for spec, grid, eg, alphas in x["slope_cases"]:
            fields = [rn.scaled_mollifier(spec, e, grid) for e in eg]
            for alpha in alphas:
                sups = []
                for f in fields:
                    for axis, order in enumerate(alpha):
                        if order:
                            f = rn.derivative(f, axis=axis, order=order)
                    sups.append(rn.norm_linf(f))
                slope = rn.loglog_fit(np.asarray(eg.values), np.asarray(sups))[0]
                worst = max(worst, abs(slope - (spec.dim + sum(alpha))))
        return worst <= 0.1, f"max |slope - (n+|alpha|)| {worst:.3f} (<= 0.1)"

    checks += [
        ("mass_law_1d", mass_law),
        ("sqrt_association", association),
        ("lower_bound_exponent", lower_bound),
        ("cutoff_plateau_bitwise", plateau),
        ("mollifier_slopes", mollifier_slopes),
    ]
    run_free, free_row = _cli_verdicts(x["workdir"], x["free_config"])
    checks.append(("cli_free_example", run_free))
    for t in (0.5, 1.0):
        for name in ("mass_law", "dispersive_bound", "pairing_decay_rate"):
            checks.append((f"cli_free_example.{name}_t{t}", free_row(f"{name}_t{t}")))
    run_sqrt, sqrt_row = _cli_verdicts(x["workdir"], x["sqrt_config"])
    checks.append(("cli_sqrt_measure", run_sqrt))
    for name in ("square_root_association", "lower_bound_exponent", "cutoff_plateau_identity"):
        checks.append((f"cli_sqrt_measure.{name}", sqrt_row(name)))
    return checks


# ---------------------------------------------------------------------------
# cn_static: CN with time-independent coefficients (one LU per solve)


STATIC_SIZES = {
    "full": dict(coh_m=4096, cn2d_m=128, cn2d_steps=50, jump_steps=1000, uniq_m=2048, assoc_m=4096),
    "tiny": dict(coh_m=512, cn2d_m=16, cn2d_steps=4, jump_steps=20, uniq_m=256, assoc_m=512),
}


def static_setup(rng, size, workdir):
    p = STATIC_SIZES[size]
    x = {}
    one = rn.constant_coefficient(1.0)
    zero = rn.constant_coefficient(0.0)
    x["coh_grid"] = rn.SpatialGrid(1, 4.0, p["coh_m"])
    x["coh_coeffs"] = rn.CoefficientNet(c=[one], V=zero, c0=1.0)
    x["coh_g0"] = rn.GridFunction.from_profile(x["coh_grid"], lambda s: np.exp(-(s**2)))
    x["coh_spec"] = rn.MollifierSpec(dim=1, exponent=4.0)
    eps = [0.25, 0.177, 0.125, 0.088, 0.0625, 0.0442, 0.03125, 0.0221, 0.015625]
    x["coh_eps"] = rn.EpsGrid(eps if size == "full" else eps[:6])

    g2 = rn.SpatialGrid(2, 8.0, p["cn2d_m"])
    c2 = tuple(rng.uniform(-1.0, 1.0) for _ in range(2))
    g0 = rn.GridFunction.from_profile(g2, lambda a, b: np.exp(-((a - c2[0]) ** 2 + (b - c2[1]) ** 2)))
    x["cn2d_problem"] = rn.CauchyProblem(
        grid=g2, coeffs=rn.CoefficientNet(c=[one, one], V=zero, c0=1.0),
        initial=lambda e: g0, forcing=None, T=0.1, time_steps=p["cn2d_steps"])

    gj = rn.SpatialGrid(1, 8.0, 1024)
    jump_at = rng.uniform(-0.5, 0.5)
    gj0 = rn.GridFunction.from_profile(gj, lambda s: np.exp(-(s**2)))
    x["jump_problem"] = rn.CauchyProblem(
        grid=gj,
        coeffs=rn.CoefficientNet(
            c=[rn.mollified_jump_coefficient(0.5, 1.5, jump_at=jump_at, width=0.05)],
            V=rn.constant_coefficient(0.3), c0=0.5),
        initial=lambda e: gj0, forcing=None, T=1.0, time_steps=p["jump_steps"])

    gu = rn.SpatialGrid(1, 4.0, p["uniq_m"])
    gu0 = rn.GridFunction.from_profile(gu, lambda s: np.exp(-(s**2)))
    centre = rng.uniform(0.0, 1.0)
    x["perturbation"] = rn.GridFunction.from_profile(gu, lambda s: np.exp(-((s - centre) ** 2)))
    x["uniq_problem"] = rn.CauchyProblem(
        grid=gu, coeffs=rn.CoefficientNet(c=[one], V=zero, c0=1.0),
        initial=lambda e: gu0, forcing=None, T=0.25, time_steps=50)
    x["uniq_eps"] = rn.EpsGrid(DYADIC6)

    shape = np.exp(-(gu.meshgrid()[0] ** 2))
    x["forced_problem"] = rn.CauchyProblem(
        grid=gu, coeffs=rn.CoefficientNet(c=[one], V=zero, c0=1.0),
        initial=lambda e: gu0, forcing=lambda e, t: t * shape, T=0.25, time_steps=50)

    x["assoc_config"] = _write_config(workdir / "association.txt", {
        "experiment": "association", "dim": 1, "half_width": 4.0,
        "points_per_axis": p["assoc_m"], "mollifier_exponent": 4.0,
        "eps_grid": _floats(DYADIC6 if size == "full" else [2.0 ** (-j) for j in range(1, 7)]),
        "T": 0.1, "time_steps": 50, "snapshot_time": 0.1,
    })
    x["workdir"] = workdir
    return x


def static_verdicts(x):
    def coherence():
        r = rn.coherence_experiment(x["coh_grid"], x["coh_coeffs"], x["coh_g0"], None, x["coh_spec"],
                                    x["coh_eps"], T=0.1, time_steps=200, reference_tol=1e-3)
        ok = r.slope >= 0.9 and r.final_diff < 1e-3
        return ok, (f"H1 gap slope {r.slope:.3f} (>= 0.9), final gap {r.final_diff:.2e} (< 1e-3), "
                    f"reference certificate gap {r.reference_gap:.2e} (<= 1e-4)")

    def oracle():
        rep = rn.cross_validate_cn(lambda s: np.exp(-(s**2)), rn.SpatialGrid(1, 8.0, 256),
                                   T=0.25, time_steps=50, refinements=2)
        return rep["min_order"] >= 1.8, f"orders {', '.join(f'{o:.3f}' for o in rep['orders'])} (>= 1.8)"

    def unitarity(problem_key, eps):
        def check():
            res = rn.solve(x[problem_key], eps=eps)
            drift = _max_step_drift(res)
            resid = max(res.residuals)
            return drift <= 1e-10 and resid <= 1e-10, (
                f"max per-step relative L2 drift {drift:.2e} (<= 1e-10) over {len(res.residuals)} steps, "
                f"max residual {resid:.2e} (<= 1e-10)")
        return check

    def uniqueness(q, threshold):
        def check():
            rep = rn.uniqueness_probe(x["uniq_problem"], x["uniq_eps"], q=q, perturbation=x["perturbation"])
            ok = rep["passes"] and rep["decay_exponent"] >= threshold
            return ok, (f"difference decay exponent {rep['decay_exponent']:.3f} (>= {threshold}), "
                        f"passes={rep['passes']}, fit rms {rep['fit_rms']:.2e}")
        return check

    def energy():
        problem = x["forced_problem"]
        res = rn.solve(problem, eps=0.5)
        rep = rn.energy_audit(res, problem, eps=0.5)
        ok = math.isfinite(rep["ratio"]) and rep["ratio"] > 0.0
        return ok, f"sup H1^2 / bound ratio {rep['ratio']:.3e} (finite, > 0)"

    run_assoc, assoc_row = _cli_verdicts(x["workdir"], x["assoc_config"])
    return [
        ("coherence", coherence),
        ("cli_association", run_assoc),
        ("cli_association.pairing_cauchy_bump_0", assoc_row("pairing_cauchy_bump_0")),
        ("cli_association.pairing_cauchy_linear_bump_1", assoc_row("pairing_cauchy_linear_bump_1")),
        ("scheme_order_oracle", oracle),
        ("cn_2d_constant_unitarity", unitarity("cn2d_problem", 1.0)),
        ("jump_unitarity", unitarity("jump_problem", 0.1)),
        ("uniqueness_q6", uniqueness(6, 5.5)),
        ("uniqueness_q10", uniqueness(10, 9.5)),
        ("energy_audit_forced", energy),
    ]


# ---------------------------------------------------------------------------
# cn_timedep: log-time coefficients, rebuilt and refactorized every step


TIMEDEP_SIZES = {
    "full": dict(net_m=4096, net_steps=50, m2=64, steps2=4, cli_m=2048, cli_steps=50),
    "tiny": dict(net_m=512, net_steps=5, m2=16, steps2=2, cli_m=512, cli_steps=5),
}


def timedep_setup(rng, size, workdir):
    p = TIMEDEP_SIZES[size]
    x = {}
    amplitude = rng.uniform(0.25, 0.75)
    spec = rn.MollifierSpec(dim=1, exponent=4.0)
    grid = rn.SpatialGrid(1, 2.0 if size == "full" else 16.0, p["net_m"])
    shape = lambda s: amplitude * np.exp(-(s**2))
    log_c = rn.log_time_coefficient(1.0, shape)
    x["net_grid"] = grid
    x["log_coeffs"] = rn.CoefficientNet(c=[log_c], V=rn.constant_coefficient(0.0), c0=1.0)
    x["power_coeffs"] = rn.CoefficientNet(
        c=[rn.power_time_coefficient(1.0, shape, power=0.5)], V=rn.constant_coefficient(0.0), c0=1.0)
    x["net_problem"] = rn.CauchyProblem(
        grid=grid, coeffs=x["log_coeffs"], initial=lambda e: rn.scaled_mollifier(spec, e, grid),
        forcing=None, T=0.5, time_steps=p["net_steps"])
    x["net_eps"] = rn.EpsGrid(DYADIC6 if size == "full" else [2.0 ** (-0.25 * j) for j in range(1, 7)])

    g2 = rn.SpatialGrid(2, 4.0, p["m2"])
    c2 = rn.log_time_coefficient(1.0, lambda a, b: amplitude * np.exp(-(a**2 + b**2)))
    g20 = rn.GridFunction.from_profile(g2, lambda a, b: np.exp(-(a**2 + b**2)))
    x["problem2"] = rn.CauchyProblem(
        grid=g2, coeffs=rn.CoefficientNet(c=[c2, c2], V=rn.constant_coefficient(0.0), c0=1.0),
        initial=lambda e: g20, forcing=None, T=0.05, time_steps=p["steps2"])
    x["eps2"] = rn.EpsGrid(DYADIC6)

    x["sweep_config"] = _write_config(workdir / "schrodinger_sweep.txt", {
        "experiment": "schrodinger_sweep", "dim": 1, "half_width": 2.0 if size == "full" else 16.0,
        "points_per_axis": p["cli_m"], "coefficient_family": "log_time",
        "mollifier_exponent": 4.0, "data": "dirac",
        "eps_grid": _floats(DYADIC6 if size == "full" else [2.0 ** (-0.25 * j) for j in range(1, 7)]),
        "T": 0.5, "time_steps": p["cli_steps"],
    })
    x["workdir"] = workdir
    return x


def timedep_verdicts(x):
    def moderateness():
        eps = x["net_eps"]
        net = rn.solution_sup_h1_net(x["net_problem"], eps)
        slope, _, rms, _ = rn.loglog_fit(np.asarray(eps.values), np.asarray([float(v) for v in net.items]))
        ok = bool(np.isfinite(slope)) and rms < 0.1
        return ok, f"sup_t H1 slope {slope:.3f} in 1/eps, fit rms {rms:.3f} (< 0.1)"

    def log_type(key, expected):
        def check():
            rep = x[key].check_log_type(x["net_eps"], x["net_grid"])
            return rep["passes"] == expected, (
                f"check_log_type passes={rep['passes']} (expected {expected}), "
                f"rel residual {rep['rel_residual']:.3f}")
        return check

    def sweep_2d():
        worst_drift = worst_resid = 0.0
        for eps in x["eps2"]:
            res = rn.solve(x["problem2"], eps)
            worst_drift = max(worst_drift, _max_step_drift(res))
            worst_resid = max(worst_resid, max(res.residuals))
        ok = worst_drift <= 1e-10 and worst_resid <= 1e-10
        return ok, (f"{len(x['eps2'])} eps, max per-step relative L2 drift {worst_drift:.2e} (<= 1e-10), "
                    f"max residual {worst_resid:.2e} (<= 1e-10)")

    run_sweep, sweep_row = _cli_verdicts(x["workdir"], x["sweep_config"], ("--workers", str(CLI_WORKERS)))
    return [
        ("log_type_moderateness", moderateness),
        ("log_type_coefficient", log_type("log_coeffs", True)),
        ("power_time_control", log_type("power_coeffs", False)),
        ("log_time_2d_sweep", sweep_2d),
        ("cli_schrodinger_sweep", run_sweep),
        ("cli_schrodinger_sweep.sup_h1_moderate", sweep_row("sup_h1_moderate")),
        ("cli_schrodinger_sweep.l2_conservation", sweep_row("l2_conservation")),
    ]


WORKLOADS = {
    "spectral_nets": (spectral_setup, spectral_verdicts),
    "cn_static": (static_setup, static_verdicts),
    "cn_timedep": (timedep_setup, timedep_verdicts),
}


def largest_array_bytes(inputs):
    """Bytes of one complex array on the largest grid of the workload."""
    grids = [v.grid if hasattr(v, "grid") else v for v in _walk(inputs)]
    points = [g.points_per_axis ** g.dim for g in grids if isinstance(g, rn.SpatialGrid)]
    return 16 * max(points, default=0)


def _walk(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _walk(v)
    else:
        yield obj
