"""Experiment runner: `regnets run <config>` and `regnets report <dir>`.

Configs are flat key = value text files, one experiment per file, validated
against a typed schema (dim in {1, 2}, points_per_axis a power of two
>= 8, half_width > 0, typed atom lists, enumerated keys) before anything
runs. Nothing in a run is random. A run that finishes writes a results
directory containing a copy of the config, CSV tables, a checks table and a
manifest recording versions and timings; a run that fails writes none.
Exit codes: 0 all checks pass, 1 a check failed or the run failed, 2 schema
violation or unusable input (atoms and density weights that are not a
probability measure, density parameters that are not finite and > 0, scales
the grid or box cannot hold).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import io
from .asymptotics import EpsGrid, EpsNet, classify_moderate, loglog_fit
from .errors import BoxTooSmallError, ConfigError, RegnetsError, ResolutionError
from .free import free_evolve, vague_convergence_check
from .grid import (
    GridFunction,
    SpatialGrid,
    bump,
    linear_bump,
    norm_l2,
    oscillatory_bump,
)
from .lab import association_of_solution, coherence_experiment, mollify_gridfunction
from .measures import (
    Density,
    Measure,
    association_check,
    cutoff_sqrt,
    CutoffFamily,
    lower_bound_sweep,
    mollify_measure,
    sqrt_root,
)
from .mollifiers import MollifierSpec, sampled_mass, scaled_mollifier
from .solver import (
    CauchyProblem,
    CoefficientNet,
    constant_coefficient,
    log_time_coefficient,
    mollified_jump_coefficient,
    solve,
)

# ---------------------------------------------------------------------------
# config parsing and schema


def _parse_floats(s):
    return tuple(float(v) for v in s.split(",") if v.strip())


def _checked(parse, ok, rule):
    """A parser that also requires ok(value); rule says what ok means."""

    def parse_checked(s):
        value = parse(s)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {value}")
        return value

    return parse_checked


def _parse_atoms(s):
    """'x:w;...' (1d) or 'x,y:w;...' (2d) -> ((coords, weight), ...)."""
    atoms = []
    for part in s.split(";") if s else ():
        pos, _, w = part.partition(":")
        atoms.append((tuple(float(c) for c in pos.split(",")), float(w)))
    return tuple(atoms)


_TYPES = {
    "int": int,
    "float": float,
    "floats": _parse_floats,
    "dim": _checked(int, lambda d: d in (1, 2), "1 or 2"),
    "points": _checked(int, lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8"),
    "length": _checked(float, lambda x: x > 0, "positive"),
    "atoms": _parse_atoms,
}

# key -> (type name or tuple of allowed strings, required?, default).
# Units: lengths in box units, times in the equation's time unit, eps
# dimensionless.
_GRID_SCHEMA = {
    "dim": ("dim", True, None),
    "half_width": ("length", True, None),
    "points_per_axis": ("points", True, None),
}

_EPS_SCHEMA = {
    "eps_grid": ("floats", True, None),
}

_SCHEMAS = {
    "selftest": {},
    "sqrt_measure": {
        **_GRID_SCHEMA,
        **_EPS_SCHEMA,
        "mollifier_exponent": ("float", False, 0.0),
        "atoms": ("atoms", False, ()),
        "density": (("none", "uniform", "gaussian"), False, "none"),
        "density_params": ("floats", False, ()),
        "density_weight": ("float", False, 0.0),
        "association_tol": ("float", False, 1e-2),
    },
    "schrodinger_sweep": {
        **_GRID_SCHEMA,
        **_EPS_SCHEMA,
        "coefficient_family": (("constant", "log_time", "jump"), True, None),
        "coefficient_base": ("float", False, 1.0),
        "potential": ("float", False, 0.0),
        "data": (("dirac", "bump"), False, "dirac"),
        "mollifier_exponent": ("float", False, 0.0),
        "T": ("float", True, None),
        "time_steps": ("int", True, None),
    },
    "free_example": {
        **_GRID_SCHEMA,
        **_EPS_SCHEMA,
        "mollifier_exponent": ("float", True, None),
        "times": ("floats", True, None),
    },
    "coherence": {
        **_GRID_SCHEMA,
        **_EPS_SCHEMA,
        "mollifier_exponent": ("float", False, 0.0),
        "coefficient_base": ("float", False, 1.0),
        "potential": ("float", False, 0.0),
        "data": (("gaussian", "bump"), False, "gaussian"),
        "T": ("float", True, None),
        "time_steps": ("int", True, None),
        "tolerance": ("float", False, 1e-3),
    },
    "association": {
        **_GRID_SCHEMA,
        **_EPS_SCHEMA,
        "mollifier_exponent": ("float", False, 0.0),
        "coefficient_base": ("float", False, 1.0),
        "T": ("float", True, None),
        "time_steps": ("int", True, None),
        "snapshot_time": ("float", True, None),
    },
}

EXPERIMENTS = tuple(_SCHEMAS)


def parse_config(path) -> dict:
    """Parse and validate a flat key = value config file.

    Raises ConfigError with the offending line number on any violation.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    lines = {}
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        line = text.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {text!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        raw[key] = value.strip()
        lines[key] = lineno

    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    name = raw["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}",
            line=lines["experiment"],
        )
    schema = {"experiment": (EXPERIMENTS, True, None), **_SCHEMAS[name]}

    config = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for experiment {name}", line=lines[key])
        typename = schema[key][0]
        if isinstance(typename, tuple):
            if value not in typename:
                raise ConfigError(
                    f"key {key!r}: {value!r} is not one of {', '.join(typename)}",
                    line=lines[key],
                )
            config[key] = value
            continue
        try:
            config[key] = _TYPES[typename](value)
        except ValueError as exc:
            raise ConfigError(
                f"key {key!r}: cannot parse {value!r} as {typename} ({exc})", line=lines[key]
            )
    for key, (typename, required, default) in schema.items():
        if key not in config:
            if required:
                raise ConfigError(f"missing required key {key!r} for experiment {name}")
            config[key] = default

    if "eps_grid" in config and config["eps_grid"] is not None:
        try:
            config["eps_grid"] = EpsGrid(config["eps_grid"])
        except RegnetsError as exc:
            raise ConfigError(f"eps_grid: {exc}", line=lines.get("eps_grid"))
    return config


# ---------------------------------------------------------------------------
# experiment drivers; each returns (checks, csv_tables)
# checks: list of (name, passed, detail); tables: {filename: (header, rows)}


def _run_selftest(config, workers):
    checks = []
    grid = SpatialGrid(1, 4.0, 8192)
    x = GridFunction.from_profile(grid, lambda x: x)
    exact = np.sqrt(2.0 * 4.0**3 / 3.0)  # L2 norm of x on [-4, 4]
    checks.append(("l2_norm_of_x", abs(norm_l2(x) - exact) < 1e-2, f"{norm_l2(x):.6f}"))
    spec = MollifierSpec(dim=1, exponent=4.0)
    rho = scaled_mollifier(spec, 0.25, grid)
    mass = sampled_mass(rho)
    checks.append(("mollifier_mass", abs(mass - 1.0) < 1e-3, f"{mass:.6f}"))
    u0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
    u1 = free_evolve(u0, 0.3)
    checks.append(
        ("free_evolution_unitary", abs(norm_l2(u1) - norm_l2(u0)) < 1e-12,
         f"{abs(norm_l2(u1) - norm_l2(u0)):.2e}")
    )
    eg = EpsGrid.dyadic(2, 7)
    net = EpsNet(eg, [scaled_mollifier(spec, e, grid) for e in eg])
    fit = classify_moderate(net)
    checks.append(
        ("mollifier_sup_moderate", fit.verdict == "moderate" and abs(fit.slope - 1.0) < 0.1,
         f"slope={fit.slope:.3f}")
    )
    tables = {
        "selftest.csv": (
            ["check", "passed", "detail"],
            [(n, int(p), d) for n, p, d in checks],
        )
    }
    return checks, tables


def _run_sqrt_measure(config, workers):
    dim = config["dim"]
    grid = SpatialGrid(dim, config["half_width"], config["points_per_axis"])
    spec = MollifierSpec(dim=dim, exponent=config["mollifier_exponent"])
    eps_grid = config["eps_grid"]
    atoms = config["atoms"]
    if not atoms and config["density"] == "none":
        raise ConfigError("sqrt_measure needs atoms and/or a density")
    density = None
    weight = 0.0
    try:
        if config["density"] != "none":
            p = list(config["density_params"])
            key = "half_width" if config["density"] == "uniform" else "sigma"
            density = Density(kind=config["density"], params={key: p[0] if p else 1.0})
            weight = config["density_weight"]
        measure = Measure(atoms=atoms, density=density, density_weight=weight, dim=dim)
    except RegnetsError as exc:
        raise ConfigError(f"atoms/density: {exc}") from exc

    phi_items, sq_items = [], []
    for eps in eps_grid:
        h = mollify_measure(measure, spec, eps, grid)
        phi = sqrt_root(h)
        phi_items.append(phi)
        sq_items.append(phi.abs2())
    sqrt_net = EpsNet(eps_grid, phi_items)
    squared_net = EpsNet(eps_grid, sq_items)

    center = 0.0 if dim == 1 else (0.0,) * dim
    tests = [bump(grid, center, 1.0), linear_bump(grid, center, 1.5)]
    assoc = association_check(squared_net, measure, tests, tol=config["association_tol"])
    K_radius = max(1.0, measure.support_radius())
    sweep = lower_bound_sweep(measure, spec, eps_grid, grid, K_radius)
    slope_ok = abs(sweep["slope"] - sweep["target_exponent"]) <= 0.15

    # chi_j is 1 exactly on the ball r <= 2^j; r as CutoffFamily.chi_j computes it
    r = np.sqrt(sum(np.asarray(c) ** 2 for c in grid.meshgrid()))
    chi = CutoffFamily()
    plateau_ok = True
    for eps, phi in zip(eps_grid, sqrt_net.items):
        g, j = cutoff_sqrt(measure, spec, chi, eps, grid)
        mask = r <= 2.0**j
        plateau_ok = plateau_ok and bool(np.all(g.values[mask] == phi.values[mask]))

    final_gap = max(t["final_gap"] for t in assoc["tests"])
    checks = [
        ("square_root_association", assoc["passes"], f"worst_final_gap={final_gap:.3e}"),
        ("lower_bound_exponent", slope_ok,
         f"slope={sweep['slope']:.3f} target={sweep['target_exponent']:.3f}"),
        ("cutoff_plateau_identity", plateau_ok, "node equality inside plateau"),
    ]
    rows = [
        (eps, sweep["inf_values"][i], assoc["tests"][0]["gaps"][i])
        for i, eps in enumerate(eps_grid)
    ]
    tables = {
        "sqrt_measure.csv": (["eps", "inf_h_on_K", "assoc_gap_psi0"], rows),
    }
    return checks, tables


def _coefficient_net(config, grid):
    family = config.get("coefficient_family", "constant")
    base = config["coefficient_base"]
    if family == "log_time":
        c = log_time_coefficient(base, lambda x: 0.1 * np.cos(np.pi * x / grid.half_width))
    elif family == "jump":
        c = mollified_jump_coefficient(base, 2.0 * base, 0.0)
    else:
        c = constant_coefficient(base)
    V = constant_coefficient(config.get("potential", 0.0))
    return CoefficientNet(c=(c,) * grid.dim, V=V, c0=0.5 * base)


def _run_schrodinger_sweep(config, workers):
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    coeffs = _coefficient_net(config, grid)
    eps_grid = config["eps_grid"]
    spec = MollifierSpec(dim=grid.dim, exponent=config["mollifier_exponent"])

    if config["data"] == "dirac":
        initial = lambda e: scaled_mollifier(spec, e, grid)
    else:
        b = bump(grid, 0.0 if grid.dim == 1 else (0.0,) * grid.dim, 1.0).gridfunc
        initial = lambda e: mollify_gridfunction(b, spec, e)

    problem = CauchyProblem(
        grid=grid, coeffs=coeffs, initial=initial, forcing=None,
        T=config["T"], time_steps=config["time_steps"],
    )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda eps: solve(problem, eps), eps_grid))

    rows = []
    sup_h1 = []
    for eps, res in zip(eps_grid, results):
        hist = res.norm_history
        sup_h1.append(float(np.max(hist[:, 2])))
        for t, l2, h1, h2 in hist:
            rows.append((eps, t, l2, h1, h2))
    slope, _, rms, _ = loglog_fit(np.asarray(eps_grid.values), np.asarray(sup_h1))
    moderate = np.isfinite(slope) and rms < 0.25
    drift = max(
        float(np.max(np.abs(res.norm_history[:, 1] - res.norm_history[0, 1])))
        for res in results
    )
    checks = [
        ("sup_h1_moderate", bool(moderate), f"slope={slope:.3f} rms={rms:.3f}"),
        ("l2_conservation", drift <= 1e-8, f"max_drift={drift:.3e}"),
    ]
    tables = {
        "norm_history.csv": (["eps", "t", "l2", "h1", "h2"], rows),
        "sup_h1.csv": (["eps", "sup_h1"], list(zip(eps_grid.values, sup_h1))),
    }
    return checks, tables


def _run_free_example(config, workers):
    dim = config["dim"]
    grid = SpatialGrid(dim, config["half_width"], config["points_per_axis"])
    spec = MollifierSpec(dim=dim, exponent=config["mollifier_exponent"])
    eps_grid = config["eps_grid"]
    times = list(config["times"])
    center = 0.0 if dim == 1 else (0.0,) * dim
    off = 1.0 if dim == 1 else (1.0, 0.5)
    tests = [bump(grid, center, 1.0), bump(grid, off, 0.5),
             oscillatory_bump(grid, center, 1.0, 3.0)]

    rows = []
    slope_rows = []
    checks = []
    for t in times:
        rep = vague_convergence_check(spec, eps_grid, grid, t, tests)
        for i, eps in enumerate(eps_grid):
            disp = rep["dispersive"][i]
            rows.append(
                (eps, t, rep["masses"][i], disp["measured_sup"], disp["bound"])
                + tuple(p["pairings"][i] for p in rep["tests"])
            )
        for p in rep["tests"]:
            slope_rows.append((t, p["psi"], p["decay_exponent"]))
        worst = max(d["ratio"] for d in rep["dispersive"])
        checks.extend(
            [
                (f"mass_law_t{t}", rep["mass_stays_one"], "all |mass-1| <= 1e-8"),
                (f"dispersive_bound_t{t}", rep["dispersive_all_pass"],
                 f"worst_ratio={worst:.4f}"),
                (f"pairing_decay_rate_t{t}",
                 all(p["passes"] for p in rep["tests"]),
                 "slopes: " + ", ".join(f"{p['decay_exponent']:.3f}" for p in rep["tests"])),
            ]
        )
    header = ["eps", "t", "mass", "sup_norm", "dispersive_bound"] + [
        f"pairing_{psi.name}_{i}" for i, psi in enumerate(tests)
    ]
    tables = {
        "free_example.csv": (header, rows),
        "decay_slopes.csv": (["t", "psi", "slope"], slope_rows),
    }
    return checks, tables


def _run_coherence(config, workers):
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    coeffs = _coefficient_net(config, grid)
    spec = MollifierSpec(dim=grid.dim, exponent=config["mollifier_exponent"])
    if config["data"] == "gaussian":
        g0 = GridFunction.from_profile(
            grid, lambda *c: np.exp(-sum(x**2 for x in c))
        )
    else:
        g0 = bump(grid, 0.0 if grid.dim == 1 else (0.0,) * grid.dim, 1.0).gridfunc
    result = coherence_experiment(
        grid, coeffs, g0, None, spec, config["eps_grid"],
        T=config["T"], time_steps=config["time_steps"],
        reference_tol=config["tolerance"],
    )
    tol = config["tolerance"]
    checks = [
        ("h1_differences_decrease", result.monotone, "monotone within 10% slack"),
        ("final_h1_difference", result.final_diff < tol,
         f"{result.final_diff:.3e} < {tol:.1e}"),
        ("convergence_rate", result.slope >= 0.9, f"slope={result.slope:.3f}"),
    ]
    rows = list(zip(config["eps_grid"].values, result.h1_sup_diffs))
    tables = {"coherence.csv": (["eps", "sup_t_h1_diff"], rows)}
    return checks, tables


def _run_association(config, workers):
    if not 0.0 <= config["snapshot_time"] <= config["T"]:
        raise ConfigError(
            f"snapshot_time {config['snapshot_time']} is outside [0, T] with T={config['T']}"
        )
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    coeffs = _coefficient_net(config, grid)
    spec = MollifierSpec(dim=grid.dim, exponent=config["mollifier_exponent"])
    problem = CauchyProblem(
        grid=grid, coeffs=coeffs,
        initial=lambda e: scaled_mollifier(spec, e, grid),
        forcing=None, T=config["T"], time_steps=config["time_steps"],
    )
    center = 0.0 if grid.dim == 1 else (0.0,) * grid.dim
    tests = [bump(grid, center, 1.0), linear_bump(grid, center, 1.5)]
    report = association_of_solution(problem, config["eps_grid"], tests, config["snapshot_time"])
    checks = [
        (f"pairing_cauchy_{p['psi']}_{i}", p["cauchy"], f"avg_ratio={p['avg_ratio']:.2f}")
        for i, p in enumerate(report["tests"])
    ]
    rows = []
    for p in report["tests"]:
        for eps, v in zip(config["eps_grid"].values, p["pairings"]):
            rows.append((eps, config["snapshot_time"], p["psi"], v.real, v.imag))
    tables = {"association.csv": (["eps", "t", "psi_name", "pairing_re", "pairing_im"], rows)}
    return checks, tables


_RUNNERS = {
    "selftest": _run_selftest,
    "sqrt_measure": _run_sqrt_measure,
    "schrodinger_sweep": _run_schrodinger_sweep,
    "free_example": _run_free_example,
    "coherence": _run_coherence,
    "association": _run_association,
}


# ---------------------------------------------------------------------------
# entry points


def run(config_path, out_dir=None, workers: int = 1) -> int:
    try:
        config = parse_config(config_path)
        name = config["experiment"]
        t0 = time.perf_counter()
        checks, tables = _RUNNERS[name](config, workers)
    except ConfigError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, BoxTooSmallError) as exc:
        # the config asks for scales its grid or box cannot hold
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegnetsError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0

    out = Path(out_dir) if out_dir else Path(f"results_{name}")
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(config_path, out / "config.txt")
    for fname, (header, rows) in tables.items():
        io.write_csv(out / fname, header, rows)
    io.write_csv(
        out / "checks.csv",
        ["check", "passed", "detail"],
        [(n, int(p), d) for n, p, d in checks],
    )
    io.write_manifest(
        out / "manifest.txt",
        io.base_manifest(
            experiment=name,
            elapsed_seconds=f"{elapsed:.3f}",
            n_checks=len(checks),
            n_failed=sum(1 for _, p, _ in checks if not p),
        ),
    )

    failed = [n for n, p, _ in checks if not p]
    for n, p, d in checks:
        print(f"[{'PASS' if p else 'FAIL'}] {name}: {n} ({d})")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def report(results_dir) -> int:
    results_dir = Path(results_dir)
    try:
        manifest = io.read_manifest(results_dir / "manifest.txt")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"experiment: {manifest.get('experiment', '?')}")
    print(f"created:    {manifest.get('created', '?')}")
    print(f"elapsed:    {manifest.get('elapsed_seconds', '?')} s")
    checks_path = results_dir / "checks.csv"
    if checks_path.exists():
        header, rows = io.read_csv(checks_path)
        width = max((len(r[0]) for r in rows), default=5)
        print(f"{'check'.ljust(width)}  result  detail")
        for name, passed, detail in rows:
            verdict = "PASS" if passed == "1" else "FAIL"
            print(f"{name.ljust(width)}  {verdict}    {detail}")
        if any(r[1] != "1" for r in rows):
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regnets", description="Regularization-net experiment runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the experiment described by a config file")
    p_run.add_argument("config", help="path to a flat key = value config file")
    p_run.add_argument("--workers", type=int, default=1, metavar="N")
    p_run.add_argument("--out", default=None, metavar="DIR")
    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("directory")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run(args.config, out_dir=args.out, workers=args.workers)
    return report(args.directory)


if __name__ == "__main__":
    sys.exit(main())
