"""Experiment runner: `regnets run <config>` and `regnets report <dir>`.

Configs are flat key = value text files, one experiment per file, validated
against a typed schema before anything runs. A run writes a results
directory containing a copy of the config, CSV tables, a checks table and a
manifest recording versions, the seed and timings. Exit codes: 0 all checks
pass, 1 at least one check failed, 2 schema violation or unusable input.
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
from .errors import ConfigError, RegnetsError
from .free import free_evolve, sqrt_delta_data, vague_convergence_check
from .grid import (
    GridFunction,
    SpatialGrid,
    bump,
    linear_bump,
    norm_hk,
    norm_l2,
    oscillatory_bump,
    pair,
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
from .mollifiers import MollifierSpec, scaled_mollifier
from .solver import (
    CauchyProblem,
    CoefficientNet,
    constant_coefficient,
    log_time_coefficient,
    mollified_jump_coefficient,
    solve,
)

EXPERIMENTS = (
    "selftest",
    "sqrt_measure",
    "schrodinger_sweep",
    "free_example",
    "coherence",
    "association",
)


# ---------------------------------------------------------------------------
# config parsing and schema


def _parse_floats(s):
    return tuple(float(v) for v in s.split(",") if v.strip())


_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "floats": _parse_floats,
}

# key -> (type name, required?, default). Units: lengths in box units,
# times in the equation's time unit, eps dimensionless.
_COMMON_SCHEMA = {
    "experiment": ("str", True, None),
    "seed": ("int", False, 0),
}

_GRID_SCHEMA = {
    "dim": ("int", True, None),
    "half_width": ("float", True, None),
    "points_per_axis": ("int", True, None),
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
        "atoms": ("str", False, ""),  # "x1:w1;x2:w2" (1d) or "x,y:w;..." (2d)
        "density": ("str", False, "none"),  # none | uniform | gaussian
        "density_params": ("floats", False, ()),
        "density_weight": ("float", False, 0.0),
        "association_tol": ("float", False, 1e-2),
    },
    "schrodinger_sweep": {
        **_GRID_SCHEMA,
        **_EPS_SCHEMA,
        "coefficient_family": ("str", True, None),  # constant | log_time | jump
        "coefficient_base": ("float", False, 1.0),
        "potential": ("float", False, 0.0),
        "data": ("str", False, "dirac"),  # dirac | bump
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
        "data": ("str", False, "gaussian"),
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
    schema = {**_COMMON_SCHEMA, **_SCHEMAS[name]}

    config = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for experiment {name}", line=lines[key])
        typename = schema[key][0]
        try:
            config[key] = _TYPES[typename](value)
        except ValueError:
            raise ConfigError(
                f"key {key!r}: cannot parse {value!r} as {typename}", line=lines[key]
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


def _parse_atoms(text: str, dim: int):
    atoms = []
    if not text:
        return atoms
    for part in text.split(";"):
        pos, _, w = part.partition(":")
        coords = tuple(float(c) for c in pos.split(","))
        if len(coords) != dim:
            raise ConfigError(f"atom {part!r} has {len(coords)} coords, dim is {dim}")
        atoms.append((coords if dim == 2 else coords[0], float(w)))
    return atoms


# ---------------------------------------------------------------------------
# experiment drivers; each returns (checks, csv_tables)
# checks: list of (name, passed, detail); tables: {filename: (header, rows)}


def _run_selftest(config, out, workers):
    checks = []
    grid = SpatialGrid(1, 4.0, 8192)
    x = GridFunction.from_profile(grid, lambda x: x)
    exact = np.sqrt(2.0 * 4.0**3 / 3.0)  # L2 norm of x on [-4, 4]
    checks.append(("l2_norm_of_x", abs(norm_l2(x) - exact) < 1e-2, f"{norm_l2(x):.6f}"))
    spec = MollifierSpec(dim=1, exponent=4.0)
    rho = scaled_mollifier(spec, 0.25, grid)
    mass = float(np.sum(rho.values.real) * grid.cell_volume)
    checks.append(("mollifier_mass", abs(mass - 1.0) < 1e-3, f"{mass:.6f}"))
    u0 = GridFunction.from_profile(grid, lambda x: np.exp(-(x**2)))
    u1 = free_evolve(u0, 0.3)
    checks.append(
        ("free_evolution_unitary", abs(norm_l2(u1) - norm_l2(u0)) < 1e-12,
         f"{abs(norm_l2(u1) - norm_l2(u0)):.2e}")
    )
    eg = EpsGrid.dyadic(2, 7)
    net = EpsNet(eg, [scaled_mollifier(spec, e, grid) for e in eg])
    fit = classify_moderate(net, seminorm="linf")
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


def _run_sqrt_measure(config, out, workers):
    dim = config["dim"]
    grid = SpatialGrid(dim, config["half_width"], config["points_per_axis"])
    spec = MollifierSpec(dim=dim, exponent=config["mollifier_exponent"])
    eps_grid = config["eps_grid"]
    atoms = _parse_atoms(config["atoms"], dim)
    density = None
    weight = 0.0
    if config["density"] != "none":
        p = list(config["density_params"])
        key = "half_width" if config["density"] == "uniform" else "sigma"
        density = Density(kind=config["density"], params={key: p[0] if p else 1.0})
        weight = config["density_weight"]
    if not atoms and density is None:
        raise ConfigError("sqrt_measure needs atoms and/or a density")
    measure = Measure(atoms=tuple(atoms), density=density, density_weight=weight, dim=dim)

    phi_items, sq_items = [], []
    for eps in eps_grid:
        h = mollify_measure(measure, spec, eps, grid)
        phi = sqrt_root(h)
        phi_items.append(phi)
        sq_items.append(phi.abs2())
    sqrt_net = EpsNet(eps_grid, phi_items, label="sqrt")
    squared_net = EpsNet(eps_grid, sq_items, label="sqrt_squared")

    center = 0.0 if dim == 1 else (0.0,) * dim
    tests = [bump(grid, center, 1.0), linear_bump(grid, center, 1.5)]
    assoc = association_check(squared_net, measure, tests, tol=config["association_tol"])
    K_radius = max(1.0, measure.support_radius())
    sweep = lower_bound_sweep(measure, spec, eps_grid, grid, K_radius)
    slope_ok = abs(sweep["slope"] - sweep["target_exponent"]) <= 0.15

    chi = CutoffFamily()
    plateau_ok = True
    for eps, phi in zip(eps_grid, sqrt_net.items):
        g, j = cutoff_sqrt(measure, spec, chi, eps, grid)
        coords = grid.meshgrid()
        inner = np.abs(coords[0]) if dim == 1 else np.maximum(
            np.abs(coords[0]), np.abs(coords[1])
        )
        mask = inner <= 2.0**j
        plateau_ok = plateau_ok and bool(np.all(g.values[mask] == phi.values.real[mask]))

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
    family = config["coefficient_family"] if "coefficient_family" in config else "constant"
    base = config["coefficient_base"]
    if family == "constant":
        c = constant_coefficient(base)
    elif family == "log_time":
        c = log_time_coefficient(base, lambda x: 0.1 * np.cos(np.pi * x / grid.half_width))
    elif family == "jump":
        c = mollified_jump_coefficient(base, 2.0 * base, 0.0)
    else:
        raise ConfigError(f"unknown coefficient_family {family!r}")
    V = constant_coefficient(config.get("potential", 0.0))
    return CoefficientNet(c=(c,) * grid.dim, V=V, c0=0.5 * base)


def _run_schrodinger_sweep(config, out, workers):
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    coeffs = _coefficient_net(config, grid)
    eps_grid = config["eps_grid"]
    spec = MollifierSpec(dim=grid.dim, exponent=config["mollifier_exponent"])

    if config["data"] == "dirac":
        initial = lambda e: scaled_mollifier(spec, e, grid)
    elif config["data"] == "bump":
        b = bump(grid, 0.0 if grid.dim == 1 else (0.0,) * grid.dim, 1.0).gridfunc
        initial = lambda e: mollify_gridfunction(b, spec, e)
    else:
        raise ConfigError(f"unknown data kind {config['data']!r}")

    problem = CauchyProblem(
        grid=grid, coeffs=coeffs, initial=initial, forcing=None,
        T=config["T"], time_steps=config["time_steps"],
    )

    def one(eps):
        return solve(problem, eps, record_norms=True)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(one, eps_grid))

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


def _run_free_example(config, out, workers):
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


def _run_coherence(config, out, workers):
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    coeffs = CoefficientNet(
        c=(constant_coefficient(config["coefficient_base"]),) * grid.dim,
        V=constant_coefficient(config["potential"]),
        c0=0.5 * config["coefficient_base"],
    )
    spec = MollifierSpec(dim=grid.dim, exponent=config["mollifier_exponent"])
    if config["data"] == "gaussian":
        g0 = GridFunction.from_profile(
            grid, lambda *c: np.exp(-sum(x**2 for x in c))
        )
    elif config["data"] == "bump":
        g0 = bump(grid, 0.0 if grid.dim == 1 else (0.0,) * grid.dim, 1.0).gridfunc
    else:
        raise ConfigError(f"unknown data kind {config['data']!r}")
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


def _run_association(config, out, workers):
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    coeffs = CoefficientNet(
        c=(constant_coefficient(config["coefficient_base"]),) * grid.dim,
        V=constant_coefficient(0.0),
        c0=0.5 * config["coefficient_base"],
    )
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


def run(config_path, out_dir=None, workers: int = 1, seed: int | None = None) -> int:
    try:
        config = parse_config(config_path)
    except ConfigError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2

    if seed is None:
        seed = config.get("seed", 0)
    name = config["experiment"]
    out = Path(out_dir) if out_dir else Path(f"results_{name}")
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(config_path, out / "config.txt")

    t0 = time.perf_counter()
    try:
        checks, tables = _RUNNERS[name](config, out, workers)
    except ConfigError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2
    except RegnetsError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0

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
            seed=seed,
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
    print(f"seed:       {manifest.get('seed', '?')}")
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
    p_run.add_argument("--seed", type=int, default=None, metavar="S")
    p_run.add_argument("--out", default=None, metavar="DIR")
    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("directory")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run(args.config, out_dir=args.out, workers=args.workers, seed=args.seed)
    return report(args.directory)


if __name__ == "__main__":
    sys.exit(main())
