"""Experiment runner: `regnets run <config>` and `regnets report <dir>`.

Configs are flat key = value text files (read by io, like manifests), one
experiment per file, validated against a typed schema (dim in {1, 2},
points_per_axis a power of two >= 8, half_width and T > 0, time_steps >= 1,
typed atom lists, enumerated keys) before anything runs; the library checks
the rest of the input. Nothing in a run is random. A finished run replaces
an earlier run's config.txt, manifest.txt and CSV files in its results
directory by a copy of the config, its CSV tables, checks.csv and a
manifest recording versions, timings and the threads its eps-sweep ran on;
a failed run writes and removes none.
Each checks.csv row reads the verdict of the library function that computes
the judged quantity (README, Verdicts); only selftest compares values itself.
Exit codes: 0 all checks pass, 2 unusable input (any InputError, from the
schema or the library, raised before results are written), 1 a failed
check or any other failure (results that cannot be written included).
`report` exits 2 when manifest.txt or checks.csv is missing or cannot be
read, checks.csv is empty, holds only its header or has a row without
exactly three fields; 1 when a check failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .asymptotics import EpsGrid, EpsNet, _cpu_count, _eps_map, _sweep_threads, loglog_fit
from .errors import ConfigError, InputError, RegnetsError
from .free import free_evolve, vague_convergence_check
from .grid import (
    GridFunction,
    SpatialGrid,
    bump,
    linear_bump,
    norm_l2,
    norm_linf,
    oscillatory_bump,
)
from .lab import association_of_solution, coherence_experiment, mollify_gridfunction
from .measures import (
    Density,
    Measure,
    _lower_bound_fit,
    association_check,
    cutoff_plateau_check,
    mollify_measure,
    sqrt_root,
)
from .mollifiers import MollifierSpec, sampled_mass, scaled_mollifier
from .solver import (
    CauchyProblem,
    CoefficientNet,
    constant_coefficient,
    energy_audit,
    energy_moderateness,
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
    "float": float,
    "floats": _parse_floats,
    "dim": _checked(int, lambda d: d in (1, 2), "1 or 2"),
    "points": _checked(int, lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8"),
    "positive": _checked(float, lambda x: x > 0, "positive"),
    "count": _checked(int, lambda n: n >= 1, "a positive integer"),
    "atoms": _parse_atoms,
}

# key -> (type name or tuple of allowed strings, required?, default).
# Units: lengths in box units, times in the equation's time unit, eps
# dimensionless. Every experiment but selftest samples a mollifier on a
# grid over an eps sweep, so it takes the keys of _GRID_SCHEMA.
_GRID_SCHEMA = {
    "dim": ("dim", True, None),
    "half_width": ("positive", True, None),
    "points_per_axis": ("points", True, None),
    "mollifier_exponent": ("float", False, 0.0),
    "eps_grid": ("floats", True, None),
}

_SCHEMAS = {
    "selftest": {},
    "sqrt_measure": {
        **_GRID_SCHEMA,
        "atoms": ("atoms", False, ()),
        "density": (("none", "uniform", "gaussian"), False, "none"),
        "density_params": ("floats", False, ()),
        "density_weight": ("float", False, 0.0),
    },
    "schrodinger_sweep": {
        **_GRID_SCHEMA,
        "coefficient_family": (("constant", "log_time", "jump"), True, None),
        "data": (("dirac", "bump"), False, "dirac"),
        "T": ("positive", True, None),
        "time_steps": ("count", True, None),
    },
    "free_example": {
        **_GRID_SCHEMA,
        "mollifier_exponent": ("float", True, None),
        "times": ("floats", True, None),
    },
    "coherence": {
        **_GRID_SCHEMA,
        "T": ("positive", True, None),
        "time_steps": ("count", True, None),
        "tolerance": ("float", False, 1e-3),
    },
    "association": {
        **_GRID_SCHEMA,
        "T": ("positive", True, None),
        "time_steps": ("count", True, None),
        "snapshot_time": ("float", True, None),
    },
}

EXPERIMENTS = tuple(_SCHEMAS)


def parse_config(path) -> dict:
    """Parse and validate a flat key = value config file.

    Raises ConfigError with the offending line number on any violation.
    """
    raw, lines = io._read_key_values(path, "config file")
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
        except InputError as exc:
            raise ConfigError(f"eps_grid: {exc}", line=lines.get("eps_grid"))
    return config


# ---------------------------------------------------------------------------
# experiment drivers; each returns (checks, csv_tables)
# checks: list of (name, passed, detail); tables: {filename: (header, rows)}


def _grid_and_spec(config, power=1.0):
    """The experiment's grid and mollifier, whose rho**power must be integrable."""
    grid = SpatialGrid(config["dim"], config["half_width"], config["points_per_axis"])
    spec = MollifierSpec(dim=grid.dim, exponent=config["mollifier_exponent"])
    spec.require_integrable(power)
    return grid, spec


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
    sups = [norm_linf(scaled_mollifier(spec, e, grid)) for e in eg]
    slope, _, rms, _ = loglog_fit(np.asarray(eg.values), np.asarray(sups))
    checks.append(
        ("mollifier_sup_moderate", rms < 0.1 and abs(slope - 1.0) < 0.1,
         f"slope={slope:.3f}")
    )
    return checks, {}


def _run_sqrt_measure(config, workers):
    grid, spec = _grid_and_spec(config)
    eps_grid = config["eps_grid"]
    atoms, kind, p = config["atoms"], config["density"], config["density_params"]
    if kind == "none" and p:
        raise ConfigError("density_params needs a density")
    if len(p) > 1:
        raise ConfigError(f"density_params takes one value for a {kind} density, got {len(p)}")
    density = None
    if kind != "none":
        density = Density.from_scale(kind, *p)
    measure = Measure(atoms, density, config["density_weight"], grid.dim)

    phi_items, sq_items = [], []

    def h_net():  # the lower-bound fit reads each h_eps as it is built; no net of h is kept
        for eps in eps_grid:
            h = mollify_measure(measure, spec, eps, grid)
            phi_items.append(sqrt_root(h))
            sq_items.append(phi_items[-1].abs2())
            yield h

    K_radius = max(1.0, measure.support_radius())
    sweep = _lower_bound_fit(h_net(), measure, spec, eps_grid, K_radius)
    sqrt_net = EpsNet(eps_grid, phi_items)
    squared_net = EpsNet(eps_grid, sq_items)

    tests = [bump(grid, 0.0, 1.0), linear_bump(grid, 0.0, 1.5)]
    assoc = association_check(squared_net, measure, tests)

    final_gap = max(t["final_gap"] for t in assoc["tests"])
    checks = [
        ("square_root_association", assoc["passes"], f"worst_final_gap={final_gap:.3e}"),
        ("lower_bound_exponent", sweep["passes"],
         f"slope={sweep['slope']:.3f} target={sweep['target_exponent']:.3f}"),
        ("cutoff_plateau_identity", cutoff_plateau_check(sqrt_net, measure, spec),
         "node equality inside plateau"),
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
    if family == "log_time":
        c = log_time_coefficient(1.0, lambda x, *_: 0.1 * np.cos(np.pi * x / grid.half_width))
    elif family == "jump":
        c = mollified_jump_coefficient(1.0, 2.0, 0.0)
    else:
        c = constant_coefficient(1.0)
    return CoefficientNet(c=(c,) * grid.dim, V=None, c0=0.5)


def _run_schrodinger_sweep(config, workers):
    grid, spec = _grid_and_spec(config)
    coeffs = _coefficient_net(config, grid)
    eps_grid = config["eps_grid"]

    if config["data"] == "dirac":
        initial = lambda e: scaled_mollifier(spec, e, grid)
    else:
        b = bump(grid, 0.0, 1.0).gridfunc
        initial = lambda e: mollify_gridfunction(b, spec, e)

    problem = CauchyProblem(
        grid=grid, coeffs=coeffs, initial=initial, forcing=None,
        T=config["T"], time_steps=config["time_steps"],
    )

    results = _eps_map(lambda eps: solve(problem, eps), eps_grid, workers)

    rows = []
    sup_h1 = []
    for eps, res in zip(eps_grid, results):
        hist = res.norm_history
        sup_h1.append(float(np.max(hist[:, 2])))
        for t, l2, h1, h2 in hist:
            rows.append((eps, t, l2, h1, h2))
    audits = [energy_audit(res, problem, eps) for eps, res in zip(eps_grid, results)]
    moderate = energy_moderateness(eps_grid, audits)
    C1 = [a["C1"] for a in audits]
    checks = [
        ("sup_h1_moderate", moderate["passes"],
         f"C1={min(C1):.3f}..{max(C1):.3f} "
         f"log_type_residual={moderate['log_type']['rel_residual']:.1e}"),
        ("l2_conservation", all(res.conserves_l2 for res in results),
         f"max_step_drift={max(res.l2_drift for res in results):.3e}"),
        ("energy_estimate", all(a["passes"] for a in audits),
         f"worst_ratio={max(a['ratio'] for a in audits):.3f}"),
    ]
    tables = {
        "norm_history.csv": (["eps", "t", "l2", "h1", "h2"], rows),
        "sup_h1.csv": (["eps", "sup_h1"], list(zip(eps_grid.values, sup_h1))),
    }
    return checks, tables


def _run_free_example(config, workers):
    grid, spec = _grid_and_spec(config, power=0.5)
    dim, eps_grid, times = grid.dim, config["eps_grid"], list(config["times"])
    off = 1.0 if dim == 1 else (1.0, 0.5)
    tests = [bump(grid, 0.0, 1.0), bump(grid, off, 0.5), oscillatory_bump(grid, 0.0, 1.0, 3.0)]

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
        mass_gap = max(abs(m - 1.0) for m in rep["masses"])
        checks.extend(
            [
                (f"mass_law_t{t}", rep["mass_stays_one"], f"worst_mass_gap={mass_gap:.3e}"),
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
    grid, spec = _grid_and_spec(config)
    coeffs = _coefficient_net(config, grid)
    g0 = GridFunction.from_profile(grid, lambda *c: np.exp(-sum(x**2 for x in c)))
    result = coherence_experiment(
        grid, coeffs, g0, None, spec, config["eps_grid"],
        T=config["T"], time_steps=config["time_steps"],
        reference_tol=config["tolerance"],
    )
    checks = [
        ("h1_differences_decrease", result.monotone, "monotone within 10% slack"),
        ("final_h1_difference", result.final_below_tol,
         f"{result.final_diff:.3e} < {config['tolerance']:.1e}"),
        ("convergence_rate", result.first_order, f"slope={result.slope:.3f}"),
    ]
    rows = list(zip(config["eps_grid"].values, result.h1_sup_diffs))
    tables = {"coherence.csv": (["eps", "sup_t_h1_diff"], rows)}
    return checks, tables


def _run_association(config, workers):
    grid, spec = _grid_and_spec(config)
    coeffs = _coefficient_net(config, grid)
    problem = CauchyProblem(
        grid=grid, coeffs=coeffs,
        initial=lambda e: scaled_mollifier(spec, e, grid),
        forcing=None, T=config["T"], time_steps=config["time_steps"],
    )
    tests = [bump(grid, 0.0, 1.0), linear_bump(grid, 0.0, 1.5)]
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


def _positive_int(s):
    if not s.strip().isdigit() or int(s) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {s!r}")
    return int(s)


def run(config_path, out_dir=None, workers: int = 1) -> int:
    try:
        if not (isinstance(workers, int) and workers >= 1):
            raise ConfigError(f"workers must be a positive integer, got {workers!r}")
        config = parse_config(config_path)
        config_text = Path(config_path).read_bytes()  # the config may be out/config.txt
        name = config["experiment"]
        out = Path(out_dir) if out_dir else Path(f"results_{name}")
        if out.exists() and not out.is_dir():
            raise ConfigError(f"results directory {out} is an existing file")
        t0 = time.perf_counter()
        checks, tables = _RUNNERS[name](config, workers)
    except InputError as exc:
        loc = f" (line {exc.line})" if getattr(exc, "line", None) else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return 2
    except RegnetsError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    # the threads the run's eps-map ran on; coherence maps its certified gap
    # as one item more than the eps, and selftest and sqrt_measure run no map
    eps = list(config.get("eps_grid", ()))
    requested, items = {
        "schrodinger_sweep": (workers, eps),
        "free_example": (_cpu_count(), eps),
        "coherence": (_cpu_count(), [None, *eps]),
        "association": (_cpu_count(), eps),
    }.get(name, (1, eps))
    threads = _sweep_threads(requested, items)

    try:
        if (out / "manifest.txt").exists():
            for stale in [out / "config.txt", out / "manifest.txt", *out.glob("*.csv")]:
                stale.unlink(missing_ok=True)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_bytes(config_text)
        for fname, (header, rows) in tables.items():
            io.write_csv(out / fname, header, rows)
        io.write_csv(
            out / "checks.csv",
            ["check", "passed", "detail"],
            [(n, int(p), d) for n, p, d in checks],
        )
        io.write_manifest(
            out / "manifest.txt",
            io.base_manifest(experiment=name, elapsed_seconds=f"{elapsed:.3f}", threads=threads),
        )
    except OSError as exc:
        print(f"run failed: cannot write results: {exc}", file=sys.stderr)
        return 1

    failed = [n for n, p, _ in checks if not p]
    for n, p, d in checks:
        print(f"[{'PASS' if p else 'FAIL'}] {name}: {n} ({d})")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def report(results_dir) -> int:
    results_dir = Path(results_dir)
    checks_path = results_dir / "checks.csv"
    try:
        manifest = io.read_manifest(results_dir / "manifest.txt")
        rows = io.read_csv(checks_path)[1]
        if not rows:
            raise ConfigError(f"{checks_path}: no check rows")
        for row in rows:
            if len(row) != 3:
                raise ConfigError(f"{checks_path}: expected check,passed,detail, got {row}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"experiment: {manifest.get('experiment', '?')}")
    print(f"created:    {manifest.get('created', '?')}")
    print(f"elapsed:    {manifest.get('elapsed_seconds', '?')} s")
    print(f"threads:    {manifest.get('threads', '?')}")
    width = max(len(r[0]) for r in rows)
    print(f"{'check'.ljust(width)}  result  detail")
    for name, passed, detail in rows:
        verdict = "PASS" if passed == "1" else "FAIL"
        print(f"{name.ljust(width)}  {verdict}    {detail}")
    return 1 if any(r[1] != "1" for r in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regnets", description="Regularization-net experiment runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the experiment described by a config file")
    p_run.add_argument("config", help="path to a flat key = value config file")
    p_run.add_argument("--workers", type=_positive_int, default=1, metavar="N")
    p_run.add_argument("--out", default=None, metavar="DIR")
    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("directory")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run(args.config, out_dir=args.out, workers=args.workers)
    return report(args.directory)


if __name__ == "__main__":
    sys.exit(main())
