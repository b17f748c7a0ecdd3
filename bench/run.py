"""regnets benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Set-up (importing regnets and building the seeded inputs) is timed in
SETUP_PROBES fresh child processes plus this one; `setup_s` is their median.
Then passes repeat until `--seconds` have elapsed. A pass computes every
verdict of the workload once; its wall time runs from the first call into
regnets until the last verdict exists. The first pass is measured like the
others (a CLI user pays its cold FFT plans and caches on every run).

--trace 0 reports the end-to-end metrics (medians over passes). --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (medians), with `trace.overhead_s` the difference of the
two medians. The untraced passes patch nothing.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. `attempted` counts the workload's verdicts, `failed` those that
read wrong or raised in any pass (known defects included); `correct` is
false if any verdict other than a known defect failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 4
NPROC = len(os.sched_getaffinity(0))

# One native thread per process, set before numpy loads: with two BLAS threads
# on two shared cores a cn_static pass took 34 s instead of 3 s, and the CLI's
# worker pool is the only parallel path the benchmark measures.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Counts that must repeat exactly across passes, runs and seeds.
EXACT_COUNTS = ("fft.count", "fft.points", "grid.GridFunction.count", "solver.steps",
                "solver.factorize.count", "solver.factorize.nnz")


def load(workload, seed, size, workdir):
    """Import regnets and build the workload's inputs; returns (seconds, module, inputs)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import regnets

    if Path(regnets.__file__).resolve().parent != SRC / "regnets":
        raise ImportError(f"regnets imported from {regnets.__file__}, not from {SRC}")
    import workloads

    inputs = workloads.WORKLOADS[workload][0](random.Random(seed), size, workdir)
    return time.perf_counter() - start, workloads, inputs


def run_pass(checks):
    results = []
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a raising verdict counts as failed; the others still run
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def layer_metrics(t):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    from spans import QUADRATURE

    solves = t.count("solver.solve")
    factorizations = t.count("solver.factorize")
    m = {
        "fft.count": (t.count("fft"), "count"),
        "fft.points": (t.total("fft", "points"), "count"),
        "fft.s": (t.inclusive("fft"), "s"),
        "grid.GridFunction.count": (t.count("grid.GridFunction"), "count"),
        "grid.GridFunction.bytes": (t.total("grid.GridFunction", "bytes"), "B"),
        "grid.GridFunction.s": (t.inclusive("grid.GridFunction"), "s"),
        "grid.norm_hk.count": (t.count("grid.norm_hk"), "count"),
        "grid.norm_hk.s": (t.inclusive("grid.norm_hk"), "s"),
        "grid.pair.count": (t.count("grid.pair"), "count"),
        "grid.pair.s": (t.inclusive("grid.pair"), "s"),
        "grid.derivative.s": (t.inclusive("grid.derivative"), "s"),
        "mollifiers.scaled_mollifier.count": (t.count("mollifiers.scaled_mollifier"), "count"),
        "mollifiers.scaled_mollifier.s": (t.inclusive("mollifiers.scaled_mollifier"), "s"),
        "measures.mollify_measure.count": (t.count("measures.mollify_measure"), "count"),
        "measures.mollify_measure.s": (t.inclusive("measures.mollify_measure"), "s"),
        "measures.sqrt_root.s": (t.inclusive("measures.sqrt_root"), "s"),
        "measures.cutoff_sqrt.s": (t.inclusive("measures.cutoff_sqrt"), "s"),
        "measures.quadrature.s": (t.inclusive(*QUADRATURE), "s"),
        "free.free_evolve.count": (t.count("free.free_evolve"), "count"),
        "free.free_evolve.s": (t.inclusive("free.free_evolve"), "s"),
        "free.vague_convergence_check.self_s": (t.self_s("free.vague_convergence_check"), "s"),
        "free.dispersive_bound_check.s": (t.inclusive("free.dispersive_bound_check"), "s"),
        "solver.solve.count": (solves, "count"),
        "solver.steps": (t.total("solver.solve", "steps"), "count"),
        "solver.solve.self_s": (t.self_s("solver.solve"), "s"),
        "solver.norm_rows.s": (t.inclusive_under({"grid.norm_l2", "grid.norm_hk"}, "solver.solve"), "s"),
        "solver.build_operator.count": (t.count("solver.build_operator"), "count"),
        "solver.build_operator.s": (t.inclusive("solver.build_operator"), "s"),
        "solver.assemble.count": (t.count("solver.assemble"), "count"),
        "solver.assemble.s": (t.inclusive("solver.assemble"), "s"),
        "solver.factorize.count": (factorizations, "count"),
        "solver.factorize.nnz": (t.total("solver.factorize", "nnz"), "count"),
        "solver.factorize.s": (t.inclusive("solver.factorize"), "s"),
        "solver.factorizations_per_solve": (factorizations / solves if solves else 0.0, "ratio"),
        "solver.max_residual": (t.maximum("solver.solve", "max_residual"), "1"),
        "solver.uniqueness_probe.self_s": (t.self_s("solver.uniqueness_probe"), "s"),
        "solver.energy_audit.s": (t.inclusive("solver.energy_audit"), "s"),
        "asymptotics.loglog_fit.count": (t.count("asymptotics.loglog_fit"), "count"),
        "asymptotics.loglog_fit.s": (t.inclusive("asymptotics.loglog_fit"), "s"),
        "lab.mollify_gridfunction.count": (t.count("lab.mollify_gridfunction"), "count"),
        "lab.mollify_gridfunction.s": (t.inclusive("lab.mollify_gridfunction"), "s"),
        "lab.coherence_experiment.self_s": (t.self_s("lab.coherence_experiment"), "s"),
        "lab.association_of_solution.self_s": (t.self_s("lab.association_of_solution"), "s"),
        "cli.run.count": (t.count("cli.run"), "count"),
        "cli.run.self_s": (t.self_s("cli.run"), "s"),
        "io.write_csv.s": (t.inclusive("io.write_csv"), "s"),
        "io.bytes_written": (t.total("io.write_csv", "bytes") + t.total("io.write_manifest", "bytes"), "B"),
        "trace.wall_s": (t.wall, "s"),
        "trace.unattributed_s": (t.unattributed, "s"),
        "trace.overlap_s": (t.overlap, "s"),
    }
    return m


def environment(seed, workloads, inputs):
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    try:
        llc = os.sysconf("SC_LEVEL3_CACHE_SIZE") or None
    except (ValueError, OSError):
        llc = None
    return {
        "commit": commit,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        **{var: os.environ[var] for var in THREAD_VARS},
        "cli_workers": workloads.CLI_WORKERS,
        "l3_bytes": llc if llc else "not reported by sysconf",
        "largest_array_bytes": workloads.largest_array_bytes(inputs),
        # no working array reaches 4x the last-level cache, so no bandwidth ratio is reported
        "bandwidth_ratio": None,
    }


def setup_samples(args, workdir):
    """Set-up time of SETUP_PROBES fresh processes."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--workdir", str(workdir / f"probe{i}")]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(done.returncode)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def spread(values):
    return f"median {statistics.median(values):.6g} of {len(values)}: " + ", ".join(f"{v:.4f}" for v in values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectral_nets", "cn_static", "cn_timedep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "regnets" / "__init__.py").is_file():
        print(f"no regnets sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            seconds, _, _ = load(args.workload, args.seed, args.size, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    setup = setup_samples(args, workdir)
    own, workloads, inputs = load(args.workload, args.seed, args.size, workdir)
    setup.append(own)
    checks = [(f"{args.workload}/{name}", fn) for name, fn in workloads.WORKLOADS[args.workload][1](inputs)]
    env = environment(args.seed, workloads, inputs)
    print("env " + json.dumps(env))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    outcomes = {name: [] for name, _ in checks}
    first = {}

    def record(results):
        for name, ok, detail in results:
            outcomes[name].append(ok)
            first.setdefault(name, (ok, detail))
            if ok != first[name][0]:
                print(f"[FLIP] {name}: {detail}")

    plain, traced, cpu = [], [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while time.perf_counter() < deadline or not plain or (tracer and not traced):
        use_trace = tracer is not None and k % 2 == 1
        if use_trace:
            tracer.run_id = k
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            results = run_pass(checks)
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            if use_trace:
                tracer.uninstall()
        record(results)
        if use_trace:
            traced.append(tracer.pass_trace(k, t0, t1))
        else:
            plain.append(t1 - t0)
            cpu.append(cpu1 - cpu0)
        k += 1

    for name, (ok, detail) in first.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failed = [name for name, oks in outcomes.items() if not all(oks)]
    correct = all(name in workloads.KNOWN_DEFECTS for name in failed)
    for name in failed:
        if name in workloads.KNOWN_DEFECTS:
            print(f"known defect, counted as failed: {name}")
    print(f"verdicts_failed = {len(failed)} of verdicts_attempted = {len(checks)}")

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        print(f"wall_s per pass: {spread(plain)}")
        print(f"setup_s per set-up: {spread(setup)}")
    else:
        metrics = trace_report(args, tracer, traced, plain, cpu)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.9g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_report(args, tracer, traced, plain, cpu):
    per_pass = [layer_metrics(t) for t in traced]
    for name in EXACT_COUNTS:
        values = {m[name][0] for m in per_pass}
        if len(values) > 1:
            print(f"[WARN] count {name} differs between traced passes: {sorted(values)}")
    # median_low keeps each value one that a pass produced, so counts stay whole
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["run.cpu_s"] = (statistics.median(cpu), "s")
    print(f"untraced wall_s per pass: {spread(plain)}")
    print(f"traced wall_s per pass: {spread([t.wall for t in traced])}")
    metrics["trace.overhead_s"] = (statistics.median(t.wall for t in traced) - statistics.median(plain), "s")

    for t in traced:
        print(f"traced pass: self times {sum(t.self_time):.6f} s + unattributed {t.unattributed:.6f} s "
              f"- thread overlap {t.overlap:.6f} s = wall {t.wall:.6f} s (error {t.identity_error():.1e} s)")
    median_pass = sorted(traced, key=lambda t: t.wall)[(len(traced) - 1) // 2]
    print(f"{'span':40s} {'count':>8s} {'incl s':>10s} {'self s':>10s}")
    for name, count, incl, self_s in median_pass.table():
        print(f"{name:40s} {count:8d} {incl:10.4f} {self_s:10.4f}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
