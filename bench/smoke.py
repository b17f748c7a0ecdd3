"""Harness smoke test: every workload at a tiny size, untraced and traced.

    python3 bench/smoke.py

Checks that each run exits 0 and that its last line carries exactly the
result keys and every metric BENCHMARK.json declares for that mode, with
the declared unit. Verdicts are not gated here: the tiny grids do not
resolve the mollifiers. Finally checks that a directory holding only
BENCHMARK.json and the benchmark's files (no regnets sources) makes the
benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(done, declared):
    errors = []
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        errors.append("attempted/failed are not whole numbers with attempted >= 1")
    got = result["metrics"]
    if set(got) != set(declared):
        errors.append(f"missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
    for name, unit in declared.items():
        if name in got and (got[name]["unit"] != unit or not isinstance(got[name]["value"], numbers.Real)):
            errors.append(f"{name}: {got[name]} (declared unit {unit})")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                       "--trace", str(trace), "--size", "tiny")
            errors = check_result(done, declared[trace])
            failures += bool(errors)
            print(f"[{'FAIL' if errors else 'PASS'}] {workload} --trace {trace}" + "".join(f"\n    {e}" for e in errors))

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0")
        ok = done.returncode != 0 and '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not ok
    print(f"[{'PASS' if ok else 'FAIL'}] bare directory exits {done.returncode} without a result")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
