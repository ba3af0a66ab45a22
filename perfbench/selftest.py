"""Self-test of the benchmark; takes about five minutes.

    python3 perfbench/selftest.py

Checks that
- BENCHMARK.json is exactly what spec.py generates;
- two sets of traced runs of each workload, at seeds 42 and 7, pass every
  correctness check and give identical exact work counters (spec.EXACT_COUNTERS);
- run.py fails, printing no result, in a directory that holds only
  BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spec import DEFAULT_SEED, EXACT_COUNTERS, WORKLOADS, benchmark_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# What the prototype of this tracer counted at seed 42, printed for reference:
# events, route calls and records scanned per workload.
REFERENCE_COUNTS = {
    "fleet": (26_588, 110_396, 1_585_288),
    "horizon": (23_181, 95_005, 11_931_858),
    "crowd": (37_063, 158_138, 298_918),
}


def run_bench(cwd: Path, workload: str, seed: int) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if committed != benchmark_json():
        return fail("BENCHMARK.json differs from spec.py; regenerate it with perfbench/spec.py")
    print("ok: BENCHMARK.json matches spec.py")

    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, 7):
            sets = []
            for _ in range(2):
                code, output, result = run_bench(ROOT, workload, seed)
                if code != 0 or result is None or not result["correct"]:
                    print(output)
                    return fail(f"{workload} seed {seed}: run failed (exit {code})")
                sets.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTERS})
            if sets[0] != sets[1]:
                diff = {k: (sets[0][k], sets[1][k]) for k in EXACT_COUNTERS if sets[0][k] != sets[1][k]}
                return fail(f"{workload} seed {seed}: exact counters differ: {diff}")
            if not all(isinstance(v, int) for v in sets[0].values()):
                return fail(f"{workload} seed {seed}: exact counters are not integers: {sets[0]}")
            print(f"ok: {workload} seed {seed}: correct twice, counters identical: {sets[0]}")
            if seed == DEFAULT_SEED and workload in REFERENCE_COUNTS:
                got = tuple(sets[0][k] for k in
                            ("engine.events", "georoute.route_calls", "memory.records_scanned"))
                print(f"    events, route calls, records scanned {got}; "
                      f"prototype counted {REFERENCE_COUNTS[workload]}")

    stripped = ROOT / ".bench_out" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, output, result = run_bench(stripped, "fleet", DEFAULT_SEED)
    shutil.rmtree(stripped)
    if code == 0 or result is not None:
        return fail(f"run.py without the program exited {code} and printed {result}")
    print(f"ok: without the program run.py exits {code} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
