"""chargesim benchmark: end-to-end and per-layer performance of the simulator.

    python3 perfbench/run.py --workload fleet --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # fleet, horizon and crowd in turn

Run from the repository root; needs only the standard library and pyyaml.
Workloads, metrics and their rationale are in spec.py.

A run starts repetitions one at a time, each in a fresh child process
(rep.py), while the next one is likely to end within --seconds, and makes
at least MIN_UNTRACED of them. Every repetition sets up, runs and exports
one simulation and checks its artifacts. Each metric is the median over
the repetitions of the run; times are host-normalised (pace.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics from the traced ones;
the untraced ones give trace.overhead_ratio and must produce the same
digests. Output goes to .bench_out/<workload>/ (report.json, layers.txt,
spans.jsonl.gz). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only if
every repetition passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import DEFAULT_SEED, END_TO_END, EXACT_COUNTERS, PER_LAYER, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_UNTRACED = 3
REP_TIMEOUT_S = 120


def environment(seed: int) -> dict:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    uname = os.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(),
        "rlimit_nofile_soft": soft,
        "rlimit_nofile_hard": hard,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_repetition(workload: str, seed: int, index: int, traced: bool, spans: Path | None) -> dict:
    scratch = OUT / "tmp" / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(scratch)]
    if traced:
        cmd.append("--traced")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"traced": traced, "problems": []}
    if proc.returncode != 0 and (proc.stderr.strip() or not result["problems"]):
        result["problems"].append(f"rep.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return result


def cross_checks(reps: list[dict]) -> list[str]:
    """Every repetition of one (workload, seed) must agree on outputs and exact counters."""
    problems = []
    done = [r for r in reps if "behavior_digest" in r]
    digests = {(r["behavior_digest"], r["reflections_digest"]) for r in done}
    if len(digests) > 1:
        problems.append(f"repetitions disagree on digests (traced and untraced): {sorted(digests)}")
    traced = [r for r in done if "layers" in r]
    for name in EXACT_COUNTERS:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            problems.append(f"exact counter {name} differs between repetitions: {sorted(values)}")
    return problems


def summarize(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Run repetitions of one workload for about `seconds`; return report and result."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    spans = out / "spans.jsonl.gz"
    started = time.monotonic()
    reps: list[dict] = []
    last_s = 0.0
    while True:
        untraced = sum(1 for r in reps if not r["traced"])
        traced_n = len(reps) - untraced
        if trace:
            enough = untraced >= 1 and traced_n >= 1
        else:
            enough = untraced >= MIN_UNTRACED
        # stop before a repetition that would likely end past the budget
        if enough and time.monotonic() - started + last_s > seconds:
            break
        traced = trace and traced_n < untraced
        first_traced = traced and traced_n == 0
        rep_started = time.monotonic()
        reps.append(
            run_repetition(workload, seed, len(reps), traced, spans if first_traced else None)
        )
        last_s = time.monotonic() - rep_started
    shutil.rmtree(OUT / "tmp", ignore_errors=True)

    failed = sum(1 for r in reps if r["problems"])
    problems = [p for r in reps for p in r["problems"]] + cross_checks(reps)
    if problems and not failed:
        failed = len(reps)  # outputs disagree across repetitions: none can be trusted
    plain = [r for r in reps if not r["traced"] and not r["problems"]]
    traced_reps = [r for r in reps if r["traced"] and not r["problems"]]

    metrics: dict[str, dict] = {}
    stats: dict[str, dict] = {}
    if plain:
        samples = {
            "agent_days_per_s": [r["agent_days_per_s"] for r in plain],
            "setup_s": [s for r in plain for s in r["setup_samples_s"]],
            "export_s": [r["export_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        stats = {name: summarize(values) for name, values in samples.items()}
    if not trace and plain:
        metrics = {m.name: {"value": stats[m.name]["median"], "unit": m.unit} for m in END_TO_END}
    elif trace and traced_reps and plain:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_reps)
            for name in traced_reps[0]["layers"]
        }
        # both raw wall times: traced repetitions are not host-normalised
        layers["trace.overhead_ratio"] = (
            statistics.median(r["wall_agent_days_per_s"] for r in plain)
            / layers["traced_agent_days_per_s"]
        )
        for name in EXACT_COUNTERS:  # integers, identical in every traced repetition
            layers[name] = traced_reps[0]["layers"][name]
        metrics = {m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER}

    first_ok = next((r for r in reps if "records" in r), {})
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "environment": env,
        "shape": {"num_agents": WORKLOADS[workload].num_agents,
                  "horizon_days": WORKLOADS[workload].horizon_days,
                  "records": first_ok.get("records")},
        "attempted": len(reps),
        "failed": failed,
        "problems": problems,
        "known_defects": first_ok.get("known_defects", []),
        "end_to_end": stats,
        "metrics": metrics,
        "layers_table": format_table(workload, seed, traced_reps[0]) if traced_reps else "",
        "repetitions": reps,
    }
    (out / f"report-trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    if report["layers_table"]:
        (out / "layers.txt").write_text(report["layers_table"])
    return report


def format_table(workload: str, seed: int, rep: dict) -> str:
    lines = [f"{workload} seed {seed}: self time per span, one traced repetition",
             f"{'phase':<7} {'span':<30} {'calls':>9} {'self_s':>9} {'share':>7}"]
    for row in rep["table"]:
        lines.append(f"{row['phase']:<7} {row['span']:<30} {row['calls']:>9} "
                     f"{row['self_s']:>9.4f} {100 * row['share']:>6.1f}%")
    for phase, total in rep["phase_s"].items():
        lines.append(f"{phase:<7} {'(phase total)':<30} {'':>9} {total:>9.4f} {100.0:>6.1f}%")
    return "\n".join(lines) + "\n"


def print_report(report: dict) -> None:
    w = report["workload"]
    shape = report["shape"]
    print(f"== {w}: {shape['num_agents']} agents x {shape['horizon_days']} days, "
          f"{shape['records']} records, seed {report['seed']}; "
          f"{report['attempted'] - report['failed']} of {report['attempted']} repetitions passed")
    for m in END_TO_END:
        s = report["end_to_end"].get(m.name)
        if s:
            print(f"   {m.name:<18} {s['median']:>12.4f} {m.unit:<5} "
                  f"(median of {s['n']}, min {s['min']:.4f}, max {s['max']:.4f})")
    if report["trace"] and report["metrics"]:
        moves = {m.name: m.moves for m in PER_LAYER}
        for name, m in report["metrics"].items():
            print(f"   {name:<32} {m['value']:>16.6g} {m['unit']:<6} -> {moves[name]}")
        print(report["layers_table"], end="")
    for defect in report["known_defects"]:
        state = "PRESENT" if defect["present"] else "absent"
        print(f"   known defect {state}: {defect['name']} is {defect['observed']}, "
              f"expected {defect['expected']}")
    for problem in report["problems"]:
        print(f"   FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/chargesim/engine.py", "config/default.yaml") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a chargesim checkout, missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print(f"python {env['python']}, nproc {env['nproc']}, RLIMIT_NOFILE soft "
          f"{env['rlimit_nofile_soft']}, commit {env['git_commit']}, seed {args.seed}")
    reports = []
    for name in names:
        report = measure(name, args.seed, args.seconds, bool(args.trace), env)
        print_report(report)
        reports.append(report)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = failed == 0 and all(r["metrics"] for r in reports)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
