"""One benchmark repetition, meant to run in a fresh process.

    python3 perfbench/rep.py --workload fleet --seed 42 --out .bench_out/tmp/r1 [--traced]
        [--spans .bench_out/fleet/spans.jsonl.gz]

Sets up, runs and exports one simulation, times each phase, then checks
the artifacts and prints a single JSON object. An untraced repetition
reports each phase in host-normalised seconds (pace.py) and keeps its raw
wall times under "wall_s"; a traced one reports raw wall times. Peak RSS
is read when Simulation.run() returns, before export and the checks
re-read the logs. run.py starts one of these per repetition, one at a
time, because ru_maxrss is a per-process high-water mark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from checks import (
    check_energy_balance,
    check_pins,
    check_reflections,
    check_summary,
    hourly_load_defect,
    log_wait_minutes,
    read_jsonl,
)
from pace import REFERENCE_KERNEL_S, Pacer
from spec import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_EXTRA_BUDGET_S = 0.5
SETUP_REPEATS_MAX = 20


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _layer_metrics(tracer, counters: dict, num_agent_days: int) -> dict:
    c = tracer.counters
    scanned = c.get("memory.records_scanned", 0)
    evaluated = c.get("perception.stations_evaluated", 0)
    return {
        "memory.retrieve_s": tracer.self_s("memory.retrieve"),
        "memory.aggregates_s": tracer.self_s("memory.daily_aggregates"),
        "memory.records_scanned": scanned,
        "memory.records_returned": c.get("memory.records_returned", 0),
        "memory.scan_useful_ratio": c.get("memory.records_returned", 0) / scanned if scanned else 0.0,
        "memory.append_calls": tracer.call_count("memory.append", "memory.append_reflection"),
        "memory.append_s": tracer.self_s("memory.append", "memory.append_reflection"),
        "memory.open_s": tracer.self_s("memory.open"),
        "memory.log_bytes": counters["memory.log_bytes"],
        "perception.calls": tracer.call_count("perception.perceive"),
        "perception.self_s": tracer.self_s("perception.perceive"),
        "perception.digest_s": tracer.self_s("perception.digest"),
        "perception.stations_kept_ratio": (
            c.get("perception.stations_kept", 0) / evaluated if evaluated else 0.0
        ),
        "georoute.route_calls": tracer.call_count("georoute.route"),
        "georoute.self_s": tracer.self_s("georoute.route"),
        "engine.events": tracer.call_count("engine.step"),
        "engine.self_s": tracer.self_s("engine.step"),
        "engine.log_bytes": counters["engine.log_bytes"],
        "providers.decide_calls": tracer.call_count("providers.decide"),
        "providers.decide_s": tracer.self_s("providers.decide"),
        "providers.validate_s": tracer.self_s("providers.validate_decision"),
        "providers.fallbacks": tracer.call_count("providers.baseline_decision")
        + counters["summary_fallbacks"],
        "providers.plan_day_s": tracer.self_s("providers.plan_day"),
        "providers.reflect_s": tracer.self_s("providers.reflect"),
        "providers.persona_s": tracer.self_s("providers.generate_persona"),
        "environment.begin_charge_calls": tracer.call_count("environment.begin_charge"),
        "environment.begin_charge_s": tracer.self_s("environment.begin_charge"),
        "environment.consume_energy_s": tracer.self_s("environment.consume_energy"),
        "environment.wait_minutes_total": c.get("environment.wait_minutes_total", 0),
        "export.build_summary_s": tracer.self_s("export.build_summary"),
        "export.csv_s": tracer.self_s("export.csv"),
        "export.geojson_s": tracer.self_s("export.geojson"),
        "export.html_s": tracer.self_s("export.html"),
        "gc.collections": tracer.call_count("gc.collect"),
        "gc.pause_s": tracer.self_s("gc.collect"),
        "traced_agent_days_per_s": num_agent_days / (tracer.phase_ns["run"] / 1e9),
    }


def repetition(workload_name: str, seed: int, out: Path, traced: bool, spans: Path | None) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from chargesim.config import load_config
    from chargesim.export import export_csv, export_geojson, export_html

    workload = WORKLOADS[workload_name]
    config = load_config(ROOT / "config" / "default.yaml")
    config.num_agents = workload.num_agents
    config.horizon_days = workload.horizon_days
    config.seed = seed
    num_agent_days = workload.num_agents * workload.horizon_days

    if traced:
        import chargesim.engine as engine
        from chargesim.providers.baseline import BaselineWeights
        from chargesim.providers.mock import MockProvider
        from layertrace import Tracer, install, traced_provider

        tracer = Tracer(keep_spans=spans is not None)
        install(tracer)
        weights = BaselineWeights(**{k: float(v) for k, v in config.baseline_weights.items()})
        provider = traced_provider(
            tracer, MockProvider(weights=weights, plan_template=config.effective_plan_template())
        )
        simulation_cls = engine.Simulation

        def phase(name, root):
            return tracer.root(name, root)
    else:
        from chargesim.engine import Simulation as simulation_cls

        provider = None

        def phase(name, root):
            return nullcontext()

    # the tracer's self times must not include the pacer's kernel, so traced
    # repetitions are not paced
    pacer = None if traced else Pacer()
    with pacer or nullcontext():
        t0 = time.perf_counter()
        with phase("setup", "engine.setup"):
            sim = simulation_cls(config, out, provider=provider)
        t1 = time.perf_counter()
        with phase("run", "engine.run"):
            artifacts = sim.run()
        t2 = time.perf_counter()
        # the simulation's own high-water mark; export re-reads the logs and would mask it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # export works on the finished run directory, as `chargesim export` does in
        # a process of its own: the simulation's heap would only lengthen its
        # collections, by an amount that varies from process to process
        del sim
        gc.collect()
        t2x = time.perf_counter()
        with phase("export", "export.csv"):
            export_csv(out)
        with phase("export", "export.geojson"):
            export_geojson(out)
        with phase("export", "export.html"):
            export_html(out)
        t3 = time.perf_counter()

    def seconds(a: float, b: float) -> float:
        return pacer.normalized_s(a, b) if pacer else b - a

    run_wall_s = pacer.net_s(t1, t2) if pacer else t2 - t1

    # -- checks: after every measurement ----------------------------------------
    entries = read_jsonl(out / "behavior.log")
    reflections = read_jsonl(out / "reflections.log")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    final_states = json.loads((out / "final_states.json").read_text(encoding="utf-8"))
    behavior_digest = _sha256(out / "behavior.log")
    reflections_digest = _sha256(out / "reflections.log")

    problems = []
    if (artifacts.behavior_digest, artifacts.reflections_digest) != (
        behavior_digest,
        reflections_digest,
    ):
        problems.append("RunArtifacts digests differ from the files on disk")
    if seed == DEFAULT_SEED:
        problems += check_pins(workload, behavior_digest, reflections_digest)
    problems += check_energy_balance(final_states)
    problems += check_summary(summary, entries, workload.num_agents)
    problems += check_reflections(reflections, workload.num_agents, workload.horizon_days)

    wait_minutes = log_wait_minutes(entries)
    counters = {
        "engine.log_bytes": (out / "behavior.log").stat().st_size
        + (out / "reflections.log").stat().st_size,
        "memory.log_bytes": sum(p.stat().st_size for p in (out / "memory").glob("*.log")),
        "summary_fallbacks": sum(summary["fallbacks"].values()),
    }
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "setup_s": seconds(t0, t1),
        "run_s": seconds(t1, t2),
        "export_s": seconds(t2x, t3),
        "agent_days_per_s": num_agent_days / seconds(t1, t2),
        # wall time without the pacer's kernel, for trace.overhead_ratio
        "wall_agent_days_per_s": num_agent_days / run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "behavior_digest": behavior_digest,
        "reflections_digest": reflections_digest,
        "records": len(entries),
        "known_defects": [hourly_load_defect(summary, workload.horizon_days)],
    }
    if traced:
        gc.callbacks.remove(tracer.on_gc)
        layers = _layer_metrics(tracer, counters, num_agent_days)
        if layers["environment.wait_minutes_total"] != wait_minutes:
            problems.append(
                f"ticket waits {layers['environment.wait_minutes_total']} min != "
                f"behavior.log waits {wait_minutes} min"
            )
        for phase_name, total in tracer.phase_ns.items():
            parts = sum(ns for (p, _), ns in tracer.self_ns.items() if p == phase_name)
            if parts != total:
                problems.append(f"{phase_name}: self times add to {parts} ns, phase is {total} ns")
        result["layers"] = layers
        result["table"] = tracer.table()
        result["phase_s"] = {p: ns / 1e9 for p, ns in tracer.phase_ns.items()}
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
            result["spans_written"] = tracer.write_spans(spans)
    else:
        result["wall_s"] = {"setup": t1 - t0, "run": t2 - t1, "export": t3 - t2x}
        # the host's effective speed in each phase, as the pacer's kernel time
        result["kernel_ms"] = {
            name: 1e3 * REFERENCE_KERNEL_S * pacer.net_s(a, b) / pacer.normalized_s(a, b)
            for name, a, b in (("setup", t0, t1), ("run", t1, t2), ("export", t2x, t3))
        }
        result["setup_samples_s"] = [seconds(t0, t1)] + _extra_setups(
            simulation_cls, config, out, pacer, first_s=t1 - t0
        )
    result["problems"] = problems
    return result


def _extra_setups(simulation_cls, config, out: Path, pacer: Pacer, first_s: float) -> list[float]:
    """Time more set-ups of the same scenario, about half a second's worth, after the run."""
    repeats = min(SETUP_REPEATS_MAX, round(SETUP_EXTRA_BUDGET_S / first_s))
    windows = []
    with pacer:
        for index in range(repeats):
            scratch = out / f"setup{index}"
            t0 = time.perf_counter()
            sim = simulation_cls(config, scratch)
            windows.append((t0, time.perf_counter()))
            # Simulation has no close(); release what __init__ opened before deleting it
            sim._behavior_fh.close()
            sim._reflections_fh.close()
            for agent in sim.agents.values():
                agent.memory.close()
            shutil.rmtree(scratch)
    return [pacer.normalized_s(a, b) for a, b in windows]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        result = repetition(args.workload, args.seed, args.out, args.traced, args.spans)
    except Exception as exc:  # the parent counts this repetition as failed
        traceback.print_exc()
        result = {"workload": args.workload, "seed": args.seed, "traced": args.traced,
                  "problems": [f"raised {type(exc).__name__}: {exc}"]}
    print(json.dumps(result))
    return 0 if not result["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
