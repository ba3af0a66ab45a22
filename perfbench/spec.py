"""What the benchmark runs and what its numbers mean.

Workloads, pinned digests, metrics and the reason for each live here once.
run.py, rep.py and selftest.py read them from this module, and
BENCHMARK.json at the repository root is generated from it:

    python3 perfbench/spec.py > BENCHMARK.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_SEED = 42  # the seed the digests below are pinned at
RUN_SECONDS = 36


@dataclass(frozen=True)
class Workload:
    name: str
    num_agents: int
    horizon_days: int
    # seed-42 sha256 of behavior.log and reflections.log
    behavior_pin: str
    reflections_pin: str
    why: str


# All three use config/default.yaml (7 stations, mock provider); only the
# fleet size and the horizon change, and each one stresses a different layer.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet",
            100,
            7,
            "d82f02518cd677f0024aa10d6e5b31ed2a888dc13e1dabee7e5e2822b8d5fdbd",
            "7ddca9cd29d046fdb08e877352461add60a65ea54acdb01d190531d1b0119f86",
            "100 agents x 7 days, the paper's shape at fleet scale: the per-decision path "
            "(perceive, digest, routing, planning, log writes) dominates; memory stays short",
        ),
        Workload(
            "horizon",
            10,
            60,
            "8caa57cf38db905bf7750c34487967223de1a7e79844650a56f961c78fae3ee5",
            "cd8b6bbea4ca6370d26902c1ab57c07a7d27e399638a46f185068a7214cfd587",
            "10 agents x 60 days: fleet's record count with 9x the memory history, so the "
            "linear memory window scan dominates and a retrieval change shows only here",
        ),
        Workload(
            "crowd",
            1000,
            1,
            "3839a3c55458ea703ec2133c08c6c434c0b6ebb3dc200273974e9c406758e814",
            "25f9049334e5c7b136b184e90d648c83afcf9a7f9d379648e4c9770ee9d92260",
            "1000 agents x 1 day: write-heavy memory over 1000 open logs, contended stations, "
            "heavy setup and the largest heap; almost no history to scan",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    doc: str
    bound: float | None = None  # end-to-end: allowed worsening, as a share of the parent median
    moves: str = ""  # per-layer: the end-to-end metric and workload it should move


# Each run reports the median over its repetitions. Times are host-normalised
# (pace.py): the 2-vCPU host the benchmark was built on switches between a
# fast and a slow state about 2x apart, many times a minute, so a reference
# kernel sampled during each phase rescales the phase's own work to a host of
# fixed speed. Raw wall times stay in .bench_out/<workload>/report-trace0.json.
# Over ten runs with ten seeds on that host the interquartile range was 3-7%
# of the median for agent_days_per_s, 3-6% for export_s and 9-16% for setup_s
# (raw wall times: 20-44%). The bounds leave room for a busier host.
END_TO_END = (
    Metric("agent_days_per_s", "1/s", "higher",
           "num_agents * horizon_days over the host-normalised time of Simulation.run()",
           bound=0.25),
    Metric("setup_s", "s", "lower",
           "host-normalised time of Simulation(config, out_dir): validation, personas, "
           "memory logs, day-0 plans; timed several times per repetition", bound=0.25),
    Metric("export_s", "s", "lower",
           "host-normalised time of export_csv + export_geojson + export_html on the "
           "finished run", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of a fresh process when Simulation.run() returns", bound=0.1),
)

_HORIZON = "agent_days_per_s on horizon; no change on crowd"
_CROWD_WRITES = "agent_days_per_s and setup_s on crowd"
_DECISION = "agent_days_per_s on fleet and crowd"
_ALL = "agent_days_per_s on all three"
_EXPORT = "export_s on all three"
_GC = "peak_rss_mb and agent_days_per_s on crowd and fleet"

# Every "_s" layer metric is self time: the span's duration minus the spans
# under it, gc pauses included, so one phase's rows add up to the phase.
PER_LAYER = (
    Metric("memory.retrieve_s", "s", "lower", "MemoryStore.retrieve, nested calls included",
           moves=_HORIZON),
    Metric("memory.aggregates_s", "s", "lower", "MemoryStore.daily_aggregates minus its retrieve",
           moves=_HORIZON),
    Metric("memory.records_scanned", "count", "lower",
           "len(records) summed over every retrieve call, the one inside daily_aggregates too",
           moves=_HORIZON),
    Metric("memory.records_returned", "count", "lower", "records returned by those calls",
           moves=_HORIZON),
    Metric("memory.scan_useful_ratio", "ratio", "higher", "records_returned / records_scanned",
           moves=_HORIZON),
    Metric("memory.append_calls", "count", "lower", "MemoryStore.append + append_reflection",
           moves=_CROWD_WRITES),
    Metric("memory.append_s", "s", "lower", "both append methods", moves=_CROWD_WRITES),
    Metric("memory.open_s", "s", "lower", "MemoryStore.__init__, which opens the agent's log",
           moves="setup_s on crowd"),
    Metric("memory.log_bytes", "bytes", "lower", "size of memory/*.log after the run",
           moves=_CROWD_WRITES),
    Metric("perception.calls", "count", "lower", "perceive() calls", moves=_DECISION),
    Metric("perception.self_s", "s", "lower", "perceive() minus routing", moves=_DECISION),
    Metric("perception.digest_s", "s", "lower", "PerceptionSnapshot.digest", moves=_DECISION),
    Metric("perception.stations_kept_ratio", "ratio", "higher",
           "stations within the radius over stations evaluated", moves=_DECISION),
    Metric("georoute.route_calls", "count", "lower", "OfflineRouter.route calls",
           moves="agent_days_per_s on fleet"),
    Metric("georoute.self_s", "s", "lower", "OfflineRouter.route",
           moves="agent_days_per_s on fleet"),
    Metric("engine.events", "count", "lower", "Simulation.step calls", moves=_ALL),
    Metric("engine.self_s", "s", "lower", "Simulation.step minus its children", moves=_ALL),
    Metric("engine.log_bytes", "bytes", "lower", "behavior.log + reflections.log size",
           moves=_ALL + "; a log-format change also export_s"),
    Metric("providers.decide_calls", "count", "lower", "provider.decide calls",
           moves="agent_days_per_s on fleet"),
    Metric("providers.decide_s", "s", "lower", "provider.decide",
           moves="agent_days_per_s on fleet"),
    Metric("providers.validate_s", "s", "lower", "validate_decision",
           moves="agent_days_per_s on fleet"),
    Metric("providers.fallbacks", "count", "lower",
           "baseline_decision calls plus the plan, persona and reflection fallbacks",
           moves="none while 0; any fallback also fails the run"),
    Metric("providers.plan_day_s", "s", "lower", "provider.plan_day, day 0 in setup included",
           moves="agent_days_per_s on fleet; setup_s on crowd"),
    Metric("providers.reflect_s", "s", "lower", "provider.reflect", moves=_ALL),
    Metric("providers.persona_s", "s", "lower", "provider.generate_persona",
           moves="setup_s on crowd"),
    Metric("environment.begin_charge_calls", "count", "lower", "begin_charge calls",
           moves="agent_days_per_s on crowd"),
    Metric("environment.begin_charge_s", "s", "lower", "begin_charge",
           moves="agent_days_per_s on crowd"),
    Metric("environment.consume_energy_s", "s", "lower", "consume_energy",
           moves="agent_days_per_s on crowd"),
    Metric("environment.wait_minutes_total", "min", "lower",
           "simulated queue wait summed over charge tickets",
           moves="none: simulated time, identical under any speed-only change"),
    Metric("export.build_summary_s", "s", "lower", "build_summary inside Simulation.run",
           moves=_ALL),
    Metric("export.csv_s", "s", "lower", "export_csv", moves=_EXPORT),
    Metric("export.geojson_s", "s", "lower", "export_geojson", moves=_EXPORT),
    Metric("export.html_s", "s", "lower", "export_html", moves=_EXPORT),
    Metric("gc.collections", "count", "lower", "collections seen through gc.callbacks",
           moves=_GC),
    Metric("gc.pause_s", "s", "lower", "time inside those collections", moves=_GC),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "untraced over traced agent_days_per_s in the same run",
           moves="none: the cost of tracing, to judge the per-layer shares"),
)

# Work counters that must repeat exactly for a given workload and seed.
EXACT_COUNTERS = (
    "engine.events",
    "georoute.route_calls",
    "memory.records_scanned",
    "memory.records_returned",
    "perception.calls",
    "providers.decide_calls",
    "engine.log_bytes",
    "memory.log_bytes",
    "environment.wait_minutes_total",
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
