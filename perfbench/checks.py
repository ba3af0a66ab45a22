"""Correctness checks on a finished run directory.

Each check reads the artifacts back from disk and recomputes what it needs
without chargesim's own summary code, so a defect there cannot hide itself.
Every function returns a list of problems; an empty list means the run is
correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ENERGY_TOLERANCE_KWH = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_pins(workload, behavior_digest: str, reflections_digest: str) -> list[str]:
    """The digests a workload is pinned to at spec.DEFAULT_SEED."""
    problems = []
    if behavior_digest != workload.behavior_pin:
        problems.append(f"behavior.log sha256 {behavior_digest} != pin {workload.behavior_pin}")
    if reflections_digest != workload.reflections_pin:
        problems.append(
            f"reflections.log sha256 {reflections_digest} != pin {workload.reflections_pin}"
        )
    return problems


def check_energy_balance(final_states: dict) -> list[str]:
    """initial + charged - consumed + tow = final, per agent."""
    errors = {}
    for agent_id, s in final_states.items():
        expected = s["initial_soc_kwh"] + s["charged_kwh"] - s["consumed_kwh"] + s["tow_delta_kwh"]
        if abs(expected - s["soc_kwh"]) > ENERGY_TOLERANCE_KWH:
            errors[agent_id] = expected - s["soc_kwh"]
    if not errors:
        return []
    worst = max(errors, key=lambda agent_id: abs(errors[agent_id]))
    return [
        f"{len(errors)} agents break the energy balance; worst {worst} by {errors[worst]:.3e} kWh"
    ]


def log_totals(entries: list[dict]) -> dict:
    """Fleet totals straight from behavior.log: per agent in file order, then agents sorted."""
    per_agent: dict[str, list] = {}
    strands = 0
    for entry in entries:
        bucket = per_agent.setdefault(entry["agent_id"], [0.0, 0.0, 0.0, 0])
        action = entry["record"]["action"]
        extras = entry["extras"]
        if action == "travel":
            bucket[0] += extras["distance_km"]
        elif action == "stop_charging":
            bucket[0] += extras["approach_distance_km"]
            bucket[1] += extras["energy_kwh"]
            bucket[2] += extras["cost"]
            bucket[3] += 1
        elif action == "idle" and "attempted_distance_km" in extras:
            strands += 1
    agents = sorted(per_agent)
    return {
        "total_km": sum(per_agent[a][0] for a in agents),
        "total_kwh_charged": sum(per_agent[a][1] for a in agents),
        "total_cost": sum(per_agent[a][2] for a in agents),
        "charge_count": sum(per_agent[a][3] for a in agents),
        "strand_count": strands,
    }


def log_wait_minutes(entries: list[dict]) -> int:
    return sum(
        e["extras"]["wait_minutes"] for e in entries if e["record"]["action"] == "stop_charging"
    )


def check_summary(summary: dict, entries: list[dict], num_agents: int) -> list[str]:
    problems = []
    fleet = summary["fleet"]
    for key, value in log_totals(entries).items():
        ok = value == fleet[key] if isinstance(value, int) else _close(value, fleet[key])
        if not ok:
            problems.append(f"summary.json fleet {key} {fleet[key]!r} != behavior.log {value!r}")
    if summary["num_agents"] != num_agents:
        problems.append(f"summary.json num_agents {summary['num_agents']} != {num_agents}")
    nonzero = {k: v for k, v in summary["fallbacks"].items() if v}
    if nonzero:
        problems.append(f"mock provider fell back: {nonzero}")
    return problems


def check_reflections(reflections: list[dict], num_agents: int, horizon_days: int) -> list[str]:
    expected = num_agents * horizon_days
    if len(reflections) != expected:
        return [f"{len(reflections)} reflection reports, expected {expected}"]
    return []


def hourly_load_defect(summary: dict, horizon_days: int) -> dict:
    """The hourly load series should have one bucket per simulated hour."""
    observed = len(summary["hourly_load_kw"])
    expected = horizon_days * 24
    return {
        "name": "summary.hourly_load_kw length",
        "observed": observed,
        "expected": expected,
        "present": observed != expected,
    }
