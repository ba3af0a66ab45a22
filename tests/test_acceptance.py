"""Acceptance suite: the scenario-level exit criteria for this simulator.

Each test prints one PASS or FAIL line (run with -s to see them on success)
and pins its tolerance inline. Everything runs offline with the mock
provider; the live-provider smoke test is key-gated and skipped without
LLM_API_KEY.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time

import pytest

from chargesim.config import ScenarioConfig
from chargesim.domain import GeoPoint, SimClock
from chargesim.engine import run
from chargesim.environment import (
    ChargingStation,
    DaySchedule,
    EvState,
    begin_charge,
)
from chargesim.export import export_csv, export_geojson
from chargesim.georoute import haversine_km
from chargesim.memory import MemoryStore
from chargesim.providers import MockProvider
from faults import FaultInjectingProvider
from geojson_schema import validate_geojson
from oracles import oracle_cost, oracle_fifo_starts, oracle_great_circle_km, read_log
from test_memory import _record

HERE = GeoPoint(31.23, 121.47)


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
            return result

        return inner

    return wrap


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Two identical default-config runs plus the wall-clock time of the first."""
    base = tmp_path_factory.mktemp("acceptance")
    config = ScenarioConfig()
    started = time.perf_counter()
    first = run(config, base / "first")
    elapsed = time.perf_counter() - started
    second = run(ScenarioConfig(), base / "second")
    return first, second, elapsed


@criterion(1, "default scenario: 10 agents x 7 days, 70 reflections, <10 s")
def test_criterion_1_scenario_reproduction(default_runs):
    artifacts, _second, elapsed = default_runs
    config = ScenarioConfig()
    assert config.num_agents == 10
    assert config.horizon_days == 7
    assert config.initial_soc_kwh == 60.0

    personas = json.loads((artifacts.run_dir / "personas.json").read_text(encoding="utf-8"))
    assert len(personas) == 10
    for persona in personas.values():
        assert persona["vehicle"]["battery_capacity_kwh"] == 75.0

    reflections = read_log(artifacts.reflections_log)
    assert len(reflections) == 70
    per_agent = {}
    for entry in reflections:
        per_agent.setdefault(entry["agent_id"], set()).add(entry["report"]["day_index"])
    assert all(days == set(range(7)) for days in per_agent.values())

    entries = read_log(artifacts.behavior_log)
    counts = {f"agent-{i:02d}": 0 for i in range(10)}
    for entry in entries:
        counts[entry["agent_id"]] += 1
    assert all(count >= 1 for count in counts.values())

    assert elapsed < 10.0, f"run took {elapsed:.2f} s"


@criterion(2, "determinism: identical (config, seed) gives byte-identical logs")
def test_criterion_2_determinism(default_runs):
    first, second, _elapsed = default_runs
    assert first.behavior_digest == second.behavior_digest
    assert first.reflections_digest == second.reflections_digest


@criterion(3, "energy conservation per agent within 1e-9 kWh")
def test_criterion_3_energy_conservation(default_runs):
    artifacts, _second, _elapsed = default_runs
    for agent_id, state in artifacts.final_states.items():
        drift = state["soc_kwh"] - (
            state["initial_soc_kwh"]
            - state["consumed_kwh"]
            + state["charged_kwh"]
            + state["tow_delta_kwh"]
        )
        assert abs(drift) <= 1e-9, f"{agent_id}: drift {drift}"
    # and the logged stream accounts for every joule the engine moved
    consumed = {aid: 0.0 for aid in artifacts.final_states}
    charged = {aid: 0.0 for aid in artifacts.final_states}
    for entry in read_log(artifacts.behavior_log):
        aid = entry["agent_id"]
        action = entry["record"]["action"]
        if action == "travel":
            consumed[aid] += entry["extras"]["energy_kwh"]
        elif action == "stop_charging":
            consumed[aid] += entry["extras"]["approach_energy_kwh"]
            charged[aid] += entry["extras"]["energy_kwh"]
    for aid, state in artifacts.final_states.items():
        assert abs(consumed[aid] - state["consumed_kwh"]) <= 1e-9
        assert abs(charged[aid] - state["charged_kwh"]) <= 1e-9


@criterion(4, "queue discipline: 200-agent stress, occupancy bound and exact FIFO")
def test_criterion_4_queue_discipline():
    rng = random.Random(2024)
    tariff = DaySchedule(((0, 1440, 0.62),))
    station = ChargingStation(
        station_id="st-stress", location=HERE, pile_count=4, pile_power_kw=60.0, tariff_id="t"
    )
    arrivals = sorted(rng.randint(0, 600) for _ in range(200))
    jobs = []
    tickets = []
    for i, arrival in enumerate(arrivals):
        energy = rng.uniform(2.0, 40.0)
        ev = EvState(
            agent_id=f"agent-{i:03d}",
            location=HERE,
            soc_kwh=5.0,
            capacity_kwh=80.0,
            max_charge_power_kw=60.0,
        )
        ticket = begin_charge(station, ev, energy, SimClock(arrival), tariff)
        tickets.append(ticket)
        jobs.append((arrival, ticket.end_charge - ticket.start_charge))

    # occupancy never exceeds pile_count, checked at every event boundary
    boundaries = sorted({t for ticket in tickets for t in (ticket.start_charge, ticket.end_charge)})
    for t in boundaries:
        active = sum(1 for k in tickets if k.start_charge <= t < k.end_charge)
        assert active <= 4, f"occupancy {active} at minute {t}"

    # service order equals enqueue order, exactly
    starts = [ticket.start_charge for ticket in tickets]
    assert starts == sorted(starts)

    # and the independent minute-stepping FIFO oracle agrees on every start
    assert starts == oracle_fifo_starts([0, 0, 0, 0], jobs)


@criterion(5, "cost correctness: 1000 random tickets within 1e-6 of the minute oracle")
def test_criterion_5_cost_correctness():
    rng = random.Random(77)
    for trial in range(1000):
        cuts = sorted(rng.sample(range(1, 1440), rng.randint(0, 5)))
        edges = [0] + cuts + [1440]
        bands = tuple(
            (lo, hi, round(rng.uniform(0.0, 3.0), 4)) for lo, hi in zip(edges, edges[1:])
        )
        tariff = DaySchedule(bands)
        station = ChargingStation(
            station_id="st", location=HERE, pile_count=2, pile_power_kw=rng.choice([7.0, 60.0, 120.0]),
            tariff_id="t",
        )
        station.busy_until = [rng.randint(0, 200), rng.randint(0, 200)]
        capacity = rng.uniform(40.0, 100.0)
        soc = rng.uniform(0.0, capacity * 0.95)
        ev = EvState(
            agent_id="a", location=HERE, soc_kwh=soc,
            capacity_kwh=capacity, max_charge_power_kw=rng.choice([30.0, 60.0, 150.0]),
        )
        ticket = begin_charge(station, ev, rng.uniform(0.5, 80.0), SimClock(rng.randint(0, 2000)), tariff)
        want = oracle_cost(
            ticket.start_charge,
            ticket.end_charge,
            ticket.energy_kwh,
            list(bands),
        ).value
        assert abs(ticket.cost - want) <= 1e-6, f"trial {trial}: {ticket.cost} vs {want}"


@criterion(6, "geo correctness: 100 random pairs within 0.5% of the oracle, symmetry exact")
def test_criterion_6_geo_correctness():
    rng = random.Random(31)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-85, 85), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-85, 85), rng.uniform(-179, 179))
        got = haversine_km(a.latitude, a.longitude, b.latitude, b.longitude)
        want = oracle_great_circle_km(a.latitude, a.longitude, b.latitude, b.longitude).value
        if want > 1e-6:
            assert abs(got - want) / want < 0.005
        assert got == haversine_km(b.latitude, b.longitude, a.latitude, a.longitude)


@criterion(7, "memory windows: exact 3-day boundary excluded, short within long")
def test_criterion_7_memory_windows():
    now = 10 * 1440
    store = MemoryStore()
    store.append(_record(now - 3 * 1440))
    store.append(_record(now - 3 * 1440 + 1))
    short = store.retrieve(SimClock(now), "short")
    assert [r.timestamp for r in short] == [now - 3 * 1440 + 1]

    rng = random.Random(8)
    for _ in range(50):
        store = MemoryStore()
        for ts in sorted(rng.randint(0, 12 * 1440) for _ in range(40)):
            store.append(_record(ts))
        clock = SimClock(rng.randint(0, 13 * 1440))
        short = store.retrieve(clock, "short")
        long = store.retrieve(clock, "long")
        assert set(id(r) for r in short) <= set(id(r) for r in long)
        assert all(clock.sim_time - 3 * 1440 < r.timestamp <= clock.sim_time for r in short)


@criterion(8, "schema robustness: 20% malformed decisions never corrupt the run")
def test_criterion_8_schema_robustness(tmp_path):
    config = ScenarioConfig()
    provider = FaultInjectingProvider(
        MockProvider(plan_template=config.effective_plan_template()),
        rate=0.2,
        seed=config.seed,
    )
    artifacts = run(config, tmp_path / "faulty", provider=provider)

    assert provider.injected > 0
    assert artifacts.summary["fallbacks"]["decisions"] == provider.injected

    entries = read_log(artifacts.behavior_log)
    tagged = [e for e in entries if e["fallback"]]
    assert len(tagged) == provider.injected
    for entry in tagged:
        assert entry["record"]["action"] in ("start_charging", "skip_charging")

    # the run completed and engine state stayed physical
    assert len(read_log(artifacts.reflections_log)) == 70
    for entry in entries:
        quintuple = entry["record"]["quintuple"]
        if not quintuple["decision"]:
            assert quintuple["station_id"] is None and quintuple["amount_kwh"] == 0.0
        capacity = artifacts.final_states[entry["agent_id"]]["capacity_kwh"]
        assert quintuple["amount_kwh"] <= capacity + 1e-9
    for agent_id, state in artifacts.final_states.items():
        assert 0.0 <= state["soc_kwh"] <= state["capacity_kwh"]
        drift = state["soc_kwh"] - (
            state["initial_soc_kwh"]
            - state["consumed_kwh"]
            + state["charged_kwh"]
            + state["tow_delta_kwh"]
        )
        assert abs(drift) <= 1e-9, agent_id


@criterion(9, "export validity: schema-valid GeoJSON, matching counts, exact CSV totals")
def test_criterion_9_export_validity(default_runs):
    artifacts, _second, _elapsed = default_runs
    collection = json.loads(export_geojson(artifacts.run_dir).read_text(encoding="utf-8"))
    validate_geojson(collection)

    kinds = {}
    for feature in collection["features"]:
        kinds.setdefault(feature["properties"]["kind"], []).append(feature)
    assert len(kinds["route"]) == 10
    assert len(kinds["station"]) == len(ScenarioConfig().stations)
    assert len(kinds["start"]) == 10 and len(kinds["end"]) == 10
    decisions = [
        e for e in read_log(artifacts.behavior_log) if e["record"]["action"] == "start_charging"
    ]
    assert len(kinds["charge"]) == len(decisions)

    csv_lines = export_csv(artifacts.run_dir).read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 1 + 10 + 1
    rows = {}
    for line in csv_lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = (float(cells[1]), float(cells[2]), float(cells[3]), int(cells[4]))
    recomputed = {}
    for entry in read_log(artifacts.behavior_log):
        bucket = recomputed.setdefault(entry["agent_id"], [0.0, 0.0, 0.0, 0])
        action = entry["record"]["action"]
        extras = entry["extras"]
        if action == "travel":
            bucket[0] += extras["distance_km"]
        elif action == "stop_charging":
            bucket[0] += extras["approach_distance_km"]
            bucket[1] += extras["energy_kwh"]
            bucket[2] += extras["cost"]
            bucket[3] += 1
    for agent_id, expected in recomputed.items():
        assert rows[agent_id] == tuple(expected), agent_id
    fleet = tuple(
        sum(recomputed[aid][i] for aid in sorted(recomputed)) for i in range(4)
    )
    assert rows["fleet"] == fleet


@pytest.mark.skipif(
    not os.environ.get("LLM_API_KEY"),
    reason="live-provider smoke test needs LLM_API_KEY (excluded from CI)",
)
@criterion(10, "live provider smoke: 1 agent, 1 day, at least one schema-valid decision")
def test_criterion_10_live_smoke(tmp_path):
    config = ScenarioConfig()
    config.num_agents = 1
    config.horizon_days = 1
    config.provider = "live"
    config.live = {
        "base_url": os.environ.get("LLM_BASE_URL", "https://api.openai.com/v1"),
        "model": os.environ.get("LLM_MODEL", "gpt-4o-mini"),
        "temperature": 0.0,
        "timeout_s": 60.0,
        "prompts_dir": None,
    }
    artifacts = run(config, tmp_path / "live")
    decisions = [
        e
        for e in read_log(artifacts.behavior_log)
        if e["record"]["action"] in ("start_charging", "skip_charging") and not e["fallback"]
    ]
    assert len(decisions) >= 1
