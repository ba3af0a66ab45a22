from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given

import chargesim
from chargesim.config import ScenarioConfig, load_config
from chargesim.domain import (
    MINUTES_PER_DAY,
    ActionType,
    ChargeScenario,
    DailyPlan,
    DecisionQuintuple,
    GeoPoint,
    Persona,
    PlanEvent,
    PlanEventKind,
    ReflectionReport,
    canonical_json,
    from_data,
    to_data,
    validate_persona,
)
from chargesim import environment
from chargesim.engine import RunTotals, Simulation, _leg, build_summary, run
from chargesim.environment import ChargeTicket
from chargesim.georoute import OfflineRouter, RouteEstimate
from chargesim.memory import MemoryStore
from chargesim.providers import (
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
    MockProvider,
    baseline,
    mock,
)
from chargesim.providers.mock import home_point_for
from faults import FaultInjectingProvider
from oracles import oracle_request_text
from test_perception import any_float, coordinates, plain_int


DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "config" / "default.yaml"
# sha256 of the seed-42 default run's logs, unchanged since the first
# benchmark; a deliberate behaviour change re-pins these and says why
DEFAULT_BEHAVIOR_PIN = "62adca69be63b23f0289da02cf477c8412af84aa34d2e91c95b8b1f4f21a351c"
DEFAULT_REFLECTIONS_PIN = "82d6babe1c88cc36322c8a8b067b3d0dcc3c86c8b1ce37a46a81fa150400f40c"


def small_config(**overrides) -> ScenarioConfig:
    config = ScenarioConfig()
    config.num_agents = 3
    config.horizon_days = 2
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def read_entries(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def run_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# Event loop ordering: an event is a scheduled call
# ---------------------------------------------------------------------------


class TestEventLoop:
    @staticmethod
    def _bare_simulation(run_dir):
        """A set-up simulation whose queue holds nothing, at minute 0."""
        sim = Simulation(small_config(num_agents=1, horizon_days=1), run_dir)
        sim.queue.clear()
        return sim

    def test_pop_order_is_time_then_push_order(self, tmp_path):
        calls = []

        def handler(when, *args):
            calls.append((when, *args))

        sim = self._bare_simulation(tmp_path / "run")
        try:
            sim._push(10, handler, "b")
            sim._push(5, handler, "a")
            sim._push(10, handler, "a", 1)
            while sim.queue:
                sim.step()
        finally:
            sim.close()
        assert calls == [(5, "a"), (10, "b"), (10, "a", 1)]
        assert sim.now == 10

    def test_same_minute_replay_is_identical(self, tmp_path):
        def trace(seed, run_dir):
            rng = random.Random(seed)
            order = []

            def handler(when, index, agent):
                order.append((when, index, agent))

            sim = self._bare_simulation(run_dir)
            try:
                for index in range(60):
                    sim._push(rng.randint(0, 20), handler, index, f"agent-{index % 4}")
                while sim.queue:
                    sim.step()
            finally:
                sim.close()
            return order

        first = trace(11, tmp_path / "first")
        second = trace(11, tmp_path / "second")
        assert first == second
        assert len(first) == 60
        assert [(e[0], e[1]) for e in first] == sorted((e[0], e[1]) for e in first)

    def test_scheduling_in_the_past_is_rejected(self, tmp_path):
        def handler(when):
            pass

        sim = self._bare_simulation(tmp_path / "run")
        try:
            sim._push(30, handler)
            sim.step()
            sim._push(30, handler)  # the current minute is not the past
            with pytest.raises(AssertionError, match="handler scheduled in the past: 29 < 30"):
                sim._push(29, handler)
            assert len(sim.queue) == 1
        finally:
            sim.close()


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


class TestRun:
    def test_small_run_shape(self, tmp_path):
        config = small_config()
        artifacts = run(config, tmp_path / "run")
        reflections = read_entries(artifacts.reflections_log)
        assert len(reflections) == config.num_agents * config.horizon_days
        entries = read_entries(artifacts.behavior_log)
        agents_seen = {entry["agent_id"] for entry in entries}
        assert len(agents_seen) == config.num_agents
        for agent_id in agents_seen:
            assert sum(1 for e in entries if e["agent_id"] == agent_id) >= 1
        assert "status" not in artifacts.summary  # only a failed run's summary has one

    def test_same_seed_is_byte_identical(self, tmp_path):
        config = small_config()
        first = run(config, tmp_path / "a")
        second = run(config, tmp_path / "b")
        assert first.behavior_digest == second.behavior_digest
        assert first.reflections_digest == second.reflections_digest
        # every artifact, summary.json included, carries no wall-clock value
        assert run_files(tmp_path / "a") == run_files(tmp_path / "b")

    def test_default_run_matches_its_pinned_digests(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        assert (config.num_agents, config.horizon_days, config.seed) == (10, 7, 42)
        artifacts = run(config, tmp_path / "run")
        assert artifacts.behavior_digest == DEFAULT_BEHAVIOR_PIN
        assert artifacts.reflections_digest == DEFAULT_REFLECTIONS_PIN

    def test_default_run_measures_a_perceived_leg_once_and_boxes_each_station_once(
        self, tmp_path, monkeypatch
    ):
        """The run phase's exact work counters on the pinned 10x7 run."""
        sim = Simulation(load_config(DEFAULT_CONFIG), tmp_path / "run")
        counts = {"distance_km": 0, "bounding_box_deg": 0}

        def counting(name, function):
            def counted(*args):
                counts[name] += 1
                return function(*args)

            return counted

        monkeypatch.setattr(
            OfflineRouter, "distance_km", counting("distance_km", OfflineRouter.distance_km)
        )
        # perception's boxes come from Environment.reach_rows
        monkeypatch.setattr(
            environment,
            "bounding_box_deg",
            counting("bounding_box_deg", environment.bounding_box_deg),
        )
        artifacts = sim.run()
        assert artifacts.behavior_digest == DEFAULT_BEHAVIOR_PIN
        # 5,366 and 1,232 when each trip start measured its leg again and
        # each decision boxed the agent's location
        assert len(sim.env.stations) == 7
        assert counts == {"distance_km": 4246, "bounding_box_deg": 7}

    def test_default_run_derives_each_home_once_and_builds_no_route_estimate(
        self, tmp_path, monkeypatch
    ):
        """The pinned 10x7 run's exact counts of the work its plans and trip
        ends no longer repeat: homes over the whole run, the rest in the run phase."""
        counts = {"home_point_for": 0, "RouteEstimate": 0, "score_station": 0, "seed": 0}

        def counting(name, function):
            def counted(*args):
                counts[name] += 1
                return function(*args)

            return counted

        # MockProvider.home looks home_point_for up in its module
        monkeypatch.setattr(
            mock, "home_point_for", counting("home_point_for", mock.home_point_for)
        )
        sim = Simulation(load_config(DEFAULT_CONFIG), tmp_path / "run")
        # every construction, whoever names the class
        monkeypatch.setattr(
            RouteEstimate, "__init__", counting("RouteEstimate", RouteEstimate.__init__)
        )
        # choose_station looks score_station up in its module
        monkeypatch.setattr(
            baseline, "score_station", counting("score_station", baseline.score_station)
        )
        # random.Random(x) seeds itself through Random.seed
        monkeypatch.setattr(random.Random, "seed", counting("seed", random.Random.seed))
        artifacts = sim.run()
        assert artifacts.behavior_digest == DEFAULT_BEHAVIOR_PIN
        # 80, 1,232, 1,426 and 120 when set-up placed each vehicle with a call
        # of its own and every plan derived its home again, every trip start
        # built a RouteEstimate, a lone station in reach was scored and every
        # plan seeded a generator for its home
        assert counts == {
            "home_point_for": 10,
            "RouteEstimate": 0,
            "score_station": 885,
            "seed": 60,
        }

    def test_every_plan_of_the_engines_planner_starts_at_the_agents_home(self, tmp_path):
        sim = Simulation(load_config(DEFAULT_CONFIG), tmp_path / "run")
        starts = []  # per plan: its first event starts at the very GeoPoint of agent.home

        def record_starts():
            for agent in sim._agents_in_order():
                assert agent.home is sim._mock.home(agent.agent_id)
                starts.append(agent.plan.events[0].origin is agent.home)

        record_starts()  # day 0 is planned at set-up
        plan_day = sim._plan_day

        def spy(day_index):
            plan_day(day_index)
            record_starts()

        sim._plan_day = spy
        assert sim.run().behavior_digest == DEFAULT_BEHAVIOR_PIN
        assert starts == [True] * (10 * 7)

    def test_a_provider_shared_by_two_runs_writes_what_a_fresh_one_does(self, tmp_path):
        config = load_config(DEFAULT_CONFIG)
        shared = MockProvider(
            weights=config.build_weights(), plan_template=config.effective_plan_template()
        )
        fresh = run(config, tmp_path / "fresh")
        assert fresh.behavior_digest == DEFAULT_BEHAVIOR_PIN
        for name in ("first", "second"):
            artifacts = run(config, tmp_path / name, provider=shared)
            assert artifacts.behavior_log.read_bytes() == fresh.behavior_log.read_bytes()
            assert artifacts.reflections_log.read_bytes() == fresh.reflections_log.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        first = run(small_config(seed=1), tmp_path / "a")
        second = run(small_config(seed=2), tmp_path / "b")
        assert first.behavior_digest != second.behavior_digest

    def test_empty_day_yields_no_charges_and_one_reflection(self, tmp_path):
        config = small_config(num_agents=1, horizon_days=1)
        config.plan_template = {"shifts": [], "evening_shift_probability": 0.0}
        artifacts = run(config, tmp_path / "run")
        entries = read_entries(artifacts.behavior_log)
        assert [e for e in entries if e["record"]["quintuple"]["decision"]] == []
        reflections = read_entries(artifacts.reflections_log)
        assert len(reflections) == 1
        assert reflections[0]["report"]["plan_adherence"]["score"] == 1.0

    def test_energy_conservation_per_agent(self, tmp_path):
        artifacts = run(small_config(horizon_days=3), tmp_path / "run")
        for agent_id, state in artifacts.final_states.items():
            drift = state["soc_kwh"] - (
                state["initial_soc_kwh"]
                - state["consumed_kwh"]
                + state["charged_kwh"]
                + state["tow_delta_kwh"]
            )
            assert abs(drift) <= 1e-9, agent_id

    def test_consumption_reconciles_with_log(self, tmp_path):
        artifacts = run(small_config(), tmp_path / "run")
        consumed = {agent_id: 0.0 for agent_id in artifacts.final_states}
        charged = {agent_id: 0.0 for agent_id in artifacts.final_states}
        for entry in read_entries(artifacts.behavior_log):
            agent_id = entry["agent_id"]
            action = entry["record"]["action"]
            if action == "travel":
                consumed[agent_id] += entry["extras"]["energy_kwh"]
            elif action == "stop_charging":
                consumed[agent_id] += entry["extras"]["approach_energy_kwh"]
                charged[agent_id] += entry["extras"]["energy_kwh"]
        for agent_id, state in artifacts.final_states.items():
            assert consumed[agent_id] == pytest.approx(state["consumed_kwh"], abs=1e-9)
            assert charged[agent_id] == pytest.approx(state["charged_kwh"], abs=1e-9)

    def test_decision_records_perceive_in_same_tick(self, tmp_path):
        artifacts = run(small_config(), tmp_path / "run")
        decisions = [
            e
            for e in read_entries(artifacts.behavior_log)
            if e["record"]["action"] in ("start_charging", "skip_charging")
        ]
        assert decisions
        for entry in decisions:
            assert entry["extras"]["perceived_at"] == entry["record"]["timestamp"]
            assert len(entry["extras"]["snapshot_digest"]) == 64

    def test_soc_is_reduced_before_decision(self, tmp_path):
        config = small_config(num_agents=1, horizon_days=1)
        sim = Simulation(config, tmp_path / "run")
        try:
            agent = sim.agents["agent-00"]
            rate = agent.persona.vehicle.consumption_kwh_per_km

            seen = []
            original = sim._decision_pipeline

            def spy(agent_arg, now):
                seen.append((agent_arg.state.soc_kwh, now))
                return original(agent_arg, now)

            sim._decision_pipeline = spy
            # first two events: trip_start then trip_end of the first leg
            sim.step()
            _when, _sequence, handler, args = sim.queue[0]
            assert handler == sim._on_trip_end
            distance = args[-2]  # (..., origin, distance_km, minutes)
            soc_before = agent.state.soc_kwh
            sim.step()
            assert seen, "trip end must run the decision pipeline"
            assert seen[0][0] == pytest.approx(soc_before - distance * rate, abs=1e-12)
        finally:
            sim.close()

    def test_reflection_cadence_and_timestamps(self, tmp_path):
        config = small_config(num_agents=2, horizon_days=3)
        artifacts = run(config, tmp_path / "run")
        reflections = read_entries(artifacts.reflections_log)
        per_agent_days = {}
        for entry in reflections:
            assert entry["timestamp"] % 1440 == 0
            assert entry["timestamp"] // 1440 == entry["report"]["day_index"] + 1
            per_agent_days.setdefault(entry["agent_id"], []).append(entry["report"]["day_index"])
        for agent_id, days in per_agent_days.items():
            assert days == [0, 1, 2], agent_id

    def test_quintuple_consistency_for_every_emitted_record(self, tmp_path):
        artifacts = run(small_config(), tmp_path / "run")
        for entry in read_entries(artifacts.behavior_log):
            quintuple = entry["record"]["quintuple"]
            if not quintuple["decision"]:
                assert quintuple["station_id"] is None
                assert quintuple["amount_kwh"] == 0.0

    def test_station_occupancy_bound_holds(self, tmp_path):
        # squeeze the whole fleet onto one two-pile station
        config = small_config(num_agents=6, horizon_days=2)
        config.stations = [
            {"station_id": "st-01", "latitude": 31.2330, "longitude": 121.4690,
             "pile_count": 2, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
        ]
        artifacts = run(config, tmp_path / "run")
        intervals = [
            (e["extras"]["start_charge"], e["extras"]["end_charge"])
            for e in read_entries(artifacts.behavior_log)
            if e["record"]["action"] == "stop_charging"
        ]
        assert intervals, "expected contention on the single station"
        boundaries = sorted({t for pair in intervals for t in pair})
        for t in boundaries:
            active = sum(1 for lo, hi in intervals if lo <= t < hi)
            assert active <= 2, f"occupancy {active} at minute {t}"


# ---------------------------------------------------------------------------
# Stranding
# ---------------------------------------------------------------------------


def stranding_config() -> ScenarioConfig:
    config = ScenarioConfig()
    config.num_agents = 1
    config.horizon_days = 2
    config.initial_soc_kwh = 8.0
    config.station_radius_km = 0.5  # nothing reachable
    config.persona_template = {
        **config.persona_template,
        "battery_capacity_choices": [10.0],
        "consumption_range": [0.5, 0.5],
        "range_anxiety_range": [0.2, 0.2],
    }
    config.stations = [
        {"station_id": "st-far", "latitude": 31.9, "longitude": 121.9,
         "pile_count": 2, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
    ]
    return config


class TestStranding:
    def test_stranded_agent_is_flagged_towed_and_run_completes(self, tmp_path):
        artifacts = run(stranding_config(), tmp_path / "run")
        state = artifacts.final_states["agent-00"]
        assert state["strand_count"] >= 1
        assert artifacts.summary["agents"]["agent-00"]["strand_count"] >= 1

        entries = read_entries(artifacts.behavior_log)
        stranded = [e for e in entries if "stranded" in e["record"]["reason"]]
        towed = [e for e in entries if "towed" in e["record"]["reason"]]
        assert stranded and towed
        # towing resets to the reserve level: 5 percent of 10 kWh
        assert towed[0]["extras"]["tow_energy_delta_kwh"] != 0.0

        reflections = read_entries(artifacts.reflections_log)
        assert len(reflections) == 2  # the run continued to the horizon

    def test_conservation_includes_tow_adjustment(self, tmp_path):
        artifacts = run(stranding_config(), tmp_path / "run")
        state = artifacts.final_states["agent-00"]
        assert state["tow_delta_kwh"] != 0.0
        drift = state["soc_kwh"] - (
            state["initial_soc_kwh"]
            - state["consumed_kwh"]
            + state["charged_kwh"]
            + state["tow_delta_kwh"]
        )
        assert abs(drift) <= 1e-9


# ---------------------------------------------------------------------------
# A positive decision that reaches its station with a full battery
# ---------------------------------------------------------------------------


def _home(template: dict) -> GeoPoint:
    return home_point_for("agent-00", GeoPoint(*template["center"]), template["area_radius_km"])


class FullBatteryChargeProvider(MockProvider):
    """One trip from home to home, then a 1e-10 kWh charge at the nearest station.

    validate_decision accepts up to 1e-9 kWh above the headroom, so this
    decision passes on a full battery.
    """

    def plan_day(self, persona, day_index, seed):
        home = _home(self.plan_template)
        trip = PlanEvent(PlanEventKind.TRIP, home, home, start=600, expected_distance_km=0.0)
        return DailyPlan(day_index, (trip,))

    def decide(self, request):
        station = request.snapshot.stations[0]
        quintuple = DecisionQuintuple(
            True, ChargeScenario.HOME, request.clock.sim_time, station.station_id,
            1e-10, station.pile_power_kw, station.price_per_kwh,
        )
        return DecisionResponse(quintuple=quintuple, reason="top up a full battery")


def full_battery_approach() -> tuple[ScenarioConfig, FullBatteryChargeProvider]:
    """One agent on a full 40 kWh battery, a station at its home and the
    provider that sends it there: the run logs an approach travel line."""
    config = small_config(num_agents=1, horizon_days=1, initial_soc_kwh=40.0)
    config.persona_template = {**config.persona_template, "battery_capacity_choices": [40.0]}
    home = _home(config.effective_plan_template())
    config.stations = [
        {"station_id": "st-home", "latitude": home.latitude, "longitude": home.longitude,
         "pile_count": 1, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
    ]
    return config, FullBatteryChargeProvider(plan_template=config.effective_plan_template())


def test_full_battery_arrival_logs_the_approach_as_travel(tmp_path):
    config, provider = full_battery_approach()
    home = _home(config.effective_plan_template())
    artifacts = run(config, tmp_path / "run", provider=provider)

    entries = read_entries(artifacts.behavior_log)
    assert [(e["record"]["action"], e["record"]["object_id"]) for e in entries] == [
        ("travel", "route-d0-0600"),
        ("start_charging", "st-home"),
        ("travel", "approach-st-home"),
    ]
    approach = entries[-1]
    personas = json.loads((artifacts.run_dir / "personas.json").read_text(encoding="utf-8"))
    scenario = ChargeScenario(personas["agent-00"]["habits"]["preferred_scenario"])
    no_charge = DecisionQuintuple.no_charge(scenario, 600)
    assert canonical_json(approach["record"]["quintuple"]) == no_charge.to_json()
    assert "full battery" in approach["record"]["reason"]
    assert approach["extras"] == {
        "origin": [home.latitude, home.longitude],
        "destination": [home.latitude, home.longitude],
        "distance_km": 0.0,
        "energy_kwh": 0.0,
        "travel_minutes": 0,
    }
    assert not approach["fallback"]
    assert artifacts.summary["fleet"]["charge_count"] == 0
    assert artifacts.final_states["agent-00"]["soc_kwh"] == 40.0


class NanAmountProvider(MockProvider):
    """Decides to charge NaN kWh at the nearest perceived station, whenever there is one."""

    def decide(self, request):
        if not request.snapshot.stations:
            return super().decide(request)
        station = request.snapshot.stations[0]
        quintuple = DecisionQuintuple(
            True, ChargeScenario.PUBLIC, request.clock.sim_time, station.station_id,
            float("nan"), station.pile_power_kw, station.price_per_kwh,
        )
        return DecisionResponse(quintuple=quintuple, reason="charge nan kWh")


def test_nan_charge_amount_falls_back_to_the_baseline(tmp_path):
    config = small_config(initial_soc_kwh=20.0)
    provider = NanAmountProvider(plan_template=config.effective_plan_template())
    artifacts = run(config, tmp_path / "run", provider=provider)

    decisions = [
        e for e in read_entries(artifacts.behavior_log)
        if e["record"]["action"] in ("start_charging", "skip_charging")
    ]
    fallbacks = [e for e in decisions if e["fallback"]]
    assert fallbacks
    assert all(e["record"]["quintuple"]["amount_kwh"] >= 0.0 for e in decisions)
    summary = json.loads((artifacts.run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["fallbacks"]["decisions"] == len(fallbacks)


class NanSkipProvider(MockProvider):
    """The mock policy, except that each skip states a NaN power and an infinite price."""

    def decide(self, request):
        response = super().decide(request)
        if response.decision:
            return response
        quintuple = replace(response.quintuple, power_kw=float("nan"), price_per_kwh=math.inf)
        return DecisionResponse(quintuple=quintuple, reason=response.reason)


def test_non_finite_skip_falls_back_and_never_reaches_the_log(tmp_path):
    config = small_config(initial_soc_kwh=20.0)
    provider = NanSkipProvider(plan_template=config.effective_plan_template())
    artifacts = run(config, tmp_path / "run", provider=provider)

    text = artifacts.behavior_log.read_text(encoding="utf-8")
    assert "NaN" not in text and "Infinity" not in text
    entries = read_entries(artifacts.behavior_log)
    fallbacks = [e for e in entries if e["fallback"]]
    assert any(e["record"]["action"] == "skip_charging" for e in fallbacks)
    assert artifacts.summary["fallbacks"]["decisions"] == len(fallbacks)


class WrongAnswerProvider(MockProvider):
    """The mock, except that each answer of one kind passes its provider's
    parse but fails the engine's gate: a plan or a reflection for the wrong
    day, or a persona that fails validate_persona (with no id, or with an
    infinite battery, which no charge could fill)."""

    def __init__(self, kind: str, **kwargs):
        super().__init__(**kwargs)
        self.kind = kind

    def generate_persona(self, seed, template_config):
        persona = super().generate_persona(seed, template_config)
        if self.kind == "batteries":
            return replace(persona, vehicle=replace(persona.vehicle, battery_capacity_kwh=math.inf))
        return replace(persona, id="") if self.kind == "personas" else persona

    def plan_day(self, persona, day_index, seed):
        plan = super().plan_day(persona, day_index, seed)
        return replace(plan, day_index=day_index + 1) if self.kind == "plans" else plan

    def reflect(self, day_records, persona, plan):
        report = super().reflect(day_records, persona, plan)
        wrong_day = replace(report, day_index=report.day_index + 1)
        return wrong_day if self.kind == "reflections" else report


@pytest.mark.parametrize("kind", ["personas", "batteries", "plans", "reflections"])
def test_an_answer_the_engine_gates_reject_falls_back_and_is_counted(tmp_path, kind):
    config = small_config()
    provider = WrongAnswerProvider(kind, plan_template=config.effective_plan_template())
    artifacts = run(config, tmp_path / "run", provider=provider)
    summary = json.loads((artifacts.run_dir / "summary.json").read_text(encoding="utf-8"))
    counter = "personas" if kind == "batteries" else kind
    calls = {"personas": config.num_agents}.get(counter, config.num_agents * config.horizon_days)
    expected = {"decisions": 0, "personas": 0, "plans": 0, "reflections": 0, counter: calls}
    assert summary["fallbacks"] == expected
    # a persona or a plan falls back on the engine's own mock, which answers
    # as the provider would have; a reflection on the fallback report
    plain = run(config, tmp_path / "plain")
    assert artifacts.behavior_digest == plain.behavior_digest
    reports = [entry["report"] for entry in read_entries(artifacts.reflections_log)]
    assert all(report["fallback"] is (kind == "reflections") for report in reports)


class WronglyTypedPersonaProvider(MockProvider):
    """The mock, except that each persona holds one field of the wrong type."""

    def __init__(self, part: str, field: str, value, **kwargs):
        super().__init__(**kwargs)
        self.part, self.field, self.value = part, field, value

    def generate_persona(self, seed, template_config):
        persona = super().generate_persona(seed, template_config)
        if self.part is None:  # a field of the persona itself
            return replace(persona, **{self.field: self.value})
        wrong = replace(getattr(persona, self.part), **{self.field: self.value})
        return replace(persona, **{self.part: wrong})


@pytest.mark.parametrize(
    "part, field, value",
    [
        ("demographics", "age", "30"),
        ("habits", "preferred_window", (5,)),
        ("economics", "price_sensitivity", None),
        ("demographics", "occupation", 5),
        (None, "id", 7),
    ],
)
def test_a_wrongly_typed_persona_falls_back(tmp_path, part, field, value):
    config = small_config()
    provider = WronglyTypedPersonaProvider(
        part, field, value, plan_template=config.effective_plan_template()
    )
    artifacts = run(config, tmp_path / "run", provider=provider)
    assert artifacts.summary["fallbacks"] == {
        "decisions": 0, "personas": config.num_agents, "plans": 0, "reflections": 0
    }
    assert artifacts.behavior_digest == run(config, tmp_path / "plain").behavior_digest
    personas = json.loads((artifacts.run_dir / "personas.json").read_text(encoding="utf-8"))
    for agent_id, data in personas.items():
        persona = from_data(Persona, data)
        assert persona.id == agent_id and validate_persona(persona) == []


def test_a_trip_start_reuses_only_the_leg_its_decision_measured(tmp_path, monkeypatch):
    sim = Simulation(load_config(DEFAULT_CONFIG), tmp_path / "run")
    measure = OfflineRouter.distance_km
    calls = []

    def counting(router, a, b):
        calls.append((a, b))
        return measure(router, a, b)

    monkeypatch.setattr(OfflineRouter, "distance_km", counting)
    sites = [station.location for station in sim.env.stations.values()]
    starts = []  # (reused, after a charge) per trip start
    original = sim._on_trip_start

    def spy(now, agent, day, event):
        origin, destination, perceived = agent.state.location, event.destination, agent.perceived
        before = len(calls)
        original(now, agent, day, event)
        assert agent.perceived is None
        reused = (
            perceived is not None
            and perceived.location is origin
            and perceived.next_destination is destination
        )
        assert calls[before:] == ([] if reused else [(origin, destination)])
        (distance_km,) = [
            args[-2] for _, _, handler, args in sim.queue
            if handler == sim._on_trip_end and args[0] is agent
        ]
        assert distance_km == measure(sim.env.router, origin, destination)
        starts.append((reused, any(origin is site for site in sites)))

    sim._on_trip_start = spy  # the first trip of day 0 is already queued
    artifacts = sim.run()
    assert artifacts.behavior_digest == DEFAULT_BEHAVIOR_PIN
    # a leg after a charge starts at the station, which no decision perceived
    assert (True, False) in starts and (False, True) in starts
    assert (True, True) not in starts


def test_unreadable_live_prompts_leave_a_failed_summary(tmp_path):
    prompts_dir = tmp_path / "prompts"
    (prompts_dir / "decide.txt").mkdir(parents=True)  # a directory where a file belongs
    config = small_config(provider="live")
    config.live = {**config.live, "prompts_dir": str(prompts_dir)}
    assert config.validate() == []
    with pytest.raises(IsADirectoryError):
        run(config, tmp_path / "run")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "failed"
    assert summary["error"]["type"] == "IsADirectoryError"


# ---------------------------------------------------------------------------
# Charges spanning midnight and the horizon edge
# ---------------------------------------------------------------------------


def overnight_charge_config() -> ScenarioConfig:
    config = ScenarioConfig()
    config.num_agents = 1
    config.horizon_days = 1
    config.initial_soc_kwh = 20.0
    config.persona_template = {
        **config.persona_template,
        "battery_capacity_choices": [75.0],
        "range_anxiety_range": [0.3, 0.3],
        "target_soc_range": [0.95, 0.95],
        "max_charge_power_choices": [7.0],
    }
    config.plan_template = {
        "shifts": [[1380, 1440]],
        "evening_shift_probability": 0.0,
        "trip_km_range": [4.0, 8.0],
    }
    for station in config.stations:
        station["pile_power_kw"] = 7.0
    return config


def test_charge_spanning_midnight_completes_after_the_last_boundary(tmp_path):
    artifacts = run(overnight_charge_config(), tmp_path / "run")

    stops = [
        e
        for e in read_entries(artifacts.behavior_log)
        if e["record"]["action"] == "stop_charging"
    ]
    assert stops, "expected a completed overnight charge"
    assert any(e["record"]["timestamp"] > 1440 for e in stops)
    assert len(read_entries(artifacts.reflections_log)) == 1
    state = artifacts.final_states["agent-00"]
    drift = state["soc_kwh"] - (
        state["initial_soc_kwh"] - state["consumed_kwh"] + state["charged_kwh"]
    )
    assert abs(drift) <= 1e-9


# ---------------------------------------------------------------------------
# The summary the engine adds up as it writes equals one rebuilt from disk
# ---------------------------------------------------------------------------


def _strands(entries, horizon_days):
    return any("attempted_distance_km" in e["extras"] for e in entries)


def _charges_past_the_horizon(entries, horizon_days):
    return any(
        e["extras"]["end_charge"] > horizon_days * 1440
        for e in entries
        if e["record"]["action"] == "stop_charging"
    )


def add_stop_line(totals: RunTotals, entry: dict) -> None:
    """Feed totals a stop_charging line: the station from its extras, and the
    ChargeTicket that its extras and its quintuple's power spell out."""
    extras = entry["extras"]
    ticket = ChargeTicket(
        start_wait=extras["start_wait"],
        start_charge=extras["start_charge"],
        end_charge=extras["end_charge"],
        energy_kwh=extras["energy_kwh"],
        power_kw=entry["record"]["quintuple"]["power_kw"],
        cost=extras["cost"],
    )
    station = GeoPoint(*extras["station"])
    totals.add_stop(entry["agent_id"], station, ticket, extras["approach_distance_km"])


@pytest.mark.parametrize(
    "make_config, reaches",
    [(stranding_config, _strands), (overnight_charge_config, _charges_past_the_horizon)],
)
def test_engine_summary_equals_summary_rebuilt_from_the_logs(tmp_path, make_config, reaches):
    config = make_config()
    artifacts = run(config, tmp_path / "run")
    entries = read_entries(artifacts.behavior_log)
    assert reaches(entries, config.horizon_days)

    totals = RunTotals()
    for entry in entries:
        agent_id, record, extras = entry["agent_id"], entry["record"], entry["extras"]
        if record["action"] == "travel":
            origin, destination = GeoPoint(*extras["origin"]), GeoPoint(*extras["destination"])
            totals.add_travel(agent_id, origin, destination, extras["distance_km"])
        elif record["action"] == "stop_charging":
            add_stop_line(totals, entry)
        elif record["action"] == "start_charging":
            totals.add_charge(agent_id, record["timestamp"], record["object_id"], record["reason"])
    for entry in read_entries(artifacts.reflections_log):
        totals.add_reflection(entry["agent_id"], entry["report"]["satisfaction"]["score"])
    rebuilt = build_summary(totals, artifacts.final_states, config.horizon_days)

    written = json.loads((artifacts.run_dir / "summary.json").read_text(encoding="utf-8"))
    del written["fallbacks"]
    assert written == rebuilt  # exact float equality, term for term

    # routes.json, the maps' input, is the same feed's trace of the log
    routes = io.StringIO()
    totals.write_routes(routes, sorted(artifacts.final_states))
    assert (artifacts.run_dir / "routes.json").read_text(encoding="utf-8") == routes.getvalue()


def test_final_states_take_km_and_cost_from_the_summary_totals(tmp_path):
    artifacts = run(charge_and_strand_config(), tmp_path / "run")
    agents = artifacts.summary["agents"]
    assert any(agents[a]["charge_count"] for a in agents)
    for agent_id, state in artifacts.final_states.items():
        assert state["km_total"] == agents[agent_id]["total_km"]
        assert state["cost_total"] == agents[agent_id]["total_cost"]


def test_engine_does_not_import_the_exporter():
    paths = [str(Path(chargesim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, chargesim.engine; sys.exit('chargesim.export' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr or "chargesim.engine loaded chargesim.export"


# what running a scenario or writing a provider needs; the rest stays in its module
PUBLIC_NAMES = {
    "ScenarioConfig", "load_config", "run", "Simulation", "RunArtifacts",
    "CognitionProvider", "DecisionRequest", "DecisionResponse", "DecisionQuintuple",
    "BehaviorRecord", "DailyPlan", "PlanEvent", "Persona", "ReflectionReport", "ActionType",
    "ChargeScenario", "GeoPoint", "SimClock", "validate_persona", "SchemaError",
    "ProviderError",
    "MockProvider", "LiveProvider", "BaselineWeights", "baseline_decision",
}


def test_the_package_root_exports_the_run_and_provider_apis():
    assert len(chargesim.__all__) == len(PUBLIC_NAMES) == 25
    assert set(chargesim.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from chargesim import *", namespace)
    assert PUBLIC_NAMES <= namespace.keys()


# ---------------------------------------------------------------------------
# A provider that raises mid-run
# ---------------------------------------------------------------------------


class CrashingProvider(MockProvider):
    """The mock policy, except that its nth decide call raises a non-provider error."""

    def __init__(self, fail_at: int, **kwargs):
        super().__init__(**kwargs)
        self.fail_at = fail_at
        self.decide_calls = 0

    def decide(self, request):
        self.decide_calls += 1
        if self.decide_calls == self.fail_at:
            raise RuntimeError("provider crashed")
        return super().decide(request)


def test_provider_crash_closes_every_log_and_propagates(tmp_path):
    config = small_config()
    provider = CrashingProvider(5, plan_template=config.effective_plan_template())
    sim = Simulation(config, tmp_path / "run", provider=provider)
    with pytest.raises(RuntimeError, match="provider crashed"):
        sim.run()
    assert provider.decide_calls == 5
    assert sim._behavior_fh.closed and sim._reflections_fh.closed
    entries = read_entries(sim.behavior_log_path)  # every line parses
    assert entries
    summary = json.loads((sim.run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary == {
        "status": "failed",
        "error": {"type": "RuntimeError", "message": "provider crashed"},
    }
    assert not (sim.run_dir / "final_states.json").exists()


class PlanCrashingProvider(MockProvider):
    """The mock policy, except that plan_day raises a non-provider error."""

    def plan_day(self, persona, day_index, seed):
        raise RuntimeError("planner crashed")


def test_setup_crash_closes_every_log_and_propagates(tmp_path):
    config = small_config(num_agents=3)
    provider = PlanCrashingProvider(plan_template=config.effective_plan_template())
    # __init__ called on its own, so the half-built object can be inspected
    sim = Simulation.__new__(Simulation)
    with pytest.raises(RuntimeError, match="planner crashed"):
        sim.__init__(config, tmp_path / "run", provider=provider)
    assert sim._behavior_fh.closed and sim._reflections_fh.closed
    assert len(sim.agents) == 3
    summary = json.loads((sim.run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary == {
        "status": "failed",
        "error": {"type": "RuntimeError", "message": "planner crashed"},
    }
    assert not (sim.run_dir / "final_states.json").exists()


class BareValueErrorProvider(MockProvider):
    """The mock, except that one method raises a bare ValueError, not a SchemaError."""

    def __init__(self, method: str, **kwargs):
        super().__init__(**kwargs)

        def give_up(*args):
            raise ValueError(f"{method} gave up")

        setattr(self, method, give_up)


@pytest.mark.parametrize("method", ["generate_persona", "plan_day", "decide", "reflect"])
def test_a_bare_value_error_from_any_provider_call_fails_the_run(tmp_path, method):
    # only SchemaError and ProviderError fall back, at every provider gate
    config = small_config()
    provider = BareValueErrorProvider(method, plan_template=config.effective_plan_template())
    sim = Simulation.__new__(Simulation)
    with pytest.raises(ValueError, match=f"{method} gave up"):
        sim.__init__(config, tmp_path / "run", provider=provider)
        sim.run()
    assert sim._behavior_fh.closed and sim._reflections_fh.closed
    summary = json.loads((sim.run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary == {
        "status": "failed",
        "error": {"type": "ValueError", "message": f"{method} gave up"},
    }


# ---------------------------------------------------------------------------
# An event's behavior.log lines reach the file together
# ---------------------------------------------------------------------------


class LogReadingProvider(MockProvider):
    """The mock policy; each decide call first reads behavior.log from disk."""

    def __init__(self, log_path: Path, **kwargs):
        super().__init__(**kwargs)
        self.log_path = log_path
        self.seen: list[tuple[str, int, str]] = []  # (agent id, minute, log text)

    def decide(self, request):
        text = self.log_path.read_text(encoding="utf-8")
        self.seen.append((request.persona.id, request.clock.sim_time, text))
        return super().decide(request)


@given(coordinates, coordinates, any_float, any_float, plain_int)
def test_a_leg_is_written_as_canonical_json(origin, destination, distance_km, energy_kwh, minutes):
    assert _leg(origin, destination, distance_km, energy_kwh, minutes) == canonical_json(
        {
            "origin": [origin.latitude, origin.longitude],
            "destination": [destination.latitude, destination.longitude],
            "distance_km": distance_km,
            "energy_kwh": energy_kwh,
            "travel_minutes": minutes,
        }
    )


def test_a_trip_end_flushes_its_travel_line_with_its_decision(tmp_path):
    config = small_config()
    run_dir = tmp_path / "run"
    provider = LogReadingProvider(
        run_dir / "behavior.log", plan_template=config.effective_plan_template()
    )
    artifacts = Simulation(config, run_dir, provider=provider).run()
    final = artifacts.behavior_log.read_text(encoding="utf-8")
    assert len(provider.seen) > 10
    for agent_id, now, text in provider.seen:
        # the earlier events' lines, whole; the line after them is this trip's
        # travel line, which its decision has not been written beside yet
        assert final.startswith(text) and (not text or text.endswith("\n"))
        pending = json.loads(final[len(text) :].split("\n", 1)[0])
        assert pending["agent_id"] == agent_id
        assert pending["record"]["action"] == "travel"
        assert pending["record"]["timestamp"] == now


class _WriteRecorder:
    """A file object's proxy that keeps every text written through it."""

    def __init__(self, fh):
        self.fh = fh
        self.written: list[str] = []

    def write(self, text: str) -> int:
        self.written.append(text)
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_after_every_step_the_log_on_disk_holds_every_line_emitted(tmp_path):
    config = charge_and_strand_config()
    sim = Simulation(config, tmp_path / "run")
    recorder = sim._behavior_fh = _WriteRecorder(sim._behavior_fh)
    steps = 0
    try:
        while sim.queue:
            sim.step()
            steps += 1
            on_disk = sim.behavior_log_path.read_text(encoding="utf-8")
            assert on_disk == "".join(recorder.written)
            assert not on_disk or on_disk.endswith("\n")
    finally:
        sim.close()
    assert steps > 10 and len(recorder.written) > 10
    actions = {entry["record"]["action"] for entry in read_entries(sim.behavior_log_path)}
    assert {"travel", "start_charging", "stop_charging", "idle"} <= actions


# ---------------------------------------------------------------------------
# Agent memory lives in RAM; behavior.log and reflections.log are its record
# ---------------------------------------------------------------------------

MEMORY_ACTIONS = {"start_charging", "skip_charging", "stop_charging"}


def charge_and_strand_config() -> ScenarioConfig:
    """Small batteries over three days: agents charge, skip and strand."""
    config = ScenarioConfig()
    config.num_agents = 6
    config.horizon_days = 3
    config.initial_soc_kwh = 10.0
    config.persona_template = {
        **config.persona_template,
        "battery_capacity_choices": [20.0],
        "consumption_range": [0.15, 0.5],
    }
    return config


@pytest.mark.parametrize(
    "make_config",
    [stranding_config, overnight_charge_config, charge_and_strand_config, ScenarioConfig],
)
def test_every_chain_has_ended_when_the_run_drains_its_queue(tmp_path, make_config):
    """No trip or charge is in flight and no planned event is left once run()
    returns, which is why final_states.json reports every vehicle idle."""
    sim = Simulation(make_config(), tmp_path / "run")
    artifacts = sim.run()
    assert not sim.queue
    for agent in sim.agents.values():
        assert agent.busy is False and not agent.pending
    assert {state["status"] for state in artifacts.final_states.values()} == {"idle"}


def test_memory_holds_what_the_logs_hold(tmp_path):
    sim = Simulation(charge_and_strand_config(), tmp_path / "run")
    artifacts = sim.run()
    entries = read_entries(artifacts.behavior_log)
    assert MEMORY_ACTIONS <= {e["record"]["action"] for e in entries}
    assert any("attempted_distance_km" in e["extras"] for e in entries)  # a strand
    reflections = read_entries(artifacts.reflections_log)

    for agent_id, agent in sim.agents.items():
        assert [record.to_json() for record in agent.memory.records] == [
            canonical_json(e["record"])
            for e in entries
            if e["agent_id"] == agent_id and e["record"]["action"] in MEMORY_ACTIONS
        ]
        assert [to_data(report) for report in agent.memory.reflections] == [
            e["report"] for e in reflections if e["agent_id"] == agent_id
        ]


class HistoryCheckingProvider(MockProvider):
    """The mock, plus a check of every request's history against the eager oracle.

    For each request it assembles the expected text from the agent's memory
    and plan backlog at the moment of the call. It reads every other
    request's text inside decide() and leaves the rest unread until the run
    has appended and advanced past them.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sim: Simulation | None = None
        self.requests: list[tuple[DecisionRequest, str]] = []

    def decide(self, request):
        agent = self.sim.agents[request.persona.id]
        expected = oracle_request_text(
            request.persona,
            request.snapshot,
            agent.memory.records,
            agent.pending,
            request.clock.sim_time,
        )
        if len(self.requests) % 2 == 0:
            assert request.to_json() == expected
        self.requests.append((request, expected))
        return super().decide(request)


@pytest.mark.parametrize("make_config", [charge_and_strand_config, ScenarioConfig])
def test_request_history_is_the_history_when_the_request_was_made(tmp_path, make_config):
    config = make_config()
    provider = HistoryCheckingProvider(plan_template=config.effective_plan_template())
    sim = Simulation(config, tmp_path / "run", provider=provider)
    provider.sim = sim
    sim.run()
    for request, expected in provider.requests:
        assert request.to_json() == expected
    requests = [request for request, _ in provider.requests]
    # every part of the history is exercised, the windows over more than a day
    assert sum(1 for r in requests if r.plan_events) > len(requests) // 2
    assert any(
        r.short_records and r.short_records[0].timestamp // 1440 < r.clock.day_index
        for r in requests
    )
    assert any(r.long_aggregates for r in requests)


def test_a_mock_run_retrieves_no_memory(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the mock provider reads no memory")

    monkeypatch.setattr(MemoryStore, "retrieve", refuse)
    monkeypatch.setattr(MemoryStore, "daily_aggregates", refuse)
    artifacts = run(load_config(DEFAULT_CONFIG), tmp_path / "run")
    assert artifacts.behavior_digest == DEFAULT_BEHAVIOR_PIN
    assert artifacts.reflections_digest == DEFAULT_REFLECTIONS_PIN


class ReflectionRecorder(MockProvider):
    """The mock, keeping every record that reflect receives."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.day_records: list = []

    def reflect(self, day_records, persona, plan):
        self.day_records.extend(day_records)
        return super().reflect(day_records, persona, plan)


def _one_copy_of_each(texts) -> bool:
    texts = list(texts)
    return len({id(text) for text in texts}) == len(set(texts))


def test_kept_records_share_one_copy_of_each_text(tmp_path):
    config = load_config(DEFAULT_CONFIG)
    provider = ReflectionRecorder(plan_template=config.effective_plan_template())
    sim = Simulation(config, tmp_path / "run", provider=provider)
    assert sim.run().behavior_digest == DEFAULT_BEHAVIOR_PIN

    memories = [agent.memory.records for agent in sim.agents.values()]
    assert any(len(records) > len({r.reason for r in records}) for records in memories)
    for records in memories:
        assert _one_copy_of_each(r.reason for r in records)
    travel = [r for r in provider.day_records if r.action is ActionType.TRAVEL]
    assert len(travel) > len({r.reason for r in travel}) > 1
    assert len(travel) > len({r.object_id for r in travel}) > 1
    assert _one_copy_of_each(r.reason for r in travel)
    assert _one_copy_of_each(r.object_id for r in travel)


def test_fault_injected_run_writes_canonical_lines_and_matches_its_pins(tmp_path):
    # faults make fallback decisions (start and skip), and the small batteries
    # make strands, overnight tows and charges with approach legs
    config = charge_and_strand_config()
    inner = MockProvider(plan_template=config.effective_plan_template())
    provider = FaultInjectingProvider(inner, rate=0.3, seed=7)
    artifacts = run(config, tmp_path / "run", provider=provider)

    lines = artifacts.behavior_log.read_text(encoding="utf-8").splitlines(keepends=True)
    entries = [json.loads(line) for line in lines]
    fallback_actions = {e["record"]["action"] for e in entries if e["fallback"]}
    assert fallback_actions == {"start_charging", "skip_charging"}
    assert any("attempted_distance_km" in e["extras"] for e in entries)
    assert any("tow_energy_delta_kwh" in e["extras"] for e in entries)
    assert any(e["extras"].get("approach_distance_km", 0.0) > 0.0 for e in entries)
    reflection_lines = artifacts.reflections_log.read_text(encoding="utf-8")
    for line in lines + reflection_lines.splitlines(keepends=True):
        assert line == canonical_json(json.loads(line)) + "\n"

    assert artifacts.behavior_digest == (
        "377f110a316f86fb88684f316f8b13f4e6c91a132ff62c89c4a8b85005200fe9"
    )
    assert artifacts.reflections_digest == (
        "58a119e046c81c109326b25bdd3bd5fef2a95aab9ab9c2ade55904d0417b4472"
    )


_RUN_UNDER_64_DESCRIPTORS = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
from chargesim.config import ScenarioConfig
from chargesim.engine import run
config = ScenarioConfig()
config.num_agents = 100
config.horizon_days = 1
run(config, sys.argv[1])
"""


def test_a_run_needs_no_descriptor_per_agent(tmp_path):
    pytest.importorskip("resource")
    paths = [str(Path(chargesim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", _RUN_UNDER_64_DESCRIPTORS, str(tmp_path / "run")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run" / "summary.json").exists()


# ---------------------------------------------------------------------------
# Provider-stream equivalence
# ---------------------------------------------------------------------------


class RecordingProvider(CognitionProvider):
    def __init__(self, inner: CognitionProvider):
        self.inner = inner
        self.personas: list[Persona] = []
        self.plans: list[DailyPlan] = []
        self.decisions: list[DecisionResponse] = []
        self.reflections: list[ReflectionReport] = []

    def generate_persona(self, seed, template_config):
        persona = self.inner.generate_persona(seed, template_config)
        self.personas.append(persona)
        return persona

    def plan_day(self, persona, day_index, seed):
        plan = self.inner.plan_day(persona, day_index, seed)
        self.plans.append(plan)
        return plan

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        response = self.inner.decide(request)
        self.decisions.append(response)
        return response

    def reflect(self, day_records, persona, plan):
        report = self.inner.reflect(day_records, persona, plan)
        self.reflections.append(report)
        return report


class ReplayProvider(CognitionProvider):
    """Feeds back a previously recorded response stream, ignoring the inputs."""

    def __init__(self, recording: RecordingProvider):
        self._personas = iter(recording.personas)
        self._plans = iter(recording.plans)
        self._decisions = iter(recording.decisions)
        self._reflections = iter(recording.reflections)

    def generate_persona(self, seed, template_config):
        return next(self._personas)

    def plan_day(self, persona, day_index, seed):
        return next(self._plans)

    def decide(self, request):
        return next(self._decisions)

    def reflect(self, day_records, persona, plan):
        return next(self._reflections)


def test_identical_response_stream_gives_identical_behavior(tmp_path):
    config = small_config()
    recorder = RecordingProvider(MockProvider(plan_template=config.effective_plan_template()))
    first = run(config, tmp_path / "recorded", provider=recorder)
    second = run(config, tmp_path / "replayed", provider=ReplayProvider(recorder))
    assert first.behavior_digest == second.behavior_digest
    assert first.reflections_digest == second.reflections_digest


class PlanTrackingProvider(MockProvider):
    """The mock, keeping each persona's plans as planned, and each reflection's
    plan with the day the simulation had just completed when it was asked."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sim: Simulation | None = None
        self.planned: dict[str, list[DailyPlan]] = {}
        self.reflected: dict[str, list[tuple[int, DailyPlan]]] = {}

    def plan_day(self, persona, day_index, seed):
        plan = super().plan_day(persona, day_index, seed)
        self.planned.setdefault(persona.id, []).append(plan)
        return plan

    def reflect(self, day_records, persona, plan):
        completed = self.sim.now // MINUTES_PER_DAY - 1
        self.reflected.setdefault(persona.id, []).append((completed, plan))
        return super().reflect(day_records, persona, plan)


def test_each_reflection_takes_the_completed_days_plan(tmp_path):
    config = charge_and_strand_config()  # three days, with strands that drop plan events
    provider = PlanTrackingProvider(plan_template=config.effective_plan_template())
    sim = Simulation(config, tmp_path / "run", provider=provider)
    provider.sim = sim
    sim.run()

    days = list(range(config.horizon_days))
    assert len(provider.planned) == config.num_agents
    assert provider.reflected.keys() == provider.planned.keys()
    for persona_id, plans in provider.planned.items():
        assert [plan.day_index for plan in plans] == days
        reflected = provider.reflected[persona_id]
        assert [completed for completed, _ in reflected] == days
        for completed, plan in reflected:
            assert plan is plans[completed] and plan.day_index == completed
    # an agent keeps no plan once the day boundary has reflected on it, so
    # none outlives the run
    for agent in sim.agents.values():
        assert agent.plan is None
        assert not hasattr(agent, "plans")


# ---------------------------------------------------------------------------
# step() contract
# ---------------------------------------------------------------------------


def test_step_processes_one_event_and_time_is_monotone(tmp_path):
    sim = Simulation(small_config(num_agents=2, horizon_days=1), tmp_path / "run")
    last = 0
    steps = 0
    try:
        while len(sim.queue):
            sim.step()
            assert sim.now >= last
            last = sim.now
            steps += 1
    finally:
        sim.close()
    assert steps > 10
