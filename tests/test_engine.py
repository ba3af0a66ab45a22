from __future__ import annotations

import json
import random

import pytest

from chargesim.config import ScenarioConfig
from chargesim.domain import DailyPlan, Persona, ReflectionReport
from chargesim.engine import EventQueue, Simulation, run
from chargesim.export import RunTotals, build_summary
from chargesim.providers import CognitionProvider, DecisionRequest, DecisionResponse, MockProvider


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
# Event queue ordering
# ---------------------------------------------------------------------------


class TestEventQueue:
    def test_pop_order_is_time_then_sequence(self):
        queue = EventQueue()
        queue.push(10, "b", "x")
        queue.push(5, "a", "x")
        queue.push(10, "a", "x")
        popped = [queue.pop() for _ in range(3)]
        assert [(e[0], e[2]) for e in popped] == [(5, "a"), (10, "b"), (10, "a")]

    def test_same_minute_replay_is_identical(self):
        def trace(seed):
            rng = random.Random(seed)
            queue = EventQueue()
            pushes = [(rng.randint(0, 20), f"agent-{i % 4}") for i in range(60)]
            for when, agent in pushes:
                queue.push(when, agent, "evt")
            order = []
            while len(queue):
                when, seq, agent, _kind, _payload = queue.pop()
                order.append((when, seq, agent))
            return order

        first = trace(11)
        second = trace(11)
        assert first == second
        assert [(e[0], e[1]) for e in first] == sorted((e[0], e[1]) for e in first)


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

    def test_same_seed_is_byte_identical(self, tmp_path):
        config = small_config()
        first = run(config, tmp_path / "a")
        second = run(config, tmp_path / "b")
        assert first.behavior_digest == second.behavior_digest
        assert first.reflections_digest == second.reflections_digest
        # every artifact, summary.json included, carries no wall-clock value
        assert run_files(tmp_path / "a") == run_files(tmp_path / "b")

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
        trip_end = sim.queue._heap[0]
        distance = trip_end[4]["distance_km"]
        soc_before = agent.state.soc_kwh
        sim.step()
        assert seen, "trip end must run the decision pipeline"
        assert seen[0][0] == pytest.approx(soc_before - distance * rate, abs=1e-12)
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
        totals.add(entry)
    for entry in read_entries(artifacts.reflections_log):
        totals.add_reflection(entry)
    rebuilt = build_summary(totals, artifacts.final_states, config.horizon_days)

    written = json.loads((artifacts.run_dir / "summary.json").read_text(encoding="utf-8"))
    del written["fallbacks"]
    assert written == rebuilt  # exact float equality, term for term


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
    assert all(agent.memory._fh is None for agent in sim.agents.values())
    entries = read_entries(sim.behavior_log_path)  # every line parses
    assert entries


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
    assert all(agent.memory._fh is None for agent in sim.agents.values())


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

    def reflect(self, day_records, persona, plans):
        report = self.inner.reflect(day_records, persona, plans)
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

    def reflect(self, day_records, persona, plans):
        return next(self._reflections)


def test_identical_response_stream_gives_identical_behavior(tmp_path):
    config = small_config()
    recorder = RecordingProvider(MockProvider(plan_template=config.effective_plan_template()))
    first = run(config, tmp_path / "recorded", provider=recorder)
    second = run(config, tmp_path / "replayed", provider=ReplayProvider(recorder))
    assert first.behavior_digest == second.behavior_digest
    assert first.reflections_digest == second.reflections_digest


# ---------------------------------------------------------------------------
# step() contract
# ---------------------------------------------------------------------------


def test_step_processes_one_event_and_time_is_monotone(tmp_path):
    sim = Simulation(small_config(num_agents=2, horizon_days=1), tmp_path / "run")
    last = 0
    steps = 0
    while len(sim.queue):
        sim.step()
        assert sim.now >= last
        last = sim.now
        steps += 1
    sim.close()
    assert steps > 10
