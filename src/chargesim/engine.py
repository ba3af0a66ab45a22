"""Deterministic event-driven simulation engine.

One simulated day per agent unfolds as a chain of events: trips start and
end, charging detours insert station-arrival and charge-end events, and a
global day-boundary event at every midnight runs reflection, tows stranded
vehicles home and schedules the next day's plan. Each agent event end runs
the five-step pipeline: consume energy, perceive, retrieve memory, decide,
execute, then append the decision to memory.

Everything is single-threaded and totally ordered by (time, push sequence),
so a (config, seed) pair maps to byte-identical logs under the mock
provider. Provider responses are validated before they can touch the
environment; invalid ones are replaced by the rule-based baseline and the
resulting records carry fallback=true.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time as _time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO

from .config import ScenarioConfig
from .domain import (
    MINUTES_PER_DAY,
    ActionType,
    BehaviorRecord,
    DailyPlan,
    DecisionQuintuple,
    GeoPoint,
    Persona,
    PlanEvent,
    ReflectionReport,
    ScoredNote,
    SimClock,
    round_currency,
    validate_persona,
)
from .environment import (
    ChargeTicket,
    Environment,
    EvState,
    EvStatus,
    StrandedError,
    ZeroChargeError,
    begin_charge,
    consume_energy,
)
from .export import RunTotals, build_summary
from .memory import MemoryStore
from .perception import perceive
from .providers.base import (
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
    ProviderError,
    SchemaError,
    validate_decision,
)
from .providers.baseline import BaselineWeights, baseline_decision
from .providers.live import LiveProvider
from .providers.mock import MockProvider, home_point_for

TOW_RESERVE_FRACTION = 0.05


class EventQueue:
    """Min-ordered event queue; pop order is strictly (time, push sequence)."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0

    def push(self, time: int, agent_id: str, kind: str, payload: dict | None = None) -> None:
        heapq.heappush(self._heap, (time, self._seq, agent_id, kind, payload or {}))
        self._seq += 1

    def pop(self) -> tuple[int, int, str, str, dict]:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class AgentRuntime:
    """Mutable per-agent bookkeeping owned by the engine."""

    agent_id: str
    persona: Persona
    state: EvState
    memory: MemoryStore
    home: GeoPoint
    plans: list[DailyPlan] = field(default_factory=list)
    pending: deque = field(default_factory=deque)  # (day_index, PlanEvent)
    today_records: list[BehaviorRecord] = field(default_factory=list)
    busy: bool = False  # a trip or charging chain is in flight
    stranded_today: bool = False
    strand_count: int = 0
    initial_soc_kwh: float = 0.0
    consumed_kwh: float = 0.0
    charged_kwh: float = 0.0
    tow_delta_kwh: float = 0.0
    cost_total: float = 0.0
    km_total: float = 0.0

    @property
    def next_event_start(self) -> int | None:
        if not self.pending:
            return None
        day, event = self.pending[0]
        return day * MINUTES_PER_DAY + event.start

    @property
    def next_destination(self) -> GeoPoint | None:
        if not self.pending:
            return None
        return self.pending[0][1].destination


@dataclass
class RunArtifacts:
    run_dir: Path
    behavior_log: Path
    reflections_log: Path
    summary: dict
    final_states: dict
    behavior_digest: str
    reflections_digest: str
    elapsed_s: float


def _fallback_reflection(day_index: int) -> ReflectionReport:
    note = ScoredNote(0.5, "unavailable")
    return ReflectionReport(
        day_index=day_index,
        plan_adherence=note,
        satisfaction=note,
        persona_consistency=note,
        fallback=True,
    )


class Simulation:
    """A single scenario run; create, then call run(), or step() manually."""

    def __init__(
        self,
        config: ScenarioConfig,
        out_dir: Path | str,
        provider: CognitionProvider | None = None,
    ):
        problems = config.validate()
        if problems:
            raise ValueError("invalid configuration: " + "; ".join(problems))
        self.config = config
        self.run_dir = Path(out_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "memory").mkdir(exist_ok=True)

        self.weights = BaselineWeights(
            distance=float(config.baseline_weights["distance"]),
            price=float(config.baseline_weights["price"]),
            wait=float(config.baseline_weights["wait"]),
        )
        plan_template = config.effective_plan_template()
        self._mock = MockProvider(weights=self.weights, plan_template=plan_template)
        if provider is not None:
            self.provider = provider
        elif config.provider == "live":
            self.provider = LiveProvider(config.build_live_settings())
        else:
            self.provider = self._mock

        self.env = Environment(
            stations=config.build_stations(),
            tariffs=config.build_tariffs(),
            router=config.build_router(),
            congestion=config.build_congestion(),
        )
        self.queue = EventQueue()
        self.now = 0
        self.fallback_decisions = 0
        self.fallback_plans = 0
        self.fallback_personas = 0
        self.fallback_reflections = 0

        (self.run_dir / "config.yaml").write_text(config.to_yaml(), encoding="utf-8")
        self.behavior_log_path = self.run_dir / "behavior.log"
        self.reflections_log_path = self.run_dir / "reflections.log"
        self.totals = RunTotals()
        self.agents: dict[str, AgentRuntime] = {}
        self._behavior_fh: IO[str] = self.behavior_log_path.open("w", encoding="utf-8")
        try:
            self._reflections_fh: IO[str] = self.reflections_log_path.open("w", encoding="utf-8")
        except BaseException:
            self._behavior_fh.close()
            raise
        # a provider that raises, or EMFILE at the Nth memory log, must not leave
        # the files opened so far to the garbage collector
        try:
            center = GeoPoint(*plan_template["center"])
            area_radius = float(plan_template["area_radius_km"])
            for index in range(config.num_agents):
                agent_id = f"agent-{index:02d}"
                persona = self._make_persona(agent_id)
                home = home_point_for(agent_id, center, area_radius)
                state = EvState(
                    agent_id=agent_id,
                    location=home,
                    soc_kwh=float(config.initial_soc_kwh),
                    status=EvStatus.IDLE,
                    capacity_kwh=persona.vehicle.battery_capacity_kwh,
                    max_charge_power_kw=persona.vehicle.max_charge_power_kw,
                )
                memory = MemoryStore(
                    self.run_dir / "memory" / f"{agent_id}.log", fsync=config.memory_fsync
                )
                self.agents[agent_id] = AgentRuntime(
                    agent_id=agent_id,
                    persona=persona,
                    state=state,
                    memory=memory,
                    home=home,
                    initial_soc_kwh=float(config.initial_soc_kwh),
                )

            personas = {aid: agent.persona.to_dict() for aid, agent in self.agents.items()}
            (self.run_dir / "personas.json").write_text(
                json.dumps(personas, sort_keys=True, indent=2), encoding="utf-8"
            )

            self._plan_day(0)
            for agent in self._agents_in_order():
                self._advance(agent, 0)
            self.queue.push(MINUTES_PER_DAY, "", "day_boundary", {})
        except BaseException:
            self.close()
            raise

    # -- setup helpers --------------------------------------------------------

    def _make_persona(self, agent_id: str) -> Persona:
        seed = f"{self.config.seed}:{agent_id}"
        try:
            persona = self.provider.generate_persona(seed, self.config.persona_template)
            violations = validate_persona(persona)
            if violations:
                raise SchemaError(f"invalid persona: {violations}")
        except (SchemaError, ProviderError):
            persona = self._mock.generate_persona(seed, self.config.persona_template)
            self.fallback_personas += 1
        return replace(persona, id=agent_id)

    def _agents_in_order(self) -> list[AgentRuntime]:
        return [self.agents[aid] for aid in sorted(self.agents)]

    # -- event plumbing ---------------------------------------------------------

    def _push(self, when: int, agent_id: str, kind: str, payload: dict | None = None) -> None:
        if when < self.now:
            raise AssertionError(f"event {kind} scheduled in the past: {when} < {self.now}")
        self.queue.push(when, agent_id, kind, payload)

    def step(self) -> None:
        """Process exactly one event; simulation time never moves backward."""
        when, _seq, agent_id, kind, payload = self.queue.pop()
        if when < self.now:
            raise AssertionError(f"event queue yielded a past event: {when} < {self.now}")
        self.now = when
        if kind == "day_boundary":
            self._on_day_boundary(when)
        elif kind == "trip_start":
            self._on_trip_start(self.agents[agent_id], when, payload)
        elif kind == "trip_end":
            self._on_trip_end(self.agents[agent_id], when, payload)
        elif kind == "station_arrival":
            self._on_station_arrival(self.agents[agent_id], when, payload)
        elif kind == "charge_end":
            self._on_charge_end(self.agents[agent_id], when, payload)
        else:
            raise AssertionError(f"unknown event kind {kind!r}")

    def run(self) -> RunArtifacts:
        """Step to the end and write the summary; on an error, close every log and re-raise."""
        started = _time.perf_counter()
        try:
            while len(self.queue):
                self.step()
        finally:
            self.close()
        return self._finalize(_time.perf_counter() - started)

    # -- record emission -----------------------------------------------------------

    def _emit(
        self,
        agent: AgentRuntime,
        record: BehaviorRecord,
        fallback: bool = False,
        extras: dict | None = None,
        to_memory: bool = False,
    ) -> None:
        entry = {
            "agent_id": agent.agent_id,
            "fallback": fallback,
            "record": record.to_dict(),
            "extras": extras or {},
        }
        self._behavior_fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        self._behavior_fh.flush()
        self.totals.add(entry)
        agent.today_records.append(record)
        if to_memory:
            agent.memory.append(record)

    # -- plan scheduling --------------------------------------------------------

    def _plan_day(self, day_index: int) -> None:
        for agent in self._agents_in_order():
            try:
                plan = self.provider.plan_day(agent.persona, day_index, self.config.seed)
                if plan.day_index != day_index:
                    raise SchemaError(
                        f"plan for day {plan.day_index} when day {day_index} was requested"
                    )
            except (SchemaError, ProviderError):
                plan = self._mock.plan_day(agent.persona, day_index, self.config.seed)
                self.fallback_plans += 1
            agent.plans.append(plan)
            agent.pending.extend((day_index, event) for event in plan.events)

    def _advance(self, agent: AgentRuntime, now: int) -> None:
        """Schedule the agent's next planned event unless a chain is in flight."""
        if agent.busy or not agent.pending:
            return
        day, event = agent.pending.popleft()
        start = max(now, day * MINUTES_PER_DAY + event.start)
        agent.busy = True
        self._push(start, agent.agent_id, "trip_start", {"day": day, "event": event})

    # -- event handlers ---------------------------------------------------------------

    def _on_trip_start(self, agent: AgentRuntime, now: int, payload: dict) -> None:
        event: PlanEvent = payload["event"]
        origin = agent.state.location
        multiplier = self.env.speed_multiplier(now % MINUTES_PER_DAY)
        estimate = self.env.router.route(origin, event.destination, multiplier)
        agent.state = replace(agent.state, status=EvStatus.DRIVING)
        self._push(
            now + estimate.travel_minutes,
            agent.agent_id,
            "trip_end",
            {
                "day": payload["day"],
                "event": event,
                "origin": origin,
                "distance_km": estimate.distance_km,
                "travel_minutes": estimate.travel_minutes,
            },
        )

    def _on_trip_end(self, agent: AgentRuntime, now: int, payload: dict) -> None:
        event: PlanEvent = payload["event"]
        distance_km = payload["distance_km"]
        rate = agent.persona.vehicle.consumption_kwh_per_km
        try:
            drained = consume_energy(agent.state, distance_km, rate)
        except StrandedError as err:
            self._strand(agent, now, f"stranded during a planned trip: {err}", distance_km)
            return
        energy_kwh = agent.state.soc_kwh - drained.soc_kwh
        agent.consumed_kwh += energy_kwh
        agent.km_total += distance_km
        agent.state = replace(drained, location=event.destination, status=EvStatus.IDLE)
        record = BehaviorRecord(
            action=ActionType.TRAVEL,
            object_id=f"route-d{payload['day']}-{event.start:04d}",
            timestamp=now,
            quintuple=self._empty_quintuple(agent, now),
            reason=f"completed planned trip of {distance_km:.1f} km",
        )
        origin: GeoPoint = payload["origin"]
        self._emit(
            agent,
            record,
            extras={
                "origin": [origin.latitude, origin.longitude],
                "destination": [event.destination.latitude, event.destination.longitude],
                "distance_km": distance_km,
                "energy_kwh": energy_kwh,
                "travel_minutes": payload["travel_minutes"],
            },
        )
        agent.busy = False
        self._decision_pipeline(agent, now)

    def _decision_pipeline(self, agent: AgentRuntime, now: int) -> None:
        """Perceive, retrieve, decide, execute, remember: one tick for one agent."""
        clock = SimClock(now)
        snapshot = perceive(agent, self.env, clock, self.config.station_radius_km)
        short = agent.memory.retrieve(clock, "short")
        aggregates = agent.memory.daily_aggregates(clock)
        request = DecisionRequest(
            persona=agent.persona,
            plan_events=tuple(e for d, e in agent.pending if d == clock.day_index),
            snapshot=snapshot,
            short_records=tuple(short),
            long_aggregates=tuple(aggregates),
            clock=clock,
        )
        fallback = False
        try:
            response = self.provider.decide(request)
            validate_decision(response, snapshot, agent.state)
        except (SchemaError, ProviderError):
            response = baseline_decision(request, self.weights)
            validate_decision(response, snapshot, agent.state)
            fallback = True
            self.fallback_decisions += 1

        extras = {"perceived_at": snapshot.travel.now, "snapshot_digest": snapshot.digest()}
        if response.decision:
            station_entry = snapshot.station(response.quintuple.station_id)
            extras.update(
                {
                    "station_distance_km": station_entry.distance_km,
                    "station_travel_minutes": station_entry.travel_minutes,
                    "predicted_queue_minutes": station_entry.predicted_queue_minutes,
                }
            )
            record = BehaviorRecord(
                action=ActionType.START_CHARGING,
                object_id=station_entry.station_id,
                timestamp=now,
                quintuple=response.quintuple,
                reason=response.reason,
            )
            self._emit(agent, record, fallback=fallback, extras=extras, to_memory=True)
            agent.busy = True
            agent.state = replace(agent.state, status=EvStatus.DRIVING)
            self._push(
                now + station_entry.travel_minutes,
                agent.agent_id,
                "station_arrival",
                {
                    "station_id": station_entry.station_id,
                    "response": response,
                    "distance_km": station_entry.distance_km,
                },
            )
        else:
            record = BehaviorRecord(
                action=ActionType.SKIP_CHARGING,
                object_id="",
                timestamp=now,
                quintuple=response.quintuple,
                reason=response.reason,
            )
            self._emit(agent, record, fallback=fallback, extras=extras, to_memory=True)
            self._advance(agent, now)

    def _on_station_arrival(self, agent: AgentRuntime, now: int, payload: dict) -> None:
        station = self.env.stations[payload["station_id"]]
        response: DecisionResponse = payload["response"]
        distance_km = payload["distance_km"]
        origin = agent.state.location
        rate = agent.persona.vehicle.consumption_kwh_per_km
        try:
            drained = consume_energy(agent.state, distance_km, rate)
        except StrandedError as err:
            self._strand(
                agent, now, f"stranded en route to {station.station_id}: {err}", distance_km
            )
            return
        approach_energy = agent.state.soc_kwh - drained.soc_kwh
        agent.consumed_kwh += approach_energy
        agent.km_total += distance_km
        agent.state = replace(drained, location=station.location, status=EvStatus.QUEUED)
        try:
            ticket = begin_charge(
                station,
                agent.state,
                response.quintuple.amount_kwh,
                SimClock(now),
                self.env.tariff_for(station),
            )
        except ZeroChargeError:
            # cannot happen after a validated positive decision (driving only
            # grows headroom), but keep the approach leg on the books anyway
            record = BehaviorRecord(
                action=ActionType.TRAVEL,
                object_id=f"approach-{station.station_id}",
                timestamp=now,
                quintuple=self._empty_quintuple(agent, now),
                reason=f"arrived at {station.station_id} with a full battery; nothing to deliver",
            )
            self._emit(
                agent,
                record,
                extras={
                    "origin": [origin.latitude, origin.longitude],
                    "destination": [station.location.latitude, station.location.longitude],
                    "distance_km": distance_km,
                    "energy_kwh": approach_energy,
                    "travel_minutes": 0,
                },
            )
            agent.busy = False
            agent.state = replace(agent.state, status=EvStatus.IDLE)
            self._advance(agent, now)
            return
        approach = {"distance_km": distance_km, "energy_kwh": approach_energy}
        self._push(
            ticket.end_charge,
            agent.agent_id,
            "charge_end",
            {
                "station_id": station.station_id,
                "ticket": ticket,
                "response": response,
                "approach": approach,
            },
        )

    def _on_charge_end(self, agent: AgentRuntime, now: int, payload: dict) -> None:
        ticket: ChargeTicket = payload["ticket"]
        response: DecisionResponse = payload["response"]
        station = self.env.stations[payload["station_id"]]
        new_soc = agent.state.soc_kwh + ticket.energy_kwh
        if new_soc > agent.state.capacity_kwh:  # float headroom round-off only
            if new_soc - agent.state.capacity_kwh > 1e-6:
                raise AssertionError("charge overshot battery capacity")
            new_soc = agent.state.capacity_kwh
        agent.charged_kwh += new_soc - agent.state.soc_kwh
        agent.cost_total += ticket.cost
        agent.state = replace(agent.state, soc_kwh=new_soc, status=EvStatus.IDLE)
        duration = ticket.end_charge - ticket.start_charge
        effective_price = round_currency(ticket.cost / ticket.energy_kwh) if ticket.energy_kwh else 0.0
        record = BehaviorRecord(
            action=ActionType.STOP_CHARGING,
            object_id=station.station_id,
            timestamp=now,
            quintuple=DecisionQuintuple(
                decision=True,
                scenario=response.quintuple.scenario,
                time_minutes=ticket.start_charge,
                station_id=station.station_id,
                amount_kwh=ticket.energy_kwh,
                power_kw=ticket.power_kw,
                price_per_kwh=effective_price,
            ),
            reason=f"delivered {ticket.energy_kwh:.2f} kWh in {duration} min",
        )
        approach = payload["approach"]
        self._emit(
            agent,
            record,
            extras={
                "station": [station.location.latitude, station.location.longitude],
                "cost": ticket.cost,
                "energy_kwh": ticket.energy_kwh,
                "start_wait": ticket.start_wait,
                "start_charge": ticket.start_charge,
                "end_charge": ticket.end_charge,
                "wait_minutes": ticket.start_charge - ticket.start_wait,
                "approach_distance_km": approach["distance_km"],
                "approach_energy_kwh": approach["energy_kwh"],
            },
            to_memory=True,
        )
        agent.busy = False
        self._advance(agent, now)

    def _strand(self, agent: AgentRuntime, now: int, reason: str, attempted_km: float) -> None:
        agent.strand_count += 1
        agent.stranded_today = True
        agent.busy = False
        agent.state = replace(agent.state, status=EvStatus.IDLE)
        record = BehaviorRecord(
            action=ActionType.IDLE,
            object_id="",
            timestamp=now,
            quintuple=self._empty_quintuple(agent, now),
            reason=reason,
        )
        self._emit(
            agent,
            record,
            extras={"attempted_distance_km": attempted_km, "soc_kwh": agent.state.soc_kwh},
        )
        today = now // MINUTES_PER_DAY
        agent.pending = deque(entry for entry in agent.pending if entry[0] > today)

    def _on_day_boundary(self, now: int) -> None:
        completed = now // MINUTES_PER_DAY - 1
        for agent in self._agents_in_order():
            day_records = agent.today_records
            agent.today_records = []
            try:
                report = self.provider.reflect(day_records, agent.persona, agent.plans)
                if report.day_index != completed:
                    raise SchemaError(
                        f"reflection for day {report.day_index}, expected {completed}"
                    )
            except (SchemaError, ProviderError, ValueError):
                report = _fallback_reflection(completed)
                self.fallback_reflections += 1
            agent.memory.append_reflection(report)
            entry = {"agent_id": agent.agent_id, "timestamp": now, "report": report.to_dict()}
            self._reflections_fh.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._reflections_fh.flush()
            self.totals.add_reflection(entry)

            if agent.stranded_today:
                reserve = TOW_RESERVE_FRACTION * agent.state.capacity_kwh
                delta = reserve - agent.state.soc_kwh
                agent.tow_delta_kwh += delta
                agent.state = replace(
                    agent.state, location=agent.home, soc_kwh=reserve, status=EvStatus.IDLE
                )
                record = BehaviorRecord(
                    action=ActionType.IDLE,
                    object_id="",
                    timestamp=now,
                    quintuple=self._empty_quintuple(agent, now),
                    reason="towed to home point overnight; battery reset to reserve level",
                )
                self._emit(agent, record, extras={"tow_energy_delta_kwh": delta})
                agent.stranded_today = False

        next_day = now // MINUTES_PER_DAY
        if next_day < self.config.horizon_days:
            self._plan_day(next_day)
            for agent in self._agents_in_order():
                self._advance(agent, now)
            self.queue.push(now + MINUTES_PER_DAY, "", "day_boundary", {})

    # -- helpers ------------------------------------------------------------------

    def _empty_quintuple(self, agent: AgentRuntime, now: int) -> DecisionQuintuple:
        return DecisionQuintuple(
            decision=False,
            scenario=agent.persona.habits.preferred_scenario,
            time_minutes=now,
            station_id=None,
            amount_kwh=0.0,
            power_kw=0.0,
            price_per_kwh=0.0,
        )

    def close(self) -> None:
        """Close both logs and every memory log; closing twice is harmless."""
        self._behavior_fh.close()
        self._reflections_fh.close()
        for agent in self.agents.values():
            agent.memory.close()

    def _finalize(self, elapsed_s: float) -> RunArtifacts:
        final_states = {}
        for agent in self._agents_in_order():
            final_states[agent.agent_id] = {
                "location": [agent.state.location.latitude, agent.state.location.longitude],
                "status": agent.state.status.value,
                "soc_kwh": agent.state.soc_kwh,
                "capacity_kwh": agent.state.capacity_kwh,
                "initial_soc_kwh": agent.initial_soc_kwh,
                "consumed_kwh": agent.consumed_kwh,
                "charged_kwh": agent.charged_kwh,
                "tow_delta_kwh": agent.tow_delta_kwh,
                "cost_total": agent.cost_total,
                "km_total": agent.km_total,
                "strand_count": agent.strand_count,
            }
        summary = build_summary(self.totals, final_states, horizon_days=self.config.horizon_days)
        summary["fallbacks"] = {
            "decisions": self.fallback_decisions,
            "plans": self.fallback_plans,
            "personas": self.fallback_personas,
            "reflections": self.fallback_reflections,
        }
        (self.run_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2), encoding="utf-8"
        )
        (self.run_dir / "final_states.json").write_text(
            json.dumps(final_states, sort_keys=True, indent=2), encoding="utf-8"
        )
        return RunArtifacts(
            run_dir=self.run_dir,
            behavior_log=self.behavior_log_path,
            reflections_log=self.reflections_log_path,
            summary=summary,
            final_states=final_states,
            behavior_digest=_sha256(self.behavior_log_path),
            reflections_digest=_sha256(self.reflections_log_path),
            elapsed_s=elapsed_s,
        )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(
    config: ScenarioConfig,
    out_dir: Path | str,
    provider: CognitionProvider | None = None,
) -> RunArtifacts:
    """Run a scenario to completion and return its artifacts."""
    return Simulation(config, out_dir, provider=provider).run()
