"""Deterministic event-driven simulation engine.

One simulated day per agent unfolds as a chain of events: trips start and
end, charging detours insert station-arrival and charge-end events, and a
global day-boundary event at every midnight runs reflection, tows stranded
vehicles home and schedules the next day's plan. Each agent event end runs
the decision pipeline: consume energy, perceive, decide, execute, then
append the decision to memory. The decision request hands the provider the
agent's memory windows and the day's remaining plan, but builds each only
when it is read, as of the moment the request was made; the mock provider
reads none of them, so a mock run does no retrieval.

An event is a scheduled call: Simulation.queue is a heap of
(time, push sequence, handler, args) tuples, and step() pops the earliest
and calls handler(time, *args). Everything is single-threaded and totally
ordered by (time, push sequence), so a (config, seed) pair maps to
byte-identical logs under the mock provider. Provider responses are
validated before they can touch the environment; invalid ones are replaced
by the rule-based baseline and the resulting records carry fallback=true.

The engine also owns the run's accounting: RunTotals sums the values each
handler has just logged, build_summary turns the sums into summary.json
(which export_csv renders as summary.csv), and final_states.json takes each
agent's km and cost from the same sums. RunTotals also traces what the maps
draw, each agent's waypoints and charge decisions, and writes it to
routes.json, which the map exporters render without reading behavior.log.
"""

from __future__ import annotations

import hashlib
import heapq
import time as _time
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path
from sys import intern
from typing import IO, Callable

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
    canonical_json,
    json_number,
    json_string,
    round_currency,
    to_data,
    validate_persona,
    write_indented_json,
)
from .environment import (
    ChargeTicket,
    ChargingStation,
    Environment,
    EvState,
    StrandedError,
    ZeroChargeError,
    begin_charge,
    consume_energy,
)
from .memory import MemoryStore
from .perception import TravelPerception, perceive
from .providers.base import (
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
    ProviderError,
    SchemaError,
    validate_decision,
)
from .providers.baseline import baseline_decision
from .providers.live import LiveProvider
from .providers.mock import MockProvider

TOW_RESERVE_FRACTION = 0.05
HOURS_PER_DAY = 24


def _zero_bucket() -> dict:
    return {"total_km": 0.0, "total_kwh_charged": 0.0, "total_cost": 0.0, "charge_count": 0}


def _point_text(point: GeoPoint) -> str:
    """point's to_json text, "[lat,lon]", each coordinate written as the float it is
    or, if it is not one, converts to."""
    if isinstance(point.latitude, float) and isinstance(point.longitude, float):
        return point.to_json()
    return f"[{json_number(float(point.latitude))},{json_number(float(point.longitude))}]"


class RunTotals:
    """The run's accounting, fed each travel leg and completed charge as it is logged.

    The terms arrive in behavior.log order, so a reader that sums the log in
    file order gets bit-identical floats. Distance comes from travel legs
    plus charging detours; energy, cost, charge counts and the hourly load
    come from completed charges. summary.json and final_states.json's
    km_total and cost_total are read from these sums.

    The same feed traces each agent's route of waypoints: a travel leg's
    origin and destination, then a completed charge's station, each skipped
    when it equals the last waypoint. A waypoint is kept as its point's
    to_json text, which a leg's ends have kept since the travel line wrote
    it; seal_routes, which the engine calls at every day boundary, flips
    each agent's waypoints since the last seal to "lon,lat" and joins them
    into one text. add_charge keeps each start_charging decision's
    (timestamp, station_id, reason); write_routes writes both as
    routes.json and formats no float.
    """

    def __init__(self) -> None:
        self.agents: dict[str, dict] = {}
        self.satisfaction: dict[str, list[float]] = {}
        # one bucket per hour from minute 0 through the end of the last charge
        self.hourly: list[float] = []
        # per agent: the texts seal_routes joined, and the waypoints' texts since
        self.routes: defaultdict[str, list[str]] = defaultdict(list)
        self._open: defaultdict[str, list[str]] = defaultdict(list)
        self._last: dict[str, GeoPoint] = {}  # each agent's last waypoint
        self.charges: defaultdict[str, list[tuple]] = defaultdict(list)

    def add_travel(
        self, agent_id: str, origin: GeoPoint, destination: GeoPoint, distance_km: float
    ) -> None:
        """Sum one travel leg: its distance, and its ends as waypoints."""
        self._bucket(agent_id)["total_km"] += distance_km
        self._add_waypoint(agent_id, origin)
        self._add_waypoint(agent_id, destination)

    def add_stop(
        self, agent_id: str, station: GeoPoint, ticket: ChargeTicket, approach_km: float
    ) -> None:
        """Sum one completed charge: approach distance, ticket and the station as a waypoint."""
        bucket = self._bucket(agent_id)
        bucket["total_km"] += approach_km
        bucket["total_kwh_charged"] += ticket.energy_kwh
        bucket["total_cost"] += ticket.cost
        bucket["charge_count"] += 1
        self._add_load(ticket.start_charge, ticket.end_charge, ticket.power_kw)
        self._add_waypoint(agent_id, station)

    def add_charge(self, agent_id: str, timestamp: int, station_id: str, reason: str) -> None:
        """Keep one start_charging decision: its record's timestamp, object_id and reason."""
        self.charges[agent_id].append((timestamp, station_id, reason))

    def seal_routes(self) -> None:
        """Join each agent's waypoints since the last seal into one text."""
        for agent_id, texts in self._open.items():
            # "[lat,lon],[lat,lon]" -> lat, lon, lat, lon -> "lon,lat,lon,lat"
            numbers = ",".join(texts).replace("[", "").replace("]", "").split(",")
            numbers[::2], numbers[1::2] = numbers[1::2], numbers[::2]
            self.routes[agent_id].append(",".join(numbers))
        self._open.clear()

    def write_routes(self, fh: IO[str], agent_ids: list[str]) -> None:
        """Write routes.json for agent_ids, in their order, one agent at a time:
        {agent_id: {"charges": [[timestamp, station_id, reason], ...],
        "route": [lon, lat, lon, lat, ...]}} in compact JSON."""
        self.seal_routes()
        fh.write("{")
        for index, agent_id in enumerate(agent_ids):
            charges = canonical_json(self.charges.get(agent_id, []))
            route = ",".join(self.routes.get(agent_id, ()))
            fh.write(
                f'{"," if index else ""}{json_string(agent_id)}:'
                f'{{"charges":{charges},"route":[{route}]}}'
            )
        fh.write("}")

    def add_reflection(self, agent_id: str, satisfaction: float) -> None:
        self.satisfaction.setdefault(agent_id, []).append(satisfaction)

    def _add_waypoint(self, agent_id: str, point: GeoPoint) -> None:
        last = self._last.get(agent_id)
        if last is point or (
            last is not None
            and last.latitude == point.latitude
            and last.longitude == point.longitude
        ):
            return
        self._last[agent_id] = point
        self._open[agent_id].append(_point_text(point))

    def _bucket(self, agent_id: str) -> dict:
        bucket = self.agents.get(agent_id)
        if bucket is None:
            bucket = self.agents[agent_id] = _zero_bucket()
        return bucket

    def _add_load(self, start: int, end: int, power_kw: float) -> None:
        if end <= start:
            return
        hourly = self.hourly
        last_hour = (end - 1) // 60
        if last_hour >= len(hourly):
            hourly.extend([0.0] * (last_hour + 1 - len(hourly)))
        for hour in range(start // 60, last_hour + 1):
            overlap = min(end, (hour + 1) * 60) - max(start, hour * 60)
            hourly[hour] += power_kw * overlap / 60.0


def build_summary(totals: RunTotals, final_states: dict, horizon_days: int) -> dict:
    agents = {}
    for agent_id in sorted(final_states):
        scores = totals.satisfaction.get(agent_id, [])
        agents[agent_id] = {
            **(totals.agents.get(agent_id) or _zero_bucket()),
            "mean_satisfaction": sum(scores) / len(scores) if scores else 0.0,
            "strand_count": final_states[agent_id]["strand_count"],
        }

    rows = list(agents.values())  # in agent id order
    fleet = {
        key: sum(row[key] for row in rows)
        for key in ("total_km", "total_kwh_charged", "total_cost", "charge_count", "strand_count")
    }
    fleet["mean_satisfaction"] = (
        sum(row["mean_satisfaction"] for row in rows) / len(rows) if rows else 0.0
    )

    # The series runs through the horizon or the end of the last charge,
    # whichever is later: a charge begun before the horizon may finish
    # after it, and its load belongs to those later hours.
    hourly = totals.hourly + [0.0] * (horizon_days * HOURS_PER_DAY - len(totals.hourly))

    return {
        "agents": agents,
        "fleet": fleet,
        "hourly_load_kw": hourly,
        "horizon_days": horizon_days,
        "num_agents": len(agents),
    }


@dataclass
class AgentRuntime:
    """Mutable per-agent bookkeeping owned by the engine."""

    agent_id: str
    persona: Persona
    state: EvState
    memory: MemoryStore
    home: GeoPoint
    plan: DailyPlan | None = None  # today's, until the day boundary reflects on it
    pending: deque = field(default_factory=deque)  # (day_index, PlanEvent)
    today_records: list[BehaviorRecord] = field(default_factory=list)
    busy: bool = False  # a trip or charging chain is in flight
    stranded_today: bool = False
    strand_count: int = 0
    consumed_kwh: float = 0.0
    charged_kwh: float = 0.0
    tow_delta_kwh: float = 0.0
    # the last decision's travel perception, if it had a next destination,
    # until the next trip start, which reuses its distance for that leg
    perceived: TravelPerception | None = None
    # json_string(agent_id), which _emit writes at the head of every line
    agent_id_json: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.agent_id_json = json_string(self.agent_id)

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


def _leg(
    origin: GeoPoint, destination: GeoPoint, distance_km: float, energy_kwh: float, minutes: int
) -> str:
    """A travel record's extras as canonical JSON text."""
    return (
        f'{{"destination":{destination.to_json()},"distance_km":{json_number(distance_km)},'
        f'"energy_kwh":{json_number(energy_kwh)},"origin":{origin.to_json()},'
        f'"travel_minutes":{minutes}}}'
    )


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

        self.weights = config.build_weights()
        self._mock = MockProvider(
            weights=self.weights, plan_template=config.effective_plan_template()
        )

        self.env = Environment(
            stations=config.build_stations(),
            tariffs=config.build_tariffs(),
            router=config.build_router(),
            congestion=config.build_congestion(),
        )
        self.queue: list[tuple] = []  # heap of (time, push sequence, handler, args)
        self._sequence = count()
        self.now = 0
        # what each provider call fell back on, keyed as summary.json names it
        self.fallbacks = {"decisions": 0, "plans": 0, "personas": 0, "reflections": 0}

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
        # a provider that raises, or a live provider whose prompt files cannot be
        # read, must not leave both logs to the garbage collector, nor the run
        # directory without a summary.json that records the failure
        try:
            if provider is not None:
                self.provider = provider
            elif config.provider == "live":
                self.provider = LiveProvider(config.build_live_settings())
            else:
                self.provider = self._mock
            for index in range(config.num_agents):
                agent_id = f"agent-{index:02d}"
                persona = self._make_persona(agent_id)
                home = self._mock.home(agent_id)
                state = EvState(
                    agent_id=agent_id,
                    location=home,
                    soc_kwh=float(config.initial_soc_kwh),
                    capacity_kwh=persona.vehicle.battery_capacity_kwh,
                    max_charge_power_kw=persona.vehicle.max_charge_power_kw,
                )
                self.agents[agent_id] = AgentRuntime(
                    agent_id=agent_id,
                    persona=persona,
                    state=state,
                    memory=MemoryStore(),
                    home=home,
                )

            personas = {aid: to_data(agent.persona) for aid, agent in self.agents.items()}
            self._write_json("personas.json", personas)

            self._plan_day(0)
            for agent in self._agents_in_order():
                self._advance(agent, 0)
            self._push(MINUTES_PER_DAY, self._on_day_boundary)
        except BaseException as exc:
            self._fail(exc)
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
            self.fallbacks["personas"] += 1
        return replace(persona, id=agent_id)

    def _agents_in_order(self) -> list[AgentRuntime]:
        return [self.agents[aid] for aid in sorted(self.agents)]

    # -- event plumbing ---------------------------------------------------------

    def _push(self, when: int, handler: Callable[..., None], *args) -> None:
        """Schedule handler(when, *args); calls due at the same minute run in push order."""
        if when < self.now:
            raise AssertionError(
                f"event {handler.__name__} scheduled in the past: {when} < {self.now}"
            )
        heapq.heappush(self.queue, (when, next(self._sequence), handler, args))

    def step(self) -> None:
        """Process exactly one event; simulation time never moves backward.

        The event's behavior.log lines reach the file together, in one flush
        once its handler returns; if the handler raises, close() flushes them.
        """
        when, _sequence, handler, args = heapq.heappop(self.queue)
        if when < self.now:
            raise AssertionError(f"event queue yielded a past event: {when} < {self.now}")
        self.now = when
        handler(when, *args)
        self._behavior_fh.flush()

    def run(self) -> RunArtifacts:
        """Step to the end and write the summary.

        On an error, close both logs, write a summary.json that says "failed"
        and names the error, and re-raise.
        """
        started = _time.perf_counter()
        try:
            while self.queue:
                self.step()
            self.close()
            return self._finalize(_time.perf_counter() - started)
        except BaseException as exc:
            self._fail(exc)
            raise

    # -- record emission -----------------------------------------------------------
    # The records built here take their object_id and reason through intern:
    # a few hundred texts ("completed planned trip of 3.4 km", "route-d0-0480")
    # recur across agents and days, and today_records and the memory stores
    # then keep one copy of each.

    def _emit(
        self,
        agent: AgentRuntime,
        record: BehaviorRecord,
        extras: str,
        fallback: bool = False,
        to_memory: bool = False,
    ) -> None:
        """Write record's behavior.log line, extras being its extras as canonical
        JSON text; step() flushes it with the rest of its event's lines."""
        # the canonical layout of {"agent_id", "extras", "fallback", "record"}
        self._behavior_fh.write(
            f'{{"agent_id":{agent.agent_id_json},"extras":{extras},'
            f'"fallback":{"true" if fallback else "false"},"record":{record.to_json()}}}\n'
        )
        agent.today_records.append(record)
        if to_memory:
            agent.memory.append(record)

    def _emit_no_charge(
        self,
        agent: AgentRuntime,
        now: int,
        action: ActionType,
        object_id: str,
        reason: str,
        extras: str,
    ) -> None:
        """Emit a travel or idle record: it charges nothing and stays out of memory."""
        quintuple = DecisionQuintuple.no_charge(agent.persona.habits.preferred_scenario, now)
        record = BehaviorRecord(action, intern(object_id), now, quintuple, intern(reason))
        self._emit(agent, record, extras)

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
                self.fallbacks["plans"] += 1
            agent.plan = plan
            agent.pending.extend((day_index, event) for event in plan.events)

    def _advance(self, agent: AgentRuntime, now: int) -> None:
        """Schedule the agent's next planned event unless a chain is in flight."""
        if agent.busy or not agent.pending:
            return
        day, event = agent.pending.popleft()
        start = max(now, day * MINUTES_PER_DAY + event.start)
        agent.busy = True
        self._push(start, self._on_trip_start, agent, day, event)

    # -- event handlers ---------------------------------------------------------------

    def _on_trip_start(self, now: int, agent: AgentRuntime, day: int, event: PlanEvent) -> None:
        origin = agent.state.location
        router = self.env.router
        # the distance between the very two points the last decision
        # perceived is that decision's: the same function of the same points
        seen, agent.perceived = agent.perceived, None
        if seen and seen.location is origin and seen.next_destination is event.destination:
            distance_km = seen.distance_to_next_km
        else:
            distance_km = router.distance_km(origin, event.destination)
        # Environment checks that every congestion multiplier is > 0
        multiplier = self.env.congestion.at(now % MINUTES_PER_DAY)
        minutes = router.travel_minutes(distance_km, multiplier)
        self._push(
            now + minutes, self._on_trip_end, agent, day, event, origin, distance_km, minutes
        )

    def _on_trip_end(
        self,
        now: int,
        agent: AgentRuntime,
        day: int,
        event: PlanEvent,
        origin: GeoPoint,
        distance_km: float,
        minutes: int,
    ) -> None:
        rate = agent.persona.vehicle.consumption_kwh_per_km
        try:
            energy_kwh = consume_energy(agent.state, distance_km, rate)
        except StrandedError as err:
            self._strand(agent, now, f"stranded during a planned trip: {err}", distance_km)
            return
        agent.consumed_kwh += energy_kwh
        agent.state.location = event.destination
        self._emit_no_charge(
            agent,
            now,
            ActionType.TRAVEL,
            f"route-d{day}-{event.start:04d}",
            f"completed planned trip of {distance_km:.1f} km",
            _leg(origin, event.destination, distance_km, energy_kwh, minutes),
        )
        self.totals.add_travel(agent.agent_id, origin, event.destination, distance_km)
        agent.busy = False
        self._decision_pipeline(agent, now)

    def _decision_pipeline(self, agent: AgentRuntime, now: int) -> None:
        """Perceive, decide, execute, remember: one tick for one agent.

        The request carries the agent's memory and plan backlog as they
        stand now; the memory windows and the day's remaining events are
        built only if the provider reads them.
        """
        clock = SimClock(now)
        snapshot = perceive(agent, self.env, clock, self.config.station_radius_km)
        travel = snapshot.travel
        agent.perceived = None if travel.next_destination is None else travel
        request = DecisionRequest(agent.persona, snapshot, clock, agent.memory, agent.pending)
        fallback = False
        try:
            response = self.provider.decide(request)
            validate_decision(response, snapshot, agent.state)
        except (SchemaError, ProviderError):
            response = baseline_decision(request, self.weights)
            validate_decision(response, snapshot, agent.state)
            fallback = True
            self.fallbacks["decisions"] += 1

        # the extras' keys in sorted order; a hex digest needs no escaping
        perceived_at = travel.now
        digest = snapshot.digest()
        if response.decision:
            station_entry = snapshot.station(response.quintuple.station_id)
            extras = (
                f'{{"perceived_at":{perceived_at},'
                f'"predicted_queue_minutes":{station_entry.predicted_queue_minutes},'
                f'"snapshot_digest":"{digest}",'
                f'"station_distance_km":{json_number(station_entry.distance_km)},'
                f'"station_travel_minutes":{station_entry.travel_minutes}}}'
            )
            record = BehaviorRecord(
                action=ActionType.START_CHARGING,
                object_id=intern(station_entry.station_id),
                timestamp=now,
                quintuple=response.quintuple,
                reason=intern(response.reason),
            )
            self._emit(agent, record, extras, fallback=fallback, to_memory=True)
            self.totals.add_charge(agent.agent_id, now, record.object_id, record.reason)
            agent.busy = True
            self._push(
                now + station_entry.travel_minutes,
                self._on_station_arrival,
                agent,
                self.env.stations[station_entry.station_id],
                response,
                station_entry.distance_km,
            )
        else:
            record = BehaviorRecord(
                action=ActionType.SKIP_CHARGING,
                object_id="",
                timestamp=now,
                quintuple=response.quintuple,
                reason=intern(response.reason),
            )
            extras = f'{{"perceived_at":{perceived_at},"snapshot_digest":"{digest}"}}'
            self._emit(agent, record, extras, fallback=fallback, to_memory=True)
            self._advance(agent, now)

    def _on_station_arrival(
        self,
        now: int,
        agent: AgentRuntime,
        station: ChargingStation,
        response: DecisionResponse,
        distance_km: float,
    ) -> None:
        origin = agent.state.location
        rate = agent.persona.vehicle.consumption_kwh_per_km
        try:
            approach_energy = consume_energy(agent.state, distance_km, rate)
        except StrandedError as err:
            self._strand(
                agent, now, f"stranded en route to {station.station_id}: {err}", distance_km
            )
            return
        agent.consumed_kwh += approach_energy
        agent.state.location = station.location
        try:
            ticket = begin_charge(
                station,
                agent.state,
                response.quintuple.amount_kwh,
                SimClock(now),
                self.env.tariffs[station.tariff_id],
            )
        except ZeroChargeError:
            # reachable: validate_decision accepts up to 1e-9 kWh above the
            # headroom, so a tiny positive decision on a full battery for a
            # station 0 km away arrives with nothing to deliver; the approach
            # leg stays on the books as a travel record
            self._emit_no_charge(
                agent,
                now,
                ActionType.TRAVEL,
                f"approach-{station.station_id}",
                f"arrived at {station.station_id} with a full battery; nothing to deliver",
                _leg(origin, station.location, distance_km, approach_energy, 0),
            )
            self.totals.add_travel(agent.agent_id, origin, station.location, distance_km)
            agent.busy = False
            self._advance(agent, now)
            return
        self._push(
            ticket.end_charge,
            self._on_charge_end,
            agent,
            station,
            ticket,
            response,
            distance_km,
            approach_energy,
        )

    def _on_charge_end(
        self,
        now: int,
        agent: AgentRuntime,
        station: ChargingStation,
        ticket: ChargeTicket,
        response: DecisionResponse,
        approach_km: float,
        approach_kwh: float,
    ) -> None:
        new_soc = agent.state.soc_kwh + ticket.energy_kwh
        if new_soc > agent.state.capacity_kwh:  # float headroom round-off only
            if new_soc - agent.state.capacity_kwh > 1e-6:
                raise AssertionError("charge overshot battery capacity")
            new_soc = agent.state.capacity_kwh
        agent.charged_kwh += new_soc - agent.state.soc_kwh
        agent.state.set_soc(new_soc)
        duration = ticket.end_charge - ticket.start_charge
        effective_price = round_currency(ticket.cost / ticket.energy_kwh) if ticket.energy_kwh else 0.0
        record = BehaviorRecord(
            action=ActionType.STOP_CHARGING,
            object_id=intern(station.station_id),
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
            reason=intern(f"delivered {ticket.energy_kwh:.2f} kWh in {duration} min"),
        )
        extras = {
            "station": [station.location.latitude, station.location.longitude],
            "cost": ticket.cost,
            "energy_kwh": ticket.energy_kwh,
            "start_wait": ticket.start_wait,
            "start_charge": ticket.start_charge,
            "end_charge": ticket.end_charge,
            "wait_minutes": ticket.start_charge - ticket.start_wait,
            "approach_distance_km": approach_km,
            "approach_energy_kwh": approach_kwh,
        }
        self._emit(agent, record, canonical_json(extras), to_memory=True)
        self.totals.add_stop(agent.agent_id, station.location, ticket, approach_km)
        agent.busy = False
        self._advance(agent, now)

    def _strand(self, agent: AgentRuntime, now: int, reason: str, attempted_km: float) -> None:
        agent.strand_count += 1
        agent.stranded_today = True
        agent.busy = False
        extras = {"attempted_distance_km": attempted_km, "soc_kwh": agent.state.soc_kwh}
        self._emit_no_charge(agent, now, ActionType.IDLE, "", reason, canonical_json(extras))
        today = now // MINUTES_PER_DAY
        agent.pending = deque(entry for entry in agent.pending if entry[0] > today)

    def _on_day_boundary(self, now: int) -> None:
        completed = now // MINUTES_PER_DAY - 1
        for agent in self._agents_in_order():
            day_records = agent.today_records
            agent.today_records = []
            try:
                report = self.provider.reflect(day_records, agent.persona, agent.plan)
                if report.day_index != completed:
                    raise SchemaError(
                        f"reflection for day {report.day_index}, expected {completed}"
                    )
            except (SchemaError, ProviderError):
                report = _fallback_reflection(completed)
                self.fallbacks["reflections"] += 1
            agent.plan = None  # reflected on; _plan_day sets the next day's
            agent.memory.append_reflection(report)
            entry = {"agent_id": agent.agent_id, "timestamp": now, "report": to_data(report)}
            self._reflections_fh.write(canonical_json(entry) + "\n")
            self._reflections_fh.flush()
            self.totals.add_reflection(agent.agent_id, report.satisfaction.score)

            if agent.stranded_today:
                reserve = TOW_RESERVE_FRACTION * agent.state.capacity_kwh
                delta = reserve - agent.state.soc_kwh
                agent.tow_delta_kwh += delta
                agent.state.set_soc(reserve)
                agent.state.location = agent.home
                reason = "towed to home point overnight; battery reset to reserve level"
                extras = canonical_json({"tow_energy_delta_kwh": delta})
                self._emit_no_charge(agent, now, ActionType.IDLE, "", reason, extras)
                agent.stranded_today = False
        self.totals.seal_routes()

        next_day = now // MINUTES_PER_DAY
        if next_day < self.config.horizon_days:
            self._plan_day(next_day)
            for agent in self._agents_in_order():
                self._advance(agent, now)
            self._push(now + MINUTES_PER_DAY, self._on_day_boundary)

    # -- helpers ------------------------------------------------------------------

    def close(self) -> None:
        """Close both logs; closing twice is harmless."""
        self._behavior_fh.close()
        self._reflections_fh.close()

    def _fail(self, exc: BaseException) -> None:
        """Close both logs and write a summary.json that says "failed" and names exc."""
        self.close()
        error = {"type": type(exc).__name__, "message": str(exc)}
        self._write_json("summary.json", {"status": "failed", "error": error})

    def _write_json(self, name: str, data: dict) -> None:
        with (self.run_dir / name).open("w", encoding="utf-8") as fh:
            write_indented_json(fh, data)

    def _finalize(self, elapsed_s: float) -> RunArtifacts:
        final_states = {}
        for agent in self._agents_in_order():
            # the sums behind the agent's total_km and total_cost in summary.json
            bucket = self.totals.agents.get(agent.agent_id) or _zero_bucket()
            final_states[agent.agent_id] = {
                "location": [agent.state.location.latitude, agent.state.location.longitude],
                # every trip, charge, strand and tow chain has ended once run()
                # drains the queue, so each vehicle is idle; the key keeps the layout
                "status": "idle",
                "soc_kwh": agent.state.soc_kwh,
                "capacity_kwh": agent.state.capacity_kwh,
                "initial_soc_kwh": float(self.config.initial_soc_kwh),
                "consumed_kwh": agent.consumed_kwh,
                "charged_kwh": agent.charged_kwh,
                "tow_delta_kwh": agent.tow_delta_kwh,
                "cost_total": bucket["total_cost"],
                "km_total": bucket["total_km"],
                "strand_count": agent.strand_count,
            }
        summary = build_summary(self.totals, final_states, horizon_days=self.config.horizon_days)
        summary["fallbacks"] = self.fallbacks
        self._write_json("summary.json", summary)
        self._write_json("final_states.json", final_states)
        with (self.run_dir / "routes.json").open("w", encoding="utf-8") as fh:
            self.totals.write_routes(fh, list(final_states))
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
