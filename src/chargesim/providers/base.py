"""Cognition provider interface and the payloads that cross it.

A provider produces personas, daily plans, charging decisions and
end-of-day reflections. Implementations range from a deterministic mock to
a live LLM endpoint; the engine treats them identically and never lets an
unvalidated response touch environment state. Decision payloads therefore
go through two gates: a syntactic parse (parse_decision_payload) and a
semantic check against the snapshot the decision was made from
(validate_decision).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from ..domain import (
    BehaviorRecord,
    ChargeScenario,
    DailyPlan,
    DecisionQuintuple,
    Persona,
    PlanEvent,
    ReflectionReport,
    SimClock,
    canonical_json,
)
from ..environment import EvState
from ..memory import MemoryStore
from ..perception import PerceptionSnapshot


class ProviderError(RuntimeError):
    """Transport or availability failure after the retry budget is spent."""


class SchemaError(ValueError):
    """A provider response that does not conform to the expected schema."""


class DecisionRequest:
    """Everything a provider may consider when making one charging decision.

    persona, snapshot and clock are the present. The history is three
    tuples: plan_events (the day's remaining PlanEvents), short_records (the
    short memory window) and long_aggregates (per-day charge summaries over
    the long window). A caller may pass them in. The engine builds its
    requests with from_history instead: then each tuple is built the first
    time something reads it, from the agent's memory and plan backlog as
    they were when the request was made, and kept. The mock provider reads
    none of them, so a mock run builds none of them.
    """

    def __init__(
        self,
        persona: Persona,
        plan_events: tuple,
        snapshot: PerceptionSnapshot,
        short_records: tuple[BehaviorRecord, ...],
        long_aggregates: tuple[dict, ...],
        clock: SimClock,
    ) -> None:
        self.persona = persona
        self.snapshot = snapshot
        self.clock = clock
        # given values shadow the cached properties below, which then never run
        self.plan_events = plan_events
        self.short_records = short_records
        self.long_aggregates = long_aggregates

    @classmethod
    def from_history(
        cls,
        persona: Persona,
        snapshot: PerceptionSnapshot,
        clock: SimClock,
        memory: MemoryStore,
        pending: Iterable[tuple[int, PlanEvent]],
    ) -> DecisionRequest:
        """A request whose history is read, when first needed, from memory and
        the (day, PlanEvent) backlog pending as they stand now."""
        request = cls.__new__(cls)
        request.persona = persona
        request.snapshot = snapshot
        request.clock = clock
        request._memory = memory
        request._memory_size = len(memory.records)
        request._pending = tuple(pending)
        return request

    @cached_property
    def plan_events(self) -> tuple:
        today = self.clock.day_index
        return tuple(event for day, event in self._pending if day == today)

    @cached_property
    def short_records(self) -> tuple[BehaviorRecord, ...]:
        return tuple(self._memory.retrieve(self.clock, "short", self._memory_size))

    @cached_property
    def long_aggregates(self) -> tuple[dict, ...]:
        return tuple(self._memory.daily_aggregates(self.clock, self._memory_size))

    def to_json(self) -> str:
        """The canonical request text; the perception part is the snapshot's own text."""
        clock = self.clock
        short_memory = ",".join([record.to_json() for record in self.short_records])
        return (
            f'{{"clock":{{"day_index":{clock.day_index},"sim_time":{clock.sim_time},'
            f'"time_of_day":{clock.time_of_day}}},'
            f'"long_memory_daily":{canonical_json(list(self.long_aggregates))},'
            f'"perception":{self.snapshot.to_json()},'
            f'"persona":{canonical_json(self.persona.to_dict())},'
            f'"plan_events":{canonical_json([event.to_dict() for event in self.plan_events])},'
            f'"short_memory":[{short_memory}]}}'
        )


@dataclass(frozen=True, slots=True)
class DecisionResponse:
    """A charging decision: the quintuple fields plus the stated reason."""

    quintuple: DecisionQuintuple
    reason: str

    @property
    def decision(self) -> bool:
        return self.quintuple.decision


_REQUIRED_DECISION_KEYS = (
    "decision",
    "scenario",
    "time_minutes",
    "station_id",
    "amount_kwh",
    "power_kw",
    "price_per_kwh",
    "reason",
)


def parse_decision_payload(data: object) -> DecisionResponse:
    """Parse a raw decision payload, raising SchemaError on any malformation."""
    if not isinstance(data, dict):
        raise SchemaError(f"decision payload must be an object, got {type(data).__name__}")
    missing = [key for key in _REQUIRED_DECISION_KEYS if key not in data]
    if missing:
        raise SchemaError(f"decision payload missing keys: {', '.join(missing)}")
    if not isinstance(data["decision"], bool):
        raise SchemaError("decision must be a boolean")
    try:
        scenario = ChargeScenario(data["scenario"])
    except ValueError as exc:
        raise SchemaError(f"unknown scenario {data['scenario']!r}") from exc
    station_id = data["station_id"]
    if station_id is not None and not isinstance(station_id, str):
        raise SchemaError("station_id must be a string or null")
    if not isinstance(data["reason"], str):
        raise SchemaError("reason must be a string")
    try:
        quintuple = DecisionQuintuple(
            decision=data["decision"],
            scenario=scenario,
            time_minutes=int(data["time_minutes"]),
            station_id=station_id,
            amount_kwh=float(data["amount_kwh"]),
            power_kw=float(data["power_kw"]),
            price_per_kwh=float(data["price_per_kwh"]),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid quintuple: {exc}") from exc
    return DecisionResponse(quintuple=quintuple, reason=data["reason"])


def validate_decision(
    response: DecisionResponse, snapshot: PerceptionSnapshot, ev: EvState
) -> None:
    """Check a parsed decision against the snapshot it was made from.

    Any decision, a skip too, must state a finite, non-negative power and
    price, so that behavior.log holds no NaN or Infinity. A positive
    decision must also name a station present in the snapshot and may not
    request more energy than the battery can still take. Raises SchemaError
    so the caller's fallback path handles both gates uniformly.
    """
    q = response.quintuple
    # each written so that NaN fails it
    if not 0.0 <= q.power_kw < math.inf:
        raise SchemaError(f"power_kw must be finite and at least 0, got {q.power_kw}")
    if not 0.0 <= q.price_per_kwh < math.inf:
        raise SchemaError(f"price_per_kwh must be finite and at least 0, got {q.price_per_kwh}")
    if not q.decision:
        return
    if q.station_id is None:
        raise SchemaError("positive decision must name a station")
    if snapshot.station(q.station_id) is None:
        raise SchemaError(f"station {q.station_id!r} is not in the perceived candidate list")
    # written so that a NaN amount fails both bounds
    if not q.amount_kwh > 0.0:
        raise SchemaError(f"positive decision must request a positive amount, got {q.amount_kwh}")
    headroom = ev.capacity_kwh - ev.soc_kwh
    if not q.amount_kwh <= headroom + 1e-9:
        raise SchemaError(
            f"amount {q.amount_kwh:.3f} kWh exceeds remaining capacity {headroom:.3f} kWh"
        )
    if q.time_minutes < snapshot.travel.now:
        raise SchemaError("charging time may not lie in the past")


class CognitionProvider(ABC):
    """The pluggable reasoning component behind every agent."""

    @abstractmethod
    def generate_persona(self, seed: int | str, template_config: dict) -> Persona:
        """Produce a valid persona; deterministic in seed for mock providers."""

    @abstractmethod
    def plan_day(self, persona: Persona, day_index: int, seed: int | str) -> DailyPlan:
        """Produce the day's schedule of events."""

    @abstractmethod
    def decide(self, request: DecisionRequest) -> DecisionResponse:
        """Make one charging decision from the assembled request."""

    @abstractmethod
    def reflect(
        self,
        day_records: list[BehaviorRecord],
        persona: Persona,
        plan: DailyPlan,
    ) -> ReflectionReport:
        """Evaluate one completed day against its plan; called exactly once per
        agent per day."""
