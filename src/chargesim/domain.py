"""Shared domain types for the EV charging behavior simulator.

Pure values only: no I/O, no provider calls, no clock access. Every type
checks its own invariants on construction, with one deliberate exception:
``Persona`` is a plain record and its field-level rules are reported by
:func:`validate_persona`, so callers can collect every violation at once
(useful when the persona came from an external generator) instead of
failing on the first bad field.

A run keeps millions of these records alive, so every frozen value type in
the package is declared ``@dataclass(frozen=True, slots=True)``: no
per-instance ``__dict__``, hence no ad-hoc attributes and no weak
references. A new one is declared the same way; tests/test_domain.py
checks that every frozen dataclass has its ``__slots__``. A ``GeoPoint`` keeps
its JSON text, and ``DecisionQuintuple.no_charge`` shares one instance, text
included, per scenario within a minute, so recurring values are formatted once.

Time is integer minutes since scenario start; currency is CNY per kWh
with four fractional digits by convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as json_string

MINUTES_PER_DAY = 1440
CURRENCY_PLACES = 4

# The one canonical layout (sorted keys, compact separators, ASCII) of every
# log line, snapshot digest and to_json. The per-decision records write it
# straight from their fields, keys spelled out in sorted order, through
# json_string and json_number: the same bytes, without building a dict first.
# A str-valued enum member goes to json_string as itself, since its str data
# is its value.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def json_number(value: float) -> str:
    """An int or float as canonical_json writes it, NaN and the infinities included."""
    if isinstance(value, float):
        if _isfinite(value):
            return _float_repr(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0.0 else "-Infinity"
    return _int_repr(value)


def round_currency(value: float) -> float:
    """Quantize a currency amount to the conventional 4 fractional digits."""
    return round(value, CURRENCY_PLACES)


class ActionType(str, Enum):
    START_CHARGING = "start_charging"
    STOP_CHARGING = "stop_charging"
    SKIP_CHARGING = "skip_charging"
    TRAVEL = "travel"
    IDLE = "idle"


class ChargeScenario(str, Enum):
    HOME = "home"
    WORK = "work"
    PUBLIC = "public"
    EN_ROUTE = "en_route"


class IncomeLevel(str, Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


class Gender(str, Enum):
    FEMALE = "female"
    MALE = "male"
    NONBINARY = "nonbinary"
    UNSPECIFIED = "unspecified"


class PlanEventKind(str, Enum):
    WORK_SHIFT = "work_shift"
    TRIP = "trip"
    BREAK = "break"
    LEISURE = "leisure"


@dataclass(frozen=True, order=True, slots=True)
class SimClock:
    """Simulation time in whole minutes since scenario start.

    Integer minutes keep replay bit-exact and queue arithmetic exact.
    Monotonicity across a run is enforced by the engine, not here.
    """

    sim_time: int

    def __post_init__(self) -> None:
        if not isinstance(self.sim_time, int) or isinstance(self.sim_time, bool):
            raise ValueError(f"sim_time must be an integer, got {self.sim_time!r}")
        if self.sim_time < 0:
            raise ValueError(f"sim_time must be >= 0, got {self.sim_time}")

    @property
    def day_index(self) -> int:
        return self.sim_time // MINUTES_PER_DAY

    @property
    def time_of_day(self) -> int:
        return self.sim_time % MINUTES_PER_DAY


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 coordinate; bounds are validated on construction.

    to_json formats the point once and keeps the text in the private _json
    slot, which takes no part in __init__, ==, hash or repr.
    """

    latitude: float
    longitude: float
    _json: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of [-90, 90]: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of [-180, 180]: {self.longitude}")

    def to_json(self) -> str:
        """[latitude, longitude] as canonical_json writes it."""
        text = self._json
        if text is None:
            text = f"[{json_number(self.latitude)},{json_number(self.longitude)}]"
            object.__setattr__(self, "_json", text)
        return text


# ---------------------------------------------------------------------------
# Persona
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Demographics:
    age: int
    gender: Gender
    occupation: str


@dataclass(frozen=True, slots=True)
class Economics:
    income_level: IncomeLevel
    price_sensitivity: float  # 0 (indifferent) .. 1 (highly price driven)


@dataclass(frozen=True, slots=True)
class Psychology:
    risk_aversion: float
    range_anxiety_threshold: float  # SoC fraction below which charging is sought
    patience: float


@dataclass(frozen=True, slots=True)
class VehicleSpec:
    battery_capacity_kwh: float
    consumption_kwh_per_km: float
    max_charge_power_kw: float


@dataclass(frozen=True, slots=True)
class ChargingHabits:
    preferred_window: tuple[int, int]  # time-of-day minutes, half-open
    preferred_scenario: ChargeScenario
    typical_target_soc: float  # fraction in (0, 1]


@dataclass(frozen=True, slots=True)
class Persona:
    """Profile driving an agent's prompts and baseline decisions.

    Deliberately not self-validating; run :func:`validate_persona` and
    check the result before trusting externally produced personas.
    """

    id: str
    demographics: Demographics
    economics: Economics
    psychology: Psychology
    vehicle: VehicleSpec
    habits: ChargingHabits

    def to_dict(self) -> dict:
        # field by field in declaration order: dataclasses.asdict deep-copies
        # every leaf and cost about 20 times as much per persona
        d = self.demographics
        e = self.economics
        p = self.psychology
        v = self.vehicle
        h = self.habits
        return {
            "id": self.id,
            "demographics": {"age": d.age, "gender": d.gender.value, "occupation": d.occupation},
            "economics": {
                "income_level": e.income_level.value,
                "price_sensitivity": e.price_sensitivity,
            },
            "psychology": {
                "risk_aversion": p.risk_aversion,
                "range_anxiety_threshold": p.range_anxiety_threshold,
                "patience": p.patience,
            },
            "vehicle": {
                "battery_capacity_kwh": v.battery_capacity_kwh,
                "consumption_kwh_per_km": v.consumption_kwh_per_km,
                "max_charge_power_kw": v.max_charge_power_kw,
            },
            "habits": {
                "preferred_window": list(h.preferred_window),
                "preferred_scenario": h.preferred_scenario.value,
                "typical_target_soc": h.typical_target_soc,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Persona":
        d = data["demographics"]
        e = data["economics"]
        p = data["psychology"]
        v = data["vehicle"]
        h = data["habits"]
        return cls(
            id=str(data["id"]),
            demographics=Demographics(int(d["age"]), Gender(d["gender"]), str(d["occupation"])),
            economics=Economics(IncomeLevel(e["income_level"]), float(e["price_sensitivity"])),
            psychology=Psychology(
                float(p["risk_aversion"]),
                float(p["range_anxiety_threshold"]),
                float(p["patience"]),
            ),
            vehicle=VehicleSpec(
                float(v["battery_capacity_kwh"]),
                float(v["consumption_kwh_per_km"]),
                float(v["max_charge_power_kw"]),
            ),
            habits=ChargingHabits(
                (int(h["preferred_window"][0]), int(h["preferred_window"][1])),
                ChargeScenario(h["preferred_scenario"]),
                float(h["typical_target_soc"]),
            ),
        )


def validate_persona(persona: Persona) -> list[str]:
    """Return every violated persona invariant, as "field.path: problem" strings.

    An empty list means the persona is valid. This never raises: it is a
    diagnostic, not a constructor guard.
    """
    violations: list[str] = []

    def check(ok: bool, path: str, problem: str) -> None:
        if not ok:
            violations.append(f"{path}: {problem}")

    check(bool(persona.id), "id", "must be non-empty")
    check(persona.demographics.age > 0, "demographics.age", "must be positive")
    check(
        isinstance(persona.demographics.gender, Gender),
        "demographics.gender",
        "must be a Gender value",
    )
    check(bool(persona.demographics.occupation), "demographics.occupation", "must be non-empty")
    check(
        isinstance(persona.economics.income_level, IncomeLevel),
        "economics.income_level",
        "must be an IncomeLevel value",
    )
    check(
        0.0 <= persona.economics.price_sensitivity <= 1.0,
        "economics.price_sensitivity",
        "must be within [0, 1]",
    )
    check(
        0.0 <= persona.psychology.risk_aversion <= 1.0,
        "psychology.risk_aversion",
        "must be within [0, 1]",
    )
    check(
        0.0 < persona.psychology.range_anxiety_threshold < 1.0,
        "psychology.range_anxiety_threshold",
        "must be within (0, 1)",
    )
    check(0.0 <= persona.psychology.patience <= 1.0, "psychology.patience", "must be within [0, 1]")
    check(
        persona.vehicle.battery_capacity_kwh > 0.0,
        "vehicle.battery_capacity_kwh",
        "must be strictly positive",
    )
    check(
        persona.vehicle.consumption_kwh_per_km > 0.0,
        "vehicle.consumption_kwh_per_km",
        "must be strictly positive",
    )
    check(
        persona.vehicle.max_charge_power_kw > 0.0,
        "vehicle.max_charge_power_kw",
        "must be strictly positive",
    )
    window = persona.habits.preferred_window
    check(
        0 <= window[0] < MINUTES_PER_DAY and 0 < window[1] <= MINUTES_PER_DAY and window[0] < window[1],
        "habits.preferred_window",
        "must be an ascending time-of-day range within [0, 1440]",
    )
    check(
        isinstance(persona.habits.preferred_scenario, ChargeScenario),
        "habits.preferred_scenario",
        "must be a ChargeScenario value",
    )
    check(
        0.0 < persona.habits.typical_target_soc <= 1.0,
        "habits.typical_target_soc",
        "must be within (0, 1]",
    )
    return violations


# ---------------------------------------------------------------------------
# Behavior records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DecisionQuintuple:
    """The labeled bundle of decision outputs attached to every record.

    Named "quintuple" by convention even though it carries seven fields.
    A quintuple shared by no_charge keeps its JSON text in the private _json slot.
    """

    decision: bool
    scenario: ChargeScenario
    time_minutes: int
    station_id: str | None
    amount_kwh: float
    power_kw: float
    price_per_kwh: float
    _json: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.time_minutes, int) or isinstance(self.time_minutes, bool):
            raise ValueError(f"time_minutes must be an integer, got {self.time_minutes!r}")
        if self.time_minutes < 0:
            raise ValueError(f"time_minutes must be >= 0, got {self.time_minutes}")
        if self.amount_kwh < 0.0:
            raise ValueError(f"amount_kwh must be >= 0, got {self.amount_kwh}")
        if self.power_kw < 0.0:
            raise ValueError(f"power_kw must be >= 0, got {self.power_kw}")
        if self.price_per_kwh < 0.0:
            raise ValueError(f"price_per_kwh must be >= 0, got {self.price_per_kwh}")
        if not self.decision:
            if self.station_id is not None:
                raise ValueError("station_id must be absent when decision is false")
            if self.amount_kwh != 0.0:
                raise ValueError("amount_kwh must be 0 when decision is false")

    @classmethod
    def no_charge(cls, scenario: ChargeScenario, time_minutes: int) -> "DecisionQuintuple":
        """The quintuple of every record that charges nothing: no station, all amounts 0.

        Calls with the same scenario object and the same minute share one
        instance, whose JSON text is formatted once. Each scenario's latest
        instance is kept, and its text only until another minute replaces it.
        A new minute's text is the scenario's fixed text, formatted on its
        first call, with the minute appended (time_minutes is the last key).
        """
        shared = _shared_no_charge.get(id(scenario))
        if shared is None or shared.time_minutes != time_minutes or type(time_minutes) is not int:
            # an equal minute that is not an int (5.0 == 5) goes to the constructor, which rejects it
            latest = cls(False, scenario, time_minutes, None, 0.0, 0.0, 0.0)
            if shared is None:
                text = latest.to_json()
                head = _no_charge_head[id(scenario)] = text[: text.rindex(":") + 1]
            else:  # its records keep the quintuple, not its text
                object.__setattr__(shared, "_json", None)
                head = _no_charge_head[id(scenario)]
            object.__setattr__(latest, "_json", f"{head}{json_number(time_minutes)}}}")
            _shared_no_charge[id(scenario)] = shared = latest
        return shared

    def to_json(self) -> str:
        if self._json is not None:
            return self._json
        station_id = self.station_id
        return (
            f'{{"amount_kwh":{json_number(self.amount_kwh)},'
            f'"decision":{"true" if self.decision else "false"},'
            f'"power_kw":{json_number(self.power_kw)},'
            f'"price_per_kwh":{json_number(self.price_per_kwh)},'
            f'"scenario":{json_string(self.scenario)},'
            f'"station_id":{"null" if station_id is None else json_string(station_id)},'
            f'"time_minutes":{json_number(self.time_minutes)}}}'
        )


# no_charge's latest instance per scenario, and the scenario's text up to the
# minute, keyed by id(scenario); no cached id is reused, as each instance
# holds its scenario
_shared_no_charge: dict[int, DecisionQuintuple] = {}
_no_charge_head: dict[int, str] = {}


@dataclass(frozen=True, slots=True)
class BehaviorRecord:
    """One logged behavior: the action taken, its object, and when.

    This is the simulator's unit of output; the engine emits a stream of
    these to behavior.log, and each agent's memory store keeps its charging
    records in RAM.
    """

    action: ActionType
    object_id: str
    timestamp: int
    quintuple: DecisionQuintuple
    reason: str

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")

    def to_json(self) -> str:
        return (
            f'{{"action":{json_string(self.action)},'
            f'"object_id":{json_string(self.object_id)},'
            f'"quintuple":{self.quintuple.to_json()},'
            f'"reason":{json_string(self.reason)},'
            f'"timestamp":{json_number(self.timestamp)}}}'
        )

    def to_dict(self) -> dict:
        return json.loads(self.to_json())


# ---------------------------------------------------------------------------
# Daily plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlanEvent:
    kind: PlanEventKind
    origin: GeoPoint
    destination: GeoPoint
    start: int  # time-of-day minutes
    expected_distance_km: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < MINUTES_PER_DAY:
            raise ValueError(f"event start must be within [0, 1440), got {self.start}")
        if self.expected_distance_km < 0.0:
            raise ValueError("expected_distance_km must be >= 0")
        same_place = self.origin == self.destination
        if same_place and self.expected_distance_km != 0.0:
            raise ValueError("expected_distance_km must be 0 when origin == destination")
        if not same_place and self.expected_distance_km == 0.0:
            raise ValueError("expected_distance_km must be > 0 when origin != destination")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "origin": [self.origin.latitude, self.origin.longitude],
            "destination": [self.destination.latitude, self.destination.longitude],
            "start": self.start,
            "expected_distance_km": self.expected_distance_km,
        }


@dataclass(frozen=True, slots=True)
class DailyPlan:
    """An ordered, non-overlapping schedule of events for one simulated day."""

    day_index: int
    events: tuple[PlanEvent, ...]

    def __post_init__(self) -> None:
        if self.day_index < 0:
            raise ValueError("day_index must be >= 0")
        starts = [event.start for event in self.events]
        if any(later <= earlier for earlier, later in zip(starts, starts[1:])):
            raise ValueError("plan events must have strictly increasing start times")

    def to_dict(self) -> dict:
        return {
            "day_index": self.day_index,
            "events": [event.to_dict() for event in self.events],
        }


# ---------------------------------------------------------------------------
# Reflection reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScoredNote:
    """A [0, 1] score with the explanatory text that justifies it."""

    score: float
    text: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be within [0, 1], got {self.score}")

    def to_dict(self) -> dict:
        return {"score": self.score, "text": self.text}


@dataclass(frozen=True, slots=True)
class ReflectionReport:
    """End-of-day self evaluation: plan adherence, satisfaction, consistency."""

    day_index: int
    plan_adherence: ScoredNote
    satisfaction: ScoredNote
    persona_consistency: ScoredNote
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.day_index < 0:
            raise ValueError("day_index must be >= 0")

    def to_dict(self) -> dict:
        return {
            "day_index": self.day_index,
            "plan_adherence": self.plan_adherence.to_dict(),
            "satisfaction": self.satisfaction.to_dict(),
            "persona_consistency": self.persona_consistency.to_dict(),
            "fallback": self.fallback,
        }
