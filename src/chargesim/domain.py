"""Shared domain types for the EV charging behavior simulator.

Pure values only: no I/O, no provider calls, no clock access. Every type
checks its own invariants on construction, with one deliberate exception:
``Persona`` is a plain record and its field-level rules are reported by
:func:`validate_persona`, so callers can collect every violation at once
(useful when the persona came from an external generator) instead of
failing on the first bad field.

A run keeps millions of these records alive and builds several per event,
so every value type in the package is declared with :func:`value_type`: a
frozen, slotted dataclass (no per-instance ``__dict__``, hence no ad-hoc
attributes and no weak references) whose ``__init__`` stores its fields
through the slots. A new one is declared the same way; tests/test_domain.py
checks that every frozen dataclass is one. A ``GeoPoint`` keeps
its JSON text, and ``DecisionQuintuple.no_charge`` shares one instance, text
included, per scenario within a minute, so recurring values are formatted once.
Every value type's JSON shape is written by :func:`to_data` and read by
:func:`from_data`, both driven by the dataclass fields, and
:func:`write_indented_json` writes JSON data, as ``json.dumps(value,
sort_keys=True, indent=2)`` would, to a file the caller opened.

Time is integer minutes since scenario start; currency is CNY per kWh
with four fractional digits by convention.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from json.encoder import encode_basestring_ascii as json_string
from operator import attrgetter

MINUTES_PER_DAY = 1440
CURRENCY_PLACES = 4

# The one canonical layout (sorted keys, compact separators, ASCII) of every
# log line, snapshot digest and to_json. The per-decision records write it
# straight from their fields, keys spelled out in sorted order, through
# json_string, json_number for a float and f"{value}" for an int: the same
# bytes, without building a dict first.
# A str-valued enum member goes to json_string as itself, since its str data
# is its value.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_float_repr = float.__repr__
_int_repr = int.__repr__


def json_number(value: float) -> str:
    """An int or float as canonical_json writes it, NaN and the infinities included.

    The per-event writers spell their int fields as f"{value}", so most
    calls pass a float. A float is finite exactly when value - value is 0.0
    (inf - inf and NaN - NaN are NaN).
    """
    if isinstance(value, float):
        if value - value == 0.0:
            return _float_repr(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0.0 else "-Infinity"
    return _int_repr(value)


def write_indented_json(fh: typing.IO[str], value) -> None:
    """Write json.dumps(value, sort_keys=True, indent=2) to fh, byte for byte,
    a dict one top-level entry at a time, so that no more than one entry's
    text is held at once.

    value is JSON data: str-keyed dicts, lists, tuples, str, int, float,
    bool and None. Anything else raises TypeError, and the entries before
    it stay written.
    """
    if not isinstance(value, dict) or not value:
        fh.write(_indented(value, "\n"))
        return
    head = "{"
    for key in sorted(value):
        fh.write(f"{head}\n  {json_string(key)}: {_indented(value[key], _TOP_LINE)}")
        head = ","
    fh.write("\n}")


_TOP_LINE = "\n  "  # the break before a top-level entry
# each scalar's text by its exact type; True is "true" (json_number(True) is "1")
_SCALAR_TEXT = {
    str: json_string,
    float: json_number,
    int: _int_repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _indented(value, newline: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it on a
    line that newline, a line break and that line's indent, begins."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json_string(key)}: {_indented(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_indented(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# each value type's init field names, in declaration order: the keys to_data writes
_INIT_FIELDS: dict[type, tuple[str, ...]] = {}


def value_type(cls):
    """Declare a value type: ``@dataclass(frozen=True, slots=True)`` whose
    ``__init__`` stores each field through its slot's member descriptor,
    not through ``object.__setattr__`` as a frozen dataclass's does, which
    costs about twice as much.

    The new ``__init__`` keeps the generated one's signature, defaults and
    annotations, stores the default of each ``init=False`` field that has
    one, then calls ``__post_init__`` if the class has one. Equality,
    hashing, repr, ``replace``, pickling and ``FrozenInstanceError`` are
    the dataclass's own. Keyword-only, ``InitVar`` and ``default_factory``
    fields are refused.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    code = generated.__code__
    specs = fields(cls)
    names = [spec.name for spec in specs if spec.init]
    if (
        code.co_kwonlyargcount
        or list(code.co_varnames[1 : code.co_argcount]) != names
        or any(spec.default_factory is not MISSING for spec in specs)
    ):
        raise TypeError(
            f"value_type {cls.__qualname__}: keyword-only, InitVar and "
            "default_factory fields are not supported"
        )
    # the closure holds field i's bound slot __set__ as __set<i>__, and an
    # init=False field's default as __default<i>__
    closure = {}
    lines = []
    for index, spec in enumerate(specs):
        if spec.init:
            value = spec.name
        elif spec.default is not MISSING:
            value = f"__default{index}__"
            closure[value] = spec.default
        else:  # __post_init__ sets it
            continue
        closure[f"__set{index}__"] = cls.__dict__[spec.name].__set__
        lines.append(f"        __set{index}__(self, {value})")
    if hasattr(cls, "__post_init__"):
        lines.append("        self.__post_init__()")
    source = (
        f"def __make__({', '.join(closure)}):\n"
        f"    def __init__({', '.join(['self', *names])}):\n"
        + ("\n".join(lines) or "        pass")
        + "\n    return __init__\n"
    )
    namespace: dict = {}
    exec(compile(source, "<value_type>", "exec"), {}, namespace)
    init = namespace["__make__"](**closure)
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = dict(generated.__annotations__)
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    _INIT_FIELDS[cls] = tuple(names)
    return cls


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


@value_type
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


@value_type
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


@value_type
class Demographics:
    age: int
    gender: Gender
    occupation: str


@value_type
class Economics:
    income_level: IncomeLevel
    price_sensitivity: float  # 0 (indifferent) .. 1 (highly price driven)


@value_type
class Psychology:
    risk_aversion: float
    range_anxiety_threshold: float  # SoC fraction below which charging is sought
    patience: float


@value_type
class VehicleSpec:
    battery_capacity_kwh: float
    consumption_kwh_per_km: float
    max_charge_power_kw: float


@value_type
class ChargingHabits:
    preferred_window: tuple[int, int]  # time-of-day minutes, half-open
    preferred_scenario: ChargeScenario
    typical_target_soc: float  # fraction in (0, 1]


@value_type
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


# Each persona field's rule, as (test, text): the field must be text. Every
# numeric test fails NaN. validate_persona applies them to a persona, and the
# mock's template check to every value a persona template can draw.
UNIT_RULE = (lambda x: 0.0 <= x <= 1.0, "within [0, 1]")
POSITIVE_RULE = (lambda x: 0 < x < math.inf, "finite and above 0")
NON_EMPTY_STRING_RULE = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
PERSONA_RULES: dict = {
    "id": NON_EMPTY_STRING_RULE,
    "demographics.age": POSITIVE_RULE,
    "demographics.gender": (lambda v: isinstance(v, Gender), "a Gender value"),
    "demographics.occupation": NON_EMPTY_STRING_RULE,
    "economics.income_level": (lambda v: isinstance(v, IncomeLevel), "an IncomeLevel value"),
    "economics.price_sensitivity": UNIT_RULE,
    "psychology.risk_aversion": UNIT_RULE,
    "psychology.range_anxiety_threshold": (lambda x: 0.0 < x < 1.0, "within (0, 1)"),
    "psychology.patience": UNIT_RULE,
    "vehicle.battery_capacity_kwh": POSITIVE_RULE,
    "vehicle.consumption_kwh_per_km": POSITIVE_RULE,
    "vehicle.max_charge_power_kw": POSITIVE_RULE,
    "habits.preferred_window": (
        lambda w: 0 <= w[0] < w[1] <= MINUTES_PER_DAY,
        "an ascending time-of-day range within [0, 1440]",
    ),
    "habits.preferred_scenario": (
        lambda v: isinstance(v, ChargeScenario), "a ChargeScenario value"
    ),
    "habits.typical_target_soc": (lambda x: 0.0 < x <= 1.0, "within (0, 1]"),
}
# a getter per path, built once: a run validates every agent's persona
_PERSONA_CHECKS = [
    (attrgetter(path), test, f"{path}: must be {text}")
    for path, (test, text) in PERSONA_RULES.items()
]


def validate_persona(persona: Persona) -> list[str]:
    """Return every PERSONA_RULES rule the persona breaks, as "field.path: must be ..." strings.

    An empty list means the persona is valid. This never raises: it is a
    diagnostic, not a constructor guard.
    """
    problems = []
    for get, test, problem in _PERSONA_CHECKS:
        try:
            if test(get(persona)):
                continue
        except (TypeError, ValueError, IndexError):  # a wrongly typed value breaks its rule
            pass
        problems.append(problem)
    return problems


# ---------------------------------------------------------------------------
# Behavior records
# ---------------------------------------------------------------------------


@value_type
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
            object.__setattr__(latest, "_json", f"{head}{time_minutes}}}")
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
            f'"time_minutes":{self.time_minutes}}}'
        )


# no_charge's latest instance per scenario, and the scenario's text up to the
# minute, keyed by id(scenario); no cached id is reused, as each instance
# holds its scenario
_shared_no_charge: dict[int, DecisionQuintuple] = {}
_no_charge_head: dict[int, str] = {}


@value_type
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
            f'"timestamp":{self.timestamp}}}'
        )


# ---------------------------------------------------------------------------
# Daily plans
# ---------------------------------------------------------------------------


@value_type
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


@value_type
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


# ---------------------------------------------------------------------------
# Reflection reports
# ---------------------------------------------------------------------------


@value_type
class ScoredNote:
    """A [0, 1] score with the explanatory text that justifies it."""

    score: float
    text: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be within [0, 1], got {self.score}")


@value_type
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


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def to_data(value):
    """A value as plain JSON data: a value type as a dict of its init fields in
    declaration order, a GeoPoint as [latitude, longitude], an enum as its
    value and a tuple as a list; anything else as itself."""
    names = _INIT_FIELDS.get(type(value))
    if names is not None:
        if type(value) is GeoPoint:
            return [value.latitude, value.longitude]
        return {name: to_data(getattr(value, name)) for name in names}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [to_data(item) for item in value]
    return value


def from_data(cls, data):
    """The value of value type cls that to_data wrote as data.

    Each init field without a default is read by its annotation: a number
    through int() or float(), a str, bool or None only as itself, an enum by
    its value, a GeoPoint from a pair, a tuple from a list and a value type
    from an object. Other keys are ignored. Raises KeyError, TypeError or
    ValueError naming the field path, such as ``events[0].origin``.
    """
    return _read(cls, data, "")


def _read(hint, data, path: str):
    """The value that annotation hint takes from data, found at path."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(data, list):
            raise TypeError(f"{path} must be a list, got {data!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(data)
        elif len(data) != len(args):
            raise ValueError(f"{path} must hold {len(args)} items, got {data!r}")
        return tuple(_read(arg, data[i], f"{path}[{i}]") for i, arg in enumerate(args))
    if hint in _INIT_FIELDS:
        if hint is GeoPoint:
            values = _read(tuple[float, float], data, path)
        elif not isinstance(data, dict):
            raise TypeError(f"{path or hint.__name__} must be an object, got {data!r}")
        else:
            values = []
            for name, field_hint in _read_fields(hint):
                key = f"{path}.{name}" if path else name
                if name not in data:
                    raise KeyError(f"{key} is missing")
                values.append(_read(field_hint, data[name], key))
    elif hint is int or hint is float or isinstance(hint, type) and issubclass(hint, Enum):
        values = (data,)
    elif data is None and type(None) in args:  # X | None
        return None
    else:  # str, bool or str | None
        kind = args[0] if args else hint
        if not isinstance(data, kind):
            raise TypeError(f"{path} must be a {kind.__name__}, got {data!r}")
        return data
    try:
        return hint(*values)
    except (TypeError, ValueError, OverflowError) as exc:  # int() of an infinity overflows
        if not path:
            raise
        error = TypeError if isinstance(exc, TypeError) else ValueError
        raise error(f"{path}: {exc}") from None


@functools.cache
def _read_fields(cls) -> list[tuple[str, object]]:
    """cls's (name, annotation) of each init field without a default."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if f.init and f.default is MISSING]
