"""Deterministic cognition provider.

Everything here is a pure function of its inputs plus the caller-supplied
seed, which is what makes whole-simulation replays byte-identical. Personas
and plans are sampled from template dictionaries with seeded RNGs; the
charging decision is the shared rule-based policy; reflection scores are
closed-form functions of the day's records.
"""

from __future__ import annotations

import math
import random
from math import cos, radians, sin, tau

from ..domain import (
    MINUTES_PER_DAY,
    PERSONA_RULES,
    POSITIVE_RULE,
    UNIT_RULE,
    ActionType,
    BehaviorRecord,
    ChargeScenario,
    ChargingHabits,
    DailyPlan,
    Demographics,
    Economics,
    Gender,
    GeoPoint,
    IncomeLevel,
    Persona,
    PlanEvent,
    PlanEventKind,
    Psychology,
    ReflectionReport,
    ScoredNote,
    VehicleSpec,
    validate_persona,
)
from ..georoute import EARTH_RADIUS_KM, NO_BOX, OfflineRouter, bounding_box_deg, haversine_km
from .base import CognitionProvider, DecisionRequest, DecisionResponse, SchemaError
from .baseline import BaselineWeights, baseline_decision

DEG_PER_KM = 0.008993  # degrees of latitude per kilometre

DEFAULT_PERSONA_TEMPLATE: dict = {
    "occupations": [
        "day-shift taxi driver",
        "night-shift taxi driver",
        "ride-hailing driver",
        "fleet taxi driver",
        "airport-route taxi driver",
    ],
    "age_range": [26, 58],
    "genders": ["female", "male"],
    "income_levels": ["low", "mid", "high"],
    "price_sensitivity_range": [0.2, 0.9],
    "risk_aversion_range": [0.2, 0.8],
    "range_anxiety_range": [0.12, 0.3],
    "patience_range": [0.3, 0.9],
    "battery_capacity_choices": [75.0],
    "consumption_range": [0.13, 0.18],
    "max_charge_power_choices": [60.0, 120.0],
    "preferred_windows": [[1260, 1440], [0, 360], [660, 780]],
    "preferred_scenarios": ["public"],
    "target_soc_range": [0.75, 0.95],
}

DEFAULT_PLAN_TEMPLATE: dict = {
    "center": [31.2304, 121.4737],  # central Shanghai
    "area_radius_km": 8.0,
    "shifts": [[420, 720], [780, 1140]],
    "evening_shift": [1290, 1410],
    "evening_shift_probability": 0.5,
    "trip_km_range": [5.0, 18.0],
    "gap_minutes_range": [4, 15],
    "detour_factor": 1.3,
    "speed_kmh": 30.0,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))


def _is_list(value, item) -> bool:
    return isinstance(value, (list, tuple)) and all(map(item, value))


# What generate_persona and plan_day need of each template entry: a shape
# name (a uniform draw takes a "pair", rng.randint or rng.randrange an
# "int_range", rng.choice a non-empty list), or an enum whose values a
# non-empty list must hold.
_SHAPES = {
    "number": (_is_number, "a number"),
    "pair": (_is_pair, "a pair of numbers"),
    "int_range": (
        lambda v: _is_pair(v) and all(isinstance(x, int) for x in v) and v[0] <= v[1],
        "an ascending pair of integers",
    ),
    "point": (
        lambda v: _is_pair(v) and -90.0 <= v[0] <= 90.0 and -180.0 <= v[1] <= 180.0,
        "a [latitude, longitude] pair within [-90, 90] x [-180, 180]",
    ),
    "pairs": (lambda v: _is_list(v, _is_pair), "a list of number pairs"),
    "pairs+": (lambda v: bool(v) and _is_list(v, _is_pair), "a non-empty list of number pairs"),
    "strings+": (lambda v: bool(v) and _is_list(v, lambda x: isinstance(x, str)),
                 "a non-empty list of strings"),
    "numbers+": (lambda v: bool(v) and _is_list(v, _is_number), "a non-empty list of numbers"),
}
# A persona entry names the persona field it samples: every value
# generate_persona can draw from the entry must meet that field's rule in
# PERSONA_RULES. A plan entry may carry a bound that every number in it must
# meet. NaN and infinity fail every bound.
_BOUNDS = {
    "unit": UNIT_RULE,
    "positive": POSITIVE_RULE,
    "non_negative": (lambda x: 0 <= x < math.inf, "finite and at least 0"),
    "minute": (lambda x: 0 <= x <= MINUTES_PER_DAY, "within [0, 1440]"),
}
PERSONA_TEMPLATE_SHAPES: dict = {
    "occupations": ("strings+", "demographics.occupation"),
    "age_range": ("int_range", "demographics.age"),
    "genders": (Gender, "demographics.gender"),
    "income_levels": (IncomeLevel, "economics.income_level"),
    "price_sensitivity_range": ("pair", "economics.price_sensitivity"),
    "risk_aversion_range": ("pair", "psychology.risk_aversion"),
    "range_anxiety_range": ("pair", "psychology.range_anxiety_threshold"),
    "patience_range": ("pair", "psychology.patience"),
    "battery_capacity_choices": ("numbers+", "vehicle.battery_capacity_kwh"),
    "consumption_range": ("pair", "vehicle.consumption_kwh_per_km"),
    "max_charge_power_choices": ("numbers+", "vehicle.max_charge_power_kw"),
    "preferred_windows": ("pairs+", "habits.preferred_window"),
    "preferred_scenarios": (ChargeScenario, "habits.preferred_scenario"),
    "target_soc_range": ("pair", "habits.typical_target_soc"),
}
PLAN_TEMPLATE_SHAPES: dict = {
    "center": "point",
    "area_radius_km": ("number", "positive"),
    "shifts": ("pairs", "minute"),
    "evening_shift": ("pair", "minute"),
    "evening_shift_probability": ("number", "unit"),
    "trip_km_range": ("pair", "non_negative"),
    "gap_minutes_range": ("int_range", "non_negative"),
    "detour_factor": "number",
    "speed_kmh": "number",
}


def _numbers(value) -> list:
    """Every number in a number, a pair, or a list of numbers or pairs."""
    if _is_number(value):
        return [value]
    return [number for item in value for number in _numbers(item)]


def _draws(shape, value):
    """What generate_persona can draw from a persona entry, converted as it
    converts it: a range's two ends (its rule is an interval), each choice,
    and each window raw, then, if it passed raw, its ends truncated to int."""
    if shape == "pairs+":
        for start, end in value:
            yield start, end
            yield int(start), int(end)
    else:
        yield from value if isinstance(shape, str) else map(shape, value)


def template_problems(template: dict, shapes: dict) -> dict[str, str]:
    """Each entry of template that names no key of shapes, is not of its shape,
    or can draw a value its field's rule refuses or holds one out of its bound,
    mapped to the problem; for a plan template, also shifts out of order and a
    centre too near a pole or the antimeridian for the planner's reach (_reach_problem)."""
    unknown = f"is not a template key; expected one of {sorted(shapes)}"
    problems = {key: unknown for key in template if key not in shapes}
    for key, shape in shapes.items():
        if key not in template:
            continue
        value = template[key]
        shape, bound = shape if isinstance(shape, tuple) else (shape, None)
        if isinstance(shape, str):
            accepts, expected = _SHAPES[shape]
            ok = accepts(value)
        else:
            names = [member.value for member in shape]
            expected = f"a non-empty list of {', '.join(names)}"
            ok = bool(value) and _is_list(value, lambda v: isinstance(v, str) and v in names)
        if not ok:
            problems[key] = f"must be {expected}, got {value!r}"
        elif bound in PERSONA_RULES:
            accepts, text = PERSONA_RULES[bound]
            if not all(map(accepts, _draws(shape, value))):
                problems[key] = f"must hold {bound} values that are {text}, got {value!r}"
        elif bound is not None:
            within, text = _BOUNDS[bound]
            if not all(map(within, _numbers(value))):
                problems[key] = f"must hold numbers {text}, got {value!r}"
    if shapes is not PLAN_TEMPLATE_SHAPES:
        return problems
    plan = {**DEFAULT_PLAN_TEMPLATE, **template}
    if not problems.keys() & {"shifts", "evening_shift", "evening_shift_probability"}:
        # plan_day walks the shifts, then the evening shift if its probability is above 0
        windows = list(plan["shifts"])
        if plan["evening_shift_probability"] > 0:
            windows.append(plan["evening_shift"])
        minutes = _numbers(windows)
        if minutes != sorted(minutes):
            problems["shifts"] = f"then evening_shift, if drawn, must never decrease: {windows!r}"
    if not problems.keys() & {"center", "area_radius_km", "trip_km_range"}:
        reach = _reach_problem(plan)
        if reach is not None:
            problems["center"] = reach
    return problems


def _reach_problem(template: dict) -> str | None:
    """Why plan_day could step off [-90, 90] x [-180, 180] around the
    template's centre, or None.

    plan_day hops from the home point (within 0.6 * area_radius_km of the
    centre), from accepted destinations (within area_radius_km of it) and
    from fallback points (a hop toward the centre, which ends no farther out
    than the hop or its origin in each coordinate, as hops are never
    negative), and tries candidates one hop further out.
    A hop of k km moves k * DEG_PER_KM degrees of latitude and at most that
    over cos(latitude) of longitude; a point within the radius lies inside
    the meridians tangent to its circle (see georoute.bounding_box_deg).
    Both reaches are widened by a relative 1e-9 for rounding. A candidate
    past a pole or the +-180 meridian would be measured at its wrapped
    position by haversine_km and could be accepted, and no GeoPoint holds it.
    """
    lat, lon = template["center"]
    angle = template["area_radius_km"] / EARTH_RADIUS_KM
    hop = max(template["trip_km_range"]) * DEG_PER_KM
    lat_reach = (max(math.degrees(angle), hop) + hop) * (1.0 + 1e-9)
    if not abs(lat) + lat_reach < 90.0:
        return (
            f"leaves the planner no room: with area_radius_km and trip_km_range its hops "
            f"reach {lat_reach:.4g} degrees of latitude from {lat}, past a pole"
        )
    cos_lat = math.cos(math.radians(lat))
    lon_hop = hop / math.cos(math.radians(abs(lat) + lat_reach))
    circle = math.degrees(math.asin(math.sin(angle) / cos_lat))
    lon_reach = (max(circle, lon_hop) + lon_hop) * (1.0 + 1e-9)
    if not abs(lon) + lon_reach < 180.0:
        return (
            f"leaves the planner no room: with area_radius_km and trip_km_range its hops "
            f"reach {lon_reach:.4g} degrees of longitude from {lon}, past the +-180 meridian"
        )
    return None


def home_point_for(persona_id: str, center: GeoPoint, area_radius_km: float) -> GeoPoint:
    """Deterministic home location near the scenario center.

    MockProvider.home keeps its result per id for the provider's plan area;
    the engine places each vehicle there (and tows it back there) and
    plan_day starts every day from it, so both agree on where an agent's
    day begins.
    """
    rng = random.Random(f"home|{persona_id}")
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    distance = rng.uniform(0.0, area_radius_km * 0.6)
    return GeoPoint(*_offset(center, distance, bearing))


def _offset(origin: GeoPoint, distance_km: float, bearing_rad: float) -> tuple[float, float]:
    lat = origin.latitude + distance_km * math.cos(bearing_rad) * DEG_PER_KM
    lon = origin.longitude + distance_km * math.sin(bearing_rad) * DEG_PER_KM / math.cos(
        math.radians(origin.latitude)
    )
    return lat, lon


def _random_point_near(
    rng: random.Random,
    origin: GeoPoint,
    distance_km: float,
    center: GeoPoint,
    max_radius_km: float,
    box: tuple[float, float, float, float],
) -> GeoPoint:
    """A point distance_km from origin at a random bearing that lies within
    max_radius_km of center, after at most 20 bearings; else the point
    distance_km toward center.

    Candidates stay raw floats, computed as _offset does; only the accepted
    one becomes a (validated) GeoPoint. box is bounding_box_deg(center,
    max_radius_km), which the caller computes once for all its hops. A
    candidate outside it is rejected without its haversine, which rejects
    exactly the candidates the haversine test would, so the result and the
    rng draws are those of testing every candidate.
    """
    olat, olon = origin.latitude, origin.longitude
    clat, clon = center.latitude, center.longitude
    cos_olat = cos(radians(olat))
    # The box is sound only for points in [-90, 90] x [-180, 180]; a candidate
    # can pass a pole or the +-180 meridian (haversine_km then measures its
    # wrapped position), so then every candidate takes the exact test.
    reach = abs(distance_km) * DEG_PER_KM
    if -90.0 <= olat - reach and olat + reach <= 90.0 and abs(olon) + reach / cos_olat <= 180.0:
        lat_lo, lat_hi, lon_lo, lon_hi = box
    else:
        lat_lo, lat_hi, lon_lo, lon_hi = NO_BOX
    for _ in range(20):
        # rng.uniform(0.0, 2.0 * math.pi) inlined: it returns
        # 0.0 + (2.0 * math.pi - 0.0) * rng.random(), the same float
        bearing = tau * rng.random()
        lat = olat + distance_km * cos(bearing) * DEG_PER_KM
        if lat < lat_lo or lat > lat_hi:
            continue
        lon = olon + distance_km * sin(bearing) * DEG_PER_KM / cos_olat
        if lon < lon_lo or lon > lon_hi:
            continue
        if haversine_km(lat, lon, clat, clon) <= max_radius_km:
            return GeoPoint(lat, lon)
    # Deep in a corner of the area: head back toward the center instead.
    bearing = math.atan2(
        center.longitude - origin.longitude, center.latitude - origin.latitude
    )
    return GeoPoint(*_offset(origin, distance_km, bearing))


def _clamp01(value: float) -> float:
    return max(0.0, min(1.0, value))


class MockProvider(CognitionProvider):
    """Seed-deterministic provider used for tests, CI and offline runs."""

    def __init__(
        self,
        weights: BaselineWeights | None = None,
        plan_template: dict | None = None,
    ):
        self.weights = weights if weights is not None else BaselineWeights()
        self.plan_template = template = {**DEFAULT_PLAN_TEMPLATE, **(plan_template or {})}
        self._router = OfflineRouter(float(template["detour_factor"]), float(template["speed_kmh"]))
        # the plan area, which every plan_day and the engine's home points read
        self.center = center = GeoPoint(*template["center"])
        self.area_radius_km = area_radius = float(template["area_radius_km"])
        self._box = bounding_box_deg(center.latitude, center.longitude, area_radius)
        self._homes: dict[str, GeoPoint] = {}

    def home(self, persona_id: str) -> GeoPoint:
        """home_point_for(persona_id) in this provider's plan area, derived
        once per id: the same GeoPoint for every plan and every caller."""
        point = self._homes.get(persona_id)
        if point is None:
            point = home_point_for(persona_id, self.center, self.area_radius_km)
            self._homes[persona_id] = point
        return point

    # -- persona ------------------------------------------------------------

    def generate_persona(self, seed: int | str, template_config: dict) -> Persona:
        template = {**DEFAULT_PERSONA_TEMPLATE, **(template_config or {})}
        rng = random.Random(f"persona|{seed}")
        window = rng.choice(template["preferred_windows"])
        persona = Persona(
            # the engine names each persona after its agent; the draw stays,
            # as every later draw of the persona follows it
            id=f"driver-{rng.randrange(10**8):08d}",
            demographics=Demographics(
                age=rng.randint(*template["age_range"]),
                gender=Gender(rng.choice(template["genders"])),
                occupation=rng.choice(template["occupations"]),
            ),
            economics=Economics(
                income_level=IncomeLevel(rng.choice(template["income_levels"])),
                price_sensitivity=rng.uniform(*template["price_sensitivity_range"]),
            ),
            psychology=Psychology(
                risk_aversion=rng.uniform(*template["risk_aversion_range"]),
                range_anxiety_threshold=rng.uniform(*template["range_anxiety_range"]),
                patience=rng.uniform(*template["patience_range"]),
            ),
            vehicle=VehicleSpec(
                battery_capacity_kwh=rng.choice(template["battery_capacity_choices"]),
                consumption_kwh_per_km=rng.uniform(*template["consumption_range"]),
                max_charge_power_kw=rng.choice(template["max_charge_power_choices"]),
            ),
            habits=ChargingHabits(
                preferred_window=(int(window[0]), int(window[1])),
                preferred_scenario=ChargeScenario(rng.choice(template["preferred_scenarios"])),
                typical_target_soc=rng.uniform(*template["target_soc_range"]),
            ),
        )
        violations = validate_persona(persona)
        if violations:
            raise SchemaError(f"template produced an invalid persona: {violations}")
        return persona

    # -- planning -----------------------------------------------------------

    def plan_day(self, persona: Persona, day_index: int, seed: int | str) -> DailyPlan:
        template = self.plan_template
        rng = random.Random(f"plan|{seed}|{persona.id}|{day_index}")
        center, area_radius, box = self.center, self.area_radius_km, self._box
        router = self._router
        trip_km_lo, trip_km_hi = template["trip_km_range"]
        gap_lo, gap_hi = template["gap_minutes_range"]

        shifts = [tuple(window) for window in template["shifts"]]
        if rng.random() < float(template["evening_shift_probability"]):
            shifts.append(tuple(template["evening_shift"]))

        events: list[PlanEvent] = []
        location = self.home(persona.id)
        for shift_start, shift_end in shifts:
            t = int(shift_start)
            while True:
                # rng.uniform(trip_km_lo, trip_km_hi) inlined: its own expression, the same float
                hop_km = trip_km_lo + (trip_km_hi - trip_km_lo) * rng.random()
                destination = _random_point_near(rng, location, hop_km, center, area_radius, box)
                route_km = router.distance_km(location, destination)
                travel_minutes = router.travel_minutes(route_km, 1.0)
                if t + travel_minutes > shift_end or travel_minutes == 0:
                    break
                events.append(PlanEvent(PlanEventKind.TRIP, location, destination, t, route_km))
                location = destination
                # rng.randint(gap_lo, gap_hi) returns this call, one frame deeper
                t += travel_minutes + rng.randrange(gap_lo, gap_hi + 1)
        return DailyPlan(day_index, tuple(events))

    # -- deciding -----------------------------------------------------------

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        return baseline_decision(request, self.weights)

    # -- reflecting ----------------------------------------------------------

    def reflect(
        self,
        day_records: list[BehaviorRecord],
        persona: Persona,
        plan: DailyPlan,
    ) -> ReflectionReport:
        trips_planned = len(plan.events)
        # one pass: trips done, whether a strand was logged, and the charge
        # decisions in record order, which every mean below sums in
        trips_done = 0
        stranded = False
        charges = []
        for r in day_records:
            action = r.action
            if action is ActionType.TRAVEL:
                trips_done += 1
            elif action is ActionType.START_CHARGING and r.quintuple.decision:
                charges.append(r)
            elif action is ActionType.IDLE and not stranded:
                stranded = "strand" in r.reason.lower()
        if trips_planned == 0:
            adherence = 1.0 if not stranded else 0.5
        else:
            adherence = _clamp01(trips_done / trips_planned - (0.3 if stranded else 0.0))
        adherence_text = (
            f"completed {trips_done} of {trips_planned} planned trips"
            + ("; ran out of charge mid-plan" if stranded else "")
        )

        if not charges:
            satisfaction = 0.75
            satisfaction_text = (
                "no charging was needed today: no time lost at stations, no station "
                "visits, no energy bought, no power constraints, nothing paid"
            )
        else:
            waits = [max(0, r.quintuple.time_minutes - r.timestamp) for r in charges]
            prices = [r.quintuple.price_per_kwh for r in charges]
            amounts = [r.quintuple.amount_kwh for r in charges]
            powers = [r.quintuple.power_kw for r in charges]
            mean_wait = sum(waits) / len(waits)
            mean_price = sum(prices) / len(prices)
            mean_amount = sum(amounts) / len(amounts)
            mean_power = sum(powers) / len(powers)
            target_kwh = persona.habits.typical_target_soc * persona.vehicle.battery_capacity_kwh
            time_score = _clamp01(1.0 - mean_wait / 180.0)
            station_score = 1.0  # every chosen station was available and served the charge
            amount_score = _clamp01(mean_amount / target_kwh) if target_kwh > 0 else 1.0
            power_score = _clamp01(mean_power / persona.vehicle.max_charge_power_kw)
            price_score = _clamp01(1.0 - persona.economics.price_sensitivity * mean_price / 1.5)
            satisfaction = (
                time_score + station_score + amount_score + power_score + price_score
            ) / 5.0
            satisfaction_text = (
                f"time: waited {mean_wait:.0f} min on average to start; "
                f"stations: all {len(charges)} chosen stations served the charge; "
                f"amount: {mean_amount:.1f} kWh per session against a "
                f"{target_kwh:.0f} kWh target; "
                f"power: drew {mean_power:.0f} kW of the vehicle's "
                f"{persona.vehicle.max_charge_power_kw:.0f} kW limit; "
                f"price: paid {mean_price:.2f} per kWh on average"
            )

        window = persona.habits.preferred_window
        if charges:
            in_window = sum(
                1
                for r in charges
                if window[0] <= r.quintuple.time_minutes % MINUTES_PER_DAY < window[1]
            )
            window_fraction = in_window / len(charges)
            consistency = _clamp01(0.7 + 0.3 * window_fraction)
            consistency_text = (
                f"{in_window} of {len(charges)} charges fell inside the preferred "
                f"{window[0] // 60:02d}:{window[0] % 60:02d}-"
                f"{window[1] // 60:02d}:{window[1] % 60:02d} window"
            )
        else:
            consistency = 1.0
            consistency_text = "no charges to weigh against stated habits"

        return ReflectionReport(
            day_index=plan.day_index,
            plan_adherence=ScoredNote(adherence, adherence_text),
            satisfaction=ScoredNote(satisfaction, satisfaction_text),
            persona_consistency=ScoredNote(consistency, consistency_text),
        )
