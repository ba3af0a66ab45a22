"""Independent brute-force oracles used by the test suite.

These deliberately share no code with the production paths they check:
the distance oracle uses the Vincenty special-case formula instead of the
haversine, the cost oracle integrates minute by minute instead of by band
overlap, the station scorer is an explicit exhaustive loop, and the queue
oracle is a minute-stepping FIFO simulation rather than greedy pile
reservation. The memory oracles scan a store's whole record list and
filter it record by record, where the store bisects indexes kept on append;
the request oracles assemble a decision request's history with them at
once, where the request builds it on first read, and write its text from
plain dicts.
The export oracle parses every line of a run's behavior.log, where the map
exporters render routes.json, the trace the engine kept as it wrote the log;
the routes oracle writes that trace from the same parse, formatting each
float through the encoder, where the engine splices the points' own text.
The SVG oracle projects map.html's drawing from the map's inputs as the
exporter first did, rounding each coordinate and formatting the rounded
float, where the exporter writes each with "%.2f" and respells its text.
The serialization oracles build each record's dict field by field, in the
layout the to_json writers spell out key by key in text; the persona
oracle is the other way round: dataclasses.asdict with the enums and the
window converted afterwards, where domain.to_data walks the persona's
fields through the table value_type keeps. The sampler
oracle is the mock planner's candidate loop without its bounding-box
prefilter: it haversines every candidate. It shares _offset and
haversine_km with the production code, since it must reproduce their
floats bit for bit. The planner oracle is the mock planner as first
written: it derives the home on every call, draws with rng.uniform and
rng.randint, builds its values by keyword and picks destinations with the
sampler oracle; it shares home_point_for and OfflineRouter.distance_km.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from chargesim.domain import DailyPlan, GeoPoint, PlanEvent, PlanEventKind
from chargesim.georoute import OfflineRouter, haversine_km
from chargesim.providers.mock import DEFAULT_PLAN_TEMPLATE, _offset, home_point_for

EARTH_RADIUS_KM = 6371.0088
MINUTES_PER_DAY = 1440


class NoCandidateError(ValueError):
    """Station choice was asked for with an empty candidate list."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str


def oracle_great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> OracleResult:
    """Great-circle distance via the Vincenty sphere formula (atan2 form)."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    y = math.sqrt(
        (math.cos(p2) * math.sin(dl)) ** 2
        + (math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)) ** 2
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return OracleResult(EARTH_RADIUS_KM * math.atan2(y, x), "vincenty-sphere")


def oracle_cost(
    start: int, end: int, energy_kwh: float, band_prices: list[tuple[int, int, float]]
) -> OracleResult:
    """Minute-by-minute integration of a uniform charge over tariff bands.

    band_prices is a list of (start_minute, end_minute, price) tuples tiling
    [0, 1440); start and end are absolute minutes.
    """
    if end <= start or energy_kwh == 0.0:
        return OracleResult(0.0, "minute-integration")
    kwh_per_minute = energy_kwh / (end - start)
    total = 0.0
    for minute in range(start, end):
        tod = minute % MINUTES_PER_DAY
        for band_start, band_end, price in band_prices:
            if band_start <= tod < band_end:
                total += kwh_per_minute * price
                break
        else:
            raise AssertionError(f"no band covers minute {tod}")
    return OracleResult(total, "minute-integration")


def oracle_station_choice(
    candidates: list[dict], weights: tuple[float, float, float]
) -> str:
    """Exhaustively score candidates and return the best station id.

    Each candidate is a dict with distance_km, price_per_kwh,
    predicted_queue_minutes and station_id; weights are (distance, price,
    wait). Ties go to the lexicographically smaller station id.
    """
    if not candidates:
        raise NoCandidateError("no candidate stations to score")
    w_d, w_p, w_q = weights
    best_id: str | None = None
    best_score = math.inf
    for candidate in candidates:
        score = (
            w_d * candidate["distance_km"]
            + w_p * candidate["price_per_kwh"]
            + w_q * candidate["predicted_queue_minutes"]
        )
        if score < best_score or (score == best_score and candidate["station_id"] < best_id):
            best_score = score
            best_id = candidate["station_id"]
    return best_id


def oracle_fifo_starts(
    pile_busy_until: list[int], jobs: list[tuple[int, int]]
) -> list[int]:
    """Start times for FIFO jobs on a multi-pile station, by minute stepping.

    jobs are (arrival_minute, service_minutes) in enqueue order. Walks time
    one minute at a time, admitting the queue head whenever a pile is free,
    so it never reuses the production code's greedy reservation arithmetic.
    """
    piles = list(pile_busy_until)
    starts: list[int] = [-1] * len(jobs)
    waiting: list[int] = []
    next_job = 0
    if not jobs:
        return starts
    t = min(arrival for arrival, _ in jobs)
    while next_job < len(jobs) or waiting:
        while next_job < len(jobs) and jobs[next_job][0] <= t:
            waiting.append(next_job)
            next_job += 1
        progressed = True
        while waiting and progressed:
            progressed = False
            for index in range(len(piles)):
                if piles[index] <= t and waiting:
                    job = waiting.pop(0)
                    starts[job] = t
                    piles[index] = t + jobs[job][1]
                    progressed = True
        t += 1
    return starts


def oracle_memory_window(records: list, now: int, days: int) -> list:
    """Records with now - days*1440 < timestamp <= now, by a full scan in order."""
    out = []
    for record in records:
        age = now - record.timestamp
        if 0 <= age < days * MINUTES_PER_DAY:
            out.append(record)
    return out


def oracle_daily_aggregates(records: list, now: int) -> list[dict]:
    """Per-day charge count, kWh and mean price over the 7-day window, by a full scan.

    Counts start_charging records whose decision is true. Each day's sums
    add its charges in record order, so the result is exactly comparable.
    """
    charges_by_day: dict[int, list] = {}
    for record in records:
        age = now - record.timestamp
        if not 0 <= age < 7 * MINUTES_PER_DAY:
            continue
        if record.action.value == "start_charging" and record.quintuple.decision:
            charges_by_day.setdefault(record.timestamp // MINUTES_PER_DAY, []).append(record)
    out = []
    for day in sorted(charges_by_day):
        charges = charges_by_day[day]
        kwh = 0.0
        price = 0.0
        for record in charges:
            kwh += record.quintuple.amount_kwh
            price += record.quintuple.price_per_kwh
        out.append(
            {
                "day_index": day,
                "charge_count": len(charges),
                "total_kwh": kwh,
                "mean_price_per_kwh": price / len(charges),
            }
        )
    return out


def oracle_request_history(records: list, pending, now: int) -> tuple[tuple, tuple, tuple]:
    """A decision request's (plan_events, short_records, long_aggregates) at
    time now, assembled eagerly: the day's events filtered from the whole
    (day, PlanEvent) backlog, then full scans of the agent's records for the
    3-day window and the 7-day daily aggregates."""
    today = now // MINUTES_PER_DAY
    return (
        tuple(event for day, event in pending if day == today),
        tuple(oracle_memory_window(records, now, 3)),
        tuple(oracle_daily_aggregates(records, now)),
    )


def oracle_plan_event_dict(event) -> dict:
    return {
        "kind": event.kind.value,
        "origin": [event.origin.latitude, event.origin.longitude],
        "destination": [event.destination.latitude, event.destination.longitude],
        "start": event.start,
        "expected_distance_km": event.expected_distance_km,
    }


def oracle_request_text(persona, snapshot, records: list, pending, now: int) -> str:
    """A decision request's text at time now: oracle_request_history's
    tuples and the present, each as a plain dict, written by json.dumps."""
    plan_events, short, aggregates = oracle_request_history(records, pending, now)
    day_index, time_of_day = divmod(now, MINUTES_PER_DAY)
    request = {
        "clock": {"day_index": day_index, "sim_time": now, "time_of_day": time_of_day},
        "long_memory_daily": list(aggregates),
        "perception": oracle_snapshot_dict(snapshot),
        "persona": oracle_persona_dict(persona),
        "plan_events": [oracle_plan_event_dict(event) for event in plan_events],
        "short_memory": [oracle_record_dict(record) for record in short],
    }
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def read_log(path: Path | str) -> list[dict]:
    """Every entry of a JSON-lines log, blank lines skipped."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def oracle_exports(run_dir: Path) -> dict:
    """What map.geojson and map.html must hold, from a full parse.

    Returns "geojson" (the FeatureCollection) and "decisions" (the HTML
    panel's [agent, time label, station, reason] rows).
    """
    behavior = read_log(run_dir / "behavior.log")
    final_states = json.loads((run_dir / "final_states.json").read_text(encoding="utf-8"))
    stations = yaml.safe_load((run_dir / "config.yaml").read_text(encoding="utf-8"))["stations"]

    by_id = {station["station_id"]: station for station in stations}
    features = []
    for station_id in sorted(by_id):
        station = by_id[station_id]
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [station["longitude"], station["latitude"]],
                },
                "properties": {
                    "kind": "station",
                    "station_id": station_id,
                    "pile_count": station["pile_count"],
                    "pile_power_kw": station["pile_power_kw"],
                },
            }
        )
    decisions = []
    route_agents = set(final_states) | {
        e["agent_id"]
        for e in behavior
        if e["record"]["action"] in ("travel", "stop_charging", "start_charging")
    }
    for agent_id in sorted(route_agents):
        own = [e for e in behavior if e["agent_id"] == agent_id]
        waypoints = []
        for entry in own:
            action = entry["record"]["action"]
            if action == "travel":
                stops = [entry["extras"]["origin"], entry["extras"]["destination"]]
            elif action == "stop_charging":
                stops = [entry["extras"]["station"]]
            else:
                stops = []
            for lat, lon in stops:
                if not waypoints or waypoints[-1] != [lon, lat]:
                    waypoints.append([lon, lat])
        lat, lon = final_states.get(agent_id, {}).get("location", [0.0, 0.0])
        waypoints += [[lon, lat]] * max(0, 2 - len(waypoints))
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": waypoints},
                "properties": {"kind": "route", "agent_id": agent_id},
            }
        )
        for kind, point in (("start", waypoints[0]), ("end", waypoints[-1])):
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": point},
                    "properties": {"kind": kind, "agent_id": agent_id},
                }
            )
        for entry in own:
            record = entry["record"]
            if record["action"] != "start_charging" or record["object_id"] not in by_id:
                continue
            station = by_id[record["object_id"]]
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [station["longitude"], station["latitude"]],
                    },
                    "properties": {
                        "kind": "charge",
                        "agent_id": agent_id,
                        "time": record["timestamp"],
                        "reason": record["reason"],
                        "station_id": record["object_id"],
                    },
                }
            )
            day, minute = divmod(record["timestamp"], MINUTES_PER_DAY)
            label = f"day {day} {minute // 60:02d}:{minute % 60:02d}"
            decisions.append([agent_id, label, record["object_id"], record["reason"]])

    return {
        "geojson": {"type": "FeatureCollection", "features": features},
        "decisions": decisions,
    }


def oracle_routes_json(run_dir: Path) -> str:
    """What routes.json must hold, from a full parse of behavior.log, written
    as first written: each agent's route a flat list of lon, lat floats (a
    travel line's origin and destination, a stop_charging line's station,
    each skipped when it equals the last waypoint) and its start_charging
    decisions as [timestamp, object_id, reason], in compact JSON with sorted
    keys, every float formatted by the encoder as canonical_json does. An
    agent of final_states.json without lines has empty lists."""
    final_states = json.loads((run_dir / "final_states.json").read_text(encoding="utf-8"))
    routes = {agent_id: {"charges": [], "route": []} for agent_id in final_states}
    for entry in read_log(run_dir / "behavior.log"):
        own = routes[entry["agent_id"]]
        record, extras = entry["record"], entry["extras"]
        if record["action"] == "travel":
            stops = [extras["origin"], extras["destination"]]
        elif record["action"] == "stop_charging":
            stops = [extras["station"]]
        else:
            stops = []
            if record["action"] == "start_charging":
                own["charges"].append([record["timestamp"], record["object_id"], record["reason"]])
        route = own["route"]
        for lat, lon in stops:
            waypoint = [float(lon), float(lat)]
            if route[-2:] != waypoint:
                route += waypoint
    return json.dumps(routes, sort_keys=True, separators=(",", ":"))


def oracle_svg(run_dir: Path) -> dict:
    """What map.html's SVG must draw, projected as the exporter first did.

    Reads the map's own inputs (config.yaml's stations, routes.json and
    final_states.json), lists each feature's (lon, lat) floats in the map's
    order, takes the bounding box of all of them flattened, pads it by 5%
    (0.01 where a span is 0) and rounds each projected coordinate with
    round(v, 2). Returns "polylines" (each route's points, "{},{}".format
    per point), "circles" ((cx, cy) of each start, end and charge marker,
    as f"{x}") and "rects" ((x, y) of each station, as x - 5), each in
    document order.
    """
    stations = yaml.safe_load((run_dir / "config.yaml").read_text(encoding="utf-8"))["stations"]
    by_id = {station["station_id"]: station for station in stations}
    final_states = json.loads((run_dir / "final_states.json").read_text(encoding="utf-8"))
    # a number spelled as an integer is read as the float it spells (-0 as -0.0)
    routes = json.loads((run_dir / "routes.json").read_text(encoding="utf-8"), parse_int=float)

    def at(station_id):
        station = by_id[station_id]
        return [(float(station["longitude"]), float(station["latitude"]))]

    shapes = [("station", at(station_id)) for station_id in sorted(by_id)]
    for agent_id in sorted(routes):
        flat = routes[agent_id]["route"]
        points = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
        lat, lon = final_states[agent_id]["location"]
        points += [(float(lon), float(lat))] * max(0, 2 - len(points))
        shapes += [("route", points), ("start", points[:1]), ("end", points[-1:])]
        shapes += [("charge", at(charge[1])) for charge in routes[agent_id]["charges"]]

    lons = [lon for _kind, points in shapes for lon, _lat in points]
    lats = [lat for _kind, points in shapes for _lon, lat in points]
    lon_min, lon_max = min(lons), max(lons)
    lat_min, lat_max = min(lats), max(lats)
    pad_lon = (lon_max - lon_min) * 0.05 or 0.01
    pad_lat = (lat_max - lat_min) * 0.05 or 0.01
    lon_min, lon_max = lon_min - pad_lon, lon_max + pad_lon
    lat_min, lat_max = lat_min - pad_lat, lat_max + pad_lat

    def project(lon, lat):
        return (
            round((lon - lon_min) / (lon_max - lon_min) * 720.0, 2),
            round((lat_max - lat) / (lat_max - lat_min) * 640.0, 2),
        )

    polylines, circles, rects = [], [], []
    for kind, points in shapes:
        if kind == "route":
            polylines.append(" ".join("{},{}".format(*project(*point)) for point in points))
    for kind, points in shapes:
        x, y = project(*points[0])
        if kind == "station":
            rects.append((f"{x - 5}", f"{y - 5}"))
        elif kind != "route":
            circles.append((f"{x}", f"{y}"))
    return {"polylines": polylines, "circles": circles, "rects": rects}


def oracle_station_dict(entry) -> dict:
    """A StationPerception as a dict, grouped by perception dimension."""
    return {
        "station_id": entry.station_id,
        "scenario": {"free_piles": entry.free_piles},
        "time": {
            "travel_minutes": entry.travel_minutes,
            "predicted_queue_minutes": entry.predicted_queue_minutes,
            "charge_minutes": entry.charge_minutes,
        },
        "space": {"distance_km": entry.distance_km},
        "energy": {"pile_power_kw": entry.pile_power_kw},
        "price": {"price_per_kwh": entry.price_per_kwh, "off_peak": entry.off_peak},
    }


def oracle_travel_dict(travel) -> dict:
    """A TravelPerception as a dict; points become [latitude, longitude]."""
    destination = travel.next_destination
    return {
        "scenario": {"congestion_multiplier": travel.congestion_multiplier},
        "time": {"now": travel.now, "next_event_start": travel.next_event_start},
        "space": {
            "location": [travel.location.latitude, travel.location.longitude],
            "next_destination": (
                [destination.latitude, destination.longitude] if destination is not None else None
            ),
            "distance_to_next_km": travel.distance_to_next_km,
        },
        "energy": {"soc_kwh": travel.soc_kwh, "soc_fraction": travel.soc_fraction},
    }


def oracle_snapshot_dict(snapshot) -> dict:
    return {
        "travel": oracle_travel_dict(snapshot.travel),
        "stations": [oracle_station_dict(entry) for entry in snapshot.stations],
    }


def oracle_quintuple_dict(quintuple) -> dict:
    return {
        "decision": quintuple.decision,
        "scenario": quintuple.scenario.value,
        "time_minutes": quintuple.time_minutes,
        "station_id": quintuple.station_id,
        "amount_kwh": quintuple.amount_kwh,
        "power_kw": quintuple.power_kw,
        "price_per_kwh": quintuple.price_per_kwh,
    }


def oracle_record_dict(record) -> dict:
    return {
        "action": record.action.value,
        "object_id": record.object_id,
        "timestamp": record.timestamp,
        "quintuple": oracle_quintuple_dict(record.quintuple),
        "reason": record.reason,
    }


def oracle_persona_dict(persona) -> dict:
    """A Persona as a dict through dataclasses.asdict, enums as their values."""
    data = asdict(persona)
    data["demographics"]["gender"] = persona.demographics.gender.value
    data["economics"]["income_level"] = persona.economics.income_level.value
    data["habits"]["preferred_scenario"] = persona.habits.preferred_scenario.value
    data["habits"]["preferred_window"] = list(persona.habits.preferred_window)
    return data


def same_json_tree(a, b) -> bool:
    """Equal values of equal types all the way down, with NaN equal to NaN and -0.0 not 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json_tree(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_json_tree(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def oracle_random_point_near(
    rng: random.Random,
    origin: GeoPoint,
    distance_km: float,
    center: GeoPoint,
    max_radius_km: float,
) -> GeoPoint:
    # candidates stay raw floats; only the accepted one becomes a (validated) GeoPoint
    for _ in range(20):
        lat, lon = _offset(origin, distance_km, rng.uniform(0.0, 2.0 * math.pi))
        if haversine_km(lat, lon, center.latitude, center.longitude) <= max_radius_km:
            return GeoPoint(lat, lon)
    # Deep in a corner of the area: head back toward the center instead.
    bearing = math.atan2(
        center.longitude - origin.longitude, center.latitude - origin.latitude
    )
    return GeoPoint(*_offset(origin, distance_km, bearing))


def oracle_plan_day(plan_template: dict, persona, day_index: int, seed) -> DailyPlan:
    """MockProvider(plan_template=plan_template).plan_day(persona, day_index, seed)."""
    template = {**DEFAULT_PLAN_TEMPLATE, **plan_template}
    router = OfflineRouter(float(template["detour_factor"]), float(template["speed_kmh"]))
    center = GeoPoint(*template["center"])
    area_radius = float(template["area_radius_km"])
    rng = random.Random(f"plan|{seed}|{persona.id}|{day_index}")

    shifts = [tuple(window) for window in template["shifts"]]
    if rng.random() < float(template["evening_shift_probability"]):
        shifts.append(tuple(template["evening_shift"]))

    events = []
    location = home_point_for(persona.id, center, area_radius)
    for shift_start, shift_end in shifts:
        t = int(shift_start)
        while True:
            hop_km = rng.uniform(*template["trip_km_range"])
            destination = oracle_random_point_near(rng, location, hop_km, center, area_radius)
            route_km = router.distance_km(location, destination)
            travel_minutes = int(round(route_km / router.speed_kmh * 60.0))
            if t + travel_minutes > shift_end or travel_minutes == 0:
                break
            events.append(
                PlanEvent(
                    kind=PlanEventKind.TRIP,
                    origin=location,
                    destination=destination,
                    start=t,
                    expected_distance_km=route_km,
                )
            )
            location = destination
            t += travel_minutes + rng.randint(*template["gap_minutes_range"])
    return DailyPlan(day_index=day_index, events=tuple(events))
