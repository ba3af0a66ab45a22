from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chargesim.config import ScenarioConfig
from chargesim.domain import GeoPoint, Persona, SimClock, canonical_json
from chargesim.environment import ChargingStation, DaySchedule, Environment, EvState
from chargesim.georoute import OfflineRouter
from chargesim.perception import (
    PerceptionSnapshot,
    StationPerception,
    TravelPerception,
    perceive,
)
from oracles import (
    oracle_fifo_starts,
    oracle_snapshot_dict,
    oracle_station_dict,
    oracle_travel_dict,
    same_json_tree,
)

CENTER = GeoPoint(31.2304, 121.4737)
KM = 0.0089932  # degrees latitude per km


@dataclass
class _Agent:
    persona: Persona
    state: EvState
    next_event_start: int | None = None
    next_destination: GeoPoint | None = None


def _env(stations, congestion=None, detour_factor=1.0):
    return Environment(
        stations={s.station_id: s for s in stations},
        tariffs={"t": DaySchedule(((0, 720, 0.5), (720, 1440, 1.0)))},
        router=OfflineRouter(detour_factor=detour_factor, speed_kmh=30.0),
        congestion=congestion or DaySchedule(((0, 1440, 1.0),)),
    )


def _station(station_id="st-01", km_north=1.0, piles=2, power=60.0):
    return ChargingStation(
        station_id=station_id,
        location=GeoPoint(CENTER.latitude + km_north * KM, CENTER.longitude),
        pile_count=piles,
        pile_power_kw=power,
        tariff_id="t",
    )


def _agent(persona, soc=30.0):
    state = EvState(
        agent_id=persona.id,
        location=CENTER,
        soc_kwh=soc,
        capacity_kwh=persona.vehicle.battery_capacity_kwh,
        max_charge_power_kw=persona.vehicle.max_charge_power_kw,
    )
    return _Agent(persona=persona, state=state)


def test_no_stations_in_radius(persona):
    env = _env([_station(km_north=50.0)])
    snapshot = perceive(_agent(persona), env, SimClock(600), radius_km=6.0)
    assert snapshot.stations == ()


def test_all_piles_free_means_zero_wait(persona):
    env = _env([_station()])
    snapshot = perceive(_agent(persona), env, SimClock(600), radius_km=6.0)
    entry = snapshot.stations[0]
    assert entry.free_piles == 2
    assert entry.predicted_queue_minutes == 0


def test_busy_pile_plus_queued_job_predicts_combined_wait(persona):
    station = _station(piles=1)
    now = 600
    # one pile busy for 20 more minutes, one accepted job needing 30 after that
    station.busy_until = [now + 20 + 30]
    env = _env([station])
    snapshot = perceive(_agent(persona), env, SimClock(now), radius_km=6.0)
    entry = snapshot.stations[0]
    assert entry.predicted_queue_minutes == 50
    # cross-check against the minute-stepping FIFO oracle: a newcomer arriving
    # now with any service time would start 50 minutes from now
    starts = oracle_fifo_starts([now + 50], [(now, 10)])
    assert starts[0] - now == 50


def test_charge_minutes_toward_typical_target(persona):
    env = _env([_station(power=60.0)])
    agent = _agent(persona, soc=33.75)  # target 0.85 * 75 = 63.75 -> 30 kWh needed
    snapshot = perceive(agent, env, SimClock(600), radius_km=6.0)
    assert snapshot.stations[0].charge_minutes == 30

    full = _agent(persona, soc=75.0)
    snapshot = perceive(full, env, SimClock(600), radius_km=6.0)
    assert snapshot.stations[0].charge_minutes == 0


def test_stations_sorted_by_distance_then_id(persona):
    env = _env(
        [
            _station("st-b", km_north=2.0),
            _station("st-a", km_north=2.0),
            _station("st-c", km_north=1.0),
        ]
    )
    snapshot = perceive(_agent(persona), env, SimClock(600), radius_km=6.0)
    assert [s.station_id for s in snapshot.stations] == ["st-c", "st-a", "st-b"]


class _DoublingRouter(OfflineRouter):
    """Measures every road twice as long: never shorter than the great circle
    times detour_factor, which perceive's box assumes."""

    def distance_km(self, a, b):
        return 2.0 * super().distance_km(a, b)


def test_perceive_measures_stations_with_the_router(persona):
    near, far = _station("st-near", km_north=1.0), _station("st-far", km_north=4.0)
    env = _env([near, far])
    env.router = router = _DoublingRouter(detour_factor=1.0, speed_kmh=30.0)
    snapshot = perceive(_agent(persona), env, SimClock(600), radius_km=6.0)
    # st-far's 4 km road now reads 8 km, beyond the radius
    distance_km = router.distance_km(CENTER, near.location)
    assert distance_km > 1.9
    assert [(s.station_id, s.distance_km, s.travel_minutes) for s in snapshot.stations] == [
        ("st-near", distance_km, router.travel_minutes(distance_km, 1.0))
    ]


DEFAULTS = ScenarioConfig()
DEFAULT_TARIFFS = {
    **DEFAULTS.build_tariffs(),
    "t": DaySchedule(((0, 720, 0.5), (720, 1440, 1.0))),
}
# one minute inside each band of the default congestion schedule
BAND_MINUTES = [start for start, _, _ in DEFAULTS.build_congestion().bands]


# Agent centres: the default city, anywhere up to +-88 degrees latitude, and
# within a degree of the +-180 meridian, where perceive has no box and tests
# every station exactly.
CENTRES = st.one_of(
    st.just((CENTER.latitude, CENTER.longitude)),
    st.tuples(st.floats(-88.0, 88.0), st.floats(-180.0, 180.0)),
    st.tuples(st.floats(-88.0, 88.0), st.floats(179.0, 180.0) | st.floats(-180.0, -179.0)),
)
# a deterministic 1,000-station set for the largest example
_spread = random.Random(1000)
THOUSAND_OFFSETS = [
    (_spread.uniform(-0.2, 0.2), _spread.uniform(-0.2, 0.2), tariff_id)
    for tariff_id in sorted(DEFAULT_TARIFFS) * 500
]


# the persona fixture is frozen, so sharing it across examples is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-0.2, max_value=0.2),
            st.floats(min_value=-0.2, max_value=0.2),
            st.sampled_from(sorted(DEFAULT_TARIFFS)),
        ),
        max_size=1000,
    ),
    st.one_of(st.sampled_from([0.0, 1e-9, 1e4]), st.floats(min_value=0.0, max_value=30.0)),
    st.sampled_from(BAND_MINUTES),
    st.one_of(st.none(), st.integers(min_value=0)),
    CENTRES,
    # perceive's box bounds radius_km / detour_factor
    st.sampled_from([1.0, 1.3, 3.0]),
)
@example(
    offsets=[(0.03, 0.0, "t"), (0.0, 0.05, "shanghai-tou"), (-0.03, 0.0, "t")],
    radius_km=1.0,
    minute=BAND_MINUTES[1],
    on_radius=0,
    centre=(CENTER.latitude, CENTER.longitude),
    detour_factor=1.3,
)
@example(
    offsets=[(0.0, 0.0, "t"), (1e-12, 0.0, "t"), (0.0, -1e-12, "t")],
    radius_km=0.0,
    minute=BAND_MINUTES[0],
    on_radius=None,
    centre=(CENTER.latitude, CENTER.longitude),
    detour_factor=1.3,
)
@example(
    offsets=THOUSAND_OFFSETS,
    radius_km=6.0,
    minute=BAND_MINUTES[2],
    on_radius=None,
    centre=(CENTER.latitude, CENTER.longitude),
    detour_factor=1.3,
)
@example(
    offsets=THOUSAND_OFFSETS[:50],
    radius_km=6.0,
    minute=BAND_MINUTES[2],
    on_radius=7,
    centre=(-87.9, 179.95),
    detour_factor=1.3,
)
@example(
    # the box around 1.3 km / 1.3 is about +-0.0090 x +-0.0105 degrees; the
    # first station sits in its corner but 1.60 km away, the second 0.29 km
    # away, the third outside the box
    offsets=[(0.008, 0.009, "t"), (0.002, 0.0, "t"), (0.0, 0.02, "t")],
    radius_km=1.3,
    minute=BAND_MINUTES[0],
    on_radius=None,
    centre=(CENTER.latitude, CENTER.longitude),
    detour_factor=1.3,
)
def test_perceive_matches_brute_force_filter_sort(
    persona, offsets, radius_km, minute, on_radius, centre, detour_factor
):
    origin = GeoPoint(*centre)
    stations = [
        ChargingStation(
            station_id=f"st-{i:02d}",
            # across the +-180 meridian a station wraps to the other side
            location=GeoPoint(
                min(90.0, max(-90.0, origin.latitude + dlat)),
                (origin.longitude + dlon + 180.0) % 360.0 - 180.0,
            ),
            pile_count=1,
            pile_power_kw=60.0,
            tariff_id=tariff_id,
        )
        for i, (dlat, dlon, tariff_id) in enumerate(offsets)
    ]
    env = Environment(
        stations={s.station_id: s for s in stations},
        tariffs=DEFAULT_TARIFFS,
        router=OfflineRouter(detour_factor=detour_factor, speed_kmh=30.0),
        congestion=DEFAULTS.build_congestion(),
    )
    multiplier = env.congestion.at(minute)
    if on_radius is not None and stations:
        # the radius is exactly one station's distance, which stays in
        edge = stations[on_radius % len(stations)]
        radius_km = env.router.route(origin, edge.location).distance_km
    clock = SimClock(3 * 1440 + minute)
    agent = _agent(persona)
    agent.state.location = origin
    snapshot = perceive(agent, env, clock, radius_km)

    expected = []
    for s in stations:
        estimate = env.router.route(origin, s.location, multiplier)
        if estimate.distance_km <= radius_km:
            expected.append((estimate.distance_km, estimate.travel_minutes, s.station_id))
    expected.sort()
    assert [(e.distance_km, e.travel_minutes, e.station_id) for e in snapshot.stations] == expected
    if on_radius is not None and stations:
        assert radius_km in [e.distance_km for e in snapshot.stations]
    for entry in snapshot.stations:
        tariff = DEFAULT_TARIFFS[env.stations[entry.station_id].tariff_id]
        assert entry.price_per_kwh == tariff.at(minute)
        cheapest = min(price for _, _, price in tariff.bands)
        assert entry.off_peak == (tariff.at(minute) == cheapest == tariff.lowest)


def test_snapshot_is_deterministic(persona):
    env_a = _env([_station(), _station("st-02", km_north=3.0)])
    env_b = _env([_station(), _station("st-02", km_north=3.0)])
    a = perceive(_agent(persona), env_a, SimClock(600), radius_km=6.0)
    b = perceive(_agent(persona), env_b, SimClock(600), radius_km=6.0)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()


def test_snapshot_contains_all_dimension_groups(persona):
    env = _env([_station()])
    agent = _agent(persona)
    agent.next_event_start = 640
    agent.next_destination = GeoPoint(CENTER.latitude + 2 * KM, CENTER.longitude)
    data = json.loads(perceive(agent, env, SimClock(600), radius_km=6.0).to_json())

    travel = data["travel"]
    assert set(travel) == {"scenario", "time", "space", "energy"}
    assert "congestion_multiplier" in travel["scenario"]
    assert {"now", "next_event_start"} <= set(travel["time"])
    assert {"location", "next_destination", "distance_to_next_km"} <= set(travel["space"])
    assert {"soc_kwh", "soc_fraction"} <= set(travel["energy"])

    station = data["stations"][0]
    assert set(station) == {"station_id", "scenario", "time", "space", "energy", "price"}
    assert "free_piles" in station["scenario"]
    assert {"travel_minutes", "predicted_queue_minutes", "charge_minutes"} <= set(station["time"])
    assert "distance_km" in station["space"]
    assert "pile_power_kw" in station["energy"]
    assert {"price_per_kwh", "off_peak"} <= set(station["price"])


def test_congestion_multiplier_scales_travel_time(persona):
    rush = DaySchedule(((0, 720, 0.5), (720, 1440, 1.0)))
    env = _env([_station(km_north=5.0)], congestion=rush)
    slow = perceive(_agent(persona), env, SimClock(600), radius_km=10.0)
    fast = perceive(_agent(persona), env, SimClock(800), radius_km=10.0)
    assert slow.travel.congestion_multiplier == 0.5
    assert fast.travel.congestion_multiplier == 1.0
    assert slow.stations[0].travel_minutes > fast.stations[0].travel_minutes
    assert slow.stations[0].distance_km == fast.stations[0].distance_km


# ---------------------------------------------------------------------------
# The canonical writers against the field-by-field oracle dicts
# ---------------------------------------------------------------------------

# text the JSON escaper must handle: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates. Code points are drawn directly, ASCII
# half the time: st.text() builds Hypothesis's Unicode tables on first use,
# which in a fresh checkout takes longer than its too_slow health check allows.
awkward_text = st.one_of(
    st.lists(st.one_of(st.integers(0, 0x7F), st.integers(0x80, 0x10FFFF)).map(chr)).map("".join),
    st.sampled_from(['st-"01"', "back\\slash", "\x00\x1f\x7f\n\t", "café ☃ 𝄞", "\ud800", ""]),
)
# every float the encoder writes in its own way, next to ordinary ones
any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e22, math.nan, math.inf, -math.inf]),
)
plain_int = st.integers(min_value=-(2**63), max_value=2**63)
coordinates = st.builds(
    GeoPoint,
    st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-0.0, 5e-324])),
    st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-0.0, 1e-22])),
)
station_perceptions = st.builds(
    StationPerception,
    station_id=awkward_text,
    free_piles=plain_int,
    travel_minutes=plain_int,
    predicted_queue_minutes=plain_int,
    charge_minutes=plain_int,
    distance_km=any_float,
    pile_power_kw=any_float,
    price_per_kwh=any_float,
    off_peak=st.booleans(),
)
travel_perceptions = st.builds(
    TravelPerception,
    congestion_multiplier=any_float,
    now=plain_int,
    next_event_start=st.none() | plain_int,
    location=coordinates,
    next_destination=st.none() | coordinates,
    distance_to_next_km=any_float,
    soc_kwh=any_float,
    soc_fraction=any_float,
)
snapshots = st.builds(
    PerceptionSnapshot,
    travel=travel_perceptions,
    stations=st.lists(station_perceptions, max_size=4).map(tuple),
)


@given(station_perceptions)
def test_station_writer_matches_the_oracle(entry):
    expected = oracle_station_dict(entry)
    assert entry.to_json() == canonical_json(expected)
    assert same_json_tree(json.loads(entry.to_json()), expected)


@given(travel_perceptions)
def test_travel_writer_matches_the_oracle(travel):
    expected = oracle_travel_dict(travel)
    assert travel.to_json() == canonical_json(expected)
    assert same_json_tree(json.loads(travel.to_json()), expected)


@given(snapshots)
@example(
    PerceptionSnapshot(
        travel=TravelPerception(1.0, 0, None, CENTER, None, -0.0, 5e-324, 1e22),
        stations=(),
    )
)
def test_snapshot_writer_matches_the_oracle(snapshot):
    expected = oracle_snapshot_dict(snapshot)
    text = snapshot.to_json()
    assert text == canonical_json(expected)
    assert same_json_tree(json.loads(text), expected)
    assert snapshot.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
