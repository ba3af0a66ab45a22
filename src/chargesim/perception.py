"""Builds the five-dimension view an agent sees before deciding.

A snapshot groups what the agent knows about its own travel situation
(scenario, time, space, energy) and about each reachable charging station
(scenario, time, space, energy, price). It is a pure function of the
environment, the clock and the agent, so identical inputs always serialize
to identical bytes. A snapshot writes its canonical JSON text straight
from its fields (to_json); that text feeds both the digest logged with every
decision and the live provider's payload.
"""

from __future__ import annotations

import hashlib
import math
from typing import Protocol

from .domain import GeoPoint, Persona, SimClock, json_number, json_string, value_type
from .environment import Environment, EvState


class PerceivingAgent(Protocol):
    """What perceive() needs to know about an agent."""

    persona: Persona

    @property
    def state(self) -> EvState: ...

    @property
    def next_event_start(self) -> int | None: ...

    @property
    def next_destination(self) -> GeoPoint | None: ...


@value_type
class StationPerception:
    station_id: str
    free_piles: int  # scenario: availability right now
    travel_minutes: int  # time: getting there
    predicted_queue_minutes: int  # time: waiting once there
    charge_minutes: int  # time: charging to the agent's usual target
    distance_km: float  # space
    pile_power_kw: float  # energy
    price_per_kwh: float  # price, at the current tariff band
    off_peak: bool  # price context: current band is the day's cheapest

    def to_json(self) -> str:
        return (
            f'{{"energy":{{"pile_power_kw":{json_number(self.pile_power_kw)}}},'
            f'"price":{{"off_peak":{"true" if self.off_peak else "false"},'
            f'"price_per_kwh":{json_number(self.price_per_kwh)}}},'
            f'"scenario":{{"free_piles":{self.free_piles}}},'
            f'"space":{{"distance_km":{json_number(self.distance_km)}}},'
            f'"station_id":{json_string(self.station_id)},'
            f'"time":{{"charge_minutes":{self.charge_minutes},'
            f'"predicted_queue_minutes":{self.predicted_queue_minutes},'
            f'"travel_minutes":{self.travel_minutes}}}}}'
        )


@value_type
class TravelPerception:
    congestion_multiplier: float  # scenario
    now: int  # time
    next_event_start: int | None  # time
    location: GeoPoint  # space
    next_destination: GeoPoint | None  # space
    distance_to_next_km: float  # space
    soc_kwh: float  # energy
    soc_fraction: float  # energy

    def to_json(self) -> str:
        next_start = self.next_event_start
        destination = self.next_destination
        return (
            f'{{"energy":{{"soc_fraction":{json_number(self.soc_fraction)},'
            f'"soc_kwh":{json_number(self.soc_kwh)}}},'
            f'"scenario":{{"congestion_multiplier":{json_number(self.congestion_multiplier)}}},'
            f'"space":{{"distance_to_next_km":{json_number(self.distance_to_next_km)},'
            f'"location":{self.location.to_json()},'
            f'"next_destination":{"null" if destination is None else destination.to_json()}}},'
            f'"time":{{"next_event_start":{"null" if next_start is None else next_start},'
            f'"now":{self.now}}}}}'
        )


@value_type
class PerceptionSnapshot:
    travel: TravelPerception
    stations: tuple[StationPerception, ...]

    def to_json(self) -> str:
        stations = ",".join([station.to_json() for station in self.stations])
        return f'{{"stations":[{stations}],"travel":{self.travel.to_json()}}}'

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()

    def station(self, station_id: str) -> StationPerception | None:
        for entry in self.stations:
            if entry.station_id == station_id:
                return entry
        return None


def perceive(
    agent: PerceivingAgent,
    env: Environment,
    clock: SimClock,
    radius_km: float,
) -> PerceptionSnapshot:
    """Assemble the agent's current view of travel and nearby stations.

    Stations come back sorted by distance (ties by station id). Queue
    predictions are optimistic FIFO over the jobs stations have already
    accepted; future arrivals are unknowable and ignored.
    """
    ev = agent.state
    persona = agent.persona
    router = env.router
    time_of_day = clock.time_of_day
    multiplier = env.congestion.at(time_of_day)
    location = ev.location
    now = clock.sim_time

    next_destination = agent.next_destination
    if next_destination is not None:
        distance_to_next = router.distance_km(location, next_destination)
    else:
        distance_to_next = 0.0

    soc_kwh = ev.soc_kwh
    # both perceptions are built with positional arguments, in field order
    travel = TravelPerception(
        multiplier,
        now,
        agent.next_event_start,
        location,
        next_destination,
        distance_to_next,
        soc_kwh,
        soc_kwh / ev.capacity_kwh,
    )

    target_kwh = max(0.0, persona.habits.typical_target_soc * ev.capacity_kwh - soc_kwh)
    max_power_kw = ev.max_charge_power_kw
    entries: list[StationPerception] = []
    lat, lon = location.latitude, location.longitude
    # A location outside a station's box (built once, by reach_rows) is
    # farther than radius_km from it, so the station is skipped before its
    # distance is measured.
    for station, lat_lo, lat_hi, lon_lo, lon_hi, tariff in env.reach_rows(radius_km):
        if not (lat_lo <= lat <= lat_hi and lon_lo <= lon <= lon_hi):
            continue
        distance_km = router.distance_km(location, station.location)
        if distance_km > radius_km:
            continue
        pile_power_kw = station.pile_power_kw
        power_kw = min(pile_power_kw, max_power_kw)
        charge_minutes = math.ceil(target_kwh / power_kw * 60.0) if target_kwh > 0.0 else 0
        price = tariff.at(time_of_day)
        entries.append(
            StationPerception(
                station.station_id,
                station.free_piles(now),
                router.travel_minutes(distance_km, multiplier),
                station.predicted_wait(now),
                charge_minutes,
                distance_km,
                pile_power_kw,
                price,
                price == tariff.lowest,
            )
        )
    if len(entries) > 1:
        entries.sort(key=lambda entry: (entry.distance_km, entry.station_id))
    return PerceptionSnapshot(travel=travel, stations=tuple(entries))
