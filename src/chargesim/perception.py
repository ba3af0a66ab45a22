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
from dataclasses import dataclass
from typing import Protocol

from .domain import GeoPoint, Persona, SimClock, json_number, json_string
from .environment import Environment, EvState
from .georoute import bounding_box_deg


class PerceivingAgent(Protocol):
    """What perceive() needs to know about an agent."""

    persona: Persona

    @property
    def state(self) -> EvState: ...

    @property
    def next_event_start(self) -> int | None: ...

    @property
    def next_destination(self) -> GeoPoint | None: ...


@dataclass(frozen=True, slots=True)
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
            f'"scenario":{{"free_piles":{json_number(self.free_piles)}}},'
            f'"space":{{"distance_km":{json_number(self.distance_km)}}},'
            f'"station_id":{json_string(self.station_id)},'
            f'"time":{{"charge_minutes":{json_number(self.charge_minutes)},'
            f'"predicted_queue_minutes":{json_number(self.predicted_queue_minutes)},'
            f'"travel_minutes":{json_number(self.travel_minutes)}}}}}'
        )


@dataclass(frozen=True, slots=True)
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
        next_start_json = "null" if next_start is None else json_number(next_start)
        destination = self.next_destination
        return (
            f'{{"energy":{{"soc_fraction":{json_number(self.soc_fraction)},'
            f'"soc_kwh":{json_number(self.soc_kwh)}}},'
            f'"scenario":{{"congestion_multiplier":{json_number(self.congestion_multiplier)}}},'
            f'"space":{{"distance_to_next_km":{json_number(self.distance_to_next_km)},'
            f'"location":{self.location.to_json()},'
            f'"next_destination":{"null" if destination is None else destination.to_json()}}},'
            f'"time":{{"next_event_start":{next_start_json},'
            f'"now":{json_number(self.now)}}}}}'
        )


@dataclass(frozen=True, slots=True)
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

    next_destination = agent.next_destination
    if next_destination is not None:
        distance_to_next = router.distance_km(ev.location, next_destination)
    else:
        distance_to_next = 0.0

    travel = TravelPerception(
        congestion_multiplier=multiplier,
        now=clock.sim_time,
        next_event_start=agent.next_event_start,
        location=ev.location,
        next_destination=next_destination,
        distance_to_next_km=distance_to_next,
        soc_kwh=ev.soc_kwh,
        soc_fraction=ev.soc_kwh / ev.capacity_kwh,
    )

    target_kwh = max(0.0, persona.habits.typical_target_soc * ev.capacity_kwh - ev.soc_kwh)
    entries: list[StationPerception] = []
    location = ev.location
    # A station outside the box around the radius before the detour is
    # farther than radius_km, so it is skipped before its distance (a router
    # measures at least the great circle times its detour_factor). Both
    # points are GeoPoints, inside [-90, 90] x [-180, 180], where the box is
    # sound.
    lat_lo, lat_hi, lon_lo, lon_hi = bounding_box_deg(
        location.latitude, location.longitude, radius_km / router.detour_factor
    )
    for station in env.stations.values():
        site = station.location
        if not (lat_lo <= site.latitude <= lat_hi and lon_lo <= site.longitude <= lon_hi):
            continue
        distance_km = router.distance_km(location, site)
        if distance_km > radius_km:
            continue
        power_kw = min(station.pile_power_kw, ev.max_charge_power_kw)
        charge_minutes = math.ceil(target_kwh / power_kw * 60.0) if target_kwh > 0.0 else 0
        tariff = env.tariffs[station.tariff_id]
        price = tariff.at(time_of_day)
        entries.append(
            StationPerception(
                station_id=station.station_id,
                free_piles=station.free_piles(clock.sim_time),
                travel_minutes=router.travel_minutes(distance_km, multiplier),
                predicted_queue_minutes=station.predicted_wait(clock.sim_time),
                charge_minutes=charge_minutes,
                distance_km=distance_km,
                pile_power_kw=station.pile_power_kw,
                price_per_kwh=price,
                off_peak=price == tariff.lowest,
            )
        )
    entries.sort(key=lambda entry: (entry.distance_km, entry.station_id))
    return PerceptionSnapshot(travel=travel, stations=tuple(entries))
