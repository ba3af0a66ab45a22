"""Distance and travel-time estimation.

The one routing model is offline: great-circle distance scaled by a
configurable detour factor, at a constant mean speed that congestion
scales, which keeps replays deterministic. Distances are
straight-line-times-detour, not driving distances. Which stations are
within reach is decided in perception.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import GeoPoint

EARTH_RADIUS_KM = 6371.0088

DEFAULT_DETOUR_FACTOR = 1.3
DEFAULT_SPEED_KMH = 30.0


@dataclass(frozen=True)
class RouteEstimate:
    distance_km: float
    travel_minutes: int

    def __post_init__(self) -> None:
        if self.distance_km < 0.0:
            raise ValueError("distance_km must be >= 0")
        if self.travel_minutes < 0:
            raise ValueError("travel_minutes must be >= 0")
        if self.distance_km == 0.0 and self.travel_minutes != 0:
            raise ValueError("zero distance implies zero travel time")


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in km on a spherical Earth.

    Deltas go through abs() so that swapping the endpoints is bit-exact
    symmetric, which the routing contract promises.
    """
    lat_a = math.radians(a.latitude)
    lat_b = math.radians(b.latitude)
    dlat = math.radians(abs(b.latitude - a.latitude))
    dlon = math.radians(abs(b.longitude - a.longitude))
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat_a) * math.cos(lat_b) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))


def estimate_route(
    a: GeoPoint,
    b: GeoPoint,
    detour_factor: float = DEFAULT_DETOUR_FACTOR,
    speed_kmh: float = DEFAULT_SPEED_KMH,
) -> RouteEstimate:
    """Estimate the road distance and travel time between two points."""
    if detour_factor < 1.0:
        raise ValueError(f"detour_factor must be >= 1, got {detour_factor}")
    if speed_kmh <= 0.0:
        raise ValueError(f"speed_kmh must be > 0, got {speed_kmh}")
    distance_km = great_circle_km(a, b) * detour_factor
    travel_minutes = int(round(distance_km / speed_kmh * 60.0))
    return RouteEstimate(distance_km=distance_km, travel_minutes=travel_minutes)


@dataclass(frozen=True)
class OfflineRouter:
    """Great-circle-times-detour routing at a constant mean urban speed.

    speed_multiplier scales the effective speed (values below 1 model
    congestion, above 1 free-flowing traffic).
    """

    detour_factor: float = DEFAULT_DETOUR_FACTOR
    speed_kmh: float = DEFAULT_SPEED_KMH

    def route(self, a: GeoPoint, b: GeoPoint, speed_multiplier: float = 1.0) -> RouteEstimate:
        if speed_multiplier <= 0.0:
            raise ValueError("speed_multiplier must be > 0")
        return estimate_route(a, b, self.detour_factor, self.speed_kmh * speed_multiplier)
