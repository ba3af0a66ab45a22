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


def haversine_km(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Haversine distance in km on a spherical Earth, between raw degrees.

    Deltas go through abs() so that swapping the endpoints is bit-exact
    symmetric, which the routing contract promises.
    """
    rad_a = math.radians(lat_a)
    rad_b = math.radians(lat_b)
    dlat = math.radians(abs(lat_b - lat_a))
    dlon = math.radians(abs(lon_b - lon_a))
    h = math.sin(dlat / 2.0) ** 2 + math.cos(rad_a) * math.cos(rad_b) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in km between two validated points."""
    return haversine_km(a.latitude, a.longitude, b.latitude, b.longitude)


@dataclass(frozen=True)
class OfflineRouter:
    """Great-circle-times-detour routing at a constant mean urban speed.

    Its parameters are checked once, at construction. route() is built from
    distance_km() and travel_minutes(), so a caller that filters by distance
    first (perception) derives minutes only for the points it keeps.
    speed_multiplier > 0 scales the speed (below 1 models congestion).
    """

    detour_factor: float = 1.3
    speed_kmh: float = 30.0

    def __post_init__(self) -> None:
        if self.detour_factor < 1.0:
            raise ValueError(f"detour_factor must be >= 1, got {self.detour_factor}")
        if self.speed_kmh <= 0.0:
            raise ValueError(f"speed_kmh must be > 0, got {self.speed_kmh}")

    def distance_km(self, a: GeoPoint, b: GeoPoint) -> float:
        return great_circle_km(a, b) * self.detour_factor

    def travel_minutes(self, distance_km: float, speed_multiplier: float) -> int:
        """Whole minutes to drive distance_km at a speed_multiplier > 0, which
        route() checks and every CongestionSchedule band (perception's source) holds."""
        return int(round(distance_km / (self.speed_kmh * speed_multiplier) * 60.0))

    def route(self, a: GeoPoint, b: GeoPoint, speed_multiplier: float = 1.0) -> RouteEstimate:
        if speed_multiplier <= 0.0:
            raise ValueError("speed_multiplier must be > 0")
        distance_km = self.distance_km(a, b)
        return RouteEstimate(distance_km, self.travel_minutes(distance_km, speed_multiplier))
