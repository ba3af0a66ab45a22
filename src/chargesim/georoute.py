"""Distance and travel-time estimation.

The one routing model is offline: great-circle distance scaled by a
configurable detour factor, at a constant mean speed that congestion
scales, which keeps replays deterministic. Distances are
straight-line-times-detour, not driving distances. Which stations are
within reach is decided in perception.py.

bounding_box_deg bounds the points within a radius of a centre by a
latitude/longitude box. A point outside it would fail the haversine test
too, so a caller rejects it with four comparisons and no result changes.
It has two users: the mock planner filters its destination candidates this
way, and Environment.reach_rows builds one box per station, once per run,
against which perception.perceive tests the agent's location before it
measures the station with distance_km.
"""

from __future__ import annotations

import math
from math import asin, cos, radians, sin, sqrt

from .domain import GeoPoint, value_type

EARTH_RADIUS_KM = 6371.0088
_DIAMETER_KM = 2.0 * EARTH_RADIUS_KM


@value_type
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
    symmetric, which the routing contract promises. It runs for each station
    inside a decision's box and each planner candidate, so it reads the math
    functions as module names and clamps h with a comparison, which returns
    what min(1.0, h) would.
    """
    h = (
        sin(radians(abs(lat_b - lat_a)) / 2.0) ** 2
        + cos(radians(lat_a)) * cos(radians(lat_b)) * sin(radians(abs(lon_b - lon_a)) / 2.0) ** 2
    )
    return _DIAMETER_KM * asin(sqrt(h if h < 1.0 else 1.0))


NO_BOX = (-math.inf, math.inf, -math.inf, math.inf)  # every point takes the exact test


def bounding_box_deg(lat: float, lon: float, radius_km: float) -> tuple[float, float, float, float]:
    """Bounds (lat_lo, lat_hi, lon_lo, lon_hi) in degrees of a box around
    (lat, lon) that holds every point within radius_km of it, or NO_BOX.

    The bounds are lat -+ dlat and lon -+ dlon. A point (p_lat, p_lon) in
    [-90, 90] x [-180, 180] outside them has
    haversine_km(p_lat, p_lon, lat, lon) > radius_km, so it can be rejected
    without computing the distance. Why, with the angle d = radius_km / R:

    - Latitude: no path between two latitudes is shorter than the meridian
      arc, so the distance is at least R * |p_lat - lat| in radians; a gap
      above degrees(d) is farther than the radius.
    - Longitude (J. Matuschek, "Finding Points Within a Distance of a
      Latitude/Longitude Using Bounding Coordinates",
      http://janmatuschek.de/LatitudeLongitudeBoundingCoordinates): a circle
      of angular radius d that holds no pole lies between the two meridians
      tangent to it, asin(sin(d) / cos(lat)) either side of its centre, so a
      point beyond them is outside the circle.

    Both half-widths are widened by a relative 1e-9, far above the few-ulp
    error of these formulas and of haversine_km, plus 1e-13 degrees (about
    10 nm), so that radius 0 and gaps too small for haversine_km to resolve
    (a tiny gap in degrees can underflow to 0 in radians) still go to the
    exact test.

    NO_BOX, whose bounds are infinite, means the caller tests every point:
    - d is above 1 radian, negative or NaN: toward the antipode
      haversine_km's asin loses more accuracy than the widening covers;
    - the box comes within a degree of a pole: the circle may hold the
      pole, and near it cos(lat) and the asin are ill-conditioned;
    - the box reaches the +-180 meridian: haversine_km takes the raw
      abs(p_lon - lon), which is small again for a point across the
      meridian, so a raw gap above dlon no longer means "far".
    """
    angle = radius_km / EARTH_RADIUS_KM
    if not 0.0 <= angle <= 1.0:
        return NO_BOX
    dlat = math.degrees(angle) * (1.0 + 1e-9) + 1e-13
    if not abs(lat) + dlat < 89.0:
        return NO_BOX
    dlon = math.degrees(math.asin(math.sin(angle) / math.cos(math.radians(lat))))
    dlon = dlon * (1.0 + 1e-9) + 1e-13
    if not abs(lon) + dlon < 180.0:
        return NO_BOX
    return lat - dlat, lat + dlat, lon - dlon, lon + dlon


@value_type
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
        if not 1.0 <= self.detour_factor < math.inf:
            raise ValueError(f"detour_factor must be finite and >= 1, got {self.detour_factor}")
        if not 0.0 < self.speed_kmh < math.inf:
            raise ValueError(f"speed_kmh must be finite and > 0, got {self.speed_kmh}")

    def distance_km(self, a: GeoPoint, b: GeoPoint) -> float:
        return haversine_km(a.latitude, a.longitude, b.latitude, b.longitude) * self.detour_factor

    def travel_minutes(self, distance_km: float, speed_multiplier: float) -> int:
        """Whole minutes to drive distance_km at a speed_multiplier > 0, which
        route() checks and Environment checks for each congestion band (perception's source)."""
        return int(round(distance_km / (self.speed_kmh * speed_multiplier) * 60.0))

    def route(self, a: GeoPoint, b: GeoPoint, speed_multiplier: float = 1.0) -> RouteEstimate:
        if speed_multiplier <= 0.0:
            raise ValueError("speed_multiplier must be > 0")
        distance_km = self.distance_km(a, b)
        return RouteEstimate(distance_km, self.travel_minutes(distance_km, speed_multiplier))
