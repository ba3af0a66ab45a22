from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargesim.domain import GeoPoint
from chargesim.georoute import (
    EARTH_RADIUS_KM,
    NO_BOX,
    OfflineRouter,
    RouteEstimate,
    bounding_box_deg,
    haversine_km,
)
from oracles import oracle_great_circle_km

SHANGHAI = GeoPoint(31.2304, 121.4737)
PUDONG_AIRPORT = GeoPoint(31.1443, 121.8083)

points = st.builds(
    GeoPoint,
    st.floats(min_value=-85, max_value=85),
    st.floats(min_value=-179, max_value=179),
)


STRAIGHT = OfflineRouter(detour_factor=1.0, speed_kmh=30.0)


def km(a: GeoPoint, b: GeoPoint) -> float:
    return haversine_km(a.latitude, a.longitude, b.latitude, b.longitude)


def test_identical_points_are_zero():
    estimate = STRAIGHT.route(SHANGHAI, SHANGHAI)
    assert estimate == RouteEstimate(0.0, 0)


def test_shanghai_pair_matches_independent_oracle():
    got = STRAIGHT.route(SHANGHAI, PUDONG_AIRPORT).distance_km
    want = oracle_great_circle_km(31.2304, 121.4737, 31.1443, 121.8083).value
    assert abs(got - want) / want < 0.005


def test_detour_factor_scales_linearly():
    base = STRAIGHT.route(SHANGHAI, PUDONG_AIRPORT).distance_km
    detoured = OfflineRouter(detour_factor=1.3).route(SHANGHAI, PUDONG_AIRPORT).distance_km
    assert detoured == pytest.approx(1.3 * base, abs=1e-12)


def test_travel_minutes_rounding():
    # 33.2375 km at 30 km/h is 66.475 min -> 66
    estimate = STRAIGHT.route(SHANGHAI, PUDONG_AIRPORT)
    assert estimate.travel_minutes == int(round(estimate.distance_km / 30.0 * 60.0))


def test_invalid_parameters_rejected():
    # checked once, when the router is built
    with pytest.raises(ValueError):
        OfflineRouter(detour_factor=0.9)
    with pytest.raises(ValueError):
        OfflineRouter(speed_kmh=0.0)
    with pytest.raises(ValueError):
        OfflineRouter().route(SHANGHAI, PUDONG_AIRPORT, speed_multiplier=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            OfflineRouter(detour_factor=bad)
        with pytest.raises(ValueError, match="finite"):
            OfflineRouter(speed_kmh=bad)


def test_route_estimate_invariant():
    with pytest.raises(ValueError):
        RouteEstimate(0.0, 5)


@given(points, points)
def test_symmetry_is_exact(a, b):
    assert km(a, b) == km(b, a)


@given(points, points, points)
@settings(max_examples=200)
def test_triangle_inequality(a, b, c):
    assert km(a, c) <= km(a, b) + km(b, c) + 1e-6


@given(points, points)
def test_distance_against_oracle(a, b):
    got = km(a, b)
    want = oracle_great_circle_km(a.latitude, a.longitude, b.latitude, b.longitude).value
    if want > 0.001:
        assert abs(got - want) / want < 0.005
    else:
        assert got == pytest.approx(want, abs=1e-3)


def test_offline_router_congestion_slows_travel():
    router = OfflineRouter(detour_factor=1.0, speed_kmh=30.0)
    free = router.route(SHANGHAI, PUDONG_AIRPORT, speed_multiplier=1.0)
    congested = router.route(SHANGHAI, PUDONG_AIRPORT, speed_multiplier=0.5)
    assert congested.travel_minutes > free.travel_minutes
    assert congested.distance_km == free.distance_km


@given(points, points, st.sampled_from([0.5, 0.7, 0.9, 1.0, 1.2]))
def test_route_is_built_from_distance_then_minutes(a, b, multiplier):
    router = OfflineRouter(detour_factor=1.3, speed_kmh=30.0)
    distance_km = km(a, b) * 1.3
    assert router.distance_km(a, b) == distance_km
    assert router.route(a, b, multiplier) == RouteEstimate(
        distance_km, int(round(distance_km / (30.0 * multiplier) * 60.0))
    )


# ---------------------------------------------------------------------------
# The bounding box rejects only points the haversine test would reject
# ---------------------------------------------------------------------------


def rim_extremes_nudged_out(lat, lon, radius_km, box):
    """The points of the radius circle farthest north, south, east and west,
    each moved 1 to 3 ulps past the box edge it is nearest to."""
    lat_lo, lat_hi, lon_lo, lon_hi = box
    angle = radius_km / EARTH_RADIUS_KM
    # the latitude at which the meridians tangent to the circle touch it
    tangent_lat = math.degrees(
        math.asin(min(1.0, math.sin(math.radians(lat)) / math.cos(angle)))
    )
    edges = [
        (lat_hi, lon, 1, 0),
        (lat_lo, lon, -1, 0),
        (tangent_lat, lon_hi, 0, 1),
        (tangent_lat, lon_lo, 0, -1),
    ]
    points = []
    for p_lat, p_lon, up, east in edges:
        for _ in range(3):
            if up:
                p_lat = math.nextafter(p_lat, up * math.inf)
            if east:
                p_lon = math.nextafter(p_lon, east * math.inf)
            points.append((p_lat, p_lon))
    return points


@given(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
    st.one_of(
        st.floats(min_value=0, max_value=1e-6),
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=7000),
    ),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=300)
# relative widening: at this tangent point the unwidened dlon falls a few ulps short
@example(61.017100896128426, -45.10358196197548, 3100.1911580538626, 0.0, 0.0)
@example(79.66224623189422, -6.889911029730484, 1003.4061443334722, 0.0, 0.0)
@example(0.0, 0.0, 0.0, 1.2, -1.2)  # radius 0: every other point is rejected
@example(1e-300, -1e-300, 1e-9, 1.0, 1.0)  # sub-ulp gaps near (0, 0)
@example(88.0, 179.0, 10.0, 1.01, 1.01)  # the box would touch a pole and the meridian
def test_a_point_outside_the_box_is_farther_than_the_radius(lat, lon, radius_km, u, v):
    box = bounding_box_deg(lat, lon, radius_km)
    if box == NO_BOX:
        return
    lat_lo, lat_hi, lon_lo, lon_hi = box
    candidates = rim_extremes_nudged_out(lat, lon, radius_km, box)
    candidates.append((lat + u * (lat_hi - lat), lon + v * (lon_hi - lon)))
    for p_lat, p_lon in candidates:
        if not (-90.0 <= p_lat <= 90.0 and -180.0 <= p_lon <= 180.0):
            continue
        if lat_lo <= p_lat <= lat_hi and lon_lo <= p_lon <= lon_hi:
            continue
        assert haversine_km(p_lat, p_lon, lat, lon) > radius_km, (p_lat, p_lon)


@pytest.mark.parametrize(
    "lat, lon, radius_km",
    [
        (90.0, 0.0, 1.0),  # at a pole
        (88.95, 0.0, 10.0),  # within a degree of a pole
        (-88.5, 10.0, 100.0),
        (0.0, 180.0, 1.0),  # on the meridian
        (0.0, -179.99, 10.0),  # reaching across it
        (0.0, 0.0, EARTH_RADIUS_KM * 1.01),  # more than a radian
        (0.0, 0.0, math.pi * EARTH_RADIUS_KM),
        (0.0, 0.0, -1.0),
        (0.0, 0.0, math.nan),
    ],
)
def test_no_box_where_it_would_not_be_exact(lat, lon, radius_km):
    assert bounding_box_deg(lat, lon, radius_km) == NO_BOX


def test_box_half_widths_near_shanghai():
    lat_lo, lat_hi, lon_lo, lon_hi = bounding_box_deg(SHANGHAI.latitude, SHANGHAI.longitude, 8.0)
    assert lat_hi - SHANGHAI.latitude == pytest.approx(SHANGHAI.latitude - lat_lo, rel=1e-9)
    assert lon_hi - SHANGHAI.longitude == pytest.approx(SHANGHAI.longitude - lon_lo, rel=1e-9)
    dlat, dlon = lat_hi - SHANGHAI.latitude, lon_hi - SHANGHAI.longitude
    assert dlat == pytest.approx(8.0 / EARTH_RADIUS_KM * 180.0 / math.pi, rel=1e-8)
    assert dlon == pytest.approx(dlat / math.cos(math.radians(SHANGHAI.latitude)), rel=1e-5)
