from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesim.domain import GeoPoint
from chargesim.georoute import OfflineRouter, RouteEstimate, great_circle_km
from oracles import oracle_great_circle_km

SHANGHAI = GeoPoint(31.2304, 121.4737)
PUDONG_AIRPORT = GeoPoint(31.1443, 121.8083)

points = st.builds(
    GeoPoint,
    st.floats(min_value=-85, max_value=85),
    st.floats(min_value=-179, max_value=179),
)


STRAIGHT = OfflineRouter(detour_factor=1.0, speed_kmh=30.0)


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


def test_route_estimate_invariant():
    with pytest.raises(ValueError):
        RouteEstimate(0.0, 5)


@given(points, points)
def test_symmetry_is_exact(a, b):
    assert great_circle_km(a, b) == great_circle_km(b, a)


@given(points, points, points)
@settings(max_examples=200)
def test_triangle_inequality(a, b, c):
    assert great_circle_km(a, c) <= great_circle_km(a, b) + great_circle_km(b, c) + 1e-6


@given(points, points)
def test_distance_against_oracle(a, b):
    got = great_circle_km(a, b)
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
    distance_km = great_circle_km(a, b) * 1.3
    assert router.distance_km(a, b) == distance_km
    assert router.route(a, b, multiplier) == RouteEstimate(
        distance_km, int(round(distance_km / (30.0 * multiplier) * 60.0))
    )
