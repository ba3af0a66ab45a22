from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesim.domain import GeoPoint
from chargesim.georoute import OfflineRouter, RouteEstimate, estimate_route, great_circle_km
from oracles import oracle_great_circle_km

SHANGHAI = GeoPoint(31.2304, 121.4737)
PUDONG_AIRPORT = GeoPoint(31.1443, 121.8083)

points = st.builds(
    GeoPoint,
    st.floats(min_value=-85, max_value=85),
    st.floats(min_value=-179, max_value=179),
)


def test_identical_points_are_zero():
    estimate = estimate_route(SHANGHAI, SHANGHAI, detour_factor=1.0)
    assert estimate == RouteEstimate(0.0, 0)


def test_shanghai_pair_matches_independent_oracle():
    got = estimate_route(SHANGHAI, PUDONG_AIRPORT, detour_factor=1.0).distance_km
    want = oracle_great_circle_km(31.2304, 121.4737, 31.1443, 121.8083).value
    assert abs(got - want) / want < 0.005


def test_detour_factor_scales_linearly():
    base = estimate_route(SHANGHAI, PUDONG_AIRPORT, detour_factor=1.0).distance_km
    detoured = estimate_route(SHANGHAI, PUDONG_AIRPORT, detour_factor=1.3).distance_km
    assert detoured == pytest.approx(1.3 * base, abs=1e-12)


def test_travel_minutes_rounding():
    # 33.2375 km at 30 km/h is 66.475 min -> 66
    estimate = estimate_route(SHANGHAI, PUDONG_AIRPORT, detour_factor=1.0, speed_kmh=30.0)
    assert estimate.travel_minutes == int(round(estimate.distance_km / 30.0 * 60.0))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        estimate_route(SHANGHAI, PUDONG_AIRPORT, detour_factor=0.9)
    with pytest.raises(ValueError):
        estimate_route(SHANGHAI, PUDONG_AIRPORT, speed_kmh=0.0)


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
