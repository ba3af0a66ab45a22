from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargesim.config import ScenarioConfig
from chargesim.domain import (
    ActionType,
    BehaviorRecord,
    ChargeScenario,
    DailyPlan,
    DecisionQuintuple,
    GeoPoint,
    PlanEvent,
    PlanEventKind,
    ReflectionReport,
    ScoredNote,
    SimClock,
    canonical_json,
    from_data,
    to_data,
)
from chargesim.engine import run
from chargesim.environment import EvState
from chargesim.georoute import EARTH_RADIUS_KM, bounding_box_deg
from chargesim.memory import MemoryStore
from chargesim.perception import PerceptionSnapshot, StationPerception, TravelPerception
from chargesim.providers import (
    BaselineWeights,
    DecisionRequest,
    LiveProvider,
    MockProvider,
    ProviderError,
    SchemaError,
    baseline_decision,
    choose_station,
    parse_decision_payload,
    validate_decision,
)
from chargesim.providers.live import LiveSettings
from chargesim.providers.mock import (
    PLAN_TEMPLATE_SHAPES,
    _random_point_near,
    home_point_for,
    template_problems,
)
from faults import FaultInjectingProvider
from oracles import (
    NoCandidateError,
    oracle_plan_day,
    oracle_random_point_near,
    oracle_request_text,
    oracle_station_choice,
)

CENTER = GeoPoint(31.2304, 121.4737)


def make_station(
    station_id="st-01",
    distance_km=2.0,
    price=0.35,
    wait=0,
    power=60.0,
    off_peak=True,
):
    return StationPerception(
        station_id=station_id,
        free_piles=2,
        travel_minutes=int(round(distance_km / 30.0 * 60.0)),
        predicted_queue_minutes=wait,
        charge_minutes=30,
        distance_km=distance_km,
        pile_power_kw=power,
        price_per_kwh=price,
        off_peak=off_peak,
    )


def make_request(
    persona,
    soc_kwh=30.0,
    stations=(),
    now=600,
    next_event_start=700,
):
    capacity = persona.vehicle.battery_capacity_kwh
    travel = TravelPerception(
        congestion_multiplier=1.0,
        now=now,
        next_event_start=next_event_start,
        location=CENTER,
        next_destination=None,
        distance_to_next_km=0.0,
        soc_kwh=soc_kwh,
        soc_fraction=soc_kwh / capacity,
    )
    snapshot = PerceptionSnapshot(travel=travel, stations=tuple(stations))
    return DecisionRequest(persona, snapshot, SimClock(now), MemoryStore(), ())


def make_ev(persona, soc_kwh):
    return EvState(
        agent_id=persona.id,
        location=CENTER,
        soc_kwh=soc_kwh,
        capacity_kwh=persona.vehicle.battery_capacity_kwh,
        max_charge_power_kw=persona.vehicle.max_charge_power_kw,
    )


# ---------------------------------------------------------------------------
# Mock persona generation
# ---------------------------------------------------------------------------


class TestMockPersona:
    def test_same_seed_gives_identical_persona(self):
        provider = MockProvider()
        assert provider.generate_persona(42, {}) == provider.generate_persona(42, {})

    def test_seed_batch_is_valid_and_diverse(self):
        from chargesim.domain import validate_persona

        provider = MockProvider()
        personas = [provider.generate_persona(seed, {}) for seed in range(1, 11)]
        assert all(validate_persona(p) == [] for p in personas)
        assert len(set(personas)) > 1
        occupations = {p.demographics.occupation for p in personas}
        assert len(occupations) >= 2

    def test_template_overrides_apply(self):
        provider = MockProvider()
        persona = provider.generate_persona(
            1, {"occupations": ["bus driver"], "battery_capacity_choices": [60.0]}
        )
        assert persona.demographics.occupation == "bus driver"
        assert persona.vehicle.battery_capacity_kwh == 60.0


# ---------------------------------------------------------------------------
# Mock planning
# ---------------------------------------------------------------------------


class TestMockPlan:
    def test_same_inputs_give_identical_plan(self, persona):
        provider = MockProvider()
        assert provider.plan_day(persona, 2, 42) == provider.plan_day(persona, 2, 42)

    def test_different_days_differ(self, persona):
        provider = MockProvider()
        assert provider.plan_day(persona, 0, 42) != provider.plan_day(persona, 1, 42)

    def test_events_strictly_increasing(self, persona):
        plan = MockProvider().plan_day(persona, 0, 42)
        starts = [e.start for e in plan.events]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_total_distance_within_template_bounds(self, persona):
        provider = MockProvider()
        for seed in range(100):
            plan = provider.plan_day(persona, 0, seed)
            total_km = sum(event.expected_distance_km for event in plan.events)
            assert 100.0 <= total_km <= 400.0, f"seed {seed}: {total_km:.1f} km"

    # sha256 of canonical_json([to_data(plan)]) for 3 personas x days 0-2, seed 42
    @pytest.mark.parametrize(
        "template, digest",
        [
            pytest.param(
                {},
                "86553e1e37d3dcc10cefadeb3cbf7712e884c9b28459fa2d1212057620f4a3b4",
                id="default",
            ),
            pytest.param(
                {"area_radius_km": 60.0},
                "4591f82f12ce3d7fe6fe47d40c92223398ec56eb316e4b1d5c2b45525d4e943b",
                id="area-60km",
            ),
            pytest.param(
                {"area_radius_km": 0.5},
                "e7eaeab5f70817a207b30f10f28f6128923d69405e1210b03cce753161e53cf4",
                id="area-0.5km",
            ),
            pytest.param(
                {"center": [69.65, 18.96]},
                "162cb6f44cf12345878fb84292ed66fed6e499108fb5c9dd8f84d54b9557b095",
                id="tromso",
            ),
        ],
    )
    def test_plans_match_their_pinned_digests(self, template, digest):
        provider = MockProvider(plan_template=template)
        personas = [MockProvider().generate_persona(seed, {}) for seed in range(3)]
        plans = [provider.plan_day(p, day, 42) for p in personas for day in range(3)]
        text = canonical_json([to_data(plan) for plan in plans])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("template", [{}, {"center": [69.65, 18.96], "area_radius_km": 60.0}])
    def test_home_is_home_point_for_in_the_plan_area_once_per_id(self, template):
        provider = MockProvider(plan_template=template)
        for persona_id in ("agent-00", "agent-01", "car-1"):
            home = provider.home(persona_id)
            assert home == home_point_for(persona_id, provider.center, provider.area_radius_km)
            assert provider.home(persona_id) is home


def _wrap_lon(lon: float) -> float:
    return lon if -180.0 <= lon <= 180.0 else (lon + 180.0) % 360.0 - 180.0


@st.composite
def sampler_calls(draw):
    """(origin, hop_km, center, radius_km): centres anywhere, many of them
    within 5 degrees of a pole or 1 degree of the +-180 meridian, and
    origins either anywhere or within 0.3 degrees of the centre."""
    lat = st.one_of(
        st.floats(-90, 90), st.floats(85, 90), st.floats(-90, -85), st.sampled_from([90.0, -90.0])
    )
    lon = st.one_of(st.floats(-180, 180), st.floats(179, 180), st.floats(-180, -179))
    center = GeoPoint(draw(lat), draw(lon))
    if draw(st.booleans()):
        origin = GeoPoint(draw(lat), draw(lon))
    else:
        near = st.floats(-0.3, 0.3)
        origin = GeoPoint(
            min(90.0, max(-90.0, center.latitude + draw(near))),
            _wrap_lon(center.longitude + draw(near)),
        )
    hop_km = draw(st.one_of(st.just(0.0), st.floats(0, 30), st.floats(0, 500)))
    radius_km = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-9, math.pi * EARTH_RADIUS_KM, 25_000.0]),
            st.floats(0, 50),
            st.floats(0, 25_000),
        )
    )
    return origin, hop_km, center, radius_km


def _boxed_random_point_near(rng, origin, distance_km, center, max_radius_km):
    """_random_point_near with the box that plan_day computes once per centre and radius."""
    box = bounding_box_deg(center.latitude, center.longitude, max_radius_km)
    return _random_point_near(rng, origin, distance_km, center, max_radius_km, box)


def _sample(sampler, seed, call):
    rng = random.Random(seed)
    try:
        outcome = sampler(rng, *call)
    except ValueError as exc:  # an accepted candidate off the globe
        outcome = (type(exc), str(exc))
    return outcome, rng.getstate()


SHANGHAI_EDGE = GeoPoint(31.2304 + 7.5 * 0.008993, 121.4737)


@given(sampler_calls(), st.integers(0, 2**32))
@settings(max_examples=400)
@example((SHANGHAI_EDGE, 12.0, CENTER, 8.0), 1)  # the plan area: most candidates land outside
@example((GeoPoint(89.9, 30.0), 5.0, GeoPoint(90.0, 0.0), 20.0), 2)  # centre on the pole
@example((GeoPoint(-86.05, 45.2), 3.0, GeoPoint(-86.0, 45.0), 10.0), 3)  # |lat| >= 85, boxed
@example((GeoPoint(0.0, -179.99), 1.0, GeoPoint(0.0, 179.9999), 10.0), 4)  # across +-180
@example((GeoPoint(89.0, -100.0), 300.0, GeoPoint(88.3, 80.0), 30.0), 1)  # a hop past the pole
@example((CENTER, 0.0, CENTER, 0.0), 5)  # hop 0, radius 0: the first candidate is the centre
@example((CENTER, 0.0, CENTER, 1e-9), 6)
@example((SHANGHAI_EDGE, 0.0, CENTER, 1.0), 7)  # hop 0 outside the radius: the fallback
@example((GeoPoint(-30.0, 100.0), 300.0, GeoPoint(10.0, 20.0), math.pi * EARTH_RADIUS_KM), 8)
def test_random_point_near_matches_the_unfiltered_oracle(call, seed):
    """Same point (or exception type and message) and same rng state as
    haversining every candidate, whatever the box does."""
    boxed = _sample(_boxed_random_point_near, seed, call)
    assert boxed == _sample(oracle_random_point_near, seed, call)


@given(
    st.integers(0, 2**64),
    st.floats(-1e9, 1e9),
    st.floats(-1e9, 1e9),
    st.integers(-(10**9), 10**9),
    st.one_of(st.integers(0, 30), st.integers(0, 2**70)),
)
def test_the_planners_draws_are_the_random_modules_own(seed, a, b, lo, width):
    """plan_day draws a hop as a + (b - a) * rng.random() and a gap as
    rng.randrange(lo, hi + 1): on this interpreter, the very floats and ints
    of rng.uniform(a, b) and rng.randint(lo, hi), leaving the generator in
    the same state."""
    by_module, inlined = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert by_module.uniform(a, b).hex() == (a + (b - a) * inlined.random()).hex()
        assert by_module.randint(lo, lo + width) == inlined.randrange(lo, lo + width + 1)
    assert by_module.getstate() == inlined.getstate()


@st.composite
def plan_templates(draw):
    """Plan templates that vary what plan_day draws from: an evening shift
    never, always or sometimes drawn, gap ranges of one value or wider, trip
    lengths down to hops too short to take a minute, and the plan area."""
    gap_lo = draw(st.integers(0, 30))
    trip_lo = draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0)))
    return {
        "evening_shift_probability": draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))),
        "gap_minutes_range": [gap_lo, gap_lo + draw(st.one_of(st.just(0), st.integers(0, 20)))],
        "trip_km_range": [trip_lo, trip_lo + draw(st.floats(0.0, 15.0))],
        "area_radius_km": draw(st.floats(0.5, 30.0)),
    }


PLANNER_PERSONA = MockProvider().generate_persona(0, {})


@given(
    plan_templates(),
    st.one_of(st.from_regex(r"agent-[0-9]{2,3}", fullmatch=True), st.text(min_size=1)),
    st.integers(0, 10_000),
    st.one_of(st.integers(-(2**63), 2**63), st.text(max_size=8)),
)
@settings(max_examples=150)
@example({"evening_shift_probability": 0.0, "gap_minutes_range": [5, 5]}, "agent-00", 0, 42)
@example({"evening_shift_probability": 1.0, "gap_minutes_range": [5, 5]}, "agent-07", 3, 42)
@example({"evening_shift_probability": 1.0, "gap_minutes_range": [0, 0]}, "agent-01", 1, 7)
# a gap range wider than any sequence's length: the draw takes no len() of it
@example({"gap_minutes_range": [0, 2**64]}, "agent-02", 0, 42)
def test_plan_day_matches_the_first_written_planner(template, persona_id, day_index, seed):
    """Same plan as the planner that drew with rng.uniform and rng.randint and
    derived the home on every call, on a provider's first plan for the
    persona and on a later one, which reads the home it kept."""
    assert template_problems(template, PLAN_TEMPLATE_SHAPES) == {}
    persona = replace(PLANNER_PERSONA, id=persona_id)
    provider = MockProvider(plan_template=template)
    expected = oracle_plan_day(template, persona, day_index, seed)
    assert provider.plan_day(persona, day_index, seed) == expected
    assert provider.plan_day(persona, day_index, seed) == expected


# ---------------------------------------------------------------------------
# Baseline decision rule
# ---------------------------------------------------------------------------


class TestBaselineDecision:
    def test_low_soc_triggers_charge(self, persona):
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])  # 10 percent
        response = MockProvider().decide(request)
        assert response.decision is True
        assert response.quintuple.station_id == "st-01"
        assert response.quintuple.scenario is ChargeScenario.EN_ROUTE

    def test_full_battery_skips(self, persona):
        request = make_request(persona, soc_kwh=75.0, stations=[make_station()])
        response = MockProvider().decide(request)
        assert response.decision is False
        assert response.quintuple.amount_kwh == 0.0

    def test_no_stations_skips_even_when_anxious(self, persona):
        request = make_request(persona, soc_kwh=7.5, stations=[])
        response = MockProvider().decide(request)
        assert response.decision is False

    def test_opportunistic_needs_idle_window_and_off_peak(self, persona):
        station = make_station(off_peak=True)
        # soc 60 percent, below the 85 percent target, idle long enough, off-peak
        request = make_request(persona, soc_kwh=45.0, stations=[station], next_event_start=700)
        assert MockProvider().decide(request).decision is True
        # not enough idle time
        request = make_request(persona, soc_kwh=45.0, stations=[station], next_event_start=620)
        assert MockProvider().decide(request).decision is False
        # peak price
        peak = make_station(price=1.07, off_peak=False)
        request = make_request(persona, soc_kwh=45.0, stations=[peak], next_event_start=700)
        assert MockProvider().decide(request).decision is False
        # no further events today counts as a free evening
        request = make_request(persona, soc_kwh=45.0, stations=[station], next_event_start=None)
        assert MockProvider().decide(request).decision is True

    def test_amount_targets_typical_soc(self, persona):
        request = make_request(persona, soc_kwh=45.0, stations=[make_station()])
        response = MockProvider().decide(request)
        assert response.quintuple.amount_kwh == pytest.approx(0.85 * 75.0 - 45.0)

    def test_a_threshold_above_the_usual_target_tops_up_to_the_threshold(self, persona):
        # anxious at 60 percent, though already past its usual 50 percent target
        persona = replace(
            persona,
            psychology=replace(persona.psychology, range_anxiety_threshold=0.9),
            habits=replace(persona.habits, typical_target_soc=0.5),
        )
        request = make_request(persona, soc_kwh=45.0, stations=[make_station()])
        response = baseline_decision(request, BaselineWeights())
        assert response.decision is True
        assert response.quintuple.scenario is ChargeScenario.EN_ROUTE
        assert response.quintuple.amount_kwh == pytest.approx(0.9 * 75.0 - 45.0)

    @pytest.mark.parametrize("weight", ["distance", "price", "wait"])
    def test_nan_or_negative_weight_rejected(self, weight):
        for bad in (math.nan, -0.1):
            with pytest.raises(ValueError):
                BaselineWeights(**{weight: bad})

    def test_station_choice_matches_exhaustive_oracle(self, persona):
        rng = random.Random(99)
        weights = BaselineWeights()
        for _ in range(300):
            stations = [
                make_station(
                    station_id=f"st-{i:02d}",
                    distance_km=rng.uniform(0.1, 6.0),
                    price=rng.choice([0.35, 0.62, 1.07]),
                    wait=rng.randint(0, 45),
                )
                for i in range(rng.randint(1, 8))
            ]
            chosen = choose_station(stations, weights)
            expected = oracle_station_choice(
                [
                    {
                        "station_id": s.station_id,
                        "distance_km": s.distance_km,
                        "price_per_kwh": s.price_per_kwh,
                        "predicted_queue_minutes": s.predicted_queue_minutes,
                    }
                    for s in stations
                ],
                (weights.distance, weights.price, weights.wait),
            )
            assert chosen.station_id == expected

    def test_oracle_rejects_empty_candidates(self):
        with pytest.raises(NoCandidateError):
            oracle_station_choice([], (0.5, 0.3, 0.2))
        assert choose_station([], BaselineWeights()) is None

    def test_single_candidate_is_chosen(self):
        only = [{"station_id": "st-09", "distance_km": 1.0, "price_per_kwh": 1.0,
                 "predicted_queue_minutes": 0}]
        assert oracle_station_choice(only, (0.5, 0.3, 0.2)) == "st-09"
        lone = make_station(station_id="st-09")
        assert choose_station([lone], BaselineWeights()) is lone
        assert choose_station((lone,), BaselineWeights()) is lone

    def test_tie_breaks_by_station_id(self, persona):
        weights = BaselineWeights()
        twins = [
            make_station(station_id="st-b", distance_km=2.0, wait=5),
            make_station(station_id="st-a", distance_km=2.0, wait=5),
        ]
        assert choose_station(twins, weights).station_id == "st-a"


# ---------------------------------------------------------------------------
# Mock reflection
# ---------------------------------------------------------------------------


class TestMockReflect:
    def test_calm_day_scores_full_adherence(self, persona):
        provider = MockProvider()
        plan = provider.plan_day(persona, 0, 1)
        from chargesim.domain import ActionType, BehaviorRecord, DecisionQuintuple

        records = [
            BehaviorRecord(
                action=ActionType.TRAVEL,
                object_id=f"route-{i}",
                timestamp=500 + i,
                quintuple=DecisionQuintuple(
                    False, ChargeScenario.PUBLIC, 500 + i, None, 0.0, 0.0, 0.0
                ),
                reason="trip",
            )
            for i in range(len(plan.events))
        ]
        report = provider.reflect(records, persona, plan)
        assert report.day_index == 0
        assert report.plan_adherence.score == 1.0
        assert not report.fallback

    def test_empty_day_with_empty_plan(self, persona):
        report = MockProvider().reflect([], persona, DailyPlan(3, ()))
        assert report.day_index == 3
        assert report.plan_adherence.score == 1.0

    def test_scores_always_in_range(self, persona):
        provider = MockProvider()
        rng = random.Random(5)
        from chargesim.domain import ActionType, BehaviorRecord, DecisionQuintuple

        for trial in range(20):
            records = []
            t = trial * 1440
            for _ in range(rng.randint(0, 12)):
                t += rng.randint(1, 100)
                if rng.random() < 0.4:
                    records.append(
                        BehaviorRecord(
                            action=ActionType.START_CHARGING,
                            object_id="st-01",
                            timestamp=t,
                            quintuple=DecisionQuintuple(
                                True,
                                ChargeScenario.PUBLIC,
                                t + rng.randint(0, 300),
                                "st-01",
                                rng.uniform(1.0, 60.0),
                                rng.choice([7.0, 60.0, 120.0]),
                                rng.choice([0.35, 0.62, 1.07]),
                            ),
                            reason="r",
                        )
                    )
                else:
                    records.append(
                        BehaviorRecord(
                            action=ActionType.TRAVEL,
                            object_id="route",
                            timestamp=t,
                            quintuple=DecisionQuintuple(
                                False, ChargeScenario.PUBLIC, t, None, 0.0, 0.0, 0.0
                            ),
                            reason="trip",
                        )
                    )
            plan = provider.plan_day(persona, trial, trial)
            report = provider.reflect(records, persona, plan)
            for note in (report.plan_adherence, report.satisfaction, report.persona_consistency):
                assert 0.0 <= note.score <= 1.0

    def test_satisfaction_text_mentions_every_aspect(self, persona):
        from chargesim.domain import ActionType, BehaviorRecord, DecisionQuintuple

        record = BehaviorRecord(
            action=ActionType.START_CHARGING,
            object_id="st-01",
            timestamp=700,
            quintuple=DecisionQuintuple(
                True, ChargeScenario.PUBLIC, 720, "st-01", 30.0, 60.0, 0.62
            ),
            reason="r",
        )
        report = MockProvider().reflect([record], persona, DailyPlan(0, ()))
        text = report.satisfaction.text
        for aspect in ("time", "station", "amount", "power", "price"):
            assert aspect in text


# ---------------------------------------------------------------------------
# Decision payload validation
# ---------------------------------------------------------------------------


VALID_PAYLOAD = {
    "decision": True,
    "scenario": "public",
    "time_minutes": 620,
    "station_id": "st-01",
    "amount_kwh": 20.0,
    "power_kw": 60.0,
    "price_per_kwh": 0.62,
    "reason": "cheap and close",
}
SKIP_PAYLOAD = {
    **VALID_PAYLOAD,
    "decision": False,
    "station_id": None,
    "amount_kwh": 0.0,
    "power_kw": 0.0,
    "price_per_kwh": 0.0,
    "reason": "enough charge for the day",
}


class TestDecisionValidation:
    def test_valid_payload_parses(self):
        response = parse_decision_payload(VALID_PAYLOAD)
        assert response.decision and response.quintuple.station_id == "st-01"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"decision": "yes"},
            {"scenario": "garage"},
            {"amount_kwh": -3.0},
            {"time_minutes": "soon"},
            {"station_id": 7},
            {"reason": None},
        ],
    )
    def test_malformed_payloads_raise(self, mutation):
        payload = {**VALID_PAYLOAD, **mutation}
        with pytest.raises(SchemaError):
            parse_decision_payload(payload)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"decision": "yes"}, "decision must be a bool, got 'yes'"),
            ({"scenario": "garage"}, "scenario: 'garage' is not a valid ChargeScenario"),
            ({"time_minutes": "soon"}, "time_minutes: invalid literal for int()"),
            ({"station_id": 7}, "station_id must be a str, got 7"),
            ({"reason": None}, "reason must be a str, got None"),
        ],
    )
    def test_a_malformed_payload_names_its_field(self, mutation, message):
        with pytest.raises(SchemaError) as raised:
            parse_decision_payload({**VALID_PAYLOAD, **mutation})
        assert str(raised.value).startswith(f"decision payload malformed: {message}")

    def test_missing_key_raises(self):
        payload = dict(VALID_PAYLOAD)
        del payload["power_kw"]
        with pytest.raises(SchemaError, match="power_kw"):
            parse_decision_payload(payload)

    def test_non_object_raises(self):
        with pytest.raises(SchemaError):
            parse_decision_payload([1, 2, 3])

    def test_unknown_station_rejected(self, persona):
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload({**VALID_PAYLOAD, "station_id": "st-99"})
        with pytest.raises(SchemaError, match="st-99"):
            validate_decision(response, request.snapshot, make_ev(persona, 30.0))

    def test_amount_beyond_headroom_rejected(self, persona):
        request = make_request(persona, soc_kwh=70.0, stations=[make_station()])
        response = parse_decision_payload({**VALID_PAYLOAD, "amount_kwh": 20.0})
        with pytest.raises(SchemaError, match="exceeds remaining capacity"):
            validate_decision(response, request.snapshot, make_ev(persona, 70.0))

    @pytest.mark.parametrize("amount", ["nan", float("nan")])
    def test_nan_amount_rejected(self, persona, amount):
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload({**VALID_PAYLOAD, "amount_kwh": amount})
        with pytest.raises(SchemaError, match="positive amount"):
            validate_decision(response, request.snapshot, make_ev(persona, 30.0))

    @pytest.mark.parametrize("key", ["power_kw", "price_per_kwh"])
    @pytest.mark.parametrize("value", [float("nan"), "nan", float("inf"), "Infinity"])
    def test_non_finite_power_and_price_rejected(self, persona, key, value):
        # such a value would otherwise reach behavior.log as NaN or Infinity;
        # a negative one fails the quintuple's own check when parsed
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload({**VALID_PAYLOAD, key: value})
        with pytest.raises(SchemaError, match=f"{key} must be finite and at least 0"):
            validate_decision(response, request.snapshot, make_ev(persona, 30.0))

    @pytest.mark.parametrize("key", ["power_kw", "price_per_kwh"])
    @pytest.mark.parametrize("value", [float("nan"), "nan", float("inf"), "Infinity"])
    def test_non_finite_power_and_price_of_a_skip_rejected(self, persona, key, value):
        # a skip charges nothing, but its quintuple still reaches behavior.log
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload({**SKIP_PAYLOAD, key: value})
        with pytest.raises(SchemaError, match=f"{key} must be finite and at least 0"):
            validate_decision(response, request.snapshot, make_ev(persona, 30.0))

    def test_finite_skip_passes_semantic_gate(self, persona):
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload(SKIP_PAYLOAD)
        validate_decision(response, request.snapshot, make_ev(persona, 30.0))

    @pytest.mark.parametrize("key", ["power_kw", "price_per_kwh"])
    def test_zero_power_and_price_pass(self, persona, key):
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload({**VALID_PAYLOAD, key: 0.0})
        validate_decision(response, request.snapshot, make_ev(persona, 30.0))

    def test_valid_decision_passes_semantic_gate(self, persona):
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = parse_decision_payload(VALID_PAYLOAD)
        validate_decision(response, request.snapshot, make_ev(persona, 30.0))


class TestDecisionRequestSerialization:
    def test_payload_has_stable_key_order(self, persona):
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        twin = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        assert request.to_json() == twin.to_json()
        payload = json.loads(request.to_json())
        assert set(payload) == {
            "persona",
            "plan_events",
            "perception",
            "short_memory",
            "long_memory_daily",
            "clock",
        }
        # serialized form sorts keys, so equal requests serialize identically
        assert request.to_json() == json.dumps(
            json.loads(request.to_json()), sort_keys=True, separators=(",", ":")
        )

    def test_fixed_request_text_matches_its_pin(self, persona):
        # sha256 of one request that touches every part of the payload:
        # plan events, two stations, a set destination, a short-memory record
        # whose reason needs escaping, and a long-memory aggregate
        travel = TravelPerception(
            congestion_multiplier=1.3,
            now=600,
            next_event_start=720,
            location=CENTER,
            next_destination=GeoPoint(31.25, 121.5),
            distance_to_next_km=3.2,
            soc_kwh=30.0,
            soc_fraction=0.4,
        )
        stations = (
            make_station("st-01", distance_km=1.25, price=0.35, wait=0),
            make_station("st-02", distance_km=2.5, price=0.42, wait=5, power=120.0, off_peak=False),
        )
        record = BehaviorRecord(
            action=ActionType.START_CHARGING,
            object_id="st-01",
            timestamp=540,
            quintuple=DecisionQuintuple(True, ChargeScenario.PUBLIC, 560, "st-01", 12.5, 60.0, 0.35),
            reason='cheap "off-peak" \\ café\n',
        )
        memory = MemoryStore()
        memory.append(record)
        event = PlanEvent(PlanEventKind.TRIP, CENTER, GeoPoint(31.25, 121.5), 720, 3.2)
        snapshot = PerceptionSnapshot(travel=travel, stations=stations)
        request = DecisionRequest(persona, snapshot, SimClock(600), memory, [(0, event)])
        assert request.plan_events == (event,) and request.short_records == (record,)
        assert request.long_aggregates == (
            {"day_index": 0, "charge_count": 1, "total_kwh": 12.5, "mean_price_per_kwh": 0.35},
        )
        text = request.to_json()
        assert text == oracle_request_text(persona, snapshot, [record], [(0, event)], 600)
        assert f'"perception":{request.snapshot.to_json()},' in text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == (
            "04a7b3bf7a08839e2d693f7a7a2021ef1d9dd234ce95d61d1919922100922174"
        )


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_rate_zero_is_passthrough(self, persona):
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])
        clean = MockProvider().decide(request)
        wrapped = FaultInjectingProvider(MockProvider(), rate=0.0, seed=1)
        assert wrapped.decide(request) == clean

    def test_rate_one_always_corrupts(self, persona):
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])
        wrapped = FaultInjectingProvider(MockProvider(), rate=1.0, seed=1)
        failures = 0
        for _ in range(6):
            try:
                response = wrapped.decide(request)
                validate_decision(response, request.snapshot, make_ev(persona, 7.5))
            except SchemaError:
                failures += 1
        assert failures == 6
        assert wrapped.injected == 6

    def test_injection_is_deterministic(self, persona):
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])

        def outcomes(seed):
            wrapped = FaultInjectingProvider(MockProvider(), rate=0.5, seed=seed)
            trace = []
            for _ in range(20):
                try:
                    wrapped.decide(request)
                    trace.append("ok")
                except SchemaError:
                    trace.append("schema")
            return trace

        assert outcomes(3) == outcomes(3)


# ---------------------------------------------------------------------------
# Live provider (transport mocked; no network)
# ---------------------------------------------------------------------------


class _FakeResponse:
    def __init__(self, content: str, status_code: int = 200):
        self.status_code = status_code
        self._content = content
        self.text = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class TestLiveProvider:
    def _provider(self):
        return LiveProvider(LiveSettings(base_url="https://llm.test/v1", api_key="k", timeout_s=1))

    def test_transport_retries_then_provider_error(self, persona, monkeypatch):
        calls = []

        def failing_post(url, **kwargs):
            calls.append(url)
            raise ConnectionError("refused")

        monkeypatch.setattr("requests.post", failing_post)
        monkeypatch.setattr("chargesim.providers.live.time.sleep", lambda _s: None)
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])
        with pytest.raises(ProviderError):
            self._provider().decide(request)
        assert len(calls) == 3  # first try plus two retries

    def _answering(self, monkeypatch, status_code: int) -> tuple[list, list]:
        """Make every request answer status_code; return the requests made and
        the sleeps taken."""
        calls, sleeps = [], []

        def fake_post(url, **kwargs):
            calls.append(url)
            return _FakeResponse("denied", status_code=status_code)

        monkeypatch.setattr("requests.post", fake_post)
        monkeypatch.setattr("chargesim.providers.live.time.sleep", sleeps.append)
        return calls, sleeps

    @pytest.mark.parametrize("status_code", [400, 401, 404])
    def test_a_rejected_request_is_not_retried(self, persona, monkeypatch, status_code):
        calls, sleeps = self._answering(monkeypatch, status_code)
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])
        with pytest.raises(ProviderError, match=f"request rejected with {status_code}: denied"):
            self._provider().decide(request)
        assert len(calls) == 1 and sleeps == []

    @pytest.mark.parametrize("status_code", [429, 503])
    def test_a_throttled_or_failing_server_is_retried(self, persona, monkeypatch, status_code):
        calls, sleeps = self._answering(monkeypatch, status_code)
        request = make_request(persona, soc_kwh=7.5, stations=[make_station()])
        with pytest.raises(ProviderError, match=f"server answered {status_code}"):
            self._provider().decide(request)
        assert len(calls) == 3 and sleeps == [0.5, 1.0]

    def test_malformed_then_repaired(self, persona, monkeypatch):
        replies = iter(
            [
                _FakeResponse("not json at all"),
                _FakeResponse(json.dumps(VALID_PAYLOAD)),
            ]
        )
        requests_seen = []

        def fake_post(url, **kwargs):
            requests_seen.append(kwargs["json"])
            return next(replies)

        monkeypatch.setattr("requests.post", fake_post)
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        response = self._provider().decide(request)
        assert response.quintuple.station_id == "st-01"
        assert len(requests_seen) == 2
        # the repair round-trip quotes the failure back to the model
        assert "invalid" in requests_seen[1]["messages"][-1]["content"]

    def test_two_bad_replies_raise_schema_error(self, persona, monkeypatch):
        replies = iter([_FakeResponse("{}"), _FakeResponse("{\"decision\": 1}")])
        monkeypatch.setattr("requests.post", lambda url, **kw: next(replies))
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        with pytest.raises(SchemaError):
            self._provider().decide(request)

    def test_a_null_reply_is_repaired(self, persona, monkeypatch):
        # a refusal answers with null content
        replies = iter([_FakeResponse(None), _FakeResponse(json.dumps(VALID_PAYLOAD))])
        monkeypatch.setattr("requests.post", lambda url, **kw: next(replies))
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        assert self._provider().decide(request).quintuple.station_id == "st-01"

    def test_two_null_replies_raise_schema_error(self, persona, monkeypatch):
        monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(None))
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        with pytest.raises(SchemaError, match="no text"):
            self._provider().decide(request)

    def test_a_run_of_null_replies_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(None))
        config = ScenarioConfig()
        config.num_agents = 1
        config.horizon_days = 1
        config.provider = "live"
        fallbacks = run(config, tmp_path / "run").summary["fallbacks"]
        assert fallbacks["personas"] == fallbacks["plans"] == fallbacks["reflections"] == 1
        assert fallbacks["decisions"] >= 1

    def test_json_fences_are_tolerated(self, persona, monkeypatch):
        wrapped = f"```json\n{json.dumps(VALID_PAYLOAD)}\n```"
        monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(wrapped))
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        assert self._provider().decide(request).decision is True

    def test_extract_json_reads_the_object_at_the_first_brace(self):
        # a reason that quotes a fence is kept whole, prose after the object is
        # ignored, and a reply with no object at its first "{" has none
        quoted = {"reason": "see ```json block```"}
        assert LiveProvider._extract_json(json.dumps(quoted)) == quoted
        assert LiveProvider._extract_json('{"a": 1} is my answer, not {"b": 2}') == {"a": 1}
        for reply in ("no object here", '{oops} {"a": 1}'):
            with pytest.raises(SchemaError, match="does not contain a JSON object"):
                LiveProvider._extract_json(reply)

    def _reply_always(self, monkeypatch, data) -> None:
        monkeypatch.setattr("requests.post", lambda url, **kw: _FakeResponse(json.dumps(data)))

    def test_plan_and_reflection_replies_become_their_values(self, persona, monkeypatch):
        plan = MockProvider().plan_day(persona, 3, 7)
        self._reply_always(monkeypatch, to_data(plan))
        assert self._provider().plan_day(persona, 3, 7) == plan
        report = ReflectionReport(
            day_index=3,
            plan_adherence=ScoredNote(1.0, "kept the plan"),
            satisfaction=ScoredNote(0.5, "queued at peak price"),
            persona_consistency=ScoredNote(0.75, "as usual"),
        )
        self._reply_always(monkeypatch, to_data(report))
        assert self._provider().reflect([], persona, plan) == report

    def test_a_reflection_reply_cannot_mark_itself_a_fallback(self, persona, monkeypatch):
        note = ScoredNote(0.5, "as planned")
        report = ReflectionReport(3, note, note, note)
        self._reply_always(monkeypatch, {**to_data(report), "fallback": True})
        got = self._provider().reflect([], persona, DailyPlan(day_index=3, events=()))
        assert got == report and got.fallback is False

    @pytest.mark.parametrize(
        "operation, reply, problem",
        [
            ("persona", {"id": "agent-00"}, "persona payload malformed"),
            # the fixture's persona without its id
            ("persona", lambda p: {**to_data(p), "id": ""}, "persona violates constraints"),
            (
                "persona",
                lambda p: {
                    **to_data(p), "demographics": {**to_data(p.demographics), "occupation": None}
                },
                "persona payload malformed: demographics.occupation must be a str",
            ),
            (
                "persona",
                lambda p: {**to_data(p), "id": 5},
                "persona payload malformed: id must be a str",
            ),
            ("plan", {"day_index": 3, "events": [{"kind": "trip"}]}, "plan payload malformed"),
            ("plan", {"day_index": 3, "events": [{"kind": "nap"}]}, "plan payload malformed"),
            ("reflect", {"day_index": 3}, "reflection payload malformed"),
            (
                "reflect",
                {
                    "day_index": 3,
                    "plan_adherence": {"score": "high", "text": ""},
                    "satisfaction": {"score": 1.0, "text": ""},
                    "persona_consistency": {"score": 1.0, "text": ""},
                },
                "reflection payload malformed",
            ),
            (
                "reflect",
                {
                    "day_index": 3,
                    "plan_adherence": {"score": 1.0, "text": ""},
                    "satisfaction": {"score": 1.0, "text": 5},
                    "persona_consistency": {"score": 1.0, "text": ""},
                },
                "reflection payload malformed: satisfaction.text must be a str",
            ),
        ],
    )
    def test_two_malformed_replies_raise_schema_error(
        self, persona, monkeypatch, operation, reply, problem
    ):
        if callable(reply):
            reply = reply(persona)
        self._reply_always(monkeypatch, reply)
        provider = self._provider()
        calls = {
            "persona": lambda: provider.generate_persona(1, {}),
            "plan": lambda: provider.plan_day(persona, 3, 7),
            "reflect": lambda: provider.reflect([], persona, DailyPlan(day_index=3, events=())),
        }
        with pytest.raises(SchemaError, match=f"still invalid after repair: {problem}"):
            calls[operation]()

    @pytest.mark.parametrize("number", ["1e999", "NaN", "1" + "0" * 400])
    @pytest.mark.parametrize("operation", ["persona", "plan", "decide", "reflect"])
    def test_a_number_no_float_holds_is_repaired_then_refused(
        self, persona, monkeypatch, operation, number
    ):
        # a valid reply, but for one number that the parse converts with int() or float()
        plan = MockProvider().plan_day(persona, 3, 7)
        note = {"score": 0.5, "text": ""}
        replies = {
            "persona": {**to_data(persona), "demographics": {
                **to_data(persona)["demographics"], "age": "NUMBER"}},
            "plan": {**to_data(plan), "day_index": "NUMBER"},
            "decide": {**VALID_PAYLOAD, "time_minutes": "NUMBER"},
            "reflect": {"day_index": "NUMBER", "plan_adherence": note, "satisfaction": note,
                        "persona_consistency": note},
        }
        reply = json.dumps(replies[operation]).replace('"NUMBER"', number)
        sent = []

        def fake_post(url, **kwargs):
            sent.append(kwargs)
            return _FakeResponse(reply)

        monkeypatch.setattr("requests.post", fake_post)
        provider = self._provider()
        calls = {
            "persona": lambda: provider.generate_persona(1, {}),
            "plan": lambda: provider.plan_day(persona, 3, 7),
            "decide": lambda: provider.decide(
                make_request(persona, soc_kwh=30.0, stations=[make_station()])
            ),
            "reflect": lambda: provider.reflect([], persona, plan),
        }
        with pytest.raises(SchemaError, match=f"still invalid after repair: reply holds {number}"):
            calls[operation]()
        assert len(sent) == 2  # the request and one repair round-trip

    def test_missing_key_raises_provider_error(self, persona, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        provider = LiveProvider(LiveSettings(base_url="https://llm.test/v1"))
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        with pytest.raises(ProviderError, match="LLM_API_KEY"):
            provider.decide(request)

    def test_persona_parse_and_validation(self, persona, monkeypatch):
        payload = to_data(persona)
        monkeypatch.setattr(
            "requests.post", lambda url, **kw: _FakeResponse(json.dumps(payload))
        )
        got = self._provider().generate_persona(1, {})
        assert got == persona

    def test_prompt_templates_loaded_from_directory(self, tmp_path, monkeypatch, persona):
        (tmp_path / "decide.txt").write_text("CUSTOM PROMPT {payload}", encoding="utf-8")
        seen = {}

        def fake_post(url, **kwargs):
            seen["system"] = kwargs["json"]["messages"][0]["content"]
            return _FakeResponse(json.dumps(VALID_PAYLOAD))

        monkeypatch.setattr("requests.post", fake_post)
        provider = LiveProvider(
            LiveSettings(base_url="https://llm.test/v1", api_key="k", prompts_dir=str(tmp_path))
        )
        request = make_request(persona, soc_kwh=30.0, stations=[make_station()])
        provider.decide(request)
        assert seen["system"].startswith("CUSTOM PROMPT")
