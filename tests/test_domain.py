from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import chargesim
from chargesim.config import ScenarioConfig
from chargesim.domain import (
    ActionType,
    BehaviorRecord,
    ChargeScenario,
    ChargingHabits,
    DailyPlan,
    DecisionQuintuple,
    Demographics,
    Economics,
    Gender,
    GeoPoint,
    IncomeLevel,
    Persona,
    PlanEvent,
    PlanEventKind,
    Psychology,
    ReflectionReport,
    ScoredNote,
    SimClock,
    VehicleSpec,
    canonical_json,
    validate_persona,
)
from chargesim.engine import run
from chargesim.perception import PerceptionSnapshot, StationPerception, TravelPerception
from chargesim.providers.base import DecisionResponse
from oracles import (
    oracle_persona_dict,
    oracle_quintuple_dict,
    oracle_record_dict,
    same_json_tree,
)

SHANGHAI = GeoPoint(31.2304, 121.4737)
PUDONG = GeoPoint(31.1443, 121.8083)


class TestSimClock:
    def test_decomposition(self):
        clock = SimClock(3 * 1440 + 125)
        assert clock.day_index == 3
        assert clock.time_of_day == 125

    @given(st.integers(min_value=0, max_value=10**7))
    def test_day_and_time_recompose(self, sim_time):
        clock = SimClock(sim_time)
        assert clock.day_index * 1440 + clock.time_of_day == clock.sim_time

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            SimClock(12.5)  # type: ignore[arg-type]


class TestGeoPoint:
    @given(
        st.floats(min_value=-90, max_value=90),
        st.floats(min_value=-180, max_value=180),
    )
    def test_valid_bounds_accepted(self, lat, lon):
        point = GeoPoint(lat, lon)
        assert point.latitude == lat and point.longitude == lon

    @pytest.mark.parametrize(
        "lat,lon", [(90.01, 0.0), (-91.0, 0.0), (0.0, 180.5), (0.0, -181.0)]
    )
    def test_out_of_range_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestPointText:
    """GeoPoint.to_json keeps its text in a private slot that no comparison,
    hash, repr, copy or replace can tell apart from an unformatted point."""

    @given(
        st.one_of(
            st.floats(min_value=-90, max_value=90),
            st.sampled_from([-0.0, 90.0, -90.0, 5e-324, -5e-324, 1e-310, 0, -90, 45]),
        ),
        st.one_of(
            st.floats(min_value=-180, max_value=180),
            st.sampled_from([-0.0, 180.0, -180.0, 5e-324, -2.2e-308, 0, 180]),
        ),
    )
    @example(-0.0, -0.0)
    @example(90.0, 180.0)
    @example(-90.0, -180.0)
    @example(5e-324, -5e-324)
    def test_text_is_the_canonical_pair(self, lat, lon):
        point = GeoPoint(lat, lon)
        assert point.to_json() == canonical_json([lat, lon])
        assert point.to_json() is point.to_json()  # formatted once

    def test_the_text_changes_no_identity(self):
        plain = GeoPoint(-0.0, 5e-324)
        formatted = GeoPoint(-0.0, 5e-324)
        assert formatted.to_json() == "[-0.0,5e-324]"
        assert plain == formatted and hash(plain) == hash(formatted)
        assert repr(plain) == repr(formatted) == "GeoPoint(latitude=-0.0, longitude=5e-324)"
        for twin in (
            replace(formatted),
            pickle.loads(pickle.dumps(formatted)),
            pickle.loads(pickle.dumps(plain)),
            copy.deepcopy(formatted),
        ):
            assert twin == formatted and hash(twin) == hash(formatted)
            assert repr(twin) == repr(formatted)
            assert twin.to_json() == "[-0.0,5e-324]"
        assert replace(formatted, latitude=1.5).to_json() == "[1.5,5e-324]"
        with pytest.raises(TypeError):
            GeoPoint(0.0, 0.0, "[9,9]")  # type: ignore[call-arg]


class TestValidatePersona:
    def test_reference_persona_is_valid(self, persona):
        assert persona.vehicle.battery_capacity_kwh == 75.0
        assert validate_persona(persona) == []

    def test_zero_anxiety_threshold_flagged(self, persona):
        bad = replace(
            persona, psychology=replace(persona.psychology, range_anxiety_threshold=0.0)
        )
        violations = validate_persona(bad)
        assert any("range_anxiety_threshold" in v for v in violations)

    def test_negative_consumption_flagged(self, persona):
        bad = replace(
            persona, vehicle=replace(persona.vehicle, consumption_kwh_per_km=-0.1)
        )
        violations = validate_persona(bad)
        assert any("consumption_kwh_per_km" in v for v in violations)

    def test_all_violations_reported_at_once(self, persona):
        bad = replace(
            persona,
            psychology=replace(persona.psychology, range_anxiety_threshold=1.0, patience=2.0),
            economics=replace(persona.economics, price_sensitivity=-0.2),
        )
        violations = validate_persona(bad)
        assert len(violations) == 3

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
    )
    def test_fraction_ranges(self, sensitivity, target_soc):
        from chargesim.domain import ChargingHabits, Economics

        base_persona = _persona()
        candidate = replace(
            base_persona,
            economics=Economics(base_persona.economics.income_level, sensitivity),
            habits=ChargingHabits(
                base_persona.habits.preferred_window,
                base_persona.habits.preferred_scenario,
                target_soc,
            ),
        )
        violations = validate_persona(candidate)
        sensitivity_ok = 0.0 <= sensitivity <= 1.0
        target_ok = 0.0 < target_soc <= 1.0
        assert (not any("price_sensitivity" in v for v in violations)) == sensitivity_ok
        assert (not any("typical_target_soc" in v for v in violations)) == target_ok


def _persona():
    from chargesim.domain import (
        ChargingHabits,
        Demographics,
        Economics,
        Gender,
        IncomeLevel,
        Persona,
        Psychology,
        VehicleSpec,
    )

    return Persona(
        id="p",
        demographics=Demographics(30, Gender.MALE, "driver"),
        economics=Economics(IncomeLevel.MID, 0.5),
        psychology=Psychology(0.5, 0.2, 0.5),
        vehicle=VehicleSpec(75.0, 0.15, 60.0),
        habits=ChargingHabits((0, 360), ChargeScenario.PUBLIC, 0.85),
    )


class TestDecisionQuintuple:
    def test_negative_decision_forbids_station_and_amount(self):
        with pytest.raises(ValueError):
            DecisionQuintuple(False, ChargeScenario.PUBLIC, 0, "st-01", 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            DecisionQuintuple(False, ChargeScenario.PUBLIC, 0, None, 5.0, 0.0, 0.0)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            DecisionQuintuple(True, ChargeScenario.PUBLIC, 0, "st-01", -1.0, 10.0, 0.5)


class TestSharedNoChargeQuintuples:
    """no_charge shares one instance per scenario within the latest int minute."""

    def test_same_scenario_and_minute_give_the_same_object(self):
        first = DecisionQuintuple.no_charge(ChargeScenario.HOME, 10_001)
        assert DecisionQuintuple.no_charge(ChargeScenario.HOME, 10_001) is first
        work = DecisionQuintuple.no_charge(ChargeScenario.WORK, 10_001)
        assert work is not first and work.scenario is ChargeScenario.WORK
        assert DecisionQuintuple.no_charge(ChargeScenario.HOME, 10_001) is first

    def test_a_new_minute_gives_a_fresh_instance(self):
        first = DecisionQuintuple.no_charge(ChargeScenario.HOME, 10_001)
        later = DecisionQuintuple.no_charge(ChargeScenario.HOME, 10_002)
        assert later is not first and later.time_minutes == 10_002
        # the replaced instance drops its text and writes its fields again
        assert first._json is None
        assert first.to_json() == canonical_json(oracle_quintuple_dict(first))
        again = DecisionQuintuple.no_charge(ChargeScenario.HOME, 10_001)
        assert again == first and again is not first  # only the latest minute is kept

    def test_an_int_minute_is_never_conflated_with_another_type(self):
        """A minute equal to a shared one but not an int (5.0 == 5, True == 1)
        raises, whether or not that minute's instance is cached."""
        for minute, equal in ((5.0, 5), (True, 1)):
            shared = DecisionQuintuple.no_charge(ChargeScenario.PUBLIC, equal)
            with pytest.raises(ValueError, match="time_minutes must be an integer"):
                DecisionQuintuple.no_charge(ChargeScenario.PUBLIC, minute)
            with pytest.raises(ValueError, match="time_minutes must be an integer"):
                DecisionQuintuple(False, ChargeScenario.PUBLIC, minute, None, 0.0, 0.0, 0.0)
            assert DecisionQuintuple.no_charge(ChargeScenario.PUBLIC, equal) is shared
        with pytest.raises(ValueError, match="time_minutes must be an integer"):
            DecisionQuintuple.no_charge(ChargeScenario.PUBLIC, 2.0)  # nothing cached for 2

    @given(st.sampled_from(ChargeScenario), st.integers(min_value=0, max_value=2**63))
    def test_shared_and_unshared_write_the_same_text(self, scenario, minute):
        shared = DecisionQuintuple.no_charge(scenario, minute)
        unshared = DecisionQuintuple(False, scenario, minute, None, 0.0, 0.0, 0.0)
        assert unshared == shared and unshared is not shared
        assert shared.to_json() == unshared.to_json()
        assert shared.to_json() == canonical_json(oracle_quintuple_dict(unshared))

    def test_an_equal_quintuple_writes_its_own_fields(self):
        shared = DecisionQuintuple.no_charge(ChargeScenario.PUBLIC, 7)
        negative_zero = DecisionQuintuple(False, ChargeScenario.PUBLIC, 7, None, -0.0, 0.0, 0.0)
        assert negative_zero == shared
        assert negative_zero.to_json() == canonical_json(oracle_quintuple_dict(negative_zero))
        assert '"amount_kwh":-0.0' in negative_zero.to_json()
        assert '"amount_kwh":0.0' in shared.to_json()

    def test_runs_in_one_process_give_identical_digests(self, tmp_path):
        """The shared instances live at module level; a run of another config
        between two runs of one config changes neither's bytes."""
        config = ScenarioConfig()
        config.num_agents = 3
        config.horizon_days = 2
        other = ScenarioConfig()
        other.num_agents = 2
        other.horizon_days = 3
        other.seed = 7
        other.initial_soc_kwh = 5.0
        first = run(config, tmp_path / "first")
        run(other, tmp_path / "other")
        second = run(config, tmp_path / "second")
        assert second.behavior_digest == first.behavior_digest
        assert second.reflections_digest == first.reflections_digest


# text the JSON escaper must handle: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates. Code points are drawn directly, ASCII
# half the time: st.text() builds Hypothesis's Unicode tables on first use,
# which in a fresh checkout takes longer than its too_slow health check allows.
awkward_text = st.one_of(
    st.lists(st.one_of(st.integers(0, 0x7F), st.integers(0x80, 0x10FFFF)).map(chr)).map("".join),
    st.sampled_from(['st-"01"', "back\\slash", "\x00\x1f\x7f\n\t", "café ☃ 𝄞", "\ud800", ""]),
)
# the quintuple's amounts may not be negative; NaN and +inf pass that check
non_negative_float = st.one_of(
    st.floats(min_value=0.0),
    st.sampled_from([-0.0, 5e-324, 1e22, math.nan, math.inf]),
)
minutes = st.integers(min_value=0, max_value=2**63)


@st.composite
def quintuples(draw):
    decision = draw(st.booleans())
    return DecisionQuintuple(
        decision=decision,
        scenario=draw(st.sampled_from(ChargeScenario)),
        time_minutes=draw(minutes),
        station_id=draw(st.none() | awkward_text) if decision else None,
        amount_kwh=draw(non_negative_float) if decision else draw(st.sampled_from([0.0, -0.0])),
        power_kw=draw(non_negative_float),
        price_per_kwh=draw(non_negative_float),
    )


records = st.builds(
    BehaviorRecord,
    action=st.sampled_from(ActionType),
    object_id=awkward_text,
    timestamp=minutes,
    quintuple=quintuples(),
    reason=awkward_text,
)


any_float = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e22]))
personas = st.builds(
    Persona,
    id=awkward_text,
    demographics=st.builds(
        Demographics, st.integers(), st.sampled_from(Gender), awkward_text
    ),
    economics=st.builds(Economics, st.sampled_from(IncomeLevel), any_float),
    psychology=st.builds(Psychology, any_float, any_float, any_float),
    vehicle=st.builds(VehicleSpec, any_float, any_float, any_float),
    habits=st.builds(
        ChargingHabits,
        st.tuples(st.integers(), st.integers()),
        st.sampled_from(ChargeScenario),
        any_float,
    ),
)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200) | st.integers(max_value=-(2**63)),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, float("nan"), float("inf"), float("-inf")]),
    awkward_text,
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(awkward_text, children, max_size=4),
    max_leaves=20,
)


class TestCanonicalWriters:
    @given(json_trees)
    @example({"é": ["ü", -0.0, float("nan"), 2**64, {"b": float("-inf"), "a": None}]})
    def test_canonical_json_matches_json_dumps(self, tree):
        assert canonical_json(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":"))

    def test_canonical_json_without_the_c_encoder(self):
        # json.encoder.c_make_encoder is None where the _json accelerator is missing
        code = (
            "import json, json.encoder; json.encoder.c_make_encoder = None\n"
            "from chargesim.domain import canonical_json\n"
            "tree = {'\u00e9': [float('nan'), -0.0, 2**70, {'b': 1, 'a': None}]}\n"
            "assert canonical_json(tree) == json.dumps(tree, sort_keys=True, separators=(',', ':'))\n"
            "assert canonical_json.__self__.__class__ is json.JSONEncoder\n"
        )
        paths = [str(Path(chargesim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, [b"bytes"], {("t",): 1}])
    def test_canonical_json_rejects_what_json_cannot_write(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, separators=(",", ":"))

    @given(personas)
    def test_persona_dict_matches_the_asdict_oracle(self, persona):
        expected = oracle_persona_dict(persona)
        got = persona.to_dict()
        assert same_json_tree(got, expected)
        # key order too: personas.json sorts its keys, a payload may not
        assert json.dumps(got) == json.dumps(expected)

    @given(quintuples())
    def test_quintuple_writer_matches_the_oracle(self, quintuple):
        expected = oracle_quintuple_dict(quintuple)
        assert quintuple.to_json() == canonical_json(expected)
        assert same_json_tree(json.loads(quintuple.to_json()), expected)

    @given(records)
    @example(
        BehaviorRecord(
            action=ActionType.STOP_CHARGING,
            object_id='st-"01"\\',
            timestamp=0,
            quintuple=DecisionQuintuple(True, ChargeScenario.HOME, 0, None, 1e22, -0.0, 5e-324),
            reason="\x00 café",
        )
    )
    def test_record_writer_matches_the_oracle(self, record):
        expected = oracle_record_dict(record)
        assert record.to_json() == canonical_json(expected)
        assert same_json_tree(record.to_dict(), expected)


class TestDailyPlan:
    def test_events_must_be_strictly_increasing(self):
        trip = PlanEvent(
            PlanEventKind.TRIP, SHANGHAI, PUDONG, start=420, expected_distance_km=43.0
        )
        with pytest.raises(ValueError):
            DailyPlan(0, (trip, trip))

    def test_zero_distance_requires_same_place(self):
        with pytest.raises(ValueError):
            PlanEvent(PlanEventKind.TRIP, SHANGHAI, PUDONG, start=0, expected_distance_km=0.0)
        with pytest.raises(ValueError):
            PlanEvent(PlanEventKind.BREAK, SHANGHAI, SHANGHAI, start=0, expected_distance_km=3.0)
        stay = PlanEvent(PlanEventKind.BREAK, SHANGHAI, SHANGHAI, start=0, expected_distance_km=0.0)
        assert stay.expected_distance_km == 0.0


class TestReflectionReport:
    def test_score_bounds(self):
        with pytest.raises(ValueError):
            ScoredNote(1.2, "too good")
        with pytest.raises(ValueError):
            ScoredNote(-0.1, "too bad")


def _frozen_dataclasses():
    """Every frozen dataclass defined in a chargesim module."""
    found = []
    for info in pkgutil.walk_packages(chargesim.__path__, "chargesim."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                found.append(value)
    return found


def _hot_values():
    station = StationPerception("st-01", 1, 12, 0, 40, 5.5, 60.0, 1.2, False)
    travel = TravelPerception(1.0, 480, 600, SHANGHAI, PUDONG, 41.0, 30.0, 0.4)
    quintuple = DecisionQuintuple(True, ChargeScenario.PUBLIC, 492, "st-01", 20.0, 60.0, 1.2)
    note = ScoredNote(0.8, "fine")
    trip = PlanEvent(PlanEventKind.TRIP, SHANGHAI, PUDONG, start=420, expected_distance_km=43.0)
    return [
        SHANGHAI,
        _persona(),
        quintuple,
        BehaviorRecord(ActionType.START_CHARGING, "st-01", 480, quintuple, "close and cheap"),
        trip,
        DailyPlan(0, (trip,)),
        ReflectionReport(0, note, note, note),
        PerceptionSnapshot(travel, (station,)),
        DecisionResponse(quintuple, "close and cheap"),
    ]


class TestSlottedValueTypes:
    """The value types are frozen and slotted: no per-instance __dict__, and
    equality, hashing, replace, deepcopy and pickling still hold."""

    def test_every_frozen_dataclass_declares_slots(self):
        types = _frozen_dataclasses()
        assert len(types) >= 24
        assert [cls.__qualname__ for cls in types if "__slots__" not in cls.__dict__] == []

    @pytest.mark.parametrize("value", _hot_values(), ids=lambda value: type(value).__name__)
    def test_copies_round_trips_and_hashes(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)
        for twin in (
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
            replace(value),
        ):
            assert twin == value and twin is not value
            assert hash(twin) == hash(value)
        first = dataclasses.fields(value)[0].name
        assert replace(value, **{first: getattr(value, first)}) == value
