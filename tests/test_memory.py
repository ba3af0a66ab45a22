from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargesim.domain import (
    ActionType,
    BehaviorRecord,
    ChargeScenario,
    DecisionQuintuple,
    SimClock,
)
from chargesim.memory import MemoryStore, OutOfOrderError
from oracles import oracle_daily_aggregates, oracle_memory_window


def _record(timestamp: int, amount: float = 0.0, action=ActionType.SKIP_CHARGING):
    charging = amount > 0.0
    return BehaviorRecord(
        action=ActionType.START_CHARGING if charging else action,
        object_id="st-01" if charging else "",
        timestamp=timestamp,
        quintuple=DecisionQuintuple(
            decision=charging,
            scenario=ChargeScenario.PUBLIC,
            time_minutes=timestamp,
            station_id="st-01" if charging else None,
            amount_kwh=amount,
            power_kw=60.0 if charging else 0.0,
            price_per_kwh=0.62 if charging else 0.0,
        ),
        reason="test",
    )


def test_append_to_empty_store():
    store = MemoryStore()
    store.append(_record(100))
    assert len(store.records) == 1


def test_out_of_order_append_rejected():
    store = MemoryStore()
    store.append(_record(200))
    with pytest.raises(OutOfOrderError):
        store.append(_record(100))


def test_equal_timestamps_keep_insertion_order():
    store = MemoryStore()
    first = _record(100)
    second = _record(100, amount=5.0)
    store.append(first)
    store.append(second)
    assert store.records == [first, second]


class TestRetrieveWindows:
    def _store_with_daily_records(self):
        store = MemoryStore()
        for day in range(7):  # one record per day, at noon
            store.append(_record(day * 1440 + 720, amount=10.0))
        return store

    def test_short_window_is_last_three_days(self):
        store = self._store_with_daily_records()
        clock = SimClock(7 * 1440 - 1)  # end of day 6
        got = store.retrieve(clock, "short")
        assert [r.timestamp // 1440 for r in got] == [4, 5, 6]

    def test_long_window_covers_the_whole_week(self):
        store = self._store_with_daily_records()
        clock = SimClock(7 * 1440 - 1)
        got = store.retrieve(clock, "long")
        assert [r.timestamp // 1440 for r in got] == list(range(7))

    def test_empty_store(self):
        assert MemoryStore().retrieve(SimClock(10_000), "short") == []

    def test_unknown_horizon(self):
        with pytest.raises(ValueError):
            MemoryStore().retrieve(SimClock(0), "medium")  # type: ignore[arg-type]

    def test_boundary_record_excluded_from_short(self):
        store = MemoryStore()
        now = 10 * 1440
        store.append(_record(now - 3 * 1440))  # exactly three days old
        store.append(_record(now - 3 * 1440 + 1))
        got = store.retrieve(SimClock(now), "short")
        assert [r.timestamp for r in got] == [now - 3 * 1440 + 1]


_memory_entries = st.lists(
    st.tuples(
        # a gap of 0 makes runs of equal timestamps
        st.one_of(st.just(0), st.integers(min_value=0, max_value=2 * 1440)),
        st.sampled_from(list(ActionType)),
        st.booleans(),  # decision flag
        st.floats(min_value=0.0, max_value=80.0, allow_nan=False),  # kWh
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),  # price per kWh
    ),
    max_size=60,
)


def _mixed_record(timestamp, action, decision, amount, price):
    return BehaviorRecord(
        action=action,
        object_id="st-01" if decision else "",
        timestamp=timestamp,
        quintuple=DecisionQuintuple(
            decision=decision,
            scenario=ChargeScenario.PUBLIC,
            time_minutes=timestamp,
            station_id="st-01" if decision else None,
            amount_kwh=amount if decision else 0.0,
            power_kw=60.0 if decision else 0.0,
            price_per_kwh=price,
        ),
        reason="test",
    )


@given(
    _memory_entries,
    st.integers(min_value=0, max_value=10 * 1440),  # first timestamp
    st.integers(min_value=-2 * 1440, max_value=8 * 1440),  # clock offset from the last record
    st.integers(min_value=0, max_value=60),  # hi, taken modulo len(records) + 1
)
@example(
    entries=[
        (0, ActionType.START_CHARGING, True, 10.0, 0.7),
        (0, ActionType.START_CHARGING, True, 20.0, 0.1),
        (0, ActionType.START_CHARGING, False, 0.0, 0.0),
        (1500, ActionType.SKIP_CHARGING, False, 0.0, 0.0),
        (0, ActionType.START_CHARGING, True, 0.3, 0.2),
    ],
    first=100,
    offset=-1,  # before the last record, cutoff not day-aligned
    hi_draw=4,  # the last charge is not yet in the store
)
@example(
    entries=[(0, ActionType.START_CHARGING, True, 1.0, 1.0)],
    first=0,
    offset=7 * 1440,  # the only charge sits exactly on the long cutoff
    hi_draw=0,
)
@settings(max_examples=150, deadline=None)
def test_short_is_subset_of_long_and_windows_are_half_open(entries, first, offset, hi_draw):
    store = MemoryStore()
    timestamp = first
    for gap, action, decision, amount, price in entries:
        timestamp += gap
        store.append(_mixed_record(timestamp, action, decision, amount, price))
    now = max(0, timestamp + offset)
    clock = SimClock(now)
    short = store.retrieve(clock, "short")
    long = store.retrieve(clock, "long")
    assert short == oracle_memory_window(store.records, now, 3)
    assert long == oracle_memory_window(store.records, now, 7)
    assert set(id(r) for r in short) <= set(id(r) for r in long)
    for record in short:
        assert now - 3 * 1440 < record.timestamp <= now
    for record in long:
        assert now - 7 * 1440 < record.timestamp <= now
    assert store.daily_aggregates(clock) == oracle_daily_aggregates(store.records, now)

    # read as of an earlier record count: the same answers over records[:hi]
    hi = hi_draw % (len(store.records) + 1)
    prefix = store.records[:hi]
    assert store.retrieve(clock, "short", hi) == oracle_memory_window(prefix, now, 3)
    assert store.retrieve(clock, "long", hi) == oracle_memory_window(prefix, now, 7)
    assert store.daily_aggregates(clock, hi) == oracle_daily_aggregates(prefix, now)


def test_daily_aggregates_only_cover_charges():
    store = MemoryStore()
    store.append(_record(100, amount=10.0))
    store.append(_record(200))  # a skip, ignored by aggregates
    store.append(_record(1500, amount=20.0))
    store.append(_record(1600, amount=30.0))
    aggregates = store.daily_aggregates(SimClock(2000))
    assert aggregates == [
        {"day_index": 0, "charge_count": 1, "total_kwh": 10.0, "mean_price_per_kwh": 0.62},
        {"day_index": 1, "charge_count": 2, "total_kwh": 50.0, "mean_price_per_kwh": 0.62},
    ]

