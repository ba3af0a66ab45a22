from __future__ import annotations

import math
import pickle
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesim.domain import GeoPoint, SimClock
from chargesim.environment import (
    ChargingStation,
    DaySchedule,
    Environment,
    EvState,
    StrandedError,
    ZeroChargeError,
    begin_charge,
    charge_cost,
    consume_energy,
)
from chargesim.georoute import OfflineRouter
from oracles import oracle_cost

HERE = GeoPoint(31.23, 121.47)


def _ev(soc=60.0, capacity=75.0, max_power=60.0, agent_id="agent-00"):
    return EvState(
        agent_id=agent_id,
        location=HERE,
        soc_kwh=soc,
        capacity_kwh=capacity,
        max_charge_power_kw=max_power,
    )


def _fields(ev):
    return (ev.agent_id, ev.location, ev.soc_kwh, ev.capacity_kwh, ev.max_charge_power_kw)


def _station(piles=1, power=60.0, station_id="st-01"):
    return ChargingStation(
        station_id=station_id,
        location=HERE,
        pile_count=piles,
        pile_power_kw=power,
        tariff_id="t",
    )


class TestEvState:
    def test_soc_bounds_enforced(self):
        with pytest.raises(ValueError):
            _ev(soc=80.0, capacity=75.0)
        with pytest.raises(ValueError):
            _ev(soc=-0.1)

    def test_set_soc_out_of_bounds_raises_and_leaves_the_state_unchanged(self):
        ev = _ev(soc=60.0, capacity=75.0)
        before = _fields(ev)
        for bad in (75.0 + 1e-9, -1e-12, 80.0, float("nan")):
            with pytest.raises(ValueError):
                ev.set_soc(bad)
            assert _fields(ev) == before
        ev.set_soc(75.0)
        ev.set_soc(0.0)
        assert ev.soc_kwh == 0.0

    def test_soc_cannot_be_assigned_around_set_soc(self):
        ev = _ev(soc=60.0, capacity=75.0)
        with pytest.raises(AttributeError):
            ev.soc_kwh = 80.0
        with pytest.raises(AttributeError):
            ev.soc = 80.0  # slotted: no stray attribute to shadow it either
        assert ev.soc_kwh == 60.0


class TestConsumeEnergy:
    def test_zero_distance_is_identity(self):
        ev = _ev(soc=60.0)
        before = _fields(ev)
        assert consume_energy(ev, 0.0, 0.15) == 0.0
        assert _fields(ev) == before

    def test_linear_drain(self):
        ev = _ev(soc=60.0)
        drawn = consume_energy(ev, 20.0, 0.15)
        assert ev.soc_kwh == 60.0 - 20.0 * 0.15
        assert ev.soc_kwh == pytest.approx(57.0, abs=1e-9)
        assert drawn == 3.0
        # the energy drawn is SoC before minus SoC after, as the logs record
        # it, which can differ from distance * rate in the last bit
        ev = _ev(soc=57.3)
        assert consume_energy(ev, 1.0, 0.13) == 57.3 - ev.soc_kwh != 1.0 * 0.13

    def test_stranding_rejects_without_clamping(self):
        ev = _ev(soc=1.0)
        before = _fields(ev)
        with pytest.raises(StrandedError) as err:
            consume_energy(ev, 10.0, 0.15)
        assert _fields(ev) == before
        assert err.value.available_kwh == 1.0

    def test_draining_exactly_the_whole_battery_is_allowed(self):
        ev = _ev(soc=1.5)
        assert consume_energy(ev, 10.0, 0.15) == 1.5
        assert ev.soc_kwh == 0.0


class TestDaySchedule:
    def test_single_band(self, flat_tariff):
        for t in (0, 719, 1439):
            assert flat_tariff.at(t) == 1.2

    def test_band_edge_belongs_to_opening_band(self, two_band_tariff):
        assert two_band_tariff.at(720) == 1.0
        assert two_band_tariff.at(719) == 0.5

    def test_last_minute_of_day(self, two_band_tariff):
        assert two_band_tariff.at(1439) == 1.0

    @pytest.mark.parametrize("minute", [-1, 1440, 2000])
    def test_a_minute_outside_the_day_has_no_value(self, two_band_tariff, minute):
        with pytest.raises(ValueError, match="within"):
            two_band_tariff.at(minute)

    @pytest.mark.parametrize(
        "bands",
        [
            ((0, 700, 0.5), (720, 1440, 1.0)),  # gap
            ((0, 800, 0.5), (720, 1440, 1.0)),  # overlap
            ((60, 1440, 0.5),),  # late start
            ((0, 1380, 0.5),),  # early end
            ((0, 1500, 0.5),),  # late end
            ((0, 0, 0.5), (0, 1440, 1.0)),  # an empty band
            (),  # no bands
        ],
    )
    def test_bands_must_tile_the_day(self, bands):
        with pytest.raises(ValueError, match="tile"):
            DaySchedule(bands)

    def test_bands_are_stored_sorted(self):
        schedule = DaySchedule(((720, 1440, 1.0), (0, 720, 0.5)))
        assert schedule.bands == ((0, 720, 0.5), (720, 1440, 1.0))

    def test_off_peak_is_cheapest_band(self, two_band_tariff):
        assert two_band_tariff.lowest == 0.5
        assert two_band_tariff.at(100) == two_band_tariff.lowest
        assert two_band_tariff.at(1000) != two_band_tariff.lowest

    def test_lowest_follows_the_bands(self, two_band_tariff):
        """The lowest value is computed once, at construction; a replaced or
        unpickled schedule carries its own bands' lowest."""
        swapped = replace(two_band_tariff, bands=((720, 1440, 0.5), (0, 720, 1.0)))
        assert swapped.at(100) != swapped.lowest
        assert swapped.at(1000) == swapped.lowest
        assert swapped != two_band_tariff
        twin = pickle.loads(pickle.dumps(two_band_tariff))
        assert twin == two_band_tariff and hash(twin) == hash(two_band_tariff)
        assert twin.lowest == 0.5
        assert repr(twin) == repr(two_band_tariff) and "lowest" not in repr(twin)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_band_numbers_must_be_finite_and_in_range(bad):
    with pytest.raises(ValueError, match="finite"):
        DaySchedule(((0, 1440, bad),))
    with pytest.raises(ValueError, match="finite"):
        DaySchedule(((0, 720, 1.0), (720, 1440, bad)))


def test_environment_rejects_a_zero_speed_multiplier(flat_tariff):
    """The router divides by the multiplier, so a congestion band of 0 is refused."""
    stations = {"st-01": _station()}
    router = OfflineRouter()
    congestion = DaySchedule(((0, 600, 1.0), (600, 1440, 0.0)))
    with pytest.raises(ValueError, match="multipliers must be > 0"):
        Environment(stations, {"t": flat_tariff}, router, congestion)
    Environment(stations, {"t": flat_tariff}, router, DaySchedule(((0, 1440, 0.1),)))



class TestBeginCharge:
    def test_free_pile_duration(self, flat_tariff):
        ticket = begin_charge(_station(), _ev(soc=60.0), 15.0, SimClock(0), flat_tariff)
        assert ticket.energy_kwh == 15.0
        assert ticket.start_charge == 0
        assert ticket.end_charge - ticket.start_charge == 15  # 15 kWh at 60 kW
        assert ticket.power_kw == 60.0

    def test_energy_clamped_at_capacity(self, flat_tariff):
        ticket = begin_charge(_station(), _ev(soc=70.0), 10.0, SimClock(0), flat_tariff)
        assert ticket.energy_kwh == pytest.approx(5.0)

    def test_power_clamped_by_vehicle(self, flat_tariff):
        ev = _ev(soc=60.0, max_power=30.0)
        ticket = begin_charge(_station(power=120.0), ev, 15.0, SimClock(0), flat_tariff)
        assert ticket.power_kw == 30.0
        assert ticket.end_charge == 30  # 15 kWh at 30 kW

    def test_full_battery_raises(self, flat_tariff):
        with pytest.raises(ZeroChargeError):
            begin_charge(_station(), _ev(soc=75.0), 10.0, SimClock(0), flat_tariff)

    def test_two_piles_third_arrival_waits(self, flat_tariff):
        station = _station(piles=2)
        clock = SimClock(0)
        tickets = [
            begin_charge(station, _ev(soc=45.0, agent_id=f"agent-{i:02d}"), 30.0, clock, flat_tariff)
            for i in range(3)
        ]
        assert [t.start_charge for t in tickets] == [0, 0, 30]
        assert tickets[2].start_wait == 0

    def test_cost_across_band_boundary(self, two_band_tariff):
        # 30 min at 40 kW crossing the 0.5 -> 1.0 step at minute 720:
        # 20 kWh spread uniformly, 10 kWh in each band.
        station = _station(power=40.0)
        ev = _ev(soc=40.0, max_power=40.0)
        ticket = begin_charge(station, ev, 20.0, SimClock(705), two_band_tariff)
        assert ticket.end_charge - ticket.start_charge == 30
        assert ticket.cost == pytest.approx(10 * 0.5 + 10 * 1.0, abs=1e-9)

    def test_cost_matches_minute_oracle_on_band_crossing(self, two_band_tariff):
        got = charge_cost(705, 735, 20.0, two_band_tariff)
        bands = list(two_band_tariff.bands)
        assert got == pytest.approx(oracle_cost(705, 735, 20.0, bands).value, abs=1e-9)

    def test_midnight_wrap(self, two_band_tariff):
        # 1430 to 1450 spans midnight into the next day's opening band.
        cost = charge_cost(1430, 1450, 20.0, two_band_tariff)
        assert cost == pytest.approx(10 * 1.0 + 10 * 0.5, abs=1e-9)


@st.composite
def random_tariffs(draw):
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=1439), min_size=0, max_size=5, unique=True)
    )
    edges = [0] + sorted(cuts) + [1440]
    bands = tuple(
        (lo, hi, draw(st.floats(min_value=0.0, max_value=5.0)))
        for lo, hi in zip(edges, edges[1:])
    )
    return DaySchedule(bands)


@given(
    random_tariffs(),
    st.integers(min_value=0, max_value=4 * 1440),
    st.integers(min_value=1, max_value=900),
    st.floats(min_value=0.01, max_value=120.0),
)
@settings(max_examples=150, deadline=None)
def test_charge_cost_matches_minute_oracle(tariff, start, duration, energy):
    got = charge_cost(start, start + duration, energy, tariff)
    bands = list(tariff.bands)
    want = oracle_cost(start, start + duration, energy, bands).value
    assert got == pytest.approx(want, abs=1e-6)


def _band_scan(schedule, minute):
    """The value of the band holding minute, found by walking the bands."""
    for start, end, value in schedule.bands:
        if start <= minute < end:
            return value
    raise AssertionError(f"no band holds minute {minute}")


@given(random_tariffs())
@settings(max_examples=100, deadline=None)
def test_the_minute_table_reads_what_the_band_scan_reads(schedule):
    # the band's own float, not an equal one
    assert all(schedule.at(m) is _band_scan(schedule, m) for m in range(1440))


@pytest.mark.parametrize("minute", [-1, 1440])
def test_the_minute_table_keeps_the_range_check(two_band_tariff, minute):
    # a bare tuple index would wrap -1 to the day's last minute
    with pytest.raises(ValueError) as err:
        two_band_tariff.at(minute)
    assert str(err.value) == f"time_of_day must be within [0, 1440), got {minute}"


def test_a_minute_that_is_not_an_int_is_refused(two_band_tariff):
    with pytest.raises(TypeError):
        two_band_tariff.at(5.0)


def test_fifo_service_order_matches_enqueue_order(flat_tariff):
    rng = random.Random(7)
    station = _station(piles=3, power=60.0)
    arrivals = sorted(rng.randint(0, 300) for _ in range(40))
    tickets = []
    for i, arrival in enumerate(arrivals):
        ev = _ev(soc=rng.uniform(10.0, 70.0), agent_id=f"agent-{i:03d}")
        tickets.append(begin_charge(station, ev, rng.uniform(1.0, 20.0), SimClock(arrival), flat_tariff))
    starts = [t.start_charge for t in tickets]
    assert starts == sorted(starts)  # service order equals enqueue order


def _erlang_c_mean_wait(piles: int, load: float, mean_service: float) -> float:
    """The M/M/c queue's mean wait in line (Erlang C; L. Kleinrock, Queueing
    Systems, Vol. 1, 1975) at utilisation load per pile."""
    offered = piles * load
    queued = offered**piles / math.factorial(piles) / (1.0 - load)
    idle = sum(offered**k / math.factorial(k) for k in range(piles))
    return queued / (idle + queued) * mean_service / (piles * (1.0 - load))


# Student's t at 0.9995 with 9 degrees of freedom: a two-sided 99.9% interval
# over 10 batch means
T_9_999 = 4.781


@pytest.mark.parametrize("piles", [1, 4])
@pytest.mark.parametrize("load", [0.5, 0.8])
def test_the_queue_waits_as_erlang_c_predicts(flat_tariff, piles, load):
    """Poisson arrivals at a FIFO station of identical piles, each charge an
    exponential number of minutes (mean 60) rounded up, wait in line as long
    on average as the M/M/c queue's Erlang C formula says, within a 99.9%
    interval from 10 batch means. The arrivals fall on whole minutes, as the
    clock's do, and the service mean is that of the rounded-up duration."""
    rng = random.Random(16 + piles * 10 + int(load * 10))
    station = _station(piles=piles, power=60.0)
    ev = _ev(soc=0.0, capacity=1e9, max_power=60.0)  # a minute at 60 kW is a kWh
    minutes = 60.0
    mean_service = 1.0 / -math.expm1(-1.0 / minutes)  # E[ceil(X)], X exponential
    rate = piles * load / mean_service
    arrival = 0.0
    waits = []
    for _ in range(40_000):
        arrival += rng.expovariate(rate)
        ticket = begin_charge(station, ev, rng.expovariate(1.0 / minutes), SimClock(int(arrival)), flat_tariff)
        waits.append(ticket.start_charge - ticket.start_wait)
    kept = waits[2_000:]  # the station starts empty: set the warm-up aside
    size = len(kept) // 10
    batch_means = [statistics.fmean(kept[i * size : (i + 1) * size]) for i in range(10)]
    error = statistics.stdev(batch_means) / math.sqrt(10)
    expected = _erlang_c_mean_wait(piles, load, mean_service)
    assert abs(statistics.fmean(batch_means) - expected) <= T_9_999 * error
