"""Physical world state: EV batteries, charging stations, time-of-use tariffs.

Stations hand out reservations under strict FIFO: a charge request is
assigned to the pile that frees up earliest, so each pile's committed
schedule (busy_until) always reflects every accepted job. Charging runs at
constant power; durations round up to whole minutes to match the integer
clock. Costs apportion the delivered energy uniformly across the charging
window and price each slice by the tariff band it falls in.

All mutation happens single-threaded inside the engine's event loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import MINUTES_PER_DAY, GeoPoint, SimClock
from .georoute import OfflineRouter


class StrandedError(Exception):
    """Raised when a movement would require more energy than the battery holds.

    The state of charge is left untouched; the caller decides how to report
    and recover from the rejected event.
    """

    def __init__(self, agent_id: str, required_kwh: float, available_kwh: float):
        super().__init__(
            f"{agent_id} needs {required_kwh:.3f} kWh but only {available_kwh:.3f} kWh remain"
        )
        self.agent_id = agent_id
        self.required_kwh = required_kwh
        self.available_kwh = available_kwh


class ZeroChargeError(Exception):
    """Raised when a charge is requested for an already-full battery."""


class EvState:
    """Battery and position of one vehicle, updated in place by the engine.

    Carries its own capacity and charging limit (copied from the owning
    persona) so the SoC invariant is checkable without a persona lookup.
    soc_kwh is read-only and changes only through set_soc(), which keeps it
    in [0, capacity]; location is assigned directly.
    """

    __slots__ = ("agent_id", "location", "capacity_kwh", "max_charge_power_kw", "_soc")

    def __init__(
        self,
        agent_id: str,
        location: GeoPoint,
        soc_kwh: float,
        capacity_kwh: float,
        max_charge_power_kw: float,
    ) -> None:
        if capacity_kwh <= 0.0 or max_charge_power_kw <= 0.0:
            raise ValueError("capacity_kwh and max_charge_power_kw must be > 0")
        self.agent_id = agent_id
        self.location = location
        self.capacity_kwh = capacity_kwh
        self.max_charge_power_kw = max_charge_power_kw
        self.set_soc(soc_kwh)

    @property
    def soc_kwh(self) -> float:
        return self._soc

    def set_soc(self, soc_kwh: float) -> None:
        """Set the state of charge; a value outside [0, capacity] raises and changes nothing."""
        if not 0.0 <= soc_kwh <= self.capacity_kwh:
            raise ValueError(
                f"soc_kwh {soc_kwh} outside [0, {self.capacity_kwh}] for {self.agent_id}"
            )
        self._soc = soc_kwh


def consume_energy(ev: EvState, distance_km: float, rate_kwh_per_km: float) -> float:
    """Drain ev's battery in place for a trip of distance_km; location is the caller's job.

    Returns the kWh drawn as SoC before minus SoC after (not the product
    distance_km * rate, which can differ in the last bit). Raises
    StrandedError, leaving the SoC untouched, when the trip needs more than
    the battery holds; the SoC is never clamped.
    """
    if distance_km < 0.0:
        raise ValueError("distance_km must be >= 0")
    if rate_kwh_per_km <= 0.0:
        raise ValueError("rate_kwh_per_km must be > 0")
    required = distance_km * rate_kwh_per_km
    if required > ev.soc_kwh:
        raise StrandedError(ev.agent_id, required, ev.soc_kwh)
    soc_before = ev.soc_kwh
    ev.set_soc(soc_before - required)
    return soc_before - ev.soc_kwh


# ---------------------------------------------------------------------------
# Day schedules and tariff costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DaySchedule:
    """A value for each minute of the day: time-of-use prices per kWh, or the
    speed multipliers that stand in for live traffic data.

    bands holds (start, end, value) triples, sorted by start, that tile
    [0, 1440) exactly; a band holds the minutes start <= t < end. Each value
    is finite and >= 0.
    """

    bands: tuple[tuple[int, int, float], ...]
    # the smallest band value; a time of day priced at a tariff's lowest is off-peak
    lowest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.bands, key=lambda band: band[0]))
        edge = 0
        for start, end, value in ordered:
            if not edge == start < end:
                raise ValueError(f"bands must tile [0, 1440): [{start}, {end}) after minute {edge}")
            if not 0.0 <= value < math.inf:
                raise ValueError(f"band values must be finite and >= 0, got {value}")
            edge = end
        if edge != MINUTES_PER_DAY:
            raise ValueError(f"bands must tile [0, 1440): they end at minute {edge}")
        object.__setattr__(self, "bands", ordered)
        object.__setattr__(self, "lowest", min(value for _, _, value in ordered))

    def at(self, time_of_day: int) -> float:
        """Value of the band holding time_of_day; ValueError outside [0, 1440)."""
        for start, end, value in self.bands:
            if start <= time_of_day < end:
                return value
        raise ValueError(f"time_of_day must be within [0, 1440), got {time_of_day}")


def charge_cost(start: int, end: int, energy_kwh: float, tariff: DaySchedule) -> float:
    """Cost of delivering energy_kwh uniformly over the window [start, end).

    Times are absolute simulation minutes; windows may wrap any number of
    midnights. Each band is charged for its overlap with the window at the
    uniform per-minute energy rate.
    """
    if end < start:
        raise ValueError("end must be >= start")
    if energy_kwh < 0.0:
        raise ValueError("energy_kwh must be >= 0")
    if energy_kwh == 0.0 or end == start:
        return 0.0
    duration = end - start
    kwh_per_minute = energy_kwh / duration
    total = 0.0
    for day in range(start // MINUTES_PER_DAY, (end - 1) // MINUTES_PER_DAY + 1):
        base = day * MINUTES_PER_DAY
        window_lo = max(start, base)
        window_hi = min(end, base + MINUTES_PER_DAY)
        for band_start, band_end, price_per_kwh in tariff.bands:
            overlap_lo = max(window_lo, base + band_start)
            overlap_hi = min(window_hi, base + band_end)
            if overlap_hi > overlap_lo:
                total += (overlap_hi - overlap_lo) * kwh_per_minute * price_per_kwh
    return total


# ---------------------------------------------------------------------------
# Charging stations
# ---------------------------------------------------------------------------


@dataclass
class ChargingStation:
    station_id: str
    location: GeoPoint
    pile_count: int
    pile_power_kw: float
    tariff_id: str
    busy_until: list[int] = field(default_factory=list)  # absolute minutes, one per pile

    def __post_init__(self) -> None:
        if self.pile_count < 1:
            raise ValueError("pile_count must be >= 1")
        if not 0.0 < self.pile_power_kw < math.inf:
            raise ValueError(f"pile_power_kw must be finite and > 0, got {self.pile_power_kw}")
        if not self.busy_until:
            self.busy_until = [0] * self.pile_count
        if len(self.busy_until) != self.pile_count:
            raise ValueError("busy_until must have one entry per pile")

    def free_piles(self, now: int) -> int:
        return sum(1 for t in self.busy_until if t <= now)

    def predicted_wait(self, now: int) -> int:
        """Minutes until a pile frees up for a newcomer, given current commitments.

        Optimistic FIFO: only jobs already accepted count, future arrivals do
        not. Zero whenever any pile is free.
        """
        return max(0, min(self.busy_until) - now)


@dataclass(frozen=True, slots=True)
class ChargeTicket:
    """The committed outcome of one accepted charge request."""

    start_wait: int
    start_charge: int
    end_charge: int
    energy_kwh: float
    power_kw: float
    cost: float

    def __post_init__(self) -> None:
        if not self.start_wait <= self.start_charge <= self.end_charge:
            raise ValueError("ticket times must be ordered: wait <= start <= end")
        if self.energy_kwh < 0.0 or self.power_kw <= 0.0 or self.cost < 0.0:
            raise ValueError("ticket energy, power and cost must be non-negative")


def begin_charge(
    station: ChargingStation,
    ev: EvState,
    target_kwh: float,
    clock: SimClock,
    tariff: DaySchedule,
) -> ChargeTicket:
    """Reserve a pile for ev and commit to a charging window.

    The delivered energy clamps at remaining headroom, power at the lesser
    of pile and vehicle limits, and the duration rounds up to whole minutes.
    The earliest-freeing pile is taken (lowest index on ties), so FIFO order
    over successive calls is guaranteed by construction, and a job starts no
    earlier than its pile's busy_until, so at most pile_count charges overlap.
    """
    if target_kwh <= 0.0:
        raise ValueError("target_kwh must be > 0")
    headroom = ev.capacity_kwh - ev.soc_kwh
    if headroom <= 0.0:
        raise ZeroChargeError(f"{ev.agent_id} battery already full at {ev.soc_kwh} kWh")
    energy_kwh = min(target_kwh, headroom)
    power_kw = min(station.pile_power_kw, ev.max_charge_power_kw)
    duration = math.ceil(energy_kwh / power_kw * 60.0)

    arrival = clock.sim_time
    pile = min(range(station.pile_count), key=lambda i: station.busy_until[i])
    start_charge = max(arrival, station.busy_until[pile])
    end_charge = start_charge + duration
    station.busy_until[pile] = end_charge

    cost = charge_cost(start_charge, end_charge, energy_kwh, tariff)
    return ChargeTicket(
        start_wait=arrival,
        start_charge=start_charge,
        end_charge=end_charge,
        energy_kwh=energy_kwh,
        power_kw=power_kw,
        cost=cost,
    )


# ---------------------------------------------------------------------------
# The aggregate environment
# ---------------------------------------------------------------------------


FREE_FLOW = DaySchedule(((0, MINUTES_PER_DAY, 1.0),))


@dataclass
class Environment:
    """What the agents share: stations, tariffs, the road model and its congestion.

    Each vehicle's state lives on its agent, not here.
    """

    stations: dict[str, ChargingStation]
    tariffs: dict[str, DaySchedule]
    router: OfflineRouter
    congestion: DaySchedule = FREE_FLOW

    def __post_init__(self) -> None:
        problems = [
            f"station {station.station_id} references unknown tariff {station.tariff_id!r}"
            for station in self.stations.values()
            if station.tariff_id not in self.tariffs
        ]
        if not self.congestion.lowest > 0.0:  # the router divides by the multiplier
            problems.append(f"congestion multipliers must be > 0, got {self.congestion.lowest}")
        if problems:  # every one, so that validation reports them all
            raise ValueError("; ".join(problems))
