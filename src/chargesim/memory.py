"""Rolling behavior memory, held in RAM.

Each agent owns one store holding its behavior records plus end-of-day
reflections. Retrieval is window-based: the short horizon covers the last
three days, the long horizon the last seven, both as half-open intervals
(now - window, now]. The store writes nothing: every record it holds is the
`record` of a start_charging, skip_charging or stop_charging entry in
behavior.log, and every reflection is the `report` of a reflections.log
entry, so those two logs are the durable record of what an agent remembered.

Records arrive in timestamp order, so a window is two bisections of the
record list by timestamp and a slice, and the daily aggregates walk only
the records inside the long window. Both cost O(log n + k) for a history
of n records and a window of k, so the cost of a read does not grow with
the simulated horizon. Both take an optional record count, hi, and then
read the store as it was when it held that many records, which is how a
decision request reads its history after later records have arrived.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Literal

from .domain import MINUTES_PER_DAY, ActionType, BehaviorRecord, ReflectionReport, SimClock

SHORT_WINDOW_DAYS = 3
LONG_WINDOW_DAYS = 7
_WINDOW_MINUTES = {
    "short": SHORT_WINDOW_DAYS * MINUTES_PER_DAY,
    "long": LONG_WINDOW_DAYS * MINUTES_PER_DAY,
}
_timestamp = attrgetter("timestamp")


class OutOfOrderError(ValueError):
    """Raised when an append would move a store's timeline backwards."""


class MemoryStore:
    """Append-only behavior and reflection memory for a single agent."""

    def __init__(self):
        self.records: list[BehaviorRecord] = []
        self.reflections: list[ReflectionReport] = []

    def append(self, record: BehaviorRecord) -> None:
        """Add a record; timestamps must be non-decreasing, ties keep insertion order."""
        records = self.records
        if records and record.timestamp < records[-1].timestamp:
            raise OutOfOrderError(f"record at t={record.timestamp} after t={records[-1].timestamp}")
        records.append(record)

    def append_reflection(self, report: ReflectionReport) -> None:
        if self.reflections and report.day_index < self.reflections[-1].day_index:
            raise OutOfOrderError(
                f"reflection for day {report.day_index} after day {self.reflections[-1].day_index}"
            )
        self.reflections.append(report)

    def retrieve(
        self, clock: SimClock, horizon: Literal["short", "long"], hi: int | None = None
    ) -> list[BehaviorRecord]:
        """Records within the horizon window (now - days*1440, now], order preserved,
        among the first hi records (all of them when hi is None)."""
        window = _WINDOW_MINUTES.get(horizon)
        if window is None:
            raise ValueError(f"horizon must be 'short' or 'long', got {horizon!r}")
        now = clock.sim_time
        records = self.records
        if hi is None:
            hi = len(records)
        first = bisect_right(records, now - window, 0, hi, key=_timestamp)
        return records[first : bisect_right(records, now, first, hi, key=_timestamp)]

    def daily_aggregates(self, clock: SimClock, hi: int | None = None) -> list[dict]:
        """Per-day charging summaries over the long window: count, kWh, mean price,
        among the first hi records (all of them when hi is None).

        Derived on demand from the start_charging decisions inside the long
        window, never stored; meant to keep long-horizon prompt payloads
        compact. The oldest day is usually only partly inside the window, so
        days are summed per call, in record order, rather than cached.
        """
        buckets: dict[int, dict] = {}
        for record in self.retrieve(clock, "long", hi):
            if record.action is not ActionType.START_CHARGING or not record.quintuple.decision:
                continue
            day = record.timestamp // MINUTES_PER_DAY
            bucket = buckets.setdefault(
                day, {"day_index": day, "charge_count": 0, "total_kwh": 0.0, "_price_sum": 0.0}
            )
            bucket["charge_count"] += 1
            bucket["total_kwh"] += record.quintuple.amount_kwh
            bucket["_price_sum"] += record.quintuple.price_per_kwh
        out = []
        for day in sorted(buckets):
            bucket = buckets[day]
            price_sum = bucket.pop("_price_sum")
            bucket["mean_price_per_kwh"] = price_sum / bucket["charge_count"]
            out.append(bucket)
        return out

    def close(self) -> None:
        """Nothing to release; kept so callers that close every store still work."""
