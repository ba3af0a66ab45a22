"""Rule-based charging policy.

This is both the mock provider's decision logic and the engine's fallback
when a live response fails validation. The rule: charge immediately when
the state of charge drops below the persona's range-anxiety threshold;
otherwise charge opportunistically when there is a long enough idle window,
the tariff is off-peak, and the battery sits below the usual target.
Station choice is the weighted argmin of distance, price and predicted
wait, with ties broken by the lower station id.
"""

from __future__ import annotations

from ..domain import ChargeScenario, DecisionQuintuple, value_type
from ..perception import StationPerception
from .base import DecisionRequest, DecisionResponse

IDLE_WINDOW_MINUTES = 45


@value_type
class BaselineWeights:
    distance: float = 0.5
    price: float = 0.3
    wait: float = 0.2

    def __post_init__(self) -> None:
        if not all(weight >= 0.0 for weight in (self.distance, self.price, self.wait)):
            raise ValueError("baseline weights must be >= 0")


def score_station(station: StationPerception, weights: BaselineWeights) -> float:
    return (
        weights.distance * station.distance_km
        + weights.price * station.price_per_kwh
        + weights.wait * station.predicted_queue_minutes
    )


def choose_station(
    stations: tuple[StationPerception, ...] | list[StationPerception],
    weights: BaselineWeights,
) -> StationPerception | None:
    """Weighted argmin over the candidates; None when there are none."""
    if not stations:
        return None
    return min(stations, key=lambda s: (score_station(s, weights), s.station_id))


def baseline_decision(request: DecisionRequest, weights: BaselineWeights) -> DecisionResponse:
    persona = request.persona
    travel = request.snapshot.travel
    now = request.clock.sim_time

    soc_fraction = travel.soc_fraction
    anxiety_threshold = persona.psychology.range_anxiety_threshold
    target_soc = persona.habits.typical_target_soc
    capacity = persona.vehicle.battery_capacity_kwh

    def skip(reason: str) -> DecisionResponse:
        quintuple = DecisionQuintuple.no_charge(persona.habits.preferred_scenario, now)
        return DecisionResponse(quintuple=quintuple, reason=reason)

    station = choose_station(request.snapshot.stations, weights)
    if station is None:
        return skip("no charging stations within reach")

    amount_kwh = max(0.0, target_soc * capacity - travel.soc_kwh)
    anxious = soc_fraction < anxiety_threshold

    if anxious and amount_kwh <= 0.0:
        # Threshold above the usual target: top up to the threshold instead.
        amount_kwh = max(0.0, anxiety_threshold * capacity - travel.soc_kwh)
    if amount_kwh <= 0.0:
        return skip(f"battery at {soc_fraction:.0%}, nothing worth charging")

    if not anxious:
        if travel.next_event_start is not None:
            idle_minutes = travel.next_event_start - now
        else:
            idle_minutes = IDLE_WINDOW_MINUTES  # free for the rest of the day
        if idle_minutes < IDLE_WINDOW_MINUTES:
            return skip(f"only {idle_minutes} min idle before the next planned event")
        if not station.off_peak:
            return skip("waiting for an off-peak tariff band")
        if soc_fraction >= target_soc:
            return skip(f"battery at {soc_fraction:.0%}, already at the usual target")

    scenario = ChargeScenario.EN_ROUTE if anxious else persona.habits.preferred_scenario
    power_kw = min(station.pile_power_kw, persona.vehicle.max_charge_power_kw)
    start_estimate = now + station.travel_minutes + station.predicted_queue_minutes
    if anxious:
        reason = (
            f"charge at {soc_fraction:.0%}, below the {anxiety_threshold:.0%} comfort "
            f"threshold; {station.station_id} scores best on distance, price and wait"
        )
    else:
        reason = (
            f"off-peak top-up toward {target_soc:.0%} during an idle window; "
            f"{station.station_id} scores best on distance, price and wait"
        )
    quintuple = DecisionQuintuple(
        decision=True,
        scenario=scenario,
        time_minutes=start_estimate,
        station_id=station.station_id,
        amount_kwh=amount_kwh,
        power_kw=power_kw,
        price_per_kwh=station.price_per_kwh,
    )
    return DecisionResponse(quintuple=quintuple, reason=reason)
