from __future__ import annotations

import pytest

from chargesim.domain import (
    ChargeScenario,
    ChargingHabits,
    Demographics,
    Economics,
    Gender,
    GeoPoint,
    IncomeLevel,
    Persona,
    Psychology,
    VehicleSpec,
)
from chargesim.environment import DaySchedule

CITY_CENTER = GeoPoint(31.2304, 121.4737)


@pytest.fixture
def persona() -> Persona:
    return Persona(
        id="agent-00",
        demographics=Demographics(age=41, gender=Gender.FEMALE, occupation="day-shift taxi driver"),
        economics=Economics(income_level=IncomeLevel.MID, price_sensitivity=0.6),
        psychology=Psychology(risk_aversion=0.5, range_anxiety_threshold=0.2, patience=0.7),
        vehicle=VehicleSpec(
            battery_capacity_kwh=75.0, consumption_kwh_per_km=0.15, max_charge_power_kw=60.0
        ),
        habits=ChargingHabits(
            preferred_window=(1260, 1440),
            preferred_scenario=ChargeScenario.PUBLIC,
            typical_target_soc=0.85,
        ),
    )


@pytest.fixture
def flat_tariff() -> DaySchedule:
    return DaySchedule(((0, 1440, 1.2),))


@pytest.fixture
def two_band_tariff() -> DaySchedule:
    return DaySchedule(((0, 720, 0.5), (720, 1440, 1.0)))
