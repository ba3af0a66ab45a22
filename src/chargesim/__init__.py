"""Deterministic multi-agent simulator of electric-vehicle charging behavior.

Agents carry generated personas, plan their days, perceive stations and
tariffs, decide through a pluggable cognition provider (a deterministic
mock or a live LLM endpoint), act against a physical environment of
batteries, FIFO charging queues and time-of-use prices, and reflect at
every midnight.
"""

from .config import ScenarioConfig, load_config
from .domain import (
    ActionType,
    BehaviorRecord,
    ChargeScenario,
    DailyPlan,
    DecisionQuintuple,
    GeoPoint,
    Persona,
    PlanEvent,
    ReflectionReport,
    SimClock,
    validate_persona,
)
from .engine import RunArtifacts, Simulation, run
from .environment import (
    ChargeTicket,
    ChargingStation,
    Environment,
    EvState,
    EvStatus,
    StrandedError,
    TariffBand,
    TariffSchedule,
    ZeroChargeError,
    begin_charge,
    charge_cost,
    consume_energy,
    price_at,
)
from .georoute import OfflineRouter, RouteEstimate, great_circle_km
from .memory import MemoryStore, OutOfOrderError
from .perception import PerceptionSnapshot, perceive
from .providers import (
    BaselineWeights,
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
    FaultInjectingProvider,
    LiveProvider,
    MockProvider,
    ProviderError,
    SchemaError,
    baseline_decision,
)

__version__ = "0.1.0"

__all__ = [
    "ActionType",
    "BaselineWeights",
    "BehaviorRecord",
    "ChargeScenario",
    "ChargeTicket",
    "ChargingStation",
    "CognitionProvider",
    "DailyPlan",
    "DecisionQuintuple",
    "DecisionRequest",
    "DecisionResponse",
    "Environment",
    "EvState",
    "EvStatus",
    "FaultInjectingProvider",
    "GeoPoint",
    "LiveProvider",
    "MemoryStore",
    "MockProvider",
    "OfflineRouter",
    "OutOfOrderError",
    "PerceptionSnapshot",
    "Persona",
    "PlanEvent",
    "ProviderError",
    "ReflectionReport",
    "RouteEstimate",
    "RunArtifacts",
    "ScenarioConfig",
    "SchemaError",
    "SimClock",
    "Simulation",
    "StrandedError",
    "TariffBand",
    "TariffSchedule",
    "ZeroChargeError",
    "baseline_decision",
    "begin_charge",
    "charge_cost",
    "consume_energy",
    "great_circle_km",
    "load_config",
    "perceive",
    "price_at",
    "run",
    "validate_persona",
]
