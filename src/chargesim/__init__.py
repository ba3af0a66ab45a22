"""Deterministic multi-agent simulator of electric-vehicle charging behavior.

Agents carry generated personas, plan their days, perceive stations and
tariffs, decide through a pluggable cognition provider (a deterministic
mock or a live LLM endpoint), act against a physical environment of
batteries, FIFO charging queues and time-of-use prices, and reflect at
every midnight.

The root exports what running a scenario or writing a provider needs; the
environment, routing, memory and perception internals stay in their modules.
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
from .providers import (
    BaselineWeights,
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
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
    "CognitionProvider",
    "DailyPlan",
    "DecisionQuintuple",
    "DecisionRequest",
    "DecisionResponse",
    "GeoPoint",
    "LiveProvider",
    "MockProvider",
    "Persona",
    "PlanEvent",
    "ProviderError",
    "ReflectionReport",
    "RunArtifacts",
    "ScenarioConfig",
    "SchemaError",
    "SimClock",
    "Simulation",
    "baseline_decision",
    "load_config",
    "run",
    "validate_persona",
]
