from .base import (
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
    ProviderError,
    SchemaError,
    parse_decision_payload,
    validate_decision,
)
from .baseline import BaselineWeights, baseline_decision, choose_station, score_station
from .live import LiveProvider, LiveSettings
from .mock import MockProvider

__all__ = [
    "BaselineWeights",
    "CognitionProvider",
    "DecisionRequest",
    "DecisionResponse",
    "LiveProvider",
    "LiveSettings",
    "MockProvider",
    "ProviderError",
    "SchemaError",
    "baseline_decision",
    "choose_station",
    "parse_decision_payload",
    "score_station",
    "validate_decision",
]
