"""Fault-injecting provider wrapper for robustness testing.

Wraps any provider and deterministically corrupts a configurable fraction
of its decisions, cycling through the failure modes a misbehaving backend
can produce: outright schema errors, references to stations the agent never
perceived, and amounts beyond the battery's headroom. The engine is
expected to survive all of them by falling back to the baseline policy and
tagging the affected records.
"""

from __future__ import annotations

import random
from dataclasses import replace

from chargesim.domain import BehaviorRecord, DailyPlan, Persona, ReflectionReport
from chargesim.providers import CognitionProvider, DecisionRequest, DecisionResponse, SchemaError


class FaultInjectingProvider(CognitionProvider):
    def __init__(self, inner: CognitionProvider, rate: float = 0.2, seed: int | str = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self.inner = inner
        self.rate = rate
        self._rng = random.Random(f"faulty|{seed}")
        self._mode = 0
        self.injected = 0

    def generate_persona(self, seed: int | str, template_config: dict) -> Persona:
        return self.inner.generate_persona(seed, template_config)

    def plan_day(self, persona: Persona, day_index: int, seed: int | str) -> DailyPlan:
        return self.inner.plan_day(persona, day_index, seed)

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        response = self.inner.decide(request)
        if self._rng.random() >= self.rate:
            return response
        self.injected += 1
        mode = self._mode % 3
        self._mode += 1
        if mode == 0:
            raise SchemaError("injected fault: unparseable response")
        if mode == 1:
            bad = replace(
                response.quintuple,
                decision=True,
                station_id="ghost-station",
                amount_kwh=max(response.quintuple.amount_kwh, 1.0),
            )
            return DecisionResponse(quintuple=bad, reason="injected fault: unknown station")
        bad = replace(
            response.quintuple,
            decision=True,
            station_id=(
                response.quintuple.station_id
                or (request.snapshot.stations[0].station_id if request.snapshot.stations else "x")
            ),
            amount_kwh=request.persona.vehicle.battery_capacity_kwh * 10.0,
        )
        return DecisionResponse(quintuple=bad, reason="injected fault: impossible amount")

    def reflect(
        self,
        day_records: list[BehaviorRecord],
        persona: Persona,
        plan: DailyPlan,
    ) -> ReflectionReport:
        return self.inner.reflect(day_records, persona, plan)
