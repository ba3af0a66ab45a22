"""Cognition provider backed by an OpenAI-compatible chat-completions API.

Transport: POST {base_url}/chat/completions with a JSON body, bearer auth
from LLM_API_KEY (or LiveSettings(api_key=...) in code), temperature 0 by
default so runs are as replayable as the backend permits. Every call asks
for a JSON object response and goes through the same funnel:

    transport error  -> up to 2 retries with exponential backoff,
                        then ProviderError
    unparseable JSON -> one repair round-trip quoting the parse error,
    (or no text)        then SchemaError
    schema violation -> same single repair round-trip, then SchemaError

The engine decides what a SchemaError means (for decisions: substitute the
rule-based baseline and tag the record as a fallback).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..domain import (
    BehaviorRecord,
    ChargeScenario,
    DailyPlan,
    GeoPoint,
    Persona,
    PlanEvent,
    PlanEventKind,
    ReflectionReport,
    ScoredNote,
    validate_persona,
)
from .base import (
    CognitionProvider,
    DecisionRequest,
    DecisionResponse,
    ProviderError,
    SchemaError,
    parse_decision_payload,
)

TRANSPORT_RETRIES = 2
MAX_TOKENS = 2048  # the reply budget of every call
BACKOFF_BASE_S = 0.5

DEFAULT_PROMPTS = {
    "persona": (
        "You create realistic electric-vehicle driver profiles for a city "
        "simulation. Respond with one JSON object with keys: id, demographics "
        "{age, gender, occupation}, economics {income_level (low|mid|high), "
        "price_sensitivity (0..1)}, psychology {risk_aversion (0..1), "
        "range_anxiety_threshold (0..1 exclusive), patience (0..1)}, vehicle "
        "{battery_capacity_kwh, consumption_kwh_per_km, max_charge_power_kw}, "
        "habits {preferred_window [startMinute, endMinute], preferred_scenario "
        "(home|work|public), typical_target_soc (0..1]}.\n\nTemplate constraints:\n{payload}"
    ),
    "plan": (
        "You plan one working day for an electric-vehicle driver. Respond with "
        "one JSON object: {\"day_index\": int, \"events\": [{\"kind\": "
        "\"trip|break|work_shift|leisure\", \"origin\": [lat, lon], "
        "\"destination\": [lat, lon], \"start\": minuteOfDay, "
        "\"expected_distance_km\": number}]}. Events must be sorted by start "
        "with strictly increasing times.\n\nContext:\n{payload}"
    ),
    "decide": (
        "You are the decision module of an electric-vehicle driver agent. "
        "Given the driver profile, today's remaining plan, the perceived "
        "stations and recent memory, decide whether to charge now. Respond "
        "with one JSON object: {\"decision\": bool, \"scenario\": "
        "\"home|work|public|en_route\", \"time_minutes\": int, \"station_id\": "
        "string or null, \"amount_kwh\": number, \"power_kw\": number, "
        "\"price_per_kwh\": number, \"reason\": string}. A positive decision "
        "must reference a station from the perceived list and must not exceed "
        "the battery's remaining headroom.\n\nRequest:\n{payload}"
    ),
    "reflect": (
        "You review one completed day of an electric-vehicle driver. Respond "
        "with one JSON object: {\"day_index\": int, \"plan_adherence\": "
        "{\"score\": 0..1, \"text\": string}, \"satisfaction\": {\"score\": "
        "0..1, \"text\": string covering charging time, station choice, amount, "
        "power and price}, \"persona_consistency\": {\"score\": 0..1, "
        "\"text\": string}}.\n\nDay data:\n{payload}"
    ),
}


@dataclass(frozen=True, slots=True)
class LiveSettings:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key: str | None = None  # set in code only; None reads the LLM_API_KEY variable
    temperature: float = 0.0
    timeout_s: float = 60.0
    prompts_dir: str | None = None

    def __post_init__(self) -> None:
        # each bound is written so that NaN fails it
        if not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout_s must be > 0 and finite, got {self.timeout_s!r}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be >= 0 and finite, got {self.temperature!r}")

    def resolved_key(self) -> str:
        key = self.api_key or os.environ.get("LLM_API_KEY", "")
        if not key:
            raise ProviderError("no API key: set LLM_API_KEY")
        return key


class LiveProvider(CognitionProvider):
    """Live LLM-backed provider; requires network and a key, so it is never
    exercised by the default test suite."""

    def __init__(self, settings: LiveSettings | None = None):
        self.settings = settings or LiveSettings()
        self._prompts = dict(DEFAULT_PROMPTS)
        if self.settings.prompts_dir:
            prompts_dir = Path(self.settings.prompts_dir)
            for name in self._prompts:
                candidate = prompts_dir / f"{name}.txt"
                if candidate.exists():
                    self._prompts[name] = candidate.read_text(encoding="utf-8")

    # -- transport ------------------------------------------------------------

    def _post_chat(self, messages: list[dict]) -> str | None:
        import requests

        url = self.settings.base_url.rstrip("/") + "/chat/completions"
        headers = {
            "Authorization": f"Bearer {self.settings.resolved_key()}",
            "Content-Type": "application/json",
        }
        body = {
            "model": self.settings.model,
            "messages": messages,
            "temperature": self.settings.temperature,
            "max_tokens": MAX_TOKENS,
            "response_format": {"type": "json_object"},
        }
        last_error: Exception | None = None
        for attempt in range(TRANSPORT_RETRIES + 1):
            try:
                response = requests.post(
                    url, headers=headers, json=body, timeout=self.settings.timeout_s
                )
                status = response.status_code
                if status == 200:
                    return response.json()["choices"][0]["message"]["content"]
            except Exception as exc:  # connection and timeout errors, bad JSON envelope
                last_error = exc
            else:
                # only a throttled or failing server may answer otherwise on a retry; a
                # rejected request (a bad key's 401, a malformed body's 400) fails again
                if status != 429 and status < 500:
                    raise ProviderError(f"request rejected with {status}: {response.text[:200]}")
                last_error = ProviderError(f"server answered {status}")
            if attempt < TRANSPORT_RETRIES:
                time.sleep(BACKOFF_BASE_S * (2**attempt))
        raise ProviderError(f"transport failed after {TRANSPORT_RETRIES + 1} attempts: {last_error}")

    @staticmethod
    def _extract_json(text: str | None) -> dict:
        """The JSON object that starts at a reply's first "{", read whole, so
        a fence quoted in a string stays; SchemaError when there is none."""
        if not isinstance(text, str):  # a refusal's content is null
            raise SchemaError(f"reply holds no text, got {text!r}")
        try:
            return json.JSONDecoder().raw_decode(text, text.index("{"))[0]
        except ValueError:  # no "{", or no object starts there
            raise SchemaError("reply does not contain a JSON object") from None

    def _json_call(self, prompt_name: str, payload_json: str, parse):
        """One request plus at most one schema-repair round-trip."""
        system = self._prompts[prompt_name].replace("{payload}", payload_json)
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": "Respond with the JSON object only."},
        ]
        reply = self._post_chat(messages)
        try:
            return parse(self._extract_json(reply))
        except SchemaError as exc:
            repair = messages + [
                {"role": "assistant", "content": reply},
                {
                    "role": "user",
                    "content": (
                        f"That response was invalid: {exc}. "
                        "Reply again with a single corrected JSON object only."
                    ),
                },
            ]
            second = self._post_chat(repair)
            try:
                return parse(self._extract_json(second))
            except SchemaError as exc2:
                raise SchemaError(f"response still invalid after repair: {exc2}") from exc2

    # -- operations -------------------------------------------------------------

    def generate_persona(self, seed: int | str, template_config: dict) -> Persona:
        payload = json.dumps(
            {"seed": str(seed), "template": template_config}, sort_keys=True
        )

        def parse(data: dict) -> Persona:
            try:
                persona = Persona.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"persona payload malformed: {exc}") from exc
            violations = validate_persona(persona)
            if violations:
                raise SchemaError(f"persona violates constraints: {violations}")
            return persona

        return self._json_call("persona", payload, parse)

    def plan_day(self, persona: Persona, day_index: int, seed: int | str) -> DailyPlan:
        payload = json.dumps(
            {"persona": persona.to_dict(), "day_index": day_index, "seed": str(seed)},
            sort_keys=True,
        )

        def parse(data: dict) -> DailyPlan:
            try:
                events = tuple(
                    PlanEvent(
                        kind=PlanEventKind(e["kind"]),
                        origin=GeoPoint(float(e["origin"][0]), float(e["origin"][1])),
                        destination=GeoPoint(
                            float(e["destination"][0]), float(e["destination"][1])
                        ),
                        start=int(e["start"]),
                        expected_distance_km=float(e["expected_distance_km"]),
                    )
                    for e in data["events"]
                )
                return DailyPlan(day_index=int(data["day_index"]), events=events)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise SchemaError(f"plan payload malformed: {exc}") from exc

        return self._json_call("plan", payload, parse)

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        return self._json_call("decide", request.to_json(), parse_decision_payload)

    def reflect(
        self,
        day_records: list[BehaviorRecord],
        persona: Persona,
        plan: DailyPlan,
    ) -> ReflectionReport:
        payload = json.dumps(
            {
                "persona": persona.to_dict(),
                "plans": [plan.to_dict()],
                "records": [record.to_dict() for record in day_records],
            },
            sort_keys=True,
        )

        def parse(data: dict) -> ReflectionReport:
            try:
                return ReflectionReport(
                    day_index=int(data["day_index"]),
                    plan_adherence=_note(data["plan_adherence"]),
                    satisfaction=_note(data["satisfaction"]),
                    persona_consistency=_note(data["persona_consistency"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"reflection payload malformed: {exc}") from exc

        return self._json_call("reflect", payload, parse)


def _note(data: dict) -> ScoredNote:
    return ScoredNote(score=float(data["score"]), text=str(data["text"]))
