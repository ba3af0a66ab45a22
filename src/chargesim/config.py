"""Scenario configuration: defaults, YAML loading, validation.

A scenario bundles everything a run needs: fleet size and horizon, initial
battery levels, station and tariff fixtures, routing parameters, provider
selection and the baseline policy weights. The shipped default mirrors the
reference setup of ten taxi drivers driving central Shanghai for a week,
starting at 60 of 75 kWh.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .domain import GeoPoint
from .environment import ChargingStation, DaySchedule, Environment
from .georoute import OfflineRouter
from .providers.baseline import BaselineWeights
from .providers.live import LiveSettings
from .providers.mock import (
    DEFAULT_PERSONA_TEMPLATE,
    DEFAULT_PLAN_TEMPLATE,
    PERSONA_TEMPLATE_SHAPES,
    PLAN_TEMPLATE_SHAPES,
    template_problems,
)

# plan_template keys the scenario's routing settings always overwrite
_ROUTING_KEYS = {"detour_factor": "detour_factor", "speed_kmh": "base_speed_kmh"}
# the keys of a stations entry, each of which build_stations reads
_STATION_KEYS = ("station_id", "latitude", "longitude", "pile_count", "pile_power_kw", "tariff_id")
# the values each field annotation accepts; an int is a float too, a bool is neither
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict, "list": list,
                "str | None": (str, type(None))}
# libyaml's classes where this PyYAML build has them: the same text and data
# as the pure-Python ones, several times faster
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class ScenarioConfig:
    seed: int = 42
    num_agents: int = 10
    horizon_days: int = 7
    initial_soc_kwh: float = 60.0
    provider: str = "mock"
    station_radius_km: float = 6.0
    detour_factor: float = 1.3
    base_speed_kmh: float = 30.0
    baseline_weights: dict = field(
        default_factory=lambda: {"distance": 0.5, "price": 0.3, "wait": 0.2}
    )
    congestion_bands: list = field(
        default_factory=lambda: [
            {"start": 0, "end": 420, "multiplier": 1.2},
            {"start": 420, "end": 600, "multiplier": 0.7},
            {"start": 600, "end": 1020, "multiplier": 0.9},
            {"start": 1020, "end": 1200, "multiplier": 0.7},
            {"start": 1200, "end": 1440, "multiplier": 1.1},
        ]
    )
    tariffs: dict = field(
        default_factory=lambda: {
            "shanghai-tou": [
                {"start": 0, "end": 360, "price_per_kwh": 0.35, "label": "valley"},
                {"start": 360, "end": 480, "price_per_kwh": 0.62, "label": "flat"},
                {"start": 480, "end": 660, "price_per_kwh": 1.07, "label": "peak"},
                {"start": 660, "end": 1080, "price_per_kwh": 0.62, "label": "flat"},
                {"start": 1080, "end": 1260, "price_per_kwh": 1.07, "label": "peak"},
                {"start": 1260, "end": 1440, "price_per_kwh": 0.35, "label": "valley"},
            ]
        }
    )
    stations: list = field(
        default_factory=lambda: [
            {"station_id": "st-01", "latitude": 31.2330, "longitude": 121.4690,
             "pile_count": 4, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
            {"station_id": "st-02", "latitude": 31.2397, "longitude": 121.4998,
             "pile_count": 6, "pile_power_kw": 120.0, "tariff_id": "shanghai-tou"},
            {"station_id": "st-03", "latitude": 31.1956, "longitude": 121.4380,
             "pile_count": 4, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
            {"station_id": "st-04", "latitude": 31.1979, "longitude": 121.3363,
             "pile_count": 6, "pile_power_kw": 120.0, "tariff_id": "shanghai-tou"},
            {"station_id": "st-05", "latitude": 31.3020, "longitude": 121.5150,
             "pile_count": 3, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
            {"station_id": "st-06", "latitude": 31.2610, "longitude": 121.4480,
             "pile_count": 2, "pile_power_kw": 7.0, "tariff_id": "shanghai-tou"},
            {"station_id": "st-07", "latitude": 31.2190, "longitude": 121.5520,
             "pile_count": 4, "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"},
        ]
    )
    persona_template: dict = field(default_factory=lambda: dict(DEFAULT_PERSONA_TEMPLATE))
    plan_template: dict = field(
        default_factory=lambda: {
            k: v for k, v in DEFAULT_PLAN_TEMPLATE.items() if k not in _ROUTING_KEYS
        }
    )
    live: dict = field(
        default_factory=lambda: {
            "base_url": "https://api.openai.com/v1",
            "model": "gpt-4o-mini",
            "temperature": 0.0,
            "timeout_s": 60.0,
            "prompts_dir": None,
        }
    )

    # -- construction helpers -------------------------------------------------

    def build_tariffs(self) -> dict[str, DaySchedule]:
        return {
            key: _schedule(bands, "price_per_kwh", f"{key!r} band", optional=("label",))
            for key, bands in self.tariffs.items()
        }

    def build_stations(self) -> dict[str, ChargingStation]:
        stations = {}
        for index, spec in enumerate(self.stations):
            _entry(spec, f"station {index}", _STATION_KEYS)
            station = ChargingStation(
                station_id=_typed(spec, "station_id", str),
                location=GeoPoint(
                    _typed(spec, "latitude", float), _typed(spec, "longitude", float)
                ),
                pile_count=_typed(spec, "pile_count", int),
                pile_power_kw=_typed(spec, "pile_power_kw", float),
                tariff_id=_typed(spec, "tariff_id", str),
            )
            stations[station.station_id] = station
        return stations

    def build_congestion(self) -> DaySchedule:
        return _schedule(self.congestion_bands, "multiplier", "band")

    def build_router(self) -> OfflineRouter:
        return OfflineRouter(
            detour_factor=float(self.detour_factor), speed_kmh=float(self.base_speed_kmh)
        )

    def build_weights(self) -> BaselineWeights:
        names = tuple(spec.name for spec in fields(BaselineWeights))
        _entry(self.baseline_weights, "weights", names)
        weights = {name: _typed(self.baseline_weights, name, float) for name in names}
        return BaselineWeights(**weights)

    def build_live_settings(self) -> LiveSettings:
        return LiveSettings(**self.live)

    def effective_plan_template(self) -> dict:
        """Plan template with routing parameters kept in sync with the scenario."""
        template = dict(DEFAULT_PLAN_TEMPLATE)
        template.update(self.plan_template)
        template["detour_factor"] = self.detour_factor
        template["speed_kmh"] = self.base_speed_kmh
        return template

    # -- validation -------------------------------------------------------------

    def validate(self) -> list[str]:
        """Collect every configuration problem; an empty list means runnable."""
        problems = _type_problems("", vars(self), fields(self))
        if problems:  # the range checks below assume the annotated types
            return problems
        # api_key is a LiveSettings field that only LLM_API_KEY sets, so no
        # hint names it
        live_problems = _type_problems(
            "live.",
            {key: value for key, value in self.live.items() if key != "api_key"},
            [spec for spec in fields(LiveSettings) if spec.name != "api_key"],
        )
        problems.extend(live_problems)
        if "api_key" in self.live:
            problems.append("live.api_key may not be set in a configuration file; set LLM_API_KEY")
        prompts_dir = self.live.get("prompts_dir")
        if isinstance(prompts_dir, str) and not Path(prompts_dir).is_dir():
            problems.append(f"live.prompts_dir {prompts_dir!r} is not an existing directory")
        if self.num_agents < 1:
            problems.append("num_agents must be >= 1")
        if self.horizon_days < 1:
            problems.append("horizon_days must be >= 1")
        if self.provider not in ("mock", "live"):
            problems.append(f"provider must be 'mock' or 'live', got {self.provider!r}")
        # the bound is written so that NaN fails it; an infinite radius means no limit
        if not self.station_radius_km > 0:
            problems.append("station_radius_km must be > 0")
        for key, setting in _ROUTING_KEYS.items():
            if key in self.plan_template:
                problems.append(f"plan_template.{key} has no effect; set {setting} instead")

        persona_problems = template_problems(self.persona_template, PERSONA_TEMPLATE_SHAPES)
        plan_problems = template_problems(self.plan_template, PLAN_TEMPLATE_SHAPES)
        problems.extend(f"persona_template.{key} {text}" for key, text in persona_problems.items())
        problems.extend(f"plan_template.{key} {text}" for key, text in plan_problems.items())
        capacities = self.persona_template.get(
            "battery_capacity_choices", DEFAULT_PERSONA_TEMPLATE["battery_capacity_choices"]
        )
        if "battery_capacity_choices" not in persona_problems and not (
            0.0 <= self.initial_soc_kwh <= min(capacities)
        ):
            problems.append(
                f"initial_soc_kwh {self.initial_soc_kwh} outside [0, {min(capacities)}]"
            )

        # build what the run builds; each builder's own checks report its problems
        builds = [
            ("router", self.build_router),
            ("baseline_weights", self.build_weights),
            ("tariffs", self.build_tariffs),
            ("stations", self.build_stations),
            ("congestion_bands", self.build_congestion),
        ]
        if not live_problems:  # its type problems are reported above
            builds.append(("live", self.build_live_settings))
        built = {}
        for name, build in builds:
            try:
                built[name] = build()
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                problems.append(f"{name} invalid: {exc}")
        if "stations" in built and len(built["stations"]) != len(self.stations):
            problems.append("station_id values must be unique")
        if {"tariffs", "stations", "congestion_bands"} <= built.keys():
            try:  # Environment's checks never read the router, so a stand-in serves
                Environment(
                    built["stations"],
                    built["tariffs"],
                    built.get("router", OfflineRouter()),
                    built["congestion_bands"],
                )
            except ValueError as exc:
                problems.append(str(exc))
        return problems

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)

    def to_yaml(self) -> str:
        return yaml.dump(self.to_dict(), Dumper=_Dumper, sort_keys=True, default_flow_style=False)


def _type_problems(prefix: str, values: dict, specs) -> list[str]:
    """Each entry of values that names none of the fields specs, or is not of
    its field's annotated type."""
    types = {spec.name: spec.type for spec in specs}
    problems = []
    for key, value in values.items():
        if key not in types:
            problems.append(f"{prefix}{key} is not a setting; expected one of {sorted(types)}")
        elif isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[types[key]]):
            problems.append(f"{prefix}{key} must be of type {types[key]}, got {value!r}")
    return problems


def _typed(spec: dict, key: str, kind: type) -> int | float | str:
    """spec[key] as kind, int, float or str, by _type_problems' rule: a string
    or a bool is no number, a number is no string, a float is no int, and an
    int passes as a float."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind.__name__]):
        raise TypeError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _entry(entry, name: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the entry unless it is a mapping that holds
    each of keys and no key beyond them and optional."""
    if not isinstance(entry, dict):
        raise ValueError(f"{name} must be a mapping, got {entry!r}")
    missing = [f"lacks {key!r}" for key in keys if key not in entry]
    unknown = [f"has unknown key {key!r}" for key in entry if key not in keys + optional]
    if missing or unknown:
        expected = sorted(keys + optional)
        raise ValueError(f"{name} {' and '.join(missing + unknown)}; expected keys {expected}")


def _schedule(
    bands: list, value_key: str, name: str, optional: tuple[str, ...] = ()
) -> DaySchedule:
    """The day schedule of config bands, each holding start, end and value_key
    and no other key but the optional ones; name names a band for an error."""
    keys = ("start", "end", value_key)
    for index, band in enumerate(bands):
        _entry(band, f"{name} {index}", keys, optional)
    return DaySchedule(
        tuple(
            (_typed(b, "start", int), _typed(b, "end", int), _typed(b, value_key, float))
            for b in bands
        )
    )


def load_config(path: Path | str) -> ScenarioConfig:
    """Load a YAML scenario file; missing keys fall back to the defaults.

    Malformed YAML raises ValueError with the parser's position in the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ValueError(f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError("configuration file must contain a mapping")
    return ScenarioConfig.from_dict(data)
