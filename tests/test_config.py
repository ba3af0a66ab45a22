"""config.yaml written and read through libyaml gives what the pure-Python
PyYAML classes give: the same text and the same ScenarioConfig. Validation
knows the shape of every template entry."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from chargesim import config as config_module
from chargesim.config import ScenarioConfig, load_config
from chargesim.providers.live import LiveSettings
from chargesim.providers.mock import (
    DEFAULT_PERSONA_TEMPLATE,
    DEFAULT_PLAN_TEMPLATE,
    PERSONA_TEMPLATE_SHAPES,
    PLAN_TEMPLATE_SHAPES,
)
from test_engine import (
    charge_and_strand_config,
    overnight_charge_config,
    small_config,
    stranding_config,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
HAS_LIBYAML = hasattr(yaml, "CSafeLoader") and hasattr(yaml, "CSafeDumper")
needs_libyaml = pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")


def awkward_config() -> ScenarioConfig:
    """Text the two emitters could fold or escape differently."""
    config = ScenarioConfig()
    config.stations = [
        *config.stations,
        {"station_id": "站-café ☃ 𝄞", "latitude": 31.25, "longitude": 121.45,
         "pile_count": 1, "pile_power_kw": 7.0, "tariff_id": "shanghai-tou"},
    ]
    config.persona_template = {
        **config.persona_template,
        "occupations": ["a night-shift taxi driver who covers the airport, the railway "
                        "stations and the ferry piers along the river until dawn"],
        "consumption_range": [1e-05, 0.1 + 0.2],
    }
    config.tariffs = {
        **config.tariffs,
        "tiny": [{"start": 0, "end": 1440, "price_per_kwh": 1.5e-07, "label": "yes"}],
    }
    config.initial_soc_kwh = 1e16
    return config


CONFIGS = {
    "defaults": ScenarioConfig,
    "shipped": lambda: load_config(REPO_ROOT / "config" / "default.yaml"),
    "small": small_config,
    "stranding": stranding_config,
    "overnight": overnight_charge_config,
    "charge_and_strand": charge_and_strand_config,
    "awkward": awkward_config,
}


def _use(monkeypatch, loader, dumper) -> None:
    monkeypatch.setattr(config_module, "_Loader", loader)
    monkeypatch.setattr(config_module, "_Dumper", dumper)


def test_the_module_picks_libyaml_when_pyyaml_has_it():
    chosen = (config_module._Loader, config_module._Dumper)
    if HAS_LIBYAML:
        assert chosen == (yaml.CSafeLoader, yaml.CSafeDumper)
    else:
        assert chosen == (yaml.SafeLoader, yaml.SafeDumper)


@needs_libyaml
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_libyaml_and_pure_python_agree(name, tmp_path, monkeypatch):
    config = CONFIGS[name]()
    texts, loaded = {}, {}
    for label, loader, dumper in (
        ("c", yaml.CSafeLoader, yaml.CSafeDumper),
        ("pure", yaml.SafeLoader, yaml.SafeDumper),
    ):
        _use(monkeypatch, loader, dumper)
        texts[label] = config.to_yaml()
        path = tmp_path / f"{label}.yaml"
        path.write_text(texts[label], encoding="utf-8")
        loaded[label] = load_config(path)
    assert texts["c"] == texts["pure"]
    if name == "awkward":  # the text holds what the two emitters could differ on
        occupation = config.persona_template["occupations"][0]
        assert len(occupation) > 80 and occupation not in texts["c"]  # folded
        assert "1.0e-05" in texts["c"] and "\\u7AD9" in texts["c"]  # exponent, escaped
    assert loaded["c"] == loaded["pure"] == config
    # the independent reader the test oracles use sees the same data
    assert yaml.safe_load(texts["c"]) == config.to_dict()


@pytest.mark.parametrize("name", ["shipped", "awkward"])
def test_pure_python_fallback_writes_and_loads_the_same_config(name, tmp_path, monkeypatch):
    config = CONFIGS[name]()
    text = config.to_yaml()
    _use(monkeypatch, yaml.SafeLoader, yaml.SafeDumper)
    assert config.to_yaml() == text
    path = tmp_path / "fallback.yaml"
    path.write_text(text, encoding="utf-8")
    assert load_config(path) == config


def test_the_shipped_config_is_the_defaults():
    # its header promises that every key it sets matches the built-in default
    shipped = load_config(REPO_ROOT / "config" / "default.yaml")
    assert shipped.to_dict() == ScenarioConfig().to_dict()


def test_every_template_key_has_a_shape():
    # a key missing from the shape table would pass validation unchecked
    assert PERSONA_TEMPLATE_SHAPES.keys() == DEFAULT_PERSONA_TEMPLATE.keys()
    assert PLAN_TEMPLATE_SHAPES.keys() == DEFAULT_PLAN_TEMPLATE.keys()
    assert ScenarioConfig().validate() == []


def test_a_misspelt_live_setting_is_named_without_the_api_key():
    config = ScenarioConfig()
    config.live = {"modle": "x"}
    (problem,) = config.validate()
    assert problem.startswith("live.modle is not a setting; expected one of [")
    assert "'model'" in problem and "api_key" not in problem
    config.live = {"api_key": "k"}
    assert config.validate() == [
        "live.api_key may not be set in a configuration file; set LLM_API_KEY"
    ]


def test_the_live_section_builds_live_settings_with_their_own_defaults():
    # the default section spells out the LiveSettings defaults, and an omitted
    # key keeps its LiveSettings default
    assert ScenarioConfig().build_live_settings() == LiveSettings()
    config = ScenarioConfig()
    config.live = {"model": "m", "temperature": 1}
    assert config.validate() == []
    assert config.build_live_settings() == LiveSettings(model="m", temperature=1)


STATION = {"station_id": "a", "latitude": 31.2, "longitude": 121.4, "pile_count": 1,
           "pile_power_kw": 60.0, "tariff_id": "shanghai-tou"}
STATION_KEYS = "['latitude', 'longitude', 'pile_count', 'pile_power_kw', 'station_id', 'tariff_id']"


@pytest.mark.parametrize(
    "section, value, problem",
    [
        (
            "stations",
            [STATION, {**STATION, "station_id": "b", "piles": 9}],
            f"stations invalid: station 1 has unknown key 'piles'; expected keys {STATION_KEYS}",
        ),
        (
            "stations",
            [{key: value for key, value in STATION.items() if key != "tariff_id"}],
            f"stations invalid: station 0 lacks 'tariff_id'; expected keys {STATION_KEYS}",
        ),
        (
            "congestion_bands",
            [{"start": 0, "end": 1440, "multiplier": 1.0, "multipler": 0.5}],
            "congestion_bands invalid: band 0 has unknown key 'multipler'; "
            "expected keys ['end', 'multiplier', 'start']",
        ),
        (
            "congestion_bands",
            [{"start": 0, "end": 1440, "multiplier": 1.0, "label": "all day"}],
            "congestion_bands invalid: band 0 has unknown key 'label'; "
            "expected keys ['end', 'multiplier', 'start']",
        ),
        (
            "congestion_bands",
            [[0, 1440, 1.0]],
            "congestion_bands invalid: band 0 must be a mapping, got [0, 1440, 1.0]",
        ),
        (
            "tariffs",
            {"shanghai-tou": [{"start": 0, "end": 720, "price_per_kwh": 0.35, "label": "a"},
                              {"start": 720, "end": 1440, "price": 0.62}]},
            "tariffs invalid: 'shanghai-tou' band 1 lacks 'price_per_kwh' and has unknown key "
            "'price'; expected keys ['end', 'label', 'price_per_kwh', 'start']",
        ),
    ],
)
def test_a_config_entry_holds_its_own_keys_and_no_other(section, value, problem):
    config = ScenarioConfig()
    setattr(config, section, value)
    assert config.validate() == [problem]


def test_a_tariff_band_may_carry_a_label():
    config = ScenarioConfig()
    config.tariffs = {"shanghai-tou": [{"start": 0, "end": 1440, "price_per_kwh": 0.5}]}
    assert config.validate() == []
    config.tariffs["shanghai-tou"][0]["label"] = "flat"
    assert config.validate() == []
