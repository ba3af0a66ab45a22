from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargesim.cli import main
from chargesim.config import ScenarioConfig, load_config
from chargesim.engine import Simulation, run
from chargesim.providers import MockProvider

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    config = ScenarioConfig()
    config.num_agents = 2
    config.horizon_days = 1
    path.write_text(config.to_yaml(), encoding="utf-8")
    return path


def test_validate_default_shipped_config():
    assert main(["validate", "--config", str(REPO_ROOT / "config" / "default.yaml")]) == 0


def test_an_empty_config_file_validates_as_the_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    assert load_config(path).to_dict() == ScenarioConfig().to_dict()


def test_a_setup_failure_exits_with_run_failed(tmp_path, capsys):
    # a valid live config whose prompt file cannot be read fails before any request
    prompts_dir = tmp_path / "prompts"
    (prompts_dir / "decide.txt").mkdir(parents=True)  # a directory where a file belongs
    config = ScenarioConfig()
    config.provider = "live"
    config.live = {**config.live, "prompts_dir": str(prompts_dir)}
    path = tmp_path / "live.yaml"
    path.write_text(config.to_yaml(), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "decide.txt" in err and "Traceback" not in err


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"num_agents": 0, "provider": "oracle"}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "num_agents" in err and "provider" in err

    path.write_text(yaml.safe_dump({"not_a_key": 1}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1

    # a removed key is rejected like any unknown one, with no compatibility shim
    path.write_text(yaml.safe_dump({"memory_fsync": False}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "memory_fsync" in capsys.readouterr().err


def test_validate_rejects_plan_template_routing_keys(tmp_path, capsys):
    # the planner's detour factor and speed are the routing model's, so these
    # keys would be recorded in config.yaml and then ignored
    assert not any("plan_template" in p for p in ScenarioConfig().validate())
    path = tmp_path / "knobs.yaml"
    plan = {"speed_kmh": 50.0, "detour_factor": 2.0}
    path.write_text(yaml.safe_dump({"plan_template": plan}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "plan_template.speed_kmh" in err and "base_speed_kmh" in err
    assert "plan_template.detour_factor" in err


@pytest.mark.parametrize(
    "text",
    [
        "num_agents: ten",
        "station_radius_km: null",
        "baseline_weights: 3",
        "baseline_weights: {distance: null}",
        "persona_template: {battery_capacity_choices: 75}",
        "horizon_days: 1.5",
        "horizon_days: 0",
        "plan_template: [1]",
        # the planner's detour factor is the routing model's
        "plan_template: {detour_factor: 2}",
        # station ids name one station each
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: 1, "
        "pile_power_kw: 60.0, tariff_id: shanghai-tou}, {station_id: a, latitude: 31.3, "
        "longitude: 121.5, pile_count: 2, pile_power_kw: 60.0, tariff_id: shanghai-tou}]",
        # a file that holds no mapping
        "[num_agents, 10]",
        # each family of nested template entries
        "persona_template: {consumption_range: 3}",
        "persona_template: {age_range: [58, 26]}",
        "persona_template: {max_charge_power_choices: [fast]}",
        "persona_template: {occupations: []}",
        "persona_template: {genders: [robot]}",
        "persona_template: {income_levels: mid}",
        "persona_template: {preferred_windows: [[0, night]]}",
        "persona_template: {preferred_scenarios: [7]}",
        "plan_template: {area_radius_km: fast}",
        "plan_template: {center: [31.2, east]}",
        "plan_template: {shifts: [[420, noon]]}",
        "plan_template: {trip_km_range: [5]}",
        "plan_template: {gap_minutes_range: [4.5, 15]}",
        # well typed, but outside a bound validate_persona or a plan event sets
        "persona_template: {target_soc_range: [1.5, 2]}",
        "persona_template: {target_soc_range: [0, 0.9]}",
        "persona_template: {price_sensitivity_range: [0.2, 1.2]}",
        "persona_template: {risk_aversion_range: [-0.1, 0.5]}",
        "persona_template: {range_anxiety_range: [0, 0.3]}",
        "persona_template: {range_anxiety_range: [0.2, 1]}",
        "persona_template: {patience_range: [0.3, .nan]}",
        "persona_template: {consumption_range: [0, 0.2]}",
        "persona_template: {battery_capacity_choices: [75, 0]}",
        "persona_template: {max_charge_power_choices: [-60]}",
        "persona_template: {age_range: [0, 30]}",
        "persona_template: {preferred_windows: [[1500, 100]]}",
        "persona_template: {preferred_windows: [[600, 600]]}",
        "persona_template: {preferred_windows: [[0, 1500]]}",
        "persona_template: {preferred_windows: [[0, .inf]]}",
        "persona_template: {battery_capacity_choices: [.inf]}",
        "persona_template: {max_charge_power_choices: [.inf]}",
        "persona_template: {consumption_range: [0.1, .inf]}",
        "plan_template: {shifts: [[420, 3000]]}",
        "plan_template: {shifts: [[-10, 720]]}",
        "plan_template: {evening_shift: [1290, 1500]}",
        "plan_template: {gap_minutes_range: [-100, -50]}",
        "plan_template: {trip_km_range: [-5, 18]}",
        # the planner's hops around the centre would cross a pole or the antimeridian
        "plan_template: {center: [89.9, 0]}",
        "plan_template: {center: [0, 179.99]}",
        # NaN fails every range check; infinity fails every finite one
        "detour_factor: .nan",
        "detour_factor: .inf",
        "base_speed_kmh: .nan",
        "base_speed_kmh: .inf",
        "station_radius_km: .nan",
        "congestion_bands: [{start: 0, end: 1440, multiplier: .nan}]",
        "congestion_bands: [{start: 0, end: 1440, multiplier: .inf}]",
        "tariffs: {shanghai-tou: [{start: 0, end: 1440, price_per_kwh: .nan}]}",
        "tariffs: {shanghai-tou: [{start: 0, end: 1440, price_per_kwh: .inf}]}",
        "baseline_weights: {distance: .nan, price: 0.3, wait: 0.2}",
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: 1, "
        "pile_power_kw: .nan, tariff_id: shanghai-tou}]",
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: 1, "
        "pile_power_kw: .inf, tariff_id: shanghai-tou}]",
        # the live section holds LiveSettings fields of their annotated types
        "live: {temperature: hot}",
        "live: {timeout_s: true}",
        "live: {prompts_dir: 3}",
        "live: {prompts_dir: no-such-prompts-dir}",
        "live: {modle: x}",
        "live: {max_tokens: 100}",
        # the key comes from the environment only, and LiveSettings checks its numbers
        "live: {api_key: k}",
        "live: {timeout_s: 0}",
        "live: {timeout_s: .nan}",
        "live: {temperature: -1.0}",
        # a template key outside the template's shape table is a misspelling
        "plan_template: {centre: [0, 0], area_radius: 3}",
        "persona_template: {age_rang: [1, 2]}",
        # station, tariff and congestion numbers are of their field's type:
        # a string, a bool, or a float where an int is due fails
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: 4.5, "
        "pile_power_kw: 60.0, tariff_id: shanghai-tou}]",
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: true, "
        "pile_power_kw: 60.0, tariff_id: shanghai-tou}]",
        "stations: [{station_id: a, latitude: \"31.2330\", longitude: 121.4, pile_count: 1, "
        "pile_power_kw: 60.0, tariff_id: shanghai-tou}]",
        "tariffs: {shanghai-tou: [{start: 0, end: 360.7, price_per_kwh: 0.35}, "
        "{start: 360.7, end: 1440, price_per_kwh: 0.62}]}",
        "tariffs: {shanghai-tou: [{start: 0, end: 1440, price_per_kwh: \"0.35\"}]}",
        "congestion_bands: [{start: 0, end: 1440.0, multiplier: 1.0}]",
        "congestion_bands: [{start: 0, end: 1440, multiplier: true}]",
        # an int too large for a float where a float is due
        "tariffs: {shanghai-tou: [{start: 0, end: 1440, price_per_kwh: 1" + "0" * 400 + "}]}",
        "detour_factor: 1" + "0" * 400,
        "base_speed_kmh: 1" + "0" * 400,
        # station and tariff ids are strings, as the map exports sort them
        "stations: [{station_id: 1, latitude: 31.2, longitude: 121.4, pile_count: 1, "
        "pile_power_kw: 60.0, tariff_id: shanghai-tou}]",
        "tariffs: {\"5\": [{start: 0, end: 1440, price_per_kwh: 0.5}]}\n"
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: 1, "
        "pile_power_kw: 60.0, tariff_id: 5}]",
        # the baseline weights are floats, and only the three of them
        "baseline_weights: {distance: \"0.5\", price: 0.3, wait: 0.2}",
        "baseline_weights: {distance: true, price: 0.3, wait: 0.2}",
        "baseline_weights: {distance: 0.5, price: 0.3, wait: 0.2, wiat: 9.0}",
        # the router divides by the speed multiplier
        "congestion_bands: [{start: 0, end: 1440, multiplier: 0}]",
        # a station, tariff band or congestion band holds only its own keys
        "stations: [{station_id: a, latitude: 31.2, longitude: 121.4, pile_count: 1, piles: 9, "
        "pile_power_kw: 60.0, tariff_id: shanghai-tou}]",
        "congestion_bands: [{start: 0, end: 1440, multiplier: 1.0, multipler: 0.5}]",
        "tariffs: {shanghai-tou: [{start: 0, end: 1440, price: 0.35}]}",
        # the persona id is the agent id, so no template key sets its prefix
        "persona_template: {id_prefix: driver}",
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_wrongly_typed_config_is_a_config_error(tmp_path, capsys, text, command):
    path = tmp_path / "typed.yaml"
    path.write_text(text + "\n", encoding="utf-8")
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_validate_reports_a_router_problem_and_every_environment_problem():
    config = ScenarioConfig()
    config.detour_factor = float("nan")
    config.stations = [
        {**config.stations[0], "tariff_id": "no-such-tariff"},
        {**config.stations[1], "tariff_id": "nor-this-one"},
    ]
    config.congestion_bands = [{"start": 0, "end": 1440, "multiplier": 0}]
    problems = config.validate()
    assert len(problems) == 2
    assert problems[0].startswith("router invalid: detour_factor must be finite")
    assert problems[1] == (
        "station st-01 references unknown tariff 'no-such-tariff'; "
        "station st-02 references unknown tariff 'nor-this-one'; "
        "congestion multipliers must be > 0, got 0.0"
    )


def test_an_int_passes_where_a_float_is_due(tmp_path):
    config = ScenarioConfig()
    config.num_agents = 2
    config.horizon_days = 1
    config.stations = [{"station_id": "a", "latitude": 31, "longitude": 121, "pile_count": 2,
                        "pile_power_kw": 60, "tariff_id": "flat"}]
    config.tariffs = {"flat": [{"start": 0, "end": 1440, "price_per_kwh": 1}]}
    config.congestion_bands = [{"start": 0, "end": 1440, "multiplier": 1}]
    config.baseline_weights = {"distance": 1, "price": 0, "wait": 0}
    path = tmp_path / "ints.yaml"
    path.write_text(config.to_yaml(), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    location = config.build_stations()["a"].location
    assert type(location.latitude) is float and type(location.longitude) is float
    assert type(config.build_tariffs()["flat"].bands[0][2]) is float
    assert type(config.build_congestion().bands[0][2]) is float
    assert type(config.build_weights().distance) is float


def test_template_bounds_admit_their_edge_values(tmp_path):
    config = ScenarioConfig()
    config.num_agents = 2
    config.horizon_days = 1
    config.station_radius_km = float("inf")  # no radius limit
    config.persona_template = {
        "age_range": [1, 1],
        "price_sensitivity_range": [0, 1],
        "range_anxiety_range": [0.01, 0.99],
        "target_soc_range": [1, 1],
        "preferred_windows": [[0, 1440], [1439, 1440]],
    }
    config.plan_template = {
        "shifts": [[0, 1440]],
        "evening_shift": [1440, 1440],
        "gap_minutes_range": [0, 0],
    }
    path = tmp_path / "edges.yaml"
    path.write_text(config.to_yaml(), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0


def _edge_centres():
    near_pole = st.tuples(
        st.floats(85.0, 90.0) | st.floats(-90.0, -85.0), st.floats(-180.0, 180.0)
    )
    near_antimeridian = st.tuples(
        st.floats(-89.0, 89.0), st.floats(175.0, 180.0) | st.floats(-180.0, -175.0)
    )
    return near_pole | near_antimeridian


@settings(max_examples=60, deadline=None)
@given(centre=_edge_centres(), radius=st.sampled_from([0.5, 8.0, 40.0]))
@example(centre=(89.9, 0.0), radius=8.0)
@example(centre=(0.0, 179.99), radius=8.0)
@example(centre=(89.0, 0.0), radius=8.0)
@example(centre=(0.0, -179.6), radius=8.0)
def test_a_centre_near_a_pole_or_the_antimeridian_that_validates_runs(centre, radius):
    # a centre is either rejected for the planner's reach or runs to completion
    config = ScenarioConfig()
    config.num_agents = 2
    config.horizon_days = 1
    config.plan_template = {"center": list(centre), "area_radius_km": radius}
    problems = config.validate()
    if problems:
        assert len(problems) == 1 and problems[0].startswith("plan_template.center leaves")
        return
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run(config, Path(tmp) / "run")  # raises if the run fails
    assert artifacts.summary["num_agents"] == 2


@pytest.mark.parametrize("loader", [
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="no libyaml"),
        id="libyaml",
    ),
    pytest.param(yaml.SafeLoader, id="pure"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_yaml_is_a_config_error(tmp_path, capsys, monkeypatch, loader, command):
    monkeypatch.setattr("chargesim.config._Loader", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("num_agents: [1, 2\n", encoding="utf-8")
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid YAML") and "Traceback" not in err
    assert "line 2" in err  # the parser's position in the file
    assert not (tmp_path / "run").exists()


def test_run_writes_artifacts(tmp_path, small_config_file, capsys):
    out_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--config",
            str(small_config_file),
            "--seed",
            "7",
            "--provider",
            "mock",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    for name in (
        "behavior.log",
        "reflections.log",
        "summary.json",
        "final_states.json",
        "routes.json",
        "config.yaml",
        "personas.json",
    ):
        assert (out_dir / name).exists(), name
    assert not (out_dir / "memory").exists()  # agent memory is held in RAM only
    # the seed override is recorded in the config snapshot
    snapshot = yaml.safe_load((out_dir / "config.yaml").read_text(encoding="utf-8"))
    assert snapshot["seed"] == 7
    assert "behavior log sha256" in capsys.readouterr().out


def test_run_per_agent_records(tmp_path, small_config_file):
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(small_config_file), "--out", str(out_dir)]) == 0
    entries = [
        json.loads(line)
        for line in (out_dir / "behavior.log").read_text(encoding="utf-8").splitlines()
    ]
    agents = {e["agent_id"] for e in entries}
    assert agents == {"agent-00", "agent-01"}


def test_export_subcommands(tmp_path, small_config_file):
    out_dir = tmp_path / "run"
    main(["run", "--config", str(small_config_file), "--out", str(out_dir)])
    assert main(["export", "--run", str(out_dir), "--format", "csv"]) == 0
    assert main(["export", "--run", str(out_dir), "--format", "geojson"]) == 0
    assert main(["export", "--run", str(out_dir), "--format", "html"]) == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "map.geojson").exists()
    assert (out_dir / "map.html").exists()


def test_csv_export_of_a_failed_run_exits_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    failed = {"status": "failed", "error": {"type": "ProviderError", "message": "endpoint down"}}
    (run_dir / "summary.json").write_text(json.dumps(failed), encoding="utf-8")
    assert main(["export", "--run", str(run_dir), "--format", "csv"]) == 2
    assert "ProviderError: endpoint down" in capsys.readouterr().err
    assert not (run_dir / "summary.csv").exists()


class PlannerDown(MockProvider):
    def plan_day(self, persona, day_index, seed):
        raise RuntimeError("planner down")


@pytest.mark.parametrize("fmt", ["geojson", "html"])
def test_map_export_of_a_failed_run_exits_2(tmp_path, capsys, fmt):
    run_dir = tmp_path / "run"
    config = ScenarioConfig()
    config.num_agents = 1
    with pytest.raises(RuntimeError, match="planner down"):
        Simulation(config, run_dir, provider=PlannerDown())
    assert (run_dir / "behavior.log").exists() and (run_dir / "summary.json").exists()
    written = sorted(path.name for path in run_dir.iterdir())
    assert main(["export", "--run", str(run_dir), "--format", fmt]) == 2
    assert "RuntimeError: planner down" in capsys.readouterr().err
    assert sorted(path.name for path in run_dir.iterdir()) == written


@pytest.mark.parametrize("fmt", ["geojson", "html"])
def test_map_export_of_a_malformed_route_exits_2(tmp_path, small_config_file, capsys, fmt):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(small_config_file), "--out", str(run_dir)]) == 0
    original = json.loads((run_dir / "routes.json").read_text(encoding="utf-8"))
    routes = json.loads(json.dumps(original))
    routes["agent-00"]["route"].append(121.47)
    # a charge at a station that config.yaml lacks
    unknown_station = json.loads(json.dumps(original))
    unknown_station["agent-00"]["charges"].append([600, "st-99", "r"])
    # an agent of final_states.json without a route
    missing_agent = json.loads(json.dumps(original))
    del missing_agent["agent-00"]
    for edited in (missing_agent, routes, unknown_station):
        (run_dir / "routes.json").write_text(json.dumps(edited), encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--run", str(run_dir), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("export failed: routes.json: ") and "'agent-00'" in err
        assert "Traceback" not in err
        assert not (run_dir / f"map.{fmt}").exists()
    assert "'st-99'" in err


def test_export_missing_run_dir_exits_2(tmp_path, capsys):
    assert main(["export", "--run", str(tmp_path / "ghost"), "--format", "csv"]) == 2
    assert "missing run artifact" in capsys.readouterr().err


def test_unknown_flag_prints_usage_and_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--frobnicate", "--out", "x"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_format_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--run", "x", "--format", "pdf"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["validate", "run"])
def test_missing_config_file_exits_1(tmp_path, capsys, command):
    argv = [command, "--config", str(tmp_path / "none.yaml")]
    if command == "run":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


def test_run_applies_its_overrides_before_validating(tmp_path):
    config = ScenarioConfig()
    config.num_agents = 1
    config.horizon_days = 1
    config.provider = "bogus"
    path = tmp_path / "bogus.yaml"
    path.write_text(config.to_yaml(), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    argv = ["run", "--config", str(path), "--provider", "mock", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert "provider: mock" in (tmp_path / "run" / "config.yaml").read_text(encoding="utf-8")
