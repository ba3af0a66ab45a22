from __future__ import annotations

import hashlib
import json
import re

import pytest

from chargesim.config import ScenarioConfig
from chargesim.engine import run
from chargesim.export import (
    RunTotals,
    build_summary,
    export_csv,
    export_geojson,
    export_html,
    read_log,
)
from geojson_schema import validate_geojson
from oracles import oracle_exports


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    config = ScenarioConfig()
    config.num_agents = 3
    config.horizon_days = 2
    run_dir = tmp_path_factory.mktemp("runs") / "run"
    artifacts = run(config, run_dir)
    return config, artifacts


class TestGeojson:
    def test_validates_against_independent_schema(self, finished_run):
        _config, artifacts = finished_run
        out = export_geojson(artifacts.run_dir)
        validate_geojson(json.loads(out.read_text(encoding="utf-8")))

    def test_feature_counts(self, finished_run):
        config, artifacts = finished_run
        collection = json.loads(export_geojson(artifacts.run_dir).read_text(encoding="utf-8"))
        kinds = {}
        for feature in collection["features"]:
            kinds.setdefault(feature["properties"]["kind"], []).append(feature)
        assert len(kinds["route"]) == config.num_agents
        assert all(f["geometry"]["type"] == "LineString" for f in kinds["route"])
        assert len(kinds["station"]) == len(config.stations)
        assert len(kinds["start"]) == config.num_agents
        assert len(kinds["end"]) == config.num_agents
        charges = [
            e
            for e in read_log(artifacts.behavior_log)
            if e["record"]["action"] == "start_charging"
        ]
        assert len(kinds.get("charge", [])) == len(charges)

    def test_charge_features_carry_decision_details(self, finished_run):
        _config, artifacts = finished_run
        collection = json.loads(export_geojson(artifacts.run_dir).read_text(encoding="utf-8"))
        charges = [f for f in collection["features"] if f["properties"]["kind"] == "charge"]
        for feature in charges:
            assert {"time", "reason", "station_id", "agent_id"} <= set(feature["properties"])
            assert feature["properties"]["reason"]

    def test_agent_without_charges_has_no_charge_features(self, tmp_path):
        config = ScenarioConfig()
        config.num_agents = 1
        config.horizon_days = 1
        config.plan_template = {"shifts": [], "evening_shift_probability": 0.0}
        artifacts = run(config, tmp_path / "run")
        collection = json.loads(export_geojson(artifacts.run_dir).read_text(encoding="utf-8"))
        validate_geojson(collection)
        kinds = [f["properties"]["kind"] for f in collection["features"]]
        assert kinds.count("charge") == 0
        assert kinds.count("route") == 1  # still one (degenerate) route per agent

    def test_reexport_is_byte_identical(self, finished_run, tmp_path):
        _config, artifacts = finished_run
        first = export_geojson(artifacts.run_dir, tmp_path / "a.geojson").read_bytes()
        second = export_geojson(artifacts.run_dir, tmp_path / "b.geojson").read_bytes()
        assert first == second

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            export_geojson(tmp_path / "nope")


class TestCsv:
    def test_row_count_is_agents_plus_fleet(self, finished_run):
        config, artifacts = finished_run
        lines = export_csv(artifacts.run_dir).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + config.num_agents + 1
        assert lines[0].split(",")[0] == "agent_id"
        assert lines[-1].split(",")[0] == "fleet"

    def test_totals_reconcile_exactly_with_log(self, finished_run):
        _config, artifacts = finished_run
        lines = export_csv(artifacts.run_dir).read_text(encoding="utf-8").splitlines()
        rows = {}
        for line in lines[1:]:
            cells = line.split(",")
            rows[cells[0]] = {
                "total_km": float(cells[1]),
                "total_kwh_charged": float(cells[2]),
                "total_cost": float(cells[3]),
                "charge_count": int(cells[4]),
            }

        recomputed: dict[str, dict] = {}
        for entry in read_log(artifacts.behavior_log):
            bucket = recomputed.setdefault(
                entry["agent_id"],
                {"total_km": 0.0, "total_kwh_charged": 0.0, "total_cost": 0.0, "charge_count": 0},
            )
            action = entry["record"]["action"]
            extras = entry["extras"]
            if action == "travel":
                bucket["total_km"] += extras["distance_km"]
            elif action == "stop_charging":
                bucket["total_km"] += extras["approach_distance_km"]
                bucket["total_kwh_charged"] += extras["energy_kwh"]
                bucket["total_cost"] += extras["cost"]
                bucket["charge_count"] += 1

        for agent_id, expected in recomputed.items():
            got = rows[agent_id]
            for key in expected:
                assert got[key] == expected[key], (agent_id, key)

        for key in ("total_km", "total_kwh_charged", "total_cost"):
            fleet_expected = sum(recomputed[aid][key] for aid in sorted(recomputed))
            assert rows["fleet"][key] == fleet_expected
        assert rows["fleet"]["charge_count"] == sum(
            recomputed[aid]["charge_count"] for aid in recomputed
        )

    def test_reexport_is_byte_identical(self, finished_run, tmp_path):
        _config, artifacts = finished_run
        first = export_csv(artifacts.run_dir, tmp_path / "a.csv").read_bytes()
        second = export_csv(artifacts.run_dir, tmp_path / "b.csv").read_bytes()
        assert first == second

    def test_mean_satisfaction_matches_reflections(self, finished_run):
        _config, artifacts = finished_run
        lines = export_csv(artifacts.run_dir).read_text(encoding="utf-8").splitlines()
        by_agent: dict[str, list[float]] = {}
        for entry in read_log(artifacts.reflections_log):
            by_agent.setdefault(entry["agent_id"], []).append(
                entry["report"]["satisfaction"]["score"]
            )
        for line in lines[1:-1]:
            cells = line.split(",")
            scores = by_agent[cells[0]]
            assert float(cells[5]) == sum(scores) / len(scores)


class TestSummary:
    def test_fleet_aggregates_equal_per_agent_sums(self, finished_run):
        _config, artifacts = finished_run
        summary = artifacts.summary
        agents = summary["agents"]
        ordered = [agents[aid] for aid in sorted(agents)]
        assert summary["fleet"]["total_km"] == sum(a["total_km"] for a in ordered)
        assert summary["fleet"]["total_kwh_charged"] == sum(
            a["total_kwh_charged"] for a in ordered
        )
        assert summary["fleet"]["total_cost"] == sum(a["total_cost"] for a in ordered)
        assert summary["fleet"]["charge_count"] == sum(a["charge_count"] for a in ordered)
        assert summary["fleet"]["mean_satisfaction"] == sum(
            a["mean_satisfaction"] for a in ordered
        ) / len(ordered)

    def test_hourly_load_shape_and_energy_bound(self, finished_run):
        config, artifacts = finished_run
        hourly = artifacts.summary["hourly_load_kw"]
        ends = [
            e["extras"]["end_charge"]
            for e in read_log(artifacts.behavior_log)
            if e["record"]["action"] == "stop_charging"
        ]
        # one bucket per hour, through the horizon or the last charge's end
        assert len(hourly) == max([config.horizon_days * 24] + [-(-end // 60) for end in ends])
        assert all(value >= 0.0 for value in hourly)
        # nominal power over ceil-rounded windows can only overshoot the
        # delivered energy, never undershoot it
        assert sum(hourly) >= artifacts.summary["fleet"]["total_kwh_charged"] - 1e-9
        assert any(value > 0.0 for value in hourly)


def _stop_charging(start: int, end: int, power_kw: float) -> dict:
    return {
        "agent_id": "agent-00",
        "record": {"action": "stop_charging", "quintuple": {"power_kw": power_kw}},
        "extras": {
            "start_charge": start,
            "end_charge": end,
            "approach_distance_km": 0.0,
            "energy_kwh": power_kw * (end - start) / 60.0,
            "cost": 0.0,
        },
    }


class TestHourlyLoad:
    def _hourly(self, entries, horizon_days):
        totals = RunTotals()
        for entry in entries:
            totals.add(entry)
        final_states = {"agent-00": {"strand_count": 0}}
        return build_summary(totals, final_states, horizon_days)["hourly_load_kw"]

    def test_one_bucket_per_hour_of_a_ten_day_horizon(self):
        # hour 200 is on day 8: a weekly fold would have put it in hour 32
        hourly = self._hourly([_stop_charging(200 * 60 + 30, 201 * 60 + 30, 60.0)], 10)
        assert len(hourly) == 240
        assert hourly[200] == 30.0 and hourly[201] == 30.0
        assert sum(hourly) == 60.0

    def test_charge_past_the_horizon_extends_the_series(self):
        # a one-day run whose last charge starts at 23:30 and ends at 01:10
        hourly = self._hourly([_stop_charging(23 * 60 + 30, 25 * 60 + 10, 12.0)], 1)
        assert len(hourly) == 26
        assert hourly[:23] == [0.0] * 23
        assert hourly[23:] == [6.0, 12.0, 2.0]

    def test_no_charges_leaves_an_empty_horizon(self):
        assert self._hourly([], 3) == [0.0] * 72


class TestHtml:
    def test_contains_map_panel_and_embedded_geojson(self, finished_run):
        _config, artifacts = finished_run
        html = export_html(artifacts.run_dir).read_text(encoding="utf-8")
        assert "<svg" in html and "polyline" in html
        assert "Charging decisions" in html
        embedded = html.split('<script type="application/json" id="geojson">')[1]
        embedded = embedded.split("</script>")[0].strip()
        validate_geojson(json.loads(embedded))

    def test_reexport_is_byte_identical(self, finished_run, tmp_path):
        _config, artifacts = finished_run
        first = export_html(artifacts.run_dir, tmp_path / "a.html").read_bytes()
        second = export_html(artifacts.run_dir, tmp_path / "b.html").read_bytes()
        assert first == second


# ---------------------------------------------------------------------------
# Every exporter against the full-parse oracle, and pinned bytes
# ---------------------------------------------------------------------------

MARKER_TEXT = '"record":{"action":"skip_charging"'


def _entry(agent_id, action, timestamp, extras=None, object_id="", reason="", power_kw=0.0):
    return {
        "agent_id": agent_id,
        "extras": extras or {},
        "fallback": False,
        "record": {
            "action": action,
            "object_id": object_id,
            "quintuple": {"decision": action == "start_charging", "power_kw": power_kw},
            "reason": reason,
            "timestamp": timestamp,
        },
    }


def _compact(entry):
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def _travel(agent_id, timestamp, origin, destination, km, **extras):
    return _entry(
        agent_id,
        "travel",
        timestamp,
        {"origin": origin, "destination": destination, "distance_km": km, **extras},
    )


def _hand_written_behavior_log() -> str:
    station = [31.233, 121.469]  # st-01 of the default config
    home = [31.2, 121.4]
    work = [31.25, 121.45]
    stop = _entry(
        "agent-00",
        "stop_charging",
        700,
        {
            "station": station,
            "approach_distance_km": 0.7,
            "energy_kwh": 20.5,
            "cost": 24.6,
            "start_charge": 650,
            "end_charge": 700,
        },
        object_id="st-01",
        power_kw=60.0,
    )
    # keys in reverse order: "action" comes last, so no marker follows "record"
    unsorted_skip = _entry("agent-01", "skip_charging", 800, object_id="st-01")
    unsorted_skip["record"] = dict(reversed(list(unsorted_skip["record"].items())))
    record_first = _travel("agent-01", 900, work, home, 5.25)
    record_first = {"record": record_first.pop("record"), **record_first}
    decoy = {"record": {"action": "skip_charging"}}
    nested = _travel("agent-01", 950, home, station, 1.5, note=decoy)
    escaped = _compact(_travel("agent-01", 990, station, work, 2.75)).replace(
        '"action":"travel"', '"action":"\\u0074ravel"'
    )
    lines = [
        # the engine's layout, with the marker text escaped inside strings
        _compact(_travel("agent-00", 600, home, work, 3.5, note=MARKER_TEXT)),
        _compact(_entry("agent-00", "skip_charging", 600, object_id="st-01")),
        _compact(
            _entry(
                "agent-00",
                "start_charging",
                650,
                object_id="st-01",
                reason="chose to charge; did not log " + MARKER_TEXT,
            )
        ),
        "",
        # spaces after separators: parsed, then filtered by the parsed action
        json.dumps(stop, sort_keys=True),
        json.dumps(_entry("agent-01", "skip_charging", 700, object_id="st-01"), sort_keys=True),
        json.dumps(_entry("agent-01", "teleport", 750, object_id="st-01"), sort_keys=True),
        "   ",
        # unsorted keys
        json.dumps(unsorted_skip, separators=(",", ":")),
        json.dumps(record_first, separators=(",", ":")),
        # a second marker inside extras, and an escaped action name
        _compact(nested),
        escaped,
        # an unknown action in the engine's layout
        _compact(_entry("agent-01", "teleport", 1000, object_id="st-01")),
    ]
    return "\n".join(lines) + "\n\n"


@pytest.fixture
def hand_written_run(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.yaml").write_text(ScenarioConfig().to_yaml(), encoding="utf-8")
    (run_dir / "behavior.log").write_text(_hand_written_behavior_log(), encoding="utf-8")
    reflections = [
        {"agent_id": agent_id, "timestamp": 1440, "report": {"satisfaction": {"score": score}}}
        for agent_id, score in (("agent-00", 0.25), ("agent-01", 0.5), ("agent-00", 0.75))
    ]
    (run_dir / "reflections.log").write_text(
        "\n".join(_compact(r) for r in reflections) + "\n\n", encoding="utf-8"
    )
    final_states = {
        agent_id: {"location": [31.22, 121.41], "strand_count": 0}
        for agent_id in ("agent-00", "agent-01", "agent-02")
    }
    (run_dir / "final_states.json").write_text(json.dumps(final_states), encoding="utf-8")
    return run_dir


def test_exporters_match_the_full_parse_oracle_on_a_hand_written_log(hand_written_run):
    run_dir = hand_written_run
    expected = oracle_exports(run_dir)
    # the lines the pre-parse filter must not drop all count
    assert expected["rows"]["agent-00"] == [3.5 + 0.7, 20.5, 24.6, 1, 0.5]
    assert expected["rows"]["agent-01"][0] == 5.25 + 1.5 + 2.75
    assert len(expected["decisions"]) == 1
    assert MARKER_TEXT in expected["decisions"][0][3]

    lines = export_csv(run_dir).read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = [float(c) for c in cells[1:4]] + [int(cells[4]), float(cells[5])]
    assert rows == expected["rows"]

    collection = json.loads(export_geojson(run_dir).read_text(encoding="utf-8"))
    assert collection == expected["geojson"]

    html = export_html(run_dir).read_text(encoding="utf-8")
    embedded = html.split('<script type="application/json" id="geojson">')[1].split("</script>")[0]
    assert json.loads(embedded) == expected["geojson"]
    table = re.findall(r"<tr><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td></tr>", html)
    assert [list(row) for row in table] == expected["decisions"]


# sha256 of the exports of the seed-42 default run (10 agents x 7 days),
# as written before behavior.log was streamed with a pre-parse filter
EXPORT_PINS = {
    "summary.csv": "1995d5ca7125d2805b333fed919a55cdaf88b498a49ffbbfdcb719aa9ea44e70",
    "map.geojson": "c01fa88f78e66e35aec04094952f95aaad301924634f66007f623f243b85d988",
    "map.html": "9931a194c784991e72f9f4abf5c4c1fd0e9b093a1cac529cdab2764e90130cc2",
}


def test_default_run_exports_match_their_pins(tmp_path):
    config = ScenarioConfig()
    assert (config.num_agents, config.horizon_days, config.seed) == (10, 7, 42)
    artifacts = run(config, tmp_path / "run")
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (
            export_csv(artifacts.run_dir),
            export_geojson(artifacts.run_dir),
            export_html(artifacts.run_dir),
        )
    }
    assert written == EXPORT_PINS
