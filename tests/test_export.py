from __future__ import annotations

import json

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
