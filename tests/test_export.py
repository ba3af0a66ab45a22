from __future__ import annotations

import hashlib
import html
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargesim.config import ScenarioConfig, load_config
from chargesim.domain import canonical_json
from chargesim.engine import RunTotals, Simulation, build_summary, run
from chargesim.export import _geojson_text, export_csv, export_geojson, export_html
from chargesim.providers import DecisionResponse, MockProvider
from faults import FaultInjectingProvider
from geojson_schema import validate_geojson
from oracles import oracle_exports, read_log, same_json_tree
from test_engine import (
    add_stop_line,
    charge_and_strand_config,
    full_battery_approach,
    overnight_charge_config,
    stranding_config,
)


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

    @pytest.mark.parametrize("export", [export_geojson, export_html])
    def test_a_run_without_routes_json_raises(self, finished_run, tmp_path, export):
        # a run stopped before it finished has no routes.json; its maps are not
        # drawn from behavior.log instead
        _config, artifacts = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(artifacts.run_dir, run_dir)
        (run_dir / "routes.json").unlink()
        out = tmp_path / "map"
        with pytest.raises(FileNotFoundError, match="missing run artifact: .*routes.json"):
            export(run_dir, out)
        assert not out.exists()

    @pytest.mark.parametrize("export", [export_geojson, export_html])
    @pytest.mark.parametrize(
        "route, problem",
        [
            ([121.47, 31.23, 121.48], "odd count of numbers"),
            ([121.47, "31.23"], "non-number: '31.23'"),
            ([121.47, None], "non-number: None"),
            ([True, 31.23], "non-number: True"),
            # the rest of routes.json: an edit, and the message after "routes.json: "
            pytest.param(
                lambda routes: routes["agent-01"].update(route=7),
                "the route of 'agent-01' is not a list: 7",
                id="route-not-a-list",
            ),
            # a hand-written number is printed as routes.json spells it
            ([121.47, [31.23]], "non-number: [31.23]"),
            pytest.param(
                lambda routes: routes["agent-01"].update(route=7.5),
                "the route of 'agent-01' is not a list: 7.5",
                id="route-a-float",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].update(charges={"st-01": 600}),
                "the charges of 'agent-01' are not a list: {'st-01': 600}",
                id="charges-not-a-list",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].update(charges=[[600, "st-01"]]),
                "charge 0 of 'agent-01' is not an [integer time, station id, reason] triple",
                id="charge-of-two",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].update(charges=[[600.5, "st-01", "r"]]),
                "charge 0 of 'agent-01' is not an [integer time, station id, reason] triple",
                id="fractional-time",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].update(charges=[[True, "st-01", "r"]]),
                "charge 0 of 'agent-01' is not an [integer time, station id, reason] triple",
                id="bool-time",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].update(charges=[[600, 1, "r"]]),
                "charge 0 of 'agent-01' is not an [integer time, station id, reason] triple",
                id="station-not-a-string",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].update(charges=[[600, "st-99", "r"]]),
                "charge 0 of 'agent-01' names station 'st-99', which config.yaml lacks",
                id="unknown-station",
            ),
            pytest.param(
                lambda routes: routes.update({"agent-99": routes["agent-01"]}),
                "'agent-99' is not an agent in final_states.json",
                id="unknown-agent",
            ),
            pytest.param(
                lambda routes: routes.pop("agent-01"),
                "no entry for 'agent-01', an agent in final_states.json",
                id="missing-agent",
            ),
            pytest.param(
                lambda routes: routes["agent-01"].pop("charges"),
                "the entry of 'agent-01' is not an object with a route and charges",
                id="entry-without-charges",
            ),
        ],
    )
    def test_a_malformed_route_raises_naming_its_agent(
        self, finished_run, tmp_path, export, route, problem
    ):
        _config, artifacts = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(artifacts.run_dir, run_dir)
        routes = json.loads((run_dir / "routes.json").read_text(encoding="utf-8"))
        if callable(route):
            route(routes)
            pattern = f"^routes.json: {re.escape(problem)}$"
        else:
            routes["agent-01"]["route"] = route
            pattern = f"'agent-01' holds an? {re.escape(problem)}"
        (run_dir / "routes.json").write_text(json.dumps(routes), encoding="utf-8")
        out = tmp_path / "map"
        with pytest.raises(ValueError, match=pattern):
            export(run_dir, out)
        assert not out.exists()

    @pytest.mark.parametrize("export", [export_geojson, export_html])
    def test_a_routes_json_that_is_no_object_raises(self, finished_run, tmp_path, export):
        _config, artifacts = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(artifacts.run_dir, run_dir)
        (run_dir / "routes.json").write_text("[]", encoding="utf-8")
        problem = "routes.json is not an object of agent entries: []"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            export(run_dir, tmp_path / "map")

    def test_a_hand_written_route_keeps_its_number_spelling(self, finished_run, tmp_path):
        # integers, -0, NaN, spellings the engine never writes and a float charge time
        config, artifacts = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(artifacts.run_dir, run_dir)
        routes = json.loads((run_dir / "routes.json").read_text(encoding="utf-8"))
        station_id = config.stations[0]["station_id"]
        routes["agent-00"] = {"charges": [[600.0, station_id, "r"]], "route": ["ROUTE"]}
        route_text = "[121, -0, NaN, 31.50, 121.5E0, 31]"
        text = json.dumps(routes).replace('["ROUTE"]', route_text)
        (run_dir / "routes.json").write_text(text, encoding="utf-8")
        written = export_geojson(run_dir).read_text(encoding="utf-8")
        # every number as its text, as routes.json spells it
        spelled = json.loads(written, parse_int=str, parse_float=str, parse_constant=str)
        route, charge = [
            f
            for f in spelled["features"]
            if f["properties"].get("agent_id") == "agent-00"
            and f["properties"]["kind"] in ("route", "charge")
        ]
        assert route["geometry"]["coordinates"] == [["121", "-0"], ["NaN", "31.50"],
                                                    ["121.5E0", "31"]]
        assert charge["properties"]["time"] == "600.0"
        # the decision table reads the float charge time as its minute
        page = export_html(run_dir).read_text(encoding="utf-8")
        row = f"<tr><td>agent-00</td><td>day 0 10:00</td><td>{station_id}</td><td>r</td></tr>"
        assert row in page

    @pytest.mark.parametrize("export", [export_geojson, export_html])
    @pytest.mark.parametrize(
        "key, value, problem",
        [
            pytest.param(
                "latitude", "31.2330", "latitude must be of type float, got '31.2330'",
                id="quoted-latitude",
            ),
            pytest.param(
                "pile_count", [4], "pile_count must be of type int, got [4]",
                id="listed-pile-count",
            ),
        ],
    )
    def test_a_malformed_config_station_raises_naming_its_key(
        self, finished_run, tmp_path, export, key, value, problem
    ):
        # the maps check config.yaml's stations as a run does
        _config, artifacts = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(artifacts.run_dir, run_dir)
        data = yaml.safe_load((run_dir / "config.yaml").read_text(encoding="utf-8"))
        data["stations"][0][key] = value
        (run_dir / "config.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "map"
        with pytest.raises(TypeError, match=f"^{re.escape(problem)}$"):
            export(run_dir, out)
        assert not out.exists()


class PlannerDown(MockProvider):
    def plan_day(self, persona, day_index, seed):
        raise RuntimeError("planner down")


def _csv_rows(path):
    """CSV rows by agent id: [km, kWh, cost, charge count, mean satisfaction]."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        rows[cells[0]] = [float(c) for c in cells[1:4]] + [int(cells[4]), float(cells[5])]
    return rows


class TestCsv:
    def test_rows_are_the_summary_json_values(self, finished_run):
        _config, artifacts = finished_run
        summary = json.loads((artifacts.run_dir / "summary.json").read_text(encoding="utf-8"))
        columns = ("total_km", "total_kwh_charged", "total_cost", "charge_count",
                   "mean_satisfaction")
        expected = {aid: [totals[c] for c in columns] for aid, totals in summary["agents"].items()}
        expected["fleet"] = [summary["fleet"][c] for c in columns]
        assert _csv_rows(export_csv(artifacts.run_dir)) == expected  # bit-identical floats

    def test_needs_only_summary_json(self, finished_run, tmp_path):
        _config, artifacts = finished_run
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "summary.json").write_bytes((artifacts.run_dir / "summary.json").read_bytes())
        full = export_csv(artifacts.run_dir, tmp_path / "full.csv").read_bytes()
        assert export_csv(bare).read_bytes() == full

    def test_failed_run_raises_its_recorded_error(self, tmp_path):
        config = ScenarioConfig()
        config.num_agents = 1
        config.horizon_days = 1
        with pytest.raises(RuntimeError, match="planner down"):
            Simulation(config, tmp_path / "run", provider=PlannerDown())
        with pytest.raises(ValueError, match="RuntimeError: planner down"):
            export_csv(tmp_path / "run")
        assert not (tmp_path / "run" / "summary.csv").exists()

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
            "station": [31.233, 121.469],
            "start_wait": start,
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
            add_stop_line(totals, entry)
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

# markup in a free-text reason; map.html must show it as text
MARKUP_REASON = "cheap </script><b>&"


def _maps_match_the_oracle(run_dir) -> str:
    """Check map.geojson, map.html's embedded GeoJSON and its decision table
    against the full-parse oracle; return the page."""
    expected = oracle_exports(run_dir)
    text = export_geojson(run_dir).read_text(encoding="utf-8")
    collection = json.loads(text)
    assert same_json_tree(collection, expected["geojson"])
    # the writer splices routes.json's number text, which is the encoder's
    assert text == json.dumps(collection, sort_keys=True, indent=2) + "\n"
    page = export_html(run_dir).read_text(encoding="utf-8")
    embedded = page.split('<script type="application/json" id="geojson">')[1].split("</script>")[0]
    assert same_json_tree(json.loads(embedded), expected["geojson"])
    assert embedded.strip() == (
        json.dumps(collection, sort_keys=True)
        .replace("<", "\\u003c")
        .replace(">", "\\u003e")
        .replace("&", "\\u0026")
    )
    table = re.findall(r"<tr><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td></tr>", page)
    assert [[html.unescape(cell) for cell in row] for row in table] == expected["decisions"]
    return page


@st.composite
def small_configs(draw) -> ScenarioConfig:
    """A small valid scenario: 1-6 agents over 1-3 days, any perception
    radius (an infinite one is no limit), initial charge and seed."""
    config = ScenarioConfig()
    config.num_agents = draw(st.integers(1, 6))
    config.horizon_days = draw(st.integers(1, 3))
    config.station_radius_km = draw(st.one_of(st.floats(0.1, 30.0), st.just(math.inf)))
    config.initial_soc_kwh = draw(st.floats(0.0, 75.0))  # the default battery is 75 kWh
    config.seed = draw(st.integers(0, 2**32 - 1))
    return config


@settings(max_examples=25, deadline=None)
@given(small_configs())
@example(overnight_charge_config())
@example(stranding_config())
def test_maps_of_an_engine_run_match_the_full_parse_oracle(config):
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run(config, Path(tmp) / "run")
        _maps_match_the_oracle(artifacts.run_dir)


@settings(max_examples=25, deadline=None)
@given(small_configs(), st.none())
@example(stranding_config(), None)
@example(overnight_charge_config(), None)
@example(charge_and_strand_config(), None)
@example(*full_battery_approach())
def test_every_log_line_is_canonical_json(config, provider):
    """The engine writes its hot lines' extras by hand; every line of both
    logs must still be the canonical layout of what it parses to. The
    examples reach the strand, tow and full-battery approach lines."""
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run(config, Path(tmp) / "run", provider=provider)
        for path in (artifacts.behavior_log, artifacts.reflections_log):
            for line in path.read_text(encoding="utf-8").splitlines():
                assert line == canonical_json(json.loads(line))


class MarkupReasonProvider(MockProvider):
    """The mock policy, except that every charge decision's reason holds markup."""

    def decide(self, request):
        response = super().decide(request)
        if not response.decision:
            return response
        return DecisionResponse(quintuple=response.quintuple, reason=MARKUP_REASON)


def test_a_reason_with_markup_renders_as_text(tmp_path):
    config = charge_and_strand_config()
    provider = MarkupReasonProvider(plan_template=config.effective_plan_template())
    artifacts = run(config, tmp_path / "run", provider=provider)
    assert artifacts.summary["fallbacks"]["decisions"] == 0
    decisions = oracle_exports(artifacts.run_dir)["decisions"]
    assert decisions and all(reason == MARKUP_REASON for *_, reason in decisions)
    page = _maps_match_the_oracle(artifacts.run_dir)
    # the reason's markup is text: one closing script tag, no bold element
    assert page.count("</script>") == 1 and "<b>" not in page


def test_maps_match_the_oracle_on_a_fault_injected_run(tmp_path):
    # faults make fallback decisions, so the log holds "fallback":true lines
    config = charge_and_strand_config()
    inner = MockProvider(plan_template=config.effective_plan_template())
    provider = FaultInjectingProvider(inner, rate=0.3, seed=7)
    artifacts = run(config, tmp_path / "run", provider=provider)
    log = artifacts.behavior_log.read_text(encoding="utf-8")
    assert '"fallback":true,"record":{"action":"start_charging"' in log
    _maps_match_the_oracle(artifacts.run_dir)


# text the GeoJSON writer must escape as the encoder does: quotes,
# backslashes, non-ASCII text, lone surrogates and JSON's own separators.
# Code points are drawn directly (see test_domain.awkward_text).
AWKWARD_TEXT = [
    '"record":{"action":"skip_charging"',
    '","extras":{',
    ',"fallback":false,"record":{"action":"',
    ',"fallback":true}}',
    'st-"01"',
    "back\\slash",
    "café ☃ 𝄞",
    "\ud800",
    "",
]
tricky_text = st.one_of(
    st.sampled_from(AWKWARD_TEXT),
    st.lists(
        st.one_of(st.integers(0, 0x7F), st.integers(0x80, 0x10FFFF)).map(chr), max_size=6
    ).map("".join),
)


# numbers the writer must spell as the encoder does
numbers = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([-0.0, 5e-324, 1e22, 2**64 + 1, -(2**63)]),
)
points = st.lists(numbers, min_size=2, max_size=2)


def _feature(geometry_type, coordinates, properties) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": geometry_type, "coordinates": coordinates},
        "properties": properties,
    }


stations = st.builds(
    lambda point, station_id, count, power: _feature(
        "Point",
        point,
        {"kind": "station", "station_id": station_id, "pile_count": count, "pile_power_kw": power},
    ),
    points,
    tricky_text,
    st.integers(),
    st.one_of(st.integers(), st.floats()),
)
routes = st.builds(
    lambda line, agent_id: _feature("LineString", line, {"kind": "route", "agent_id": agent_id}),
    st.lists(points, min_size=2, max_size=4),
    tricky_text,
)
ends = st.builds(
    lambda point, kind, agent_id: _feature("Point", point, {"kind": kind, "agent_id": agent_id}),
    points,
    st.sampled_from(["start", "end"]),
    tricky_text,
)
charges = st.builds(
    lambda point, agent_id, time, reason, station_id: _feature(
        "Point",
        point,
        {
            "kind": "charge",
            "agent_id": agent_id,
            "time": time,
            "reason": reason,
            "station_id": station_id,
        },
    ),
    points,
    tricky_text,
    st.integers(0, 10**7),
    tricky_text,
    tricky_text,
)


feature_lists = st.lists(st.one_of(stations, routes, ends, charges), max_size=6)
EXTREME_STATION = [
    _feature(
        "Point",
        [-0.0, 5e-324],
        {"kind": "station", "station_id": 'st-"1"', "pile_count": 2**64, "pile_power_kw": 7},
    )
]


def _as_number_text(features: list[dict]) -> dict:
    """The FeatureCollection of features as build_geojson gives it: each
    position's numbers as their canonical_json text, as routes.json holds
    them."""
    written = []
    for feature in features:
        geometry = feature["geometry"]
        if geometry["type"] == "Point":
            coordinates = [canonical_json(number) for number in geometry["coordinates"]]
        else:
            coordinates = [
                [canonical_json(number) for number in point] for point in geometry["coordinates"]
            ]
        written.append(_feature(geometry["type"], coordinates, feature["properties"]))
    return {"type": "FeatureCollection", "features": written}


@settings(max_examples=150)
@given(feature_lists)
@example([])
@example(EXTREME_STATION)
def test_geojson_writer_matches_the_indenting_encoder(features):
    collection = {"type": "FeatureCollection", "features": features}
    expected = json.dumps(collection, sort_keys=True, indent=2)
    assert _geojson_text(_as_number_text(features)) == expected


@settings(max_examples=150)
@given(feature_lists)
@example([])
@example(EXTREME_STATION)
def test_geojson_writer_matches_the_compact_encoder(features):
    collection = {"type": "FeatureCollection", "features": features}
    expected = json.dumps(collection, sort_keys=True)
    assert _geojson_text(_as_number_text(features), compact=True) == expected


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


def test_a_run_whose_config_sets_the_retired_id_prefix_still_exports(finished_run, tmp_path):
    # a run directory written while persona_template held id_prefix keeps the
    # key in its config.yaml; the exporters read only its stations
    _config, artifacts = finished_run
    old_run = tmp_path / "old-run"
    shutil.copytree(artifacts.run_dir, old_run)
    text = (old_run / "config.yaml").read_text(encoding="utf-8")
    assert "id_prefix" not in text
    text = text.replace("persona_template:\n", "persona_template:\n  id_prefix: driver\n")
    (old_run / "config.yaml").write_text(text, encoding="utf-8")
    assert load_config(old_run / "config.yaml").persona_template["id_prefix"] == "driver"
    for export in (export_csv, export_geojson, export_html):
        then = export(old_run, tmp_path / f"old-{export.__name__}").read_bytes()
        now = export(artifacts.run_dir, tmp_path / f"new-{export.__name__}").read_bytes()
        assert then == now
