"""Static exports of a finished run: GeoJSON, HTML map and CSV.

Every export is a pure function of the artifacts under a run directory, so
re-exporting yields byte-identical files. summary.csv renders the totals
the engine wrote to summary.json, so the two cannot disagree.

The map exporters stream behavior.log once (iter_log) and parse only the
entries whose action they read: about half the log is skip_charging
decisions that neither uses. The engine writes every line with sorted
keys and compact separators, so a line's action shows in its
`"record":{"action":"..."` text and an unwanted line is skipped before
json.loads. A line in any other layout is parsed and then filtered by its
parsed action, which is the check that decides.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from html import escape
from pathlib import Path

from .config import load_config

SUMMARY_CSV_COLUMNS = (
    "agent_id",
    "total_km",
    "total_kwh_charged",
    "total_cost",
    "charge_count",
    "mean_satisfaction",
)


# the compact text of an engine-written entry's action (sort_keys, (",", ":"))
_ACTION_MARKER = '"record":{"action":"'


def _skippable(line: str, actions: frozenset[str]) -> bool:
    """True when the line's text alone shows its action is not in `actions`.

    Only a plain action named by the one marker in the line counts; a line
    with no marker, two markers or an escape in the name is parsed instead.
    A skipped line is never parsed, so it is not checked for valid JSON.
    """
    at = line.find(_ACTION_MARKER)
    if at < 0:
        return False
    start = at + len(_ACTION_MARKER)
    end = line.find('"', start)
    if end < 0:
        return False
    action = line[start:end]
    return (
        action not in actions
        and "\\" not in action
        and line.find(_ACTION_MARKER, end) < 0
    )


def iter_log(path: Path | str, actions: frozenset[str]) -> Iterator[dict]:
    """Yield the entries of a JSON-lines log whose record action is in
    `actions`, in file order, skipping blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if _skippable(line, actions):
                continue
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if entry["record"]["action"] in actions:
                yield entry


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing run artifact: {path}")
    return path


def _push_point(points: list[list[float]], lat: float, lon: float) -> None:
    """Append [lon, lat] unless it repeats the last waypoint."""
    coordinate = [lon, lat]
    if not points or points[-1] != coordinate:
        points.append(coordinate)


# the actions build_geojson reads: routes from travel legs and completed
# charges, charge markers from start_charging decisions
_GEOJSON_ACTIONS = frozenset({"travel", "stop_charging", "start_charging"})


def build_geojson(run_dir: Path | str) -> dict:
    run_dir = Path(run_dir)
    behavior_log = _require(run_dir / "behavior.log")
    final_states = json.loads(_require(run_dir / "final_states.json").read_text(encoding="utf-8"))
    config = load_config(_require(run_dir / "config.yaml"))

    features: list[dict] = []
    stations = {spec["station_id"]: spec for spec in config.stations}
    for station_id in sorted(stations):
        spec = stations[station_id]
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [spec["longitude"], spec["latitude"]],
                },
                "properties": {
                    "kind": "station",
                    "station_id": station_id,
                    "pile_count": spec["pile_count"],
                    "pile_power_kw": spec["pile_power_kw"],
                },
            }
        )

    # per agent, its chronological [lon, lat] waypoints and its charge markers
    routes: dict[str, list[list[float]]] = {agent_id: [] for agent_id in final_states}
    charges: dict[str, list[dict]] = {}
    for entry in iter_log(behavior_log, _GEOJSON_ACTIONS):
        agent_id = entry["agent_id"]
        record = entry["record"]
        action = record["action"]
        points = routes.setdefault(agent_id, [])
        if action == "travel":
            _push_point(points, *entry["extras"]["origin"])
            _push_point(points, *entry["extras"]["destination"])
        elif action == "stop_charging":
            _push_point(points, *entry["extras"]["station"])
        else:
            station = stations.get(record["object_id"])
            if station is None:
                continue
            charges.setdefault(agent_id, []).append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [station["longitude"], station["latitude"]],
                    },
                    "properties": {
                        "kind": "charge",
                        "agent_id": agent_id,
                        "time": record["timestamp"],
                        "reason": record["reason"],
                        "station_id": record["object_id"],
                    },
                }
            )

    for agent_id in sorted(routes):
        points = routes[agent_id]
        fallback = final_states.get(agent_id, {}).get("location", [0.0, 0.0])
        while len(points) < 2:
            points.append([fallback[1], fallback[0]])
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": points},
                "properties": {"kind": "route", "agent_id": agent_id},
            }
        )
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": points[0]},
                "properties": {"kind": "start", "agent_id": agent_id},
            }
        )
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": points[-1]},
                "properties": {"kind": "end", "agent_id": agent_id},
            }
        )
        features.extend(charges.get(agent_id, ()))

    return {"type": "FeatureCollection", "features": features}


def export_geojson(run_dir: Path | str, out_path: Path | str | None = None) -> Path:
    run_dir = Path(run_dir)
    out = Path(out_path) if out_path else run_dir / "map.geojson"
    collection = build_geojson(run_dir)
    out.write_text(
        json.dumps(collection, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return out


# ---------------------------------------------------------------------------
# HTML map
# ---------------------------------------------------------------------------

_AGENT_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _minutes_label(total_minutes: int) -> str:
    day, rem = divmod(total_minutes, 1440)
    return f"day {day} {rem // 60:02d}:{rem % 60:02d}"


def export_html(run_dir: Path | str, out_path: Path | str | None = None) -> Path:
    """Single-file map: routes, stations, start/end markers and a decision panel."""
    run_dir = Path(run_dir)
    out = Path(out_path) if out_path else run_dir / "map.html"
    collection = build_geojson(run_dir)

    lons = []
    lats = []
    for feature in collection["features"]:
        geometry = feature["geometry"]
        coordinates = (
            geometry["coordinates"]
            if geometry["type"] == "LineString"
            else [geometry["coordinates"]]
        )
        for lon, lat in coordinates:
            lons.append(lon)
            lats.append(lat)
    lon_min, lon_max = min(lons), max(lons)
    lat_min, lat_max = min(lats), max(lats)
    pad_lon = (lon_max - lon_min) * 0.05 or 0.01
    pad_lat = (lat_max - lat_min) * 0.05 or 0.01
    lon_min -= pad_lon
    lon_max += pad_lon
    lat_min -= pad_lat
    lat_max += pad_lat
    width, height = 720.0, 640.0

    def project(lon: float, lat: float) -> tuple[float, float]:
        x = (lon - lon_min) / (lon_max - lon_min) * width
        y = (lat_max - lat) / (lat_max - lat_min) * height
        return round(x, 2), round(y, 2)

    def text(value: str) -> str:
        """Element text; agent ids, station ids and reasons may hold markup."""
        return escape(value, quote=False)

    svg_parts: list[str] = []
    agent_ids = sorted(
        {f["properties"]["agent_id"] for f in collection["features"] if "agent_id" in f["properties"]}
    )
    color_of = {aid: _AGENT_COLORS[i % len(_AGENT_COLORS)] for i, aid in enumerate(agent_ids)}
    for feature in collection["features"]:
        props = feature["properties"]
        geometry = feature["geometry"]
        if props["kind"] == "route":
            path = " ".join(
                "{},{}".format(*project(lon, lat)) for lon, lat in geometry["coordinates"]
            )
            svg_parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color_of[props["agent_id"]]}" '
                f'stroke-width="1.4" opacity="0.75">'
                f'<title>{text(props["agent_id"])}</title></polyline>'
            )
    for feature in collection["features"]:
        props = feature["properties"]
        geometry = feature["geometry"]
        if geometry["type"] != "Point":
            continue
        x, y = project(*geometry["coordinates"])
        if props["kind"] == "station":
            svg_parts.append(
                f'<rect x="{x - 5}" y="{y - 5}" width="10" height="10" fill="#222" '
                f'stroke="#fff"><title>{text(props["station_id"])} '
                f'({props["pile_count"]} piles, {props["pile_power_kw"]} kW)</title></rect>'
            )
        elif props["kind"] == "start":
            svg_parts.append(
                f'<circle cx="{x}" cy="{y}" r="4" fill="#2ca02c" stroke="#fff">'
                f'<title>start {text(props["agent_id"])}</title></circle>'
            )
        elif props["kind"] == "end":
            svg_parts.append(
                f'<circle cx="{x}" cy="{y}" r="4" fill="#d62728" stroke="#fff">'
                f'<title>end {text(props["agent_id"])}</title></circle>'
            )
        elif props["kind"] == "charge":
            svg_parts.append(
                f'<circle cx="{x}" cy="{y}" r="3" fill="none" '
                f'stroke="{color_of.get(props["agent_id"], "#000")}" stroke-width="1.5"/>'
            )

    decisions = [
        f
        for f in collection["features"]
        if f["properties"]["kind"] == "charge"
    ]
    rows = "\n".join(
        "<tr><td>{agent}</td><td>{time}</td><td>{station}</td><td>{reason}</td></tr>".format(
            agent=text(f["properties"]["agent_id"]),
            time=_minutes_label(f["properties"]["time"]),
            station=text(f["properties"]["station_id"]),
            reason=text(f["properties"]["reason"]),
        )
        for f in decisions
    )
    # "<", ">" and "&" as JSON escapes, so no string in the data can close the
    # script element
    embedded = (
        json.dumps(collection, sort_keys=True)
        .replace("<", "\\u003c")
        .replace(">", "\\u003e")
        .replace("&", "\\u0026")
    )

    html = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>EV charging simulation map</title>
<style>
body {{ font-family: sans-serif; margin: 0; display: flex; }}
#map {{ flex: 0 0 auto; padding: 12px; }}
#panel {{ flex: 1; padding: 12px; overflow-y: auto; max-height: 100vh; }}
table {{ border-collapse: collapse; font-size: 12px; width: 100%; }}
td, th {{ border: 1px solid #ccc; padding: 3px 6px; text-align: left; vertical-align: top; }}
th {{ background: #eee; }}
</style>
</head>
<body>
<div id="map">
<h2>Routes, stations and charges</h2>
<svg width="{int(width)}" height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}"
     style="background:#f4f4f4;border:1px solid #999">
{chr(10).join(svg_parts)}
</svg>
</div>
<div id="panel">
<h2>Charging decisions</h2>
<table>
<tr><th>agent</th><th>time</th><th>station</th><th>reason</th></tr>
{rows}
</table>
</div>
<script type="application/json" id="geojson">
{embedded}
</script>
</body>
</html>
"""
    out.write_text(html, encoding="utf-8")
    return out


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def export_csv(run_dir: Path | str, out_path: Path | str | None = None) -> Path:
    """Summary table: summary.json's row for each agent, then its fleet row.

    A failed run has no totals to render, so its summary raises ValueError.
    """
    run_dir = Path(run_dir)
    out = Path(out_path) if out_path else run_dir / "summary.csv"
    summary = json.loads(_require(run_dir / "summary.json").read_text(encoding="utf-8"))
    if summary.get("status") == "failed":
        error = summary["error"]
        raise ValueError(f"run failed, no totals to export: {error['type']}: {error['message']}")
    agents = summary["agents"]
    rows = [(agent_id, agents[agent_id]) for agent_id in sorted(agents)]
    rows.append(("fleet", summary["fleet"]))
    lines = [",".join(SUMMARY_CSV_COLUMNS)]
    for name, totals in rows:
        # repr writes each float so that it reads back bit-identical
        lines.append(",".join([name, *(repr(totals[key]) for key in SUMMARY_CSV_COLUMNS[1:])]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
