"""Static exports of a finished run: GeoJSON, HTML map and CSV.

Every export is a pure function of the artifacts under a run directory, so
re-exporting yields byte-identical files. summary.csv renders the totals
the engine wrote to summary.json, so the two cannot disagree. No export
renders a run whose summary.json records a failure: each raises ValueError
naming the recorded error.

The maps render routes.json, which the engine traced as it wrote
behavior.log (RunTotals): per agent, its waypoints as a flat list of lon,
lat pairs and its start_charging decisions as (timestamp, station_id,
reason). No exporter reads behavior.log, so a run directory without
routes.json, such as one left by a crash before the run finished, cannot
be mapped.

One writer splices each position's number text (a route's as routes.json
spells it, float.__repr__ as the encoder does) into map.geojson, byte for
byte json.dumps(collection, sort_keys=True, indent=2), and into map.html's
compact json.dumps(collection, sort_keys=True); no float is formatted twice.
"""

from __future__ import annotations

import json
from html import escape
from itertools import chain
from pathlib import Path

from .config import load_config
from .domain import json_number, json_string

SUMMARY_CSV_COLUMNS = (
    "agent_id",
    "total_km",
    "total_kwh_charged",
    "total_cost",
    "charge_count",
    "mean_satisfaction",
)


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing run artifact: {path}")
    return path


def _read_summary(run_dir: Path) -> dict:
    """summary.json's content, which every run directory holds (else
    FileNotFoundError); a failed run's raises ValueError naming its error."""
    summary = json.loads(_require(run_dir / "summary.json").read_text(encoding="utf-8"))
    if summary.get("status") == "failed":
        error = summary["error"]
        raise ValueError(f"run failed, nothing to export: {error['type']}: {error['message']}")
    return summary


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------


def _feature(geometry_type: str, coordinates: list, **properties) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": geometry_type, "coordinates": coordinates},
        "properties": properties,
    }


class _NumberText(str):
    """A number's text as routes.json spells it; its repr is that text."""

    __slots__ = ()
    __repr__ = str.__str__


def _route_positions(agent_id: str, flat: list) -> list[tuple[str, str]]:
    """routes.json's flat lon, lat list as (lon, lat) positions of number
    text; ValueError naming the agent for a non-list, an odd count or a
    non-number."""
    if type(flat) is not list:
        raise ValueError(f"routes.json: the route of {agent_id!r} is not a list: {flat!r}")
    if not set(map(type, flat)) <= {_NumberText}:
        stray = next(value for value in flat if type(value) is not _NumberText)
        raise ValueError(f"routes.json: the route of {agent_id!r} holds a non-number: {stray!r}")
    if len(flat) % 2:
        raise ValueError(f"routes.json: the route of {agent_id!r} holds an odd count of numbers")
    pairs = iter(flat)
    return list(zip(pairs, pairs))


def _is_minute(value) -> bool:
    """Number text of integer value: an integer, or a hand-written 600.0."""
    return type(value) is _NumberText and float(value).is_integer()


def _checked_charges(agent_id: str, charges: list, stations: dict) -> list:
    """routes.json's charges of agent_id; ValueError naming the agent for a
    non-list, a charge that is not an [integer time, station id, reason]
    triple, or a station config.yaml lacks."""
    if type(charges) is not list:
        raise ValueError(f"routes.json: the charges of {agent_id!r} are not a list: {charges!r}")
    for index, charge in enumerate(charges):
        if not (
            type(charge) is list
            and len(charge) == 3
            and _is_minute(charge[0])
            and type(charge[1]) is str
            and type(charge[2]) is str
        ):
            raise ValueError(
                f"routes.json: charge {index} of {agent_id!r} is not an "
                f"[integer time, station id, reason] triple"
            )
        if charge[1] not in stations:
            raise ValueError(
                f"routes.json: charge {index} of {agent_id!r} names station {charge[1]!r}, "
                f"which config.yaml lacks"
            )
    return charges


def build_geojson(run_dir: Path | str) -> dict:
    """The FeatureCollection of a run: its stations, then per agent its
    route, start and end points and charge markers.

    Each position is the (lon, lat) text of its numbers, each of
    routes.json's as spelled there. config.yaml's stations pass the run's
    own reader, build_stations, which names a malformed entry's key or a
    repeated station_id, and are drawn as written. A routes.json that is no
    object raises ValueError, and so does a malformed or missing entry (an
    agent that final_states.json lacks or that routes.json lacks, a
    malformed route or charge, or a charge at a station that config.yaml
    lacks), naming its agent, and a run whose summary.json records a
    failure, naming the error.
    """
    run_dir = Path(run_dir)
    _read_summary(run_dir)
    final_states = json.loads(_require(run_dir / "final_states.json").read_text(encoding="utf-8"))
    config = load_config(_require(run_dir / "config.yaml"))
    config.build_stations()

    features: list[dict] = []
    stations = {spec["station_id"]: spec for spec in config.stations}
    positions = {}
    for station_id in sorted(stations):
        spec = stations[station_id]
        positions[station_id] = (json_number(spec["longitude"]), json_number(spec["latitude"]))
        features.append(
            _feature(
                "Point",
                positions[station_id],
                kind="station",
                station_id=station_id,
                pile_count=spec["pile_count"],
                pile_power_kw=spec["pile_power_kw"],
            )
        )

    # per agent, its chronological waypoints and its charge decisions, each number as its text
    routes = json.loads(
        _require(run_dir / "routes.json").read_bytes(),
        parse_float=_NumberText,
        parse_int=_NumberText,
        parse_constant=_NumberText,
    )
    if type(routes) is not dict:
        raise ValueError(f"routes.json is not an object of agent entries: {routes!r:.80}")
    missing = sorted(final_states.keys() - routes.keys())
    if missing:
        raise ValueError(f"routes.json: no entry for {missing[0]!r}, an agent in final_states.json")
    for agent_id in sorted(routes):
        entry = routes[agent_id]
        if agent_id not in final_states:
            raise ValueError(f"routes.json: {agent_id!r} is not an agent in final_states.json")
        if type(entry) is not dict or not {"charges", "route"} <= entry.keys():
            raise ValueError(
                f"routes.json: the entry of {agent_id!r} is not an object with a route and charges"
            )
        points = _route_positions(agent_id, entry["route"])
        charges = _checked_charges(agent_id, entry["charges"], stations)
        # an agent that never moved is drawn as a route of two points where it stands
        lat, lon = final_states[agent_id]["location"]
        points += [(json_number(lon), json_number(lat))] * (2 - len(points))
        features.append(_feature("LineString", points, kind="route", agent_id=agent_id))
        features.append(_feature("Point", points[0], kind="start", agent_id=agent_id))
        features.append(_feature("Point", points[-1], kind="end", agent_id=agent_id))
        for timestamp, station_id, reason in charges:
            features.append(
                _feature(
                    "Point",
                    positions[station_id],
                    kind="charge",
                    agent_id=agent_id,
                    time=timestamp,
                    reason=reason,
                    station_id=station_id,
                )
            )

    return {"type": "FeatureCollection", "features": features}


def _value_text(value) -> str:
    """A property value (a number, a string or number text) as json.dumps writes it."""
    kind = type(value)
    if kind is float or kind is int:
        return json_number(value)
    if kind is str:
        return json_string(value)
    return value  # routes.json's charge time, as routes.json spells it


def _geojson_text(collection: dict, compact: bool = False) -> str:
    """json.dumps(numeric, sort_keys=True, indent=2), or compact, byte for
    byte for a FeatureCollection as build_geojson returns it, where numeric
    reads each position's text as a number the encoder spells that way.

    Each of its five feature kinds (station, route, start, end, charge) is
    {"geometry", "properties", "type"}: a Point's (lon, lat) or a
    LineString's list of them, and properties that always hold "kind".
    Property keys are sorted and each value is a scalar, written as the
    encoder would.
    """
    # per depth, the break before an item that many levels in, and the comma before the next
    breaks = ["" if compact else "\n" + "  " * depth for depth in range(7)]
    commas = [", " if compact else "," + brk for brk in breaks]
    between_positions = f"{breaks[5]}]{commas[5]}[{breaks[6]}"
    parts = []
    for feature in collection["features"]:
        geometry = feature["geometry"]
        if geometry["type"] == "Point":
            coordinates = f"[{breaks[5]}{commas[5].join(geometry['coordinates'])}{breaks[4]}]"
        else:
            positions = between_positions.join(map(commas[6].join, geometry["coordinates"]))
            coordinates = f"[{breaks[5]}[{breaks[6]}{positions}{breaks[5]}]{breaks[4]}]"
        properties = feature["properties"]
        body = commas[4].join(
            f"{json_string(key)}: {_value_text(properties[key])}"
            for key in sorted(properties)
        )
        parts.append(
            f'{{{breaks[3]}"geometry": {{{breaks[4]}"coordinates": {coordinates}{commas[4]}'
            f'"type": {json_string(geometry["type"])}{breaks[3]}}}{commas[3]}'
            f'"properties": {{{breaks[4]}{body}{breaks[3]}}}{commas[3]}'
            f'"type": {json_string(feature["type"])}{breaks[2]}}}'
        )
    features = f"[{breaks[2]}{commas[2].join(parts)}{breaks[1]}]" if parts else "[]"
    return (
        f'{{{breaks[1]}"features": {features}{commas[1]}'
        f'"type": {json_string(collection["type"])}{breaks[0]}}}'
    )


def export_geojson(run_dir: Path | str, out_path: Path | str | None = None) -> Path:
    run_dir = Path(run_dir)
    out = Path(out_path) if out_path else run_dir / "map.geojson"
    collection = build_geojson(run_dir)
    out.write_text(_geojson_text(collection) + "\n", encoding="utf-8")
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
    features = collection["features"]

    # per feature, its lons and lats as floats; float(repr(x)) == x
    shapes = []
    for feature in features:
        geometry = feature["geometry"]
        numbers = geometry["coordinates"]
        if geometry["type"] == "LineString":
            numbers = chain.from_iterable(numbers)
        numbers = list(map(float, numbers))
        shapes.append((numbers[0::2], numbers[1::2]))
    lons = list(chain.from_iterable(shape[0] for shape in shapes))
    lats = list(chain.from_iterable(shape[1] for shape in shapes))
    lon_min, lon_max = min(lons), max(lons)
    lat_min, lat_max = min(lats), max(lats)
    pad_lon = (lon_max - lon_min) * 0.05 or 0.01
    pad_lat = (lat_max - lat_min) * 0.05 or 0.01
    lon_min -= pad_lon
    lon_max += pad_lon
    lat_min -= pad_lat
    lat_max += pad_lat
    width, height = 720.0, 640.0
    projected = [
        (
            [round((lon - lon_min) / (lon_max - lon_min) * width, 2) for lon in lons],
            [round((lat_max - lat) / (lat_max - lat_min) * height, 2) for lat in lats],
        )
        for lons, lats in shapes
    ]

    def text(value: str) -> str:
        """Element text; agent ids, station ids and reasons may hold markup."""
        return escape(value, quote=False)

    svg_parts: list[str] = []
    agent_ids = sorted(
        {f["properties"]["agent_id"] for f in features if "agent_id" in f["properties"]}
    )
    color_of = {aid: _AGENT_COLORS[i % len(_AGENT_COLORS)] for i, aid in enumerate(agent_ids)}
    for feature, (xs, ys) in zip(features, projected):
        props = feature["properties"]
        if props["kind"] == "route":
            path = " ".join(map("{},{}".format, xs, ys))
            svg_parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color_of[props["agent_id"]]}" '
                f'stroke-width="1.4" opacity="0.75">'
                f'<title>{text(props["agent_id"])}</title></polyline>'
            )
    for feature, (xs, ys) in zip(features, projected):
        props = feature["properties"]
        if feature["geometry"]["type"] != "Point":
            continue
        x, y = xs[0], ys[0]
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

    decisions = [f for f in features if f["properties"]["kind"] == "charge"]
    rows = "\n".join(
        "<tr><td>{agent}</td><td>{time}</td><td>{station}</td><td>{reason}</td></tr>".format(
            agent=text(f["properties"]["agent_id"]),
            time=_minutes_label(int(float(f["properties"]["time"]))),
            station=text(f["properties"]["station_id"]),
            reason=text(f["properties"]["reason"]),
        )
        for f in decisions
    )
    # "<", ">" and "&" as JSON escapes, so no string in the data can close the
    # script element
    embedded = (
        _geojson_text(collection, compact=True)
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
    summary = _read_summary(run_dir)
    agents = summary["agents"]
    rows = [(agent_id, agents[agent_id]) for agent_id in sorted(agents)]
    rows.append(("fleet", summary["fleet"]))
    lines = [",".join(SUMMARY_CSV_COLUMNS)]
    for name, totals in rows:
        # repr writes each float so that it reads back bit-identical
        lines.append(",".join([name, *(repr(totals[key]) for key in SUMMARY_CSV_COLUMNS[1:])]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
