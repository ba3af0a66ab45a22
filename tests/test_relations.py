"""Relations between runs of the default 10x7 scenario.

Each test changes the config in one way that should not matter, or should
matter only in a known way, and compares the logs of the two runs. A
pinned digest checks one run; these check that the behaviour does not
depend on the list order of the stations, on a station no agent can
reach (also one by a pole or the antimeridian), on how long the run goes
on afterwards, on how many agents follow, or on what the stations are
called.
"""

from __future__ import annotations

import json
import re

import pytest

from chargesim.config import ScenarioConfig
from chargesim.engine import run

LOGS = ("behavior.log", "reflections.log")
SEVEN_DAYS = 7 * 1440
DIGEST = re.compile(r'"snapshot_digest":"[0-9a-f]{64}"')


def _run(tmp_path, name, **changes):
    config = ScenarioConfig()
    for key, value in changes.items():
        setattr(config, key, value)
    return run(config, tmp_path / name).run_dir


def _text(run_dir, log):
    return (run_dir / log).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("relations"), "base")


def test_the_order_of_the_stations_does_not_matter(base, tmp_path):
    stations = ScenarioConfig().stations[::-1]
    reversed_run = _run(tmp_path, "reversed", stations=stations)
    for log in LOGS:
        assert _text(reversed_run, log) == _text(base, log)


def test_a_station_no_agent_reaches_does_not_matter(base, tmp_path):
    stations = ScenarioConfig().stations
    first = stations[0]
    assert first["station_id"] == "st-01"
    far = {**first, "station_id": "st-north", "latitude": first["latitude"] + 1.0}
    wider = _run(tmp_path, "wider", stations=[*stations, far])
    for log in LOGS:
        assert _text(wider, log) == _text(base, log)


def test_stations_next_to_a_pole_or_the_antimeridian_do_not_matter(base, tmp_path):
    # neither station has a box to skip it by, so every decision measures both
    stations = ScenarioConfig().stations
    first = stations[0]
    pole = {**first, "station_id": "st-pole", "latitude": 89.95, "longitude": 121.47}
    meridian = {**first, "station_id": "st-meridian", "latitude": 31.23, "longitude": 179.999}
    farther = _run(tmp_path, "farther", stations=[*stations, pole, meridian])
    for log in LOGS:
        assert _text(farther, log) == _text(base, log)


def _lines_before(run_dir, log, minute):
    """The log's lines stamped before minute: a behavior.log entry carries
    its record's timestamp, a reflections.log entry its own."""
    lines = []
    for line in _text(run_dir, log).splitlines():
        entry = json.loads(line)
        if entry.get("record", entry)["timestamp"] < minute:
            lines.append(line)
    return lines


def test_a_longer_run_begins_with_the_shorter_one(base, tmp_path):
    longer = _run(tmp_path, "longer", horizon_days=8)
    for log in LOGS:
        assert _lines_before(longer, log, SEVEN_DAYS) == _lines_before(base, log, SEVEN_DAYS)
    assert len(_lines_before(base, "behavior.log", SEVEN_DAYS)) == 2527


def test_one_more_agent_keeps_every_persona(base, tmp_path):
    larger = _run(tmp_path, "larger", num_agents=11)
    before = json.loads(_text(base, "personas.json"))
    after = json.loads(_text(larger, "personas.json"))
    assert len(before) == 10 and len(after) == 11
    assert {agent_id: after[agent_id] for agent_id in before} == before


def test_renamed_stations_change_only_their_ids_and_the_digests(base, tmp_path):
    stations = [
        {**station, "station_id": station["station_id"].replace("st-", "zz-")}
        for station in ScenarioConfig().stations
    ]
    renamed = _run(tmp_path, "renamed", stations=stations)
    original = _text(base, "behavior.log")
    assert '"st-' in original
    assert DIGEST.sub("", _text(renamed, "behavior.log").replace("zz-", "st-")) == DIGEST.sub(
        "", original
    )
    assert _text(renamed, "reflections.log") == _text(base, "reflections.log")
