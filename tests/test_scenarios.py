"""Bundled scenarios: anchors, determinism, file format round-trips."""

import copy
import dataclasses
import json
import math
from datetime import datetime, timezone

import pytest

from uvcguard.scenarios import (
    MIDNIGHT_START,
    REFERENCE_SCENARIO_NAMES,
    REFERENCE_START,
    load_scenario,
    midnight_scenario,
    random_walk_scenario,
    reference_scenarios,
    scenario_b,
    scenario_d,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from uvcguard.simulator import ScenarioError, validate_scenario


def base_doc() -> dict:
    # deep copy so each test can corrupt its own copy freely
    return json.loads(serialize_scenario(scenario_b()))


def errors_from(doc: dict) -> list:
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    return info.value.errors


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

def test_time_anchors():
    assert REFERENCE_START == datetime(
        2021, 3, 1, 9, 0, tzinfo=timezone.utc).timestamp()
    assert REFERENCE_START == 1614589200.0
    assert MIDNIGHT_START == datetime(
        2021, 3, 1, 23, 0, tzinfo=timezone.utc).timestamp()


def test_reference_scenario_inventory():
    scenarios = reference_scenarios()
    assert tuple(scenarios) == REFERENCE_SCENARIO_NAMES == ("A", "B", "C", "D")
    for name, sc in scenarios.items():
        assert sc.name == name
        assert sc.start_time == REFERENCE_START
        assert sc.duration == 7200.0
        assert sc.tick == 0.1
        assert (sc.noise.rssi_sigma_db, sc.noise.pir_miss_prob,
                sc.noise.false_positive_rate_per_hour) == (0.0, 0.0, 0.0)
        assert not sc.unsafe_force_on
        assert validate_scenario(sc) == []
    seeds = [sc.seed for sc in scenarios.values()]
    assert len(set(seeds)) == len(seeds)
    # only the scenario-D visitor is beacon-less
    assert [sc.occupants[0].carries_beacon
            for sc in scenarios.values()] == [True, True, True, False]


def test_midnight_scenario_shape():
    sc = midnight_scenario()
    assert sc.name == "midnight"
    assert sc.start_time == MIDNIGHT_START
    assert sc.duration == 93600.0
    assert sc.tick == 1.0
    assert len(sc.occupants) == 1
    assert not sc.occupants[0].carries_beacon
    assert validate_scenario(sc) == []


def test_random_walk_scenarios_are_deterministic_and_valid():
    assert random_walk_scenario(7) == random_walk_scenario(7)
    assert random_walk_scenario(7) != random_walk_scenario(8)
    for seed in range(6):
        sc = random_walk_scenario(seed)
        assert sc.name == f"fuzz_{seed}"
        assert sc.seed == seed
        assert 60.0 <= sc.duration <= 120.0
        assert (sc.noise.rssi_sigma_db, sc.noise.pir_miss_prob,
                sc.noise.false_positive_rate_per_hour) == (0.0, 0.0, 0.0)
        assert validate_scenario(sc) == []
        for occ in sc.occupants:
            assert not occ.waypoints[0].inside_room
            assert not occ.waypoints[-1].inside_room


# ---------------------------------------------------------------------------
# file format round-trips
# ---------------------------------------------------------------------------

def test_serialize_parse_round_trip_is_exact():
    everything = dict(reference_scenarios())
    everything["midnight"] = midnight_scenario()
    everything["fuzz_3"] = random_walk_scenario(3)
    for sc in everything.values():
        assert load_scenario(serialize_scenario(sc)) == sc


def test_force_on_round_trip_and_omission():
    forced = dataclasses.replace(
        scenario_d(), unsafe_force_on={"ceiling_1": ((405.0, 430.0),)})
    assert load_scenario(serialize_scenario(forced)) == forced
    assert "unsafe_force_on" in scenario_to_dict(forced)
    assert "unsafe_force_on" not in scenario_to_dict(scenario_d())


def test_start_time_serializes_as_utc_iso8601():
    assert scenario_to_dict(scenario_b())["start_iso8601"] == \
        "2021-03-01T09:00:00+00:00"


def test_naive_start_time_is_read_as_utc():
    doc = base_doc()
    doc["start_iso8601"] = "2021-03-01T09:00:00"
    assert scenario_from_dict(doc).start_time == REFERENCE_START


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def test_unknown_and_missing_keys_reported_together():
    errors = errors_from({"name": "x", "bogus": 1})
    assert "scenario: unexpected keys ['bogus']" in errors
    assert "scenario: missing key 'room'" in errors
    assert "scenario: missing key 'duration_s'" in errors


def test_waypoint_rows_must_be_five_lists():
    doc = base_doc()
    doc["occupants"][0]["waypoints"][1] = [1.0, 2.0, 3.0]
    assert errors_from(doc) == [
        "occupants[0].waypoints[1]: expected [t, x, y, z, inside]"]
    doc = base_doc()
    doc["occupants"][0]["waypoints"][1][4] = 1   # bool, not 0/1
    assert errors_from(doc) == [
        "occupants[0].waypoints[1]: expected [t, x, y, z, inside]"]


def test_occupant_field_errors():
    doc = base_doc()
    doc["occupants"][0]["id"] = ""
    assert errors_from(doc) == ["occupants[0].id: expected a non-empty string"]
    doc = base_doc()
    doc["occupants"][0]["waypoints"] = []
    assert errors_from(doc) == [
        "occupants[0].waypoints: expected a non-empty list"]


def test_bad_start_time_is_reported():
    doc = base_doc()
    doc["start_iso8601"] = "not a time"
    assert errors_from(doc) == ["start_iso8601: cannot parse 'not a time'"]


def test_nested_param_blocks_are_strict():
    doc = base_doc()
    doc["policy"] = {"bogus": 1}
    assert errors_from(doc) == ["policy: unexpected keys ['bogus']"]
    doc = base_doc()
    doc["fusion"] = {"bogus": 1}
    assert errors_from(doc) == ["fusion: unexpected keys ['bogus']"]
    doc = base_doc()
    doc["noise"] = {"rssi_sigma_db": "high"}
    assert errors_from(doc) == ["noise.rssi_sigma_db: expected a number"]


def test_scalar_field_types_are_checked():
    doc = base_doc()
    doc["seed"] = True
    assert errors_from(doc) == ["seed: expected an integer"]
    doc = base_doc()
    doc["assume_vacant_at_start"] = 1
    assert errors_from(doc) == ["assume_vacant_at_start: expected a boolean"]


def test_force_on_errors():
    doc = base_doc()
    doc["unsafe_force_on"] = {"ceiling_1": [[1.0]]}
    assert errors_from(doc) == [
        "unsafe_force_on['ceiling_1'][0]: expected [start_s, end_s]"]
    doc = base_doc()
    doc["unsafe_force_on"] = {"nope": [[0.0, 1.0]]}
    assert errors_from(doc) == ["unsafe_force_on: unknown lamp 'nope'"]


def test_room_errors_carry_a_room_prefix():
    doc = base_doc()
    del doc["room"]["door"]
    assert errors_from(doc) == ["room: config: missing key 'door'"]


def test_parsed_scenarios_still_pass_semantic_validation():
    doc = base_doc()
    wps = doc["occupants"][0]["waypoints"]
    wps[1][0] = wps[0][0]
    errors = errors_from(doc)
    assert len(errors) == 1
    assert "timestamps must strictly increase" in errors[0]


def test_json_syntax_errors_name_line_and_column():
    with pytest.raises(ScenarioError) as info:
        load_scenario('{"name": "x",}')
    assert info.value.errors[0].startswith(
        "scenario parse error at line 1, column 14")


# ---------------------------------------------------------------------------
# values that used to slip through
# ---------------------------------------------------------------------------

def test_non_finite_numbers_are_rejected():
    # a NaN PIR hold never asserts motion, which left scenario D's visitor
    # exposed on 624 ticks
    doc = scenario_to_dict(scenario_d())
    doc["fusion"]["pir_hold"] = math.nan
    assert errors_from(doc) == ["fusion.pir_hold: expected a number"]
    with pytest.raises(ScenarioError, match="fusion.pir_hold"):
        load_scenario(json.dumps(doc))
    doc = scenario_to_dict(scenario_d())
    doc["occupants"][0]["waypoints"][1][0] = math.inf
    assert errors_from(doc) == [
        "occupants[0].waypoints[1]: expected [t, x, y, z, inside]"]
    doc = scenario_to_dict(scenario_d())
    doc["duration_s"] = 10 ** 400
    assert errors_from(doc) == ["duration_s: expected a number"]


def test_scenario_name_must_be_a_safe_directory_name():
    for name in ("../escaped", "..", "a/b", ""):
        doc = base_doc()
        doc["name"] = name
        assert len(errors_from(doc)) == 1
    doc = base_doc()
    doc["name"] = {"a": 1}
    assert errors_from(doc) == ["name: expected a non-empty string"]


def test_non_list_sequences_are_reported():
    doc = base_doc()
    doc["occupants"][0]["waypoints"] = 5
    assert errors_from(doc) == [
        "occupants[0].waypoints: expected a non-empty list"]
    doc = base_doc()
    doc["unsafe_force_on"] = {"ceiling_1": 5}
    assert errors_from(doc) == ["unsafe_force_on['ceiling_1']: expected a list"]


def test_unknown_keys_do_not_hide_other_errors():
    doc = base_doc()
    doc["bogus"] = 1
    doc["seed"] = "s"
    doc["policy"] = {"bogus": 1, "tz_offset": True}
    assert errors_from(doc) == ["scenario: unexpected keys ['bogus']",
                                "policy: unexpected keys ['bogus']",
                                "policy.tz_offset: expected a number",
                                "seed: expected an integer"]


def _paths(node, path=()):
    """Every node below the root, visiting at most three items of a list."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node[:3]) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def test_parsers_raise_only_their_own_errors():
    forced = dataclasses.replace(
        scenario_b(), unsafe_force_on={"ceiling_1": ((405.0, 430.0),)})
    doc = scenario_to_dict(forced)
    paths = list(_paths(doc))
    assert len(paths) == 146
    for path in paths:
        for value in (math.nan, math.inf, True, "x", [], {}, None, 5, -1.0):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            try:
                sc = scenario_from_dict(mutated)
            except ScenarioError:
                continue
            # strict JSON has no NaN or Infinity: allow_nan=False raises on
            # them, and a number the writer leaves out breaks the round trip
            text = json.dumps(scenario_to_dict(sc), allow_nan=False)
            assert load_scenario(text) == sc, (path, value)
