"""Command line interface: exit codes, artifacts, manifests, determinism."""

import json
import types

import pytest

from uvcguard.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_SAFETY_FAIL, main
from uvcguard.dosimetry import DOSE_MAP_HEADER
from uvcguard.room import default_room, serialize_room
from uvcguard.scenarios import (scenario_a, scenario_d, scenario_to_dict,
                                serialize_scenario)

ARTIFACTS = ("commands.csv", "dose_grid.csv", "events.csv", "probes.csv",
             "safety.json", "scenario.json")


def forced_exposure_text() -> str:
    # scenario D with one ceiling lamp forced on across the second visit
    doc = scenario_to_dict(scenario_d())
    doc["unsafe_force_on"] = {"ceiling_1": [[405.0, 430.0]]}
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_artifacts_and_manifest(tmp_path, capsys):
    assert main(["simulate", "--scenario", "fuzz:1",
                 "--out", str(tmp_path)]) == EXIT_OK
    outdir = tmp_path / "fuzz_1"
    for name in ARTIFACTS + ("manifest.json",):
        assert (outdir / name).is_file()

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["tool"] == "uvcguard"
    assert manifest["command"] == "simulate"
    assert manifest["scenario"] == "fuzz_1"
    assert manifest["status"] == "complete"
    assert manifest["outputs"] == sorted(ARTIFACTS)
    assert manifest["safety"] == {"verdict": "pass", "violation_count": 0}
    assert manifest["elapsed_s"] >= 0.0
    assert set(manifest["lamp_on_seconds"]) <= {
        "ceiling_1", "ceiling_2", "desk_2", "upper_room"}

    header_and_rows = (outdir / "events.csv").read_text().splitlines()
    assert len(header_and_rows) == manifest["event_count"] + 1
    command_lines = (outdir / "commands.csv").read_text().splitlines()
    assert len(command_lines) == manifest["command_count"] + 1

    out = capsys.readouterr().out
    assert "scenario fuzz_1:" in out
    assert "safety=pass (0 violations)" in out
    assert f"outputs in {outdir}" in out


def test_manifest_elapsed_keeps_microseconds(tmp_path, monkeypatch):
    # runs of a few milliseconds must not be rounded to whole milliseconds
    clock = iter((100.0, 100.0061234))
    monkeypatch.setattr("uvcguard.cli.time",
                        types.SimpleNamespace(monotonic=lambda: next(clock)))
    assert main(["simulate", "--scenario", "fuzz:1",
                 "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "fuzz_1" / "manifest.json").read_text())
    assert manifest["elapsed_s"] == 0.006123


def test_simulate_same_seed_is_byte_identical(tmp_path):
    assert main(["simulate", "--scenario", "fuzz:1",
                 "--out", str(tmp_path / "run1")]) == EXIT_OK
    assert main(["simulate", "--scenario", "fuzz:1",
                 "--out", str(tmp_path / "run2")]) == EXIT_OK
    for name in ARTIFACTS:   # manifest differs by wall-clock fields
        first = (tmp_path / "run1" / "fuzz_1" / name).read_bytes()
        second = (tmp_path / "run2" / "fuzz_1" / name).read_bytes()
        assert first == second, name


def test_simulate_seed_override_lands_in_manifest(tmp_path):
    assert main(["simulate", "--scenario", "fuzz:1", "--seed", "9",
                 "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "fuzz_1" / "manifest.json").read_text())
    assert manifest["seed"] == 9
    scenario = json.loads((tmp_path / "fuzz_1" / "scenario.json").read_text())
    assert scenario["seed"] == 9


def test_simulate_forced_exposure_exits_2(tmp_path, capsys):
    scenario_path = tmp_path / "forced.json"
    scenario_path.write_text(forced_exposure_text())
    rc = main(["simulate", "--scenario", str(scenario_path),
               "--out", str(tmp_path)])
    assert rc == EXIT_SAFETY_FAIL
    safety = json.loads((tmp_path / "D" / "safety.json").read_text())
    assert safety["verdict"] == "fail"
    assert safety["violation_count"] > 0
    assert safety["violations"], "recorded violations should not be empty"
    for v in safety["violations"]:
        assert v["lamp_id"] == "ceiling_1"
        assert v["received_irradiance_w_m2"] > 0.0
    assert "safety=fail" in capsys.readouterr().out


def test_simulate_missing_scenario_file_is_a_clean_error(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "missing.json")])
    assert rc == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario file")


def test_simulate_bad_fuzz_spec_is_a_clean_error(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "fuzz:xyz", "--out", str(tmp_path)])
    assert rc == EXIT_INPUT_ERROR
    assert "bad fuzz scenario spec" in capsys.readouterr().err


def test_out_directory_blocked_by_file_is_a_clean_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["simulate", "--scenario", "fuzz:1", "--out", str(blocker)])
    assert rc == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_out_env_var_sets_the_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("UVCGUARD_OUT", str(tmp_path / "env_root"))
    assert main(["simulate", "--scenario", "fuzz:2"]) == EXIT_OK
    assert (tmp_path / "env_root" / "fuzz_2" / "manifest.json").is_file()


# ---------------------------------------------------------------------------
# dosemap
# ---------------------------------------------------------------------------

def test_dosemap_covers_the_default_room(tmp_path, capsys):
    assert main(["dosemap", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "dose_map.csv").read_text().splitlines()
    assert lines[0] == DOSE_MAP_HEADER
    assert len(lines) == 1 + 8 * 6
    out = capsys.readouterr().out
    assert "min=80.3 s" in out
    assert "max=286.5 s" in out
    assert "covered=1.000" in out
    assert f"wrote {tmp_path / 'dose_map.csv'}" in out


def test_dosemap_tier_filter(tmp_path, capsys):
    assert main(["dosemap", "--tier", "desk", "--plane-height", "0.75",
                 "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    # the single desk lamp cannot reach the far corners of the room
    assert "covered=1.000" not in out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_room(tmp_path, capsys):
    good = tmp_path / "room.json"
    good.write_text(serialize_room(default_room()))
    assert main(["validate", "--room", str(good)]) == EXIT_OK
    assert "ok (4 lamps, 5 sensors, 2 zones)" in capsys.readouterr().out

    bad = tmp_path / "bad_room.json"
    bad.write_text("{\n  broken\n")
    assert main(["validate", "--room", str(bad)]) == EXIT_INPUT_ERROR
    out = capsys.readouterr().out
    assert "1 problem(s)" in out
    assert "parse error at line 2" in out


def test_validate_scenario(tmp_path, capsys):
    good = tmp_path / "sc.json"
    good.write_text(serialize_scenario(scenario_d()))
    assert main(["validate", "--scenario", str(good)]) == EXIT_OK
    assert "ok (scenario 'D', 1 occupants, 7200.0 s)" in capsys.readouterr().out

    doc = json.loads(good.read_text())
    doc["bogus"] = 1
    del doc["duration_s"]
    bad = tmp_path / "bad_sc.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == EXIT_INPUT_ERROR
    out = capsys.readouterr().out
    assert "2 problem(s)" in out
    assert "unexpected keys ['bogus']" in out
    assert "missing key 'duration_s'" in out


def test_validate_needs_exactly_one_target(tmp_path, capsys):
    assert main(["validate"]) == EXIT_INPUT_ERROR
    assert "exactly one of --room or --scenario" in capsys.readouterr().err
    room = tmp_path / "room.json"
    room.write_text(serialize_room(default_room()))
    assert main(["validate", "--room", str(room),
                 "--scenario", str(room)]) == EXIT_INPUT_ERROR


def test_written_scenario_reads_back(tmp_path, capsys):
    assert main(["simulate", "--scenario", "fuzz:1",
                 "--out", str(tmp_path)]) == EXIT_OK
    written = tmp_path / "fuzz_1" / "scenario.json"
    assert main(["validate", "--scenario", str(written)]) == EXIT_OK
    assert "ok (scenario 'fuzz_1'" in capsys.readouterr().out


def test_non_finite_settings_are_input_errors(tmp_path, capsys):
    doc = scenario_to_dict(scenario_d())
    doc["fusion"]["pir_hold"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))   # json writes the NaN literal
    assert main(["simulate", "--scenario", str(bad),
                 "--out", str(tmp_path / "out")]) == EXIT_INPUT_ERROR
    assert "fusion.pir_hold: expected a number" in capsys.readouterr().err
    assert main(["simulate", "--scenario", "fuzz:1", "--tz-offset", "nan",
                 "--out", str(tmp_path / "out")]) == EXIT_INPUT_ERROR
    assert "tz_offset must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_name_cannot_leave_the_output_directory(tmp_path, capsys):
    doc = scenario_to_dict(scenario_a())
    doc["name"] = "../escaped"
    esc = tmp_path / "esc.json"
    esc.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(esc),
                 "--out", str(tmp_path / "outs" / "base")]) == EXIT_INPUT_ERROR
    assert "'../escaped' must match" in capsys.readouterr().err
    assert not (tmp_path / "outs").exists()


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_the_simulated_command_log(tmp_path, capsys):
    assert main(["simulate", "--scenario", "fuzz:1",
                 "--out", str(tmp_path / "sim")]) == EXIT_OK
    rundir = tmp_path / "sim" / "fuzz_1"
    rc = main(["replay", "--scenario", "fuzz:1",
               "--events", str(rundir / "events.csv"),
               "--expect", str(rundir / "commands.csv"),
               "--out", str(tmp_path / "replay")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert f"matches {rundir / 'commands.csv'}" in out
    replayed = (tmp_path / "replay" / "replay_commands.csv").read_bytes()
    assert replayed == (rundir / "commands.csv").read_bytes()


def test_replay_expect_mismatch_exits_1(tmp_path, capsys):
    # a shortened scenario A still runs several desk cycles
    doc = scenario_to_dict(scenario_a())
    doc["duration_s"] = 900.0
    short = tmp_path / "a_short.json"
    short.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(short),
                 "--out", str(tmp_path / "sim")]) == EXIT_OK
    rundir = tmp_path / "sim" / "A"
    # same events, shorter desk cycles: the derived command log must differ
    doc["policy"]["desk_cycle"] = 120.0
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(doc))
    rc = main(["replay", "--scenario", str(altered),
               "--events", str(rundir / "events.csv"),
               "--expect", str(rundir / "commands.csv"),
               "--out", str(tmp_path / "replay")])
    assert rc == EXIT_INPUT_ERROR
    assert "mismatch against" in capsys.readouterr().err


def test_replay_rejects_a_garbled_event_log(tmp_path, capsys):
    garbled = tmp_path / "events.csv"
    garbled.write_text("timestamp_s,source,kind,arg1,arg2\nnot,a,row\n")
    rc = main(["replay", "--scenario", "fuzz:1",
               "--events", str(garbled), "--out", str(tmp_path)])
    assert rc == EXIT_INPUT_ERROR
    assert "bad event log" in capsys.readouterr().err


def test_replay_rejects_a_non_finite_event_timestamp(tmp_path, capsys):
    # a NaN first row sorted ahead of every event and stopped the ingest:
    # replay wrote 4 of D's 22 commands and exited 0
    assert main(["simulate", "--scenario", "D",
                 "--out", str(tmp_path / "sim")]) == EXIT_OK
    events = tmp_path / "sim" / "D" / "events.csv"
    header, first, rest = events.read_text().split("\n", 2)
    events.write_text("\n".join([header, "nan" + first[first.index(","):],
                                 rest]))
    rc = main(["replay", "--scenario", "D", "--events", str(events),
               "--out", str(tmp_path / "replay")])
    assert rc == EXIT_INPUT_ERROR
    assert "line 2: bad timestamp 'nan'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reference-suite
# ---------------------------------------------------------------------------

def test_reference_suite_passes_end_to_end(tmp_path, capsys):
    rc = main(["reference-suite", "--fuzz", "2", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "covered=1.000: ok" in out
    for name in ("A", "B", "C", "D", "midnight"):
        assert f"scenario {name}:" in out
        safety = json.loads((tmp_path / name / "safety.json").read_text())
        assert safety["verdict"] == "pass", name
    assert "fuzz: 2 randomized walks, 0 with violations or exposure: ok" in out
    assert out.rstrip().endswith("suite: PASS")

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["verdict"] == "pass"
    assert manifest["failures"] == []
    summary = json.loads((tmp_path / "fuzz_summary.json").read_text())
    assert summary["runs"] == 2
    assert summary["failing_seeds"] == []


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("uvcguard ")
