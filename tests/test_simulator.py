"""Simulation engine: sensor models, determinism, dosimetry, safety audit."""

import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uvcguard
from uvcguard import simulator
from uvcguard.controller import (CyclePolicy, read_command_log,
                                 write_command_log)
from uvcguard.dosimetry import DoseGrid, accumulate_dose, irradiance_at_point
from uvcguard.cli import EXIT_OK, _safety_doc, main
from uvcguard.fusion import (EVENT_LOG_HEADER, BleAdvert, EventRuns,
                             FusionParams, ManualOff, ManualRearm,
                             OccupancyFusion, PirMotion, SensorEvent,
                             UsPresence, distance_to_rssi, event_to_row,
                             read_event_log, sort_events, write_event_log)
from uvcguard.room import LampTier, Point3, SensorKind, default_room
from uvcguard.scenarios import (MIDNIGHT_START, midnight_scenario,
                                random_walk_scenario, reference_scenarios,
                                scenario_d)
from uvcguard.simulator import (
    CHEST_HEIGHT,
    MAX_TICKS,
    NoiseParams,
    OccupantScript,
    SafetyReport,
    Scenario,
    ScenarioError,
    Waypoint,
    ble_model,
    pir_model,
    replay,
    safety_check,
    simulate,
    us_model,
    validate_scenario,
    write_dose_grid_csv,
    write_probe_log,
)

ROOM = default_room()
START = 1_614_589_200.0   # an arbitrary calendar anchor
QUIET = NoiseParams(rssi_sigma_db=0.0, pir_miss_prob=0.0,
                    false_positive_rate_per_hour=0.0)


def sensor(sensor_id: str):
    return next(s for s in ROOM.sensors if s.id == sensor_id)


def wp(t, x, y, z=1.0, inside=True):
    return Waypoint(t=t, position=Point3(x, y, z), inside_room=inside)


def make_scenario(occupants, duration=400.0, name="t", noise=QUIET, seed=1,
                  room=ROOM, **kwargs) -> Scenario:
    return Scenario(name=name, room=room, policy=CyclePolicy(),
                    fusion=FusionParams(), occupants=tuple(occupants),
                    start_time=START, duration=duration, tick=0.1, seed=seed,
                    noise=noise, **kwargs)


def seated(occupant_id="sitter", x=2.15, y=0.6, until=400.0,
           beacon=False) -> OccupantScript:
    return OccupantScript(occupant_id, carries_beacon=beacon,
                          waypoints=(wp(0.0, x, y), wp(until, x, y)))


def walker(duration=400.0) -> OccupantScript:
    """Enters through the door at ~20 s, pauses mid-room, leaves by ~60 s."""
    return OccupantScript("walker", carries_beacon=False, waypoints=(
        wp(0.0, 2.15, -5.0, inside=False),
        wp(18.0, 2.15, -0.5, inside=False),
        wp(20.0, 2.15, 0.5),
        wp(25.0, 2.15, 2.8),
        wp(50.0, 2.0, 2.8),
        wp(58.0, 2.15, 0.5),
        wp(60.0, 2.15, -0.5, inside=False),
        wp(duration, 2.15, -5.0, inside=False),
    ))


# ---------------------------------------------------------------------------
# sensor models
# ---------------------------------------------------------------------------

def test_pir_sees_fast_movement_in_cone():
    rng = random.Random(0)
    move = [(Point3(2.0, 2.0, 0.9), Point3(2.1, 2.0, 0.9))]
    assert pir_model(sensor("pir_1"), move, 0.1, rng, 0.0)


def test_pir_blind_to_slow_or_stationary_targets():
    rng = random.Random(0)
    still = [(Point3(2.0, 2.0, 0.9), Point3(2.0, 2.0, 0.9))]
    assert not pir_model(sensor("pir_1"), still, 0.1, rng, 0.0)
    creep = [(Point3(2.0, 2.0, 0.9), Point3(2.009, 2.0, 0.9))]  # 0.09 m/s
    assert not pir_model(sensor("pir_1"), creep, 0.1, rng, 0.0)


def test_pir_ignores_targets_outside_cone():
    rng = random.Random(0)
    # right behind the sensor head
    move = [(Point3(0.05, 5.5, 2.5), Point3(0.05, 5.58, 2.5))]
    assert not pir_model(sensor("pir_1"), move, 0.1, rng, 0.0)


def test_pir_first_tick_has_no_reference_position():
    rng = random.Random(0)
    assert not pir_model(sensor("pir_1"), [(None, Point3(2, 2, 0.9))],
                         0.1, rng, 0.0)


def test_pir_miss_probability_one_never_fires():
    rng = random.Random(0)
    move = [(Point3(2.0, 2.0, 0.9), Point3(2.2, 2.0, 0.9))]
    assert not pir_model(sensor("pir_1"), move, 0.1, rng, 1.0)


def test_us_ranges_stationary_target_in_zone():
    pos = Point3(2.15, 5.0, 1.0)   # seated at desk 2
    d = us_model(sensor("us_desk_2"), [pos])
    assert d == pytest.approx(sensor("us_desk_2").position.distance_to(pos),
                              rel=1e-12)


def test_us_ignores_out_of_range_and_out_of_cone():
    assert us_model(sensor("us_desk_2"), [Point3(2.15, 3.0, 1.0)]) is None
    assert us_model(sensor("us_desk_2"), [Point3(2.15, 5.54, 2.55)]) is None


def test_us_returns_nearest_of_several():
    near = Point3(2.15, 5.0, 1.0)
    far = Point3(2.15, 4.6, 0.9)
    d = us_model(sensor("us_desk_2"), [far, near])
    assert d == pytest.approx(sensor("us_desk_2").position.distance_to(near),
                              rel=1e-12)


def test_ble_noiseless_matches_path_loss():
    rng = random.Random(0)
    params = FusionParams()
    beacon = Point3(2.15, 3.0, 1.0)
    rssi = ble_model(sensor("ble_door"), beacon, params, rng, 0.0)
    expected = distance_to_rssi(
        sensor("ble_door").position.distance_to(beacon), params)
    assert rssi == expected


def test_ble_noise_stays_in_payload_band():
    rng = random.Random(7)
    params = FusionParams()
    for _ in range(200):
        rssi = ble_model(sensor("ble_door"), Point3(4.0, 5.0, 1.0), params,
                         rng, 30.0)
        assert -120.0 <= rssi <= 0.0


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_validate_scenario_accepts_a_sound_one():
    assert validate_scenario(make_scenario([seated()])) == []


def test_validate_scenario_rejects_bad_tick():
    sc = dataclasses.replace(make_scenario([seated()]), tick=0.0)
    assert any("tick" in p for p in validate_scenario(sc))
    sc = dataclasses.replace(make_scenario([seated()]), tick=1.5)
    assert any("tick" in p for p in validate_scenario(sc))


def test_validate_scenario_ties_tick_to_reaction_deadline():
    sc = make_scenario([seated()])
    # a zero deadline is a legal policy that no tick can meet
    for deadline in (0.05, 0.0):
        bad = dataclasses.replace(
            sc, policy=CyclePolicy(reaction_deadline=deadline), tick=0.1)
        assert any("reaction deadline" in p for p in validate_scenario(bad))


def test_validate_scenario_rejects_disordered_waypoints():
    script = OccupantScript("o", False, (wp(5.0, 1, 1), wp(5.0, 2, 2)))
    problems = validate_scenario(make_scenario([script]))
    assert any("strictly increase" in p for p in problems)


def test_validate_scenario_rejects_inside_flag_outside_box():
    script = OccupantScript("o", False, (wp(0.0, -1.0, 1.0, inside=True),
                                         wp(10.0, 1.0, 1.0)))
    problems = validate_scenario(make_scenario([script]))
    assert any("outside the room box" in p for p in problems)


def test_validate_scenario_rejects_bad_force_windows():
    sc = make_scenario([seated()],
                       unsafe_force_on={"ghost": ((0.0, 1.0),)})
    assert any("unknown lamp" in p for p in validate_scenario(sc))
    sc = make_scenario([seated()],
                       unsafe_force_on={"ceiling_1": ((5.0, 1.0),)})
    assert any("bad interval" in p for p in validate_scenario(sc))


def test_validate_scenario_rejects_non_finite_values():
    sc = make_scenario([seated()])
    for bad in (math.nan, math.inf):
        assert validate_scenario(dataclasses.replace(sc, duration=bad)) == [
            "duration must be finite and > 0"]
        script = OccupantScript("o", False, (wp(0.0, 1, 1), wp(bad, 2, 2)))
        assert validate_scenario(make_scenario([script])) == [
            "occupant 'o': waypoint 1 must be finite"]
        forced = make_scenario([seated()],
                               unsafe_force_on={"ceiling_1": ((0.0, bad),)})
        assert validate_scenario(forced) == [
            "unsafe_force_on['ceiling_1']: bad interval"]


def test_validate_scenario_bounds_the_tick_count():
    a = reference_scenarios()["A"]
    for huge in (dataclasses.replace(a, tick=1e-9),       # 7.2e12 ticks
                 dataclasses.replace(a, duration=1e15)):
        assert any(f"must be in [1, {MAX_TICKS}]" in p
                   for p in validate_scenario(huge))
    # rounds to zero ticks: nothing would be simulated, yet the audit passed
    empty = dataclasses.replace(
        scenario_d(), duration=0.04,
        unsafe_force_on={"ceiling_1": ((0.0, 0.04),)})
    assert validate_scenario(empty) == [
        f"duration / tick gives 0 ticks; it must be in [1, {MAX_TICKS}]"]
    with pytest.raises(ScenarioError):
        simulate(empty)


def test_simulate_raises_on_invalid_scenario():
    sc = dataclasses.replace(make_scenario([seated()]), duration=-1.0)
    with pytest.raises(ScenarioError):
        simulate(sc)


def test_ids_the_csv_logs_cannot_carry_are_rejected():
    # a beacon id with a comma would add a field to its events.csv rows
    sc = make_scenario([seated("worker,3", beacon=True)])
    assert any("'worker,3'" in p and "id must match" in p
               for p in validate_scenario(sc))
    with pytest.raises(ScenarioError, match="worker,3"):
        simulate(sc)
    lamps = tuple(dataclasses.replace(l, id="desk 2") if l.id == "desk_2"
                  else l for l in ROOM.lamps)
    sc = make_scenario([seated()], room=dataclasses.replace(ROOM, lamps=lamps))
    with pytest.raises(ScenarioError, match="'desk 2': id must match"):
        simulate(sc)


def test_duplicate_occupant_ids_are_rejected():
    # a bystander in the corridor sharing the visitor's id reset the
    # visitor's entry clock every tick and hid the forced exposure
    d = scenario_d()
    forced = dataclasses.replace(
        d, duration=500.0, unsafe_force_on={"ceiling_1": ((405.0, 430.0),)})

    def with_bystander(occupant_id):
        bystander = OccupantScript(occupant_id, False, (
            wp(0.0, 2.15, -20.0, 1.1, inside=False),
            wp(7200.0, 2.15, -20.0, 1.1, inside=False)))
        return dataclasses.replace(forced, occupants=d.occupants + (bystander,))

    assert simulate(with_bystander("bystander")).safety.violation_count > 0
    twin = with_bystander("visitor_1")
    assert validate_scenario(twin) == ["occupant 'visitor_1': duplicate id"]
    with pytest.raises(ScenarioError, match="duplicate id"):
        simulate(twin)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def noisy_scenario(seed: int) -> Scenario:
    return make_scenario(
        [walker(), seated("badge_holder", x=2.15, y=0.6, beacon=True)],
        noise=NoiseParams(rssi_sigma_db=2.0, pir_miss_prob=0.05,
                          false_positive_rate_per_hour=50.0),
        seed=seed)


def artifacts(result) -> Dict[str, str]:
    """The four CSV logs of a run by file name."""
    parts = {}
    for name, writer, arg in (
            ("events.csv", write_event_log, result.timeline.events),
            ("commands.csv", write_command_log, result.timeline.commands),
            ("probes.csv", write_probe_log, result.timeline),
            ("dose_grid.csv", write_dose_grid_csv, result.dose_grid)):
        buf = io.StringIO()
        writer(arg, buf)
        parts[name] = buf.getvalue()
    return parts


def render(result) -> str:
    return "\n".join(artifacts(result).values())


def assert_same(name: str, a, b) -> None:
    """``a`` equals ``b``: texts by SHA-256 digest, anything else by ``==``.
    A failure names the first line that differs, without the diff of
    several MB that an ``assert a == b`` would make."""
    if isinstance(a, str) and isinstance(b, str):
        same = hashlib.sha256(a.encode()).digest() == \
            hashlib.sha256(b.encode()).digest()
    else:
        same = a == b
    if same:
        return

    def lines(value) -> List[str]:
        if isinstance(value, str):
            return value.splitlines()
        if isinstance(value, SafetyReport):
            return [*map(repr, value.violations),
                    f"violation_count={value.violation_count}",
                    f"total_occupant_dose={value.total_occupant_dose!r}"]
        return [*map(repr, value)]

    for lineno, (line_a, line_b) in enumerate(
            itertools.zip_longest(lines(a), lines(b)), start=1):
        if line_a != line_b:
            pytest.fail(f"{name}: first difference at line {lineno}: "
                        f"{line_a!r} != {line_b!r}")
    pytest.fail(f"{name}: unequal, but every line reads the same")


def test_same_seed_is_byte_identical():
    assert render(simulate(noisy_scenario(42))) == \
        render(simulate(noisy_scenario(42)))


def test_different_seed_changes_the_noise():
    assert render(simulate(noisy_scenario(42))) != \
        render(simulate(noisy_scenario(43)))


def test_probe_log_bytes_do_not_depend_on_the_hash_seed():
    # an empty room assumed vacant: three lamps switch on in the same tick
    # at 60 s, and the probes must sum their irradiance in a fixed order
    code = (
        "import sys\n"
        "from uvcguard.controller import CyclePolicy\n"
        "from uvcguard.fusion import FusionParams\n"
        "from uvcguard.room import default_room\n"
        "from uvcguard.simulator import (NoiseParams, Scenario, simulate,\n"
        "                                write_probe_log)\n"
        "sc = Scenario(name='empty', room=default_room(), policy=CyclePolicy(),\n"
        "              fusion=FusionParams(), occupants=(),\n"
        f"              start_time={START!r}, duration=120.0,\n"
        "              noise=NoiseParams(false_positive_rate_per_hour=0.0),\n"
        "              assume_vacant_at_start=True)\n"
        "write_probe_log(simulate(sc).timeline, sys.stdout)\n")
    src = str(Path(uvcguard.__file__).resolve().parent.parent)
    logs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        logs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, check=True).stdout)
    assert logs[0].count(b"\n") == 1201
    assert logs[0] == logs[1]


ROUND_TRIP_RUNS = {
    **{f"fuzz:{seed}": (lambda seed=seed: random_walk_scenario(seed))
       for seed in range(10)},
    "noisy": lambda: noisy_scenario(42),
    "two_occupants": lambda: make_scenario([walker(), seated()]),
    # still spans: runs of rows that repeat a payload, from a seated worker,
    # from latched sensors and between noisy adverts
    "B_1500": lambda: dataclasses.replace(reference_scenarios()["B"],
                                          duration=1500.0),
    "held_B": lambda: NEXT_EVENT_RUNS["held_B"](),
    "noisy_B": lambda: NEXT_EVENT_RUNS["noisy_B"](),
}


@pytest.mark.parametrize("run", sorted(ROUND_TRIP_RUNS))
def test_replay_of_the_event_log_reproduces_the_commands(run):
    scenario = ROUND_TRIP_RUNS[run]()
    result = simulate(scenario)
    log = io.StringIO()
    write_event_log(result.timeline.events, log)
    # the writer formats repeated tails once: the bytes of one row per event
    assert_same("events.csv", log.getvalue(), "".join(
        [EVENT_LOG_HEADER + "\n"] +
        [",".join(event_to_row(e)) + "\n" for e in result.timeline.events]))
    events = read_event_log(io.StringIO(log.getvalue()))
    assert_same("read back", events, result.timeline.events)
    assert result.timeline.commands
    assert replay(scenario, events) == result.timeline.commands


# ---------------------------------------------------------------------------
# timeline bookkeeping
# ---------------------------------------------------------------------------

def test_probe_samples_match_lamp_intervals():
    result = simulate(make_scenario([walker()]))
    timeline = result.timeline
    probe_pts = {"room_center": Point3(ROOM.width / 2, ROOM.length / 2, 0.7),
                 "desk_2": Point3(2.15, 5.0, 0.7)}
    lamps = {l.id: l for l in ROOM.lamps}

    def lamps_on_at(t):
        return [lamps[lamp_id]
                for lamp_id, spans in sorted(timeline.lamp_intervals.items())
                if any(s <= t < e for s, e in spans)]

    assert timeline.probe_names == ("room_center", "desk_2")
    assert len(timeline.probe_samples) == 4000
    for k in range(0, 4000, 37):
        values = timeline.probe_samples[k]
        on = lamps_on_at(timeline.start_time + k * timeline.tick)
        for name, value in zip(timeline.probe_names, values):
            expected = irradiance_at_point(on, probe_pts[name]) if on else 0.0
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)


PROBE_LOG_RUNS = {
    # tick times on a grid of tenths, in whole seconds, and neither (a
    # quarter-second tick from 5 s): each path of ``tick_texts``
    "A_1200": lambda: dataclasses.replace(reference_scenarios()["A"],
                                          duration=1200.0),
    "midnight_3h": lambda: dataclasses.replace(midnight_scenario(),
                                               duration=3 * 3600.0),
    "quarter_ticks_from_5s": lambda: dataclasses.replace(
        make_scenario([walker()]), start_time=5.0, tick=0.25),
    "forced": lambda: make_scenario(
        [walker()], unsafe_force_on={"ceiling_2": ((30.0, 45.0),)}),
}


@pytest.mark.parametrize("run", sorted(PROBE_LOG_RUNS))
def test_the_probe_log_writes_one_row_per_tick(run):
    timeline = simulate(PROBE_LOG_RUNS[run]()).timeline
    samples = timeline.probe_samples
    rows = list(samples)
    assert len(samples) == len(rows) == round(
        (timeline.end_time - timeline.start_time) / timeline.tick)
    assert all(samples[k] is values for k, values in enumerate(rows))
    assert samples == rows
    assert samples[-1] is rows[-1] and samples[-len(rows)] is rows[0]
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            samples[k]
    assert len(list(samples.runs())) > 2       # the lamps switched
    log = io.StringIO()
    write_probe_log(timeline, log)
    start, tick = timeline.start_time, timeline.tick
    assert_same("probes.csv", log.getvalue(), "".join(
        ["timestamp_s," + ",".join(f"{name}_w_m2"
                                   for name in timeline.probe_names) + "\n"] +
        [repr(start + k * tick) + "," + ",".join(map(repr, values)) + "\n"
         for k, values in enumerate(samples)]))


def test_probe_samples_hold_a_run_per_lamp_switch():
    # the longest run there is, in an empty room assumed vacant: its lamps
    # run every scheduled cycle
    scenario = Scenario(name="empty", room=ROOM, policy=CyclePolicy(),
                        fusion=FusionParams(), occupants=(), start_time=START,
                        duration=float(MAX_TICKS), tick=1.0, noise=QUIET,
                        assume_vacant_at_start=True)
    timeline = simulate(scenario).timeline
    assert len(timeline.probe_samples) == MAX_TICKS
    assert timeline.commands
    assert len(list(timeline.probe_samples.runs())) <= \
        len(timeline.commands) + 1


def test_lamps_lit_keep_their_switch_on_order():
    # the hourly schedule lights upper_room at tick 0, and desk_2, ceiling_2
    # and ceiling_1 are forced on in that order, against room order: the
    # desk probe sums them in switch-on order, and in room order the sum
    # differs in its last bit. On-intervals are keyed in the order their
    # lamps first switch off, then the lamps still lit by id
    sc = make_scenario([], duration=10.0, unsafe_force_on={
        "desk_2": ((1.0, 10.0),), "ceiling_2": ((2.0, 5.0),),
        "ceiling_1": ((3.0, 10.0),)})
    timeline = simulate(sc).timeline
    lamps = {l.id: l for l in ROOM.lamps}
    desk_probe = Point3(2.15, 5.0, simulator.PROBE_HEIGHT)
    assert timeline.probe_samples[40][1] == irradiance_at_point(
        [lamps[i] for i in ("upper_room", "desk_2", "ceiling_2", "ceiling_1")],
        desk_probe)
    assert timeline.probe_samples[40][1] != irradiance_at_point(
        [lamps[i] for i in ("ceiling_1", "ceiling_2", "desk_2", "upper_room")],
        desk_probe)
    assert list(timeline.lamp_intervals) == [
        "ceiling_2", "ceiling_1", "desk_2", "upper_room"]


def test_dose_grid_matches_interval_accumulation():
    result = simulate(make_scenario([walker()]))
    assert result.timeline.lamp_intervals   # the run had lamps on
    fresh = DoseGrid.for_room(ROOM)
    expected = accumulate_dose(fresh, ROOM.lamps, result.timeline.lamp_intervals)
    assert result.dose_grid.accumulated_dose == pytest.approx(
        expected.accumulated_dose, rel=1e-9)


def test_events_are_time_ordered_and_sources_known():
    result = simulate(noisy_scenario(5))
    events = result.timeline.events
    known = {s.id for s in ROOM.sensors}
    assert all(e.source in known for e in events)
    assert all(a.timestamp <= b.timestamp
               for a, b in zip(events, events[1:]))


# ---------------------------------------------------------------------------
# exposure accounting
# ---------------------------------------------------------------------------

def test_forced_desk_lamp_doses_distant_occupant_without_violation():
    # a motionless, beaconless person at desk 1 is invisible to every
    # detector, so this checks the dose ledger and the zone scoping of the
    # interlock rather than the controller
    sc = make_scenario([seated()], duration=400.0,
                       unsafe_force_on={"desk_2": ((10.0, 310.0),)})
    result = simulate(sc)
    assert result.safety.passed
    lamp = next(l for l in ROOM.lamps if l.id == "desk_2")
    expected_e = irradiance_at_point([lamp], Point3(2.15, 0.6, CHEST_HEIGHT))
    assert expected_e == pytest.approx(0.004988530030008474, rel=1e-12)
    assert result.safety.total_occupant_dose["sitter"] == pytest.approx(
        expected_e * 300.0, rel=1e-9)
    assert result.timeline.lamp_intervals["desk_2"] == [
        (START + 10.0, START + 310.0)]


def test_forced_ceiling_lamp_over_an_occupant_is_a_violation():
    script = OccupantScript("target", False, (
        wp(0.0, 2.15, -2.0, inside=False),
        wp(50.0, 2.15, -0.5, inside=False),
        wp(52.0, 2.15, 0.5),
        wp(55.0, 2.15, 1.4),
        wp(100.0, 2.15, 1.4),
    ))
    sc = make_scenario([script], duration=100.0,
                       unsafe_force_on={"ceiling_1": ((60.0, 80.0),)})
    result = simulate(sc)
    assert not result.safety.passed
    assert result.safety.verdict == "fail"
    assert result.safety.violation_count == 200   # one per tick for 20 s
    v = result.safety.violations[0]
    assert v.occupant_id == "target"
    assert v.lamp_id == "ceiling_1"
    assert v.timestamp == pytest.approx(START + 60.0, abs=1e-9)
    lamp = next(l for l in ROOM.lamps if l.id == "ceiling_1")
    chest = Point3(2.15, 1.4, CHEST_HEIGHT)
    assert v.received_irradiance == pytest.approx(
        irradiance_at_point([lamp], chest), rel=1e-12)
    assert result.safety.total_occupant_dose["target"] == pytest.approx(
        irradiance_at_point([lamp], chest) * 20.0, rel=1e-9)


def test_walker_scenario_is_exposure_free():
    result = simulate(make_scenario([walker()]))
    assert result.safety.passed
    assert result.safety.total_occupant_dose == {"walker": 0.0}


def test_a_still_span_adds_the_dose_observe_adds():
    # desk 2's lamp lit over a worker seated at desk 1, outside its zone
    sc = make_scenario([seated()])
    lit = {"desk_2": next(l for l in ROOM.lamps if l.id == "desk_2")}
    pos = Point3(2.15, 0.6, 1.0)
    t0 = START + 10.0
    observed = simulator._SafetyAccumulator(sc, ["sitter"])
    spanned = simulator._SafetyAccumulator(sc, ["sitter"])
    for audit in (observed, spanned):
        audit.observe(t0, "sitter", t0, pos, True, pos, True, lit)
    for k in range(1, 51):
        observed.observe(t0 + k * sc.tick, "sitter", t0, pos, True, pos, True, lit)
    assert spanned.still(t0 + sc.tick, [t0], [pos], [True], lit, 50)
    assert spanned.report() == observed.report()
    assert observed.dose["sitter"] > 0.0
    # an entry clock that starts after the span's first tick does, or a lit
    # ceiling lamp, could make a tick differ from the rest: no span
    late = simulator._SafetyAccumulator(sc, ["sitter"])
    assert not late.still(t0, [t0 + 1e-6], [pos], [True], lit, 50)
    ceiling = {"ceiling_1": next(l for l in ROOM.lamps if l.id == "ceiling_1")}
    assert not spanned.still(t0 + 6.0, [t0], [pos], [True], ceiling, 50)
    assert spanned.report() == observed.report()


# ---------------------------------------------------------------------------
# offline audit agreement
# ---------------------------------------------------------------------------

def unseen(script: OccupantScript,
           tiers=(LampTier.CEILING, LampTier.DESK)) -> Scenario:
    """``script`` in a room assumed vacant and with only the lamps of
    ``tiers``, never the upper-room lamp, so that no command falls at tick
    0. The cycle at 60 s lights every lamp, and an occupant whom no sensor
    sees does not stop it."""
    room = dataclasses.replace(ROOM, lamps=tuple(
        l for l in ROOM.lamps if l.tier in tiers))
    return make_scenario([script], room=room, assume_vacant_at_start=True)


def creeper() -> OccupantScript:
    """Waits at the door until 100.05 s, off the tick grid, then creeps to
    desk 1 below the PIR speed threshold, crossing the door plane within
    the same tick."""
    return OccupantScript("creeper", carries_beacon=False, waypoints=(
        wp(0.0, 2.15, -0.002, inside=False),
        wp(100.05, 2.15, -0.002, inside=False),
        wp(112.05, 2.15, 0.598),
        wp(400.0, 2.15, 0.598)))


def forced_over_entries(scenario: Scenario) -> Scenario:
    """``scenario`` with ceiling 1 and desk 2 forced on over windows that
    cross each occupant's entry: the first waypoint flagged inside ends
    the segment that crosses the door."""
    entries = [next(w.t for w in o.waypoints if w.inside_room)
               for o in scenario.occupants]
    return dataclasses.replace(scenario, unsafe_force_on={
        "ceiling_1": tuple((e - 1.0, e + 1.5) for e in entries),
        "desk_2": tuple((e - 0.5, e + 8.0) for e in entries)})


def test_safety_check_agrees_with_the_engine():
    # the audit of the command log as written to and read back from
    # commands.csv, with nothing else of the run: the exposure pass moves
    # its own track of the entry clocks
    counts = []
    for sc in (make_scenario([walker()]),
               make_scenario([walker()],
                             unsafe_force_on={"ceiling_2": ((30.0, 45.0),)}),
               unseen(seated()), unseen(creeper()),
               *(forced_over_entries(random_walk_scenario(seed))
                 for seed in range(20))):
        result = simulate(sc)
        log = io.StringIO()
        write_command_log(result.timeline.commands, log)
        timeline = simulator.Timeline(
            scenario_name=sc.name, start_time=sc.start_time,
            end_time=sc.end_time, tick=sc.tick, probe_names=(),
            commands=read_command_log(io.StringIO(log.getvalue())))
        assert safety_check(timeline, sc) == result.safety
        counts.append(result.safety.violation_count)
    assert counts == [0, 150, 6800, 5980,
                      154, 99, 108, 18, 33, 29, 72, 17, 57, 69,
                      11, 54, 30, 35, 63, 50, 14, 88, 12, 176]


def test_a_command_for_a_lamp_the_room_lacks_is_an_error():
    # scenario C's ceiling-lamp commands, renamed in the written log: the
    # audit would otherwise pass a log whose lamps it never lit
    sc = reference_scenarios()["C"]
    result = simulate(sc)
    renamed = [dataclasses.replace(cmd, lamp_id="ceiling_9")
               if cmd.lamp_id.startswith("ceiling_") else cmd
               for cmd in result.timeline.commands]
    first = next(cmd for cmd in renamed if cmd.lamp_id == "ceiling_9")
    log = io.StringIO()
    write_command_log(renamed, log)
    timeline = dataclasses.replace(
        result.timeline, commands=read_command_log(io.StringIO(log.getvalue())))
    with pytest.raises(ValueError) as caught:
        safety_check(timeline, sc)
    assert "'ceiling_9'" in str(caught.value)
    assert repr(first.timestamp) in str(caught.value)


def door_crosser() -> OccupantScript:
    """Crosses the door plane at 20.53 s, mid-tick, and sits at desk 2."""
    return OccupantScript("crosser", carries_beacon=False, waypoints=(
        wp(0.0, 2.15, -0.5, inside=False),
        wp(20.03, 2.15, -0.5, inside=False),
        wp(21.03, 2.15, 0.5),
        wp(25.03, 2.15, 4.5),
        wp(200.0, 2.15, 4.5)))


def test_violations_count_from_the_entry_the_track_locates():
    # the crossing tick is dark: the exposure pass skips it, and the
    # deadline runs from the crossing instant on the track
    sc = make_scenario([door_crosser()], duration=200.0,
                       unsafe_force_on={"ceiling_1": ((21.0, 30.0),)})
    result = simulate(sc)
    track = simulator._Occupants(sc, simulator._TickGrid(sc), track=True)
    for k in range(1, 206):
        track.move_to(k)
    assert track.entered == [None]
    # tick 205's segment crosses the door
    track.move_to(206)
    clock = track.entered[0]
    assert clock == pytest.approx(START + 20.53, abs=1e-6)
    first = result.safety.violations[0]
    assert first.timestamp == clock + sc.policy.reaction_deadline
    assert result.safety.violation_count == 85


def swap_at_the_door() -> List[OccupantScript]:
    """One worker leaves by 43.3 s while another enters at 40.57 s, mid-tick,
    and sits in desk 2's zone."""
    return [OccupantScript("leaver", False, (
                wp(0.0, 2.15, 2.8), wp(40.0, 2.15, 2.8),
                wp(43.3, 2.15, -0.5, inside=False),
                wp(200.0, 2.15, -0.5, inside=False))),
            OccupantScript("entrant", False, (
                wp(0.0, 2.15, -0.5, inside=False),
                wp(40.07, 2.15, -0.5, inside=False),
                wp(45.07, 2.15, 4.5), wp(200.0, 2.15, 4.5)))]


def test_a_track_over_parked_spans_reads_the_clocks_of_every_tick():
    # the exposure pass moves its track into each tick while someone moves
    # and over parked spans: on every tick it lands on, the entry clocks
    # read as on a track moved into every tick
    scenarios = [random_walk_scenario(seed) for seed in range(20)] + [
        make_scenario([door_crosser()], duration=200.0),
        make_scenario(swap_at_the_door(), duration=200.0),
        make_scenario([walker(), seated()]), unseen(creeper()),
        # steps out, waits 1 mm outside the door and steps back in off the
        # tick grid: the walk jumps from the wait into the room
        make_scenario([OccupantScript("stepper", False, (
            wp(0.0, 2.15, 1.0), wp(10.0, 2.15, -0.001, inside=False),
            wp(19.95, 2.15, -0.001, inside=False), wp(21.95, 2.15, 1.0)))]),
        reference_scenarios()["D"]]
    clocks = []
    landings = steps = 0
    for sc in scenarios:
        ticks = simulator._TickGrid(sc)
        parked = simulator._Occupants(sc, ticks, track=True)
        landed = {0: list(parked.entered)}
        while parked.k < ticks.count:
            parked.move_to(max(parked.k + 1, parked.parked_until()))
            landed[parked.k] = list(parked.entered)
        stepped = simulator._Occupants(sc, ticks, track=True)
        # (tick, occupant index, clock) from each tick whose movement
        # segment changes a clock
        changes = [(0, i, clock) for i, clock in enumerate(stepped.entered)
                   if clock is not None]
        for k in range(1, ticks.count + 1):
            was = list(stepped.entered)
            stepped.move_to(k)
            changes += [(k - 1, i, clock) for i, clock in
                        enumerate(stepped.entered) if clock != was[i]]
            if k in landed:
                assert stepped.entered == landed[k], (sc.name, k)
        landings += len(landed)
        steps += ticks.count + 1
        clocks.append(changes)
    assert landings < steps / 2
    # the swap: the leaver's clock from tick 0 until the first tick wholly
    # outside, the entrant's from the crossing instant
    assert clocks[21] == [(0, 0, START),
                          (405, 1, pytest.approx(START + 40.57, abs=1e-6)),
                          (433, 0, None)]
    # the stepper's clock is cleared on the first tick wholly outside and
    # set again on the tick that steps back in, where the straight segment
    # from 19.9 s to 20 s, 0.05 s of walking at 0.5005 m/s, crosses the door
    crossing = 0.1 * 0.001 / (0.05 * 0.5005)
    assert clocks[24] == [(0, 0, START), (100, 0, None),
                          (199, 0, pytest.approx(START + 19.9 + crossing,
                                                 abs=1e-6))]


# ---------------------------------------------------------------------------
# exposure bytes: the dose grid and the audit, pinned
# ---------------------------------------------------------------------------

def exposure_texts(result) -> List[str]:
    """A run's ``dose_grid.csv`` and ``safety.json``, as the CLI writes them."""
    grid = io.StringIO()
    write_dose_grid_csv(result.dose_grid, grid)
    return [grid.getvalue(), json.dumps(_safety_doc(result), indent=2) + "\n"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the SHA-256 of dose_grid.csv and of safety.json: the oracle compares two
# modes of the same code, and the benchmark digests neither file
EXPOSURE_DIGESTS = {
    "A": ("63c203f0c3ab6be174dc0fe0d47b245847e1a5e6f643f4316cce8c6776840f78",
          "097c6480c9eb8e56268ff9e81345024f82fe44f689f8ce426fa378a3657720cf"),
    "B": ("cdb460279d70719d182c713d184dd5be9e64d2346fc50f35eeb415b0b1eafb69",
          "950f86ae5034a67db24f7fed5436aa422d96d46c04d6736bf2e85873be2d689e"),
    "C": ("1576bc8c644686af9ac40215e5dd7661a36174f7c3d9f7564b9ec1ee3036697f",
          "e221d154d36c96228aeef4059d79f6d7b2be3b6130be8615569b2d8e807f49eb"),
    "D": ("5a352be58423a607b7f686272d39bed3e01bab30eb392c7b53a01d97b4a77a6a",
          "e3b3b94e30365927f1ae6de6aec1e8eba558c37ec1709490eb80a165a910a20b"),
    "midnight": (
        "937be49ddd0030e608d97560f8674d71a4e3469b42b381d9d992ab01c9af8e30",
        "33b7f20ec8e5b9346be0dcb47f7cdbe739b8c7a4d8a482152f51203865c7ff58"),
}


@pytest.mark.parametrize("name", sorted(EXPOSURE_DIGESTS))
def test_the_exposure_bytes_of_each_bundled_scenario_are_pinned(name):
    scenario = {**reference_scenarios(), "midnight": midnight_scenario()}[name]
    digests = tuple(map(sha256, exposure_texts(simulate(scenario))))
    assert digests == EXPOSURE_DIGESTS[name]


def test_the_exposure_bytes_of_walks_are_pinned():
    # one digest over both files of walks 0..299, in seed order
    digest = hashlib.sha256()
    for seed in range(300):
        for text in exposure_texts(simulate(random_walk_scenario(seed))):
            digest.update(text.encode())
    assert digest.hexdigest() == \
        "7b0f749ef69bc0f561728263c021584b713e532867ee7d32ec5cebeda91698e1"


# ---------------------------------------------------------------------------
# next-event advance: skipping and jumping ticks changes no output
# ---------------------------------------------------------------------------

_NOISY = NoiseParams(rssi_sigma_db=3.0, pir_miss_prob=0.3,
                     false_positive_rate_per_hour=60.0)
_HELD_ROOM = dataclasses.replace(ROOM, sensors=tuple(
    dataclasses.replace(s, hold_time=5.0) for s in ROOM.sensors))

NEXT_EVENT_RUNS = {
    **{name: (lambda name=name: reference_scenarios()[name])
       for name in "ABCD"},
    "midnight": midnight_scenario,
    "midnight_tz": lambda: dataclasses.replace(
        midnight_scenario(), policy=CyclePolicy(tz_offset=19800.0)),
    **{f"fuzz:{seed}": (lambda seed=seed: random_walk_scenario(seed))
       for seed in range(20)},
    **{f"noisy_fuzz:{seed}": (lambda seed=seed: dataclasses.replace(
        random_walk_scenario(seed), noise=_NOISY)) for seed in range(5)},
    # far adverts go in as window pieces that hold no window open: were
    # they counted as holding the approach window open, the cycle after the
    # visit would never start
    **{f"fuzz:{seed}": (lambda seed=seed: random_walk_scenario(seed))
       for seed in (140, 266)},
    "held_D": lambda: dataclasses.replace(scenario_d(), room=_HELD_ROOM),
    # with no fusion hold, a latch re-emitting into an empty room leaves
    # the snapshot vacant: only the open latch stops the jump
    **{f"held_fuzz:{seed}": (lambda seed=seed: dataclasses.replace(
        random_walk_scenario(seed), room=_HELD_ROOM,
        fusion=FusionParams(pir_hold=0.0, us_hold=0.0))) for seed in range(3)},
    # one window over the second visit, one in the empty room
    "forced_D": lambda: dataclasses.replace(scenario_d(), unsafe_force_on={
        "ceiling_1": ((405.0, 430.0), (3000.0, 3030.0))}),
    "forced_A": lambda: dataclasses.replace(
        reference_scenarios()["A"],
        unsafe_force_on={"ceiling_2": ((300.0, 900.0),)}),
    # dark and lit spans with someone inside whom no sensor sees
    "unseen_sitter": lambda: unseen(seated()),
    "unseen_creeper": lambda: unseen(creeper()),
    # desk 2's lamp alone lit over someone in its zone but out of its
    # ultrasonic cone: each tick's audit falls back to observe
    "unseen_desk_sitter": lambda: unseen(seated(x=2.75, y=5.0),
                                         tiers=(LampTier.DESK,)),
    # with no fusion hold, a seated worker's ultrasonic events keep no
    # window open: only someone being inside stops the sensing pass's jump
    "zero_hold_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=300.0,
        fusion=FusionParams(pir_hold=0.0, us_hold=0.0)),
    # holds no longer than the tick and the advert period: each row may
    # open its window again, so no run goes in as one update
    "short_hold_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=300.0,
        fusion=FusionParams(pir_hold=0.1, us_hold=0.1, ble_stale_after=1.0)),
    # adverts of the walker's beacon a second apart, each of which opens
    # the approach window again: no two of them go in as one run
    "short_stale_A": lambda: dataclasses.replace(
        reference_scenarios()["A"], fusion=FusionParams(ble_stale_after=0.5)),
    # a latched ultrasonic sensor re-emits on every tick, and a PIR latch
    # stays open after each nudge
    "held_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=1500.0, room=_HELD_ROOM),
    # adverts draw from the generator: each one cuts a still span
    "noisy_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=1500.0, noise=_NOISY),
    # a desk lamp forced on over its seated worker: a violation on every
    # tick of the window, all from the per-tick audit
    "forced_desk_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=1500.0,
        unsafe_force_on={"desk_2": ((300.0, 400.0),)}),
    # the controller's desk_2 turn-on and turn-off fall inside a window
    # that forces it on: they change nothing lit, and the seated worker's
    # still spans cross their ticks
    "forced_desk_A": lambda: dataclasses.replace(
        reference_scenarios()["A"], duration=1200.0,
        unsafe_force_on={"desk_2": ((450.0, 850.0),)}),
    # no still span may start while the walker moves
    "sitter_and_walker": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=1500.0,
        occupants=reference_scenarios()["B"].occupants + (walker(1500.0),)),
    # a latched ultrasonic sensor that fires through a still span holds
    # past its end: the worker at desk 2 leaves its cone off the tick grid
    "held_leaver": lambda: make_scenario([OccupantScript("leaver", False, (
        wp(0.0, 2.15, 5.0), wp(199.95, 2.15, 5.0),
        wp(200.0, 2.15, 2.8), wp(400.0, 2.15, 2.8)))], room=_HELD_ROOM),
    # two seated beacon carriers: two lanes of ble_door run through the
    # still spans, which the first carrier's nudges cut
    "two_seated_carriers": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=1500.0,
        occupants=reference_scenarios()["B"].occupants + (
            seated("carrier_2", x=1.0, y=1.5, until=1500.0, beacon=True),)),
    # a tick that does not divide the advert period: a still span's adverts
    # fall 3, 3 and 4 ticks apart, so a tick guessed one gap after the last
    # is wrong every third advert
    "third_ticks_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=300.0, tick=0.3),
    # a local midnight falls inside a still span with adverts folded in
    "midnight_sitter": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=4800.0,
        start_time=MIDNIGHT_START + 600.0),
    # entries in the dark, which the exposure pass skips, then a lamp
    # forced on within the deadline of the crossing, or over the entrant's
    # zone after the other worker left, or over someone inside at tick 0
    "dark_door_crosser": lambda: make_scenario(
        [door_crosser()], duration=200.0,
        unsafe_force_on={"ceiling_1": ((21.0, 30.0),)}),
    # deadlines that are not a whole number of ticks, and of one tick: the
    # window opens 0.47 s after the crossing either way
    **{f"dark_door_crosser_{deadline}s": (
        lambda deadline=deadline: dataclasses.replace(
            make_scenario([door_crosser()], duration=200.0,
                          unsafe_force_on={"ceiling_1": ((21.0, 30.0),)}),
            policy=CyclePolicy(reaction_deadline=deadline)))
       for deadline in (0.35, 0.1)},
    "dark_swap": lambda: make_scenario(
        swap_at_the_door(), duration=200.0,
        unsafe_force_on={"desk_2": ((60.0, 70.0),)}),
    "inside_at_tick_0": lambda: make_scenario(
        [seated(until=100.0)], duration=100.0,
        unsafe_force_on={"ceiling_1": ((30.0, 100.0),)}),
}


def _outputs(scenario, after_each=lambda: None):
    """What a run makes; ``after_each`` runs after simulate and after
    safety_check."""
    result = simulate(scenario)
    after_each()
    audit = safety_check(result.timeline, scenario)
    after_each()
    return {**artifacts(result), "safety": result.safety,
            "safety_check": audit,
            "replay": replay(scenario, result.timeline.events)}


def _rows_one_at_a_time(patch) -> None:
    """Every run the run builder makes has one row, and the decide pass
    holds no run open: each row goes in alone, as a piece of one row."""
    def one_row_per_run(self, k, period, count, source, payload):
        self.extend([SensorEvent(self.start + (k + j * period) * self.tick,
                                 source, payload) for j in range(count)])

    patch.setattr(EventRuns, "add", one_row_per_run)
    patch.setattr(OccupancyFusion, "hold", lambda *args: None)


@pytest.mark.parametrize("run", sorted(NEXT_EVENT_RUNS))
def test_next_event_advance_equals_stepping_every_tick(run, monkeypatch):
    scenario = NEXT_EVENT_RUNS[run]()
    jumped = _outputs(scenario)
    # the stepped side also ingests row by row
    _rows_one_at_a_time(monkeypatch)
    # a controller rule always due, nobody ever parked and every lamp one
    # the audit acts on: every tick steps, and no pass jumps
    monkeypatch.setattr(simulator, "next_due_at", lambda *args: -math.inf)
    monkeypatch.setattr(simulator._OccupantTracker, "parked_until",
                        lambda self: -math.inf)
    monkeypatch.setattr(simulator._SafetyAccumulator, "acts_on",
                        lambda self, on_lamps: True)
    # simulate's sensing pass moves its untracked occupants and its
    # exposure pass its track, and safety_check moves a track alone, into
    # every tick, one at a time: a span that takes its stop from anything
    # but parked_until or acts_on skips some
    moves: Dict[simulator._Occupants, List[int]] = {}
    move_to = simulator._Occupants.move_to
    monkeypatch.setattr(simulator._Occupants, "move_to", lambda self, k: (
        moves.setdefault(self, []).append(k), move_to(self, k))[1])
    every = [*range(int(round(scenario.duration / scenario.tick)) + 1)]
    expected = iter([[(False, every), (True, every)], [(True, every)]])

    def one_move_per_tick():
        assert [(occupants.entered is not None, ks)
                for occupants, ks in moves.items()] == next(expected)
        moves.clear()

    stepped = _outputs(scenario, one_move_per_tick)
    assert jumped.keys() == stepped.keys()
    for name, output in jumped.items():
        assert_same(name, output, stepped[name])


@pytest.mark.parametrize("name, limit", [("A", 60), ("B", 20),
                                         ("zero_hold_B", 5)])
def test_the_decide_pass_steps_only_where_the_picture_can_change(
        name, limit, monkeypatch):
    # the ends of windows that later rows of a window piece hold open, the
    # quiet gaps of desk lamps whose zone or motion window is open, and rows
    # with a zero hold, which open no window, are no steps: simulate and the
    # replay of the run's own log each step a few dozen ticks at most
    scenario = NEXT_EVENT_RUNS[name]()
    steps: List[float] = []
    step = simulator.step
    monkeypatch.setattr(simulator, "step", lambda state, snapshot, now, policy: (
        steps.append(now), step(state, snapshot, now, policy))[1])
    result = simulate(scenario)
    simulated = len(steps)
    log = io.StringIO()
    write_event_log(result.timeline.events, log)
    steps.clear()
    events = read_event_log(io.StringIO(log.getvalue()),
                            grid=(scenario.start_time, scenario.tick))
    assert replay(scenario, events) == result.timeline.commands
    assert simulated <= limit and len(steps) <= limit, (simulated, len(steps))


def test_decide_holds_back_only_rows_within_the_hold(monkeypatch):
    # a PIR hold half an ulp of the epoch clock longer than the tick: of a
    # walker's PIR rows, one a tick, some fall before the previous row's
    # timestamp plus the hold and some do not. A window piece holds only
    # rows of the first kind after its first. The commands cannot tell: a
    # row that reopens the window starts a piece on a tick that steps
    # anyway, on which it goes in before the snapshot
    walk = random_walk_scenario(0)
    hold = 0.1 + 0.5 * math.ulp(walk.start_time)
    scenario = dataclasses.replace(walk, fusion=FusionParams(pir_hold=hold))
    pieces: List[tuple] = []
    ingest_window = OccupancyFusion.ingest_window

    def record(self, first, last, source, payload):
        pieces.append((first, last, source))
        ingest_window(self, first, last, source, payload)

    monkeypatch.setattr(OccupancyFusion, "ingest_window", record)
    result = simulate(scenario)
    commands = result.timeline.commands
    rows: Dict[str, List[float]] = {}
    for event in result.timeline.events:
        if event.source.startswith("pir"):
            rows.setdefault(event.source, []).append(event.timestamp)
    pir_within = [ts < prev + hold for times in rows.values()
                  for prev, ts in zip(times, times[1:])]
    assert pir_within.count(True) > 100 and pir_within.count(False) > 100
    held_back = 0
    for first, last, source in pieces:
        if source in rows:
            times = rows[source]
            i, j = times.index(first), times.index(last)
            assert all(ts < prev + hold
                       for prev, ts in zip(times[i:j], times[i + 1:j + 1]))
            held_back += j - i
    # every PIR row goes in, each once
    assert sum(map(len, rows.values())) == held_back + sum(
        source in rows for _, _, source in pieces)
    assert held_back > 100
    monkeypatch.undo()
    _rows_one_at_a_time(monkeypatch)
    assert simulate(scenario).timeline.commands == commands


_ROW_PAYLOADS = [
    ("pir_1", PirMotion()),
    ("pir_2", PirMotion()),
    ("us_desk_2", UsPresence(1.2)),
    ("us_desk_2", UsPresence(0.0)),
    ("us_desk_2", UsPresence(-0.0)),                  # equal, written apart
    ("ble_door", BleAdvert("a", distance_to_rssi(3.0, FusionParams()))),
    ("ble_door", BleAdvert("b", distance_to_rssi(2.0, FusionParams()))),
    ("ble_door", BleAdvert("b", -0.0)),
    ("ble_door", BleAdvert("a", 5.0)),                # outside its band
    ("kill_switch", ManualOff()),
    ("kill_switch", ManualRearm()),
]
# (first tick, period in ticks, rows, payload, off the grid)
_row_bursts = st.lists(st.tuples(st.integers(0, 200), st.integers(1, 15),
                                 st.integers(1, 25),
                                 st.sampled_from(range(len(_ROW_PAYLOADS))),
                                 st.booleans()),
                       min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(_row_bursts, st.sampled_from([0.1, 0.5, 1.0]), st.randoms())
# two beacons on one receiver on the same ticks, and a signed zero
@example([(3, 10, 20, 5, False), (3, 10, 20, 6, False), (13, 10, 5, 7, False),
          (0, 1, 25, 3, False), (25, 1, 5, 4, False)], 0.1, random.Random(0))
def test_any_rows_read_as_sorted_rows_and_replay_as_rows(bursts, tick, rnd):
    scenario = dataclasses.replace(make_scenario([], duration=500.0 * tick),
                                   tick=tick)
    start = scenario.start_time
    rows = [SensorEvent(start + k * tick + (tick / 3.0 if off else 0.0),
                        *_ROW_PAYLOADS[index])
            for first, period, count, index, off in bursts
            for k in range(first, first + period * count, period)]
    rnd.shuffle(rows)
    ordered = sort_events(rows)
    runs = EventRuns.of(rows, start, tick)
    assert list(map(repr, runs)) == list(map(repr, ordered))
    # the log of the sorted rows reads back on the grid into runs that
    # write the same bytes, as do the runs built from the shuffled rows
    text = io.StringIO()
    write_event_log(ordered, text)
    for held in (read_event_log(io.StringIO(text.getvalue()),
                                grid=(start, tick)), runs):
        again = io.StringIO()
        write_event_log(held, again)
        assert again.getvalue() == text.getvalue()
    by_run = replay(scenario, runs)
    with pytest.MonkeyPatch.context() as patch:
        _rows_one_at_a_time(patch)
        assert replay(scenario, rows) == by_run


def test_each_lane_of_a_receiver_waits_in_its_own_run(monkeypatch):
    # ble_door hears two seated carriers on every advert tick, two lanes.
    # With holds longer than the periods, each lane goes in as one window:
    # its pieces cover its adverts, and each piece after the first starts
    # within the hold of the one before, also while the other lane's
    # payloads change
    pieces: Dict[str, List[tuple]] = {}
    ingest_window = OccupancyFusion.ingest_window

    def record(self, first, last, source, payload):
        if source == "ble_door":
            pieces.setdefault(payload.beacon_id, []).append((first, last))
        ingest_window(self, first, last, source, payload)

    monkeypatch.setattr(OccupancyFusion, "ingest_window", record)
    scenario = NEXT_EVENT_RUNS["two_seated_carriers"]()
    events = simulate(scenario).timeline.events
    hold = scenario.fusion.ble_stale_after
    for beacon_id in ("worker_2", "carrier_2"):
        adverts = [e.timestamp for e in events if e.source == "ble_door"
                   and e.payload.beacon_id == beacon_id]
        lane = pieces[beacon_id]
        assert (lane[0][0], lane[-1][1]) == (adverts[0], adverts[-1])
        assert all(first < last + hold and first > last
                   for (_, last), (first, _) in zip(lane, lane[1:]))
        assert len(lane) < len(adverts) / 100


def test_an_edited_event_log_replays_its_runs_as_rows(tmp_path, monkeypatch):
    assert main(["simulate", "--scenario", "B", "--out", str(tmp_path)]) == EXIT_OK
    header, *rows = (tmp_path / "B" / "events.csv").read_text().splitlines()
    manifest = json.loads((tmp_path / "B" / "manifest.json").read_text())
    assert manifest["event_count"] == len(rows)
    scenario = reference_scenarios()["B"]
    # a row of the seated worker's ultrasonic run, and a block of that run
    middle = next(i for i in range(len(rows) // 2, len(rows))
                  if ",us_desk_2," in rows[i] and ",us_desk_2," in rows[i + 1])
    ts, tail = rows[middle].split(",", 1)
    shuffled = rows[:]
    random.Random(7).shuffle(shuffled)
    edits = {
        "one row 1 ulp off the grid": rows[:middle] + [
            repr(math.nextafter(float(ts), math.inf)) + "," + tail] +
            rows[middle + 1:],
        "a block cut from a run": rows[:middle] + rows[middle + 600:],
        "shuffled": shuffled,
    }
    grid = (scenario.start_time, scenario.tick)
    for name, edited in edits.items():
        text = "\n".join([header, *edited]) + "\n"
        # runs read back as their rows, read one at a time
        assert read_event_log(io.StringIO(text), grid=grid) == \
            read_event_log(io.StringIO(text)), name
        by_run = replay(scenario, read_event_log(io.StringIO(text), grid=grid))
        with monkeypatch.context() as patch:
            _rows_one_at_a_time(patch)
            by_row = replay(scenario, read_event_log(io.StringIO(text), grid=grid))
        assert by_run == by_row, name
        assert by_run
