"""Simulation engine: sensor models, determinism, dosimetry, safety audit."""

import dataclasses
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import uvcguard
from uvcguard import simulator
from uvcguard.controller import (CyclePolicy, read_command_log,
                                 write_command_log)
from uvcguard.dosimetry import DoseGrid, accumulate_dose, irradiance_at_point
from uvcguard.fusion import (BleAdvert, FusionParams, distance_to_rssi,
                             read_event_log, write_event_log)
from uvcguard.room import LampTier, Point3, SensorKind, default_room
from uvcguard.scenarios import (midnight_scenario, random_walk_scenario,
                                reference_scenarios, scenario_d)
from uvcguard.simulator import (
    CHEST_HEIGHT,
    MAX_TICKS,
    NoiseParams,
    OccupantScript,
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
    sc = dataclasses.replace(
        sc, policy=CyclePolicy(reaction_deadline=0.05), tick=0.1)
    assert any("reaction deadline" in p for p in validate_scenario(sc))


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


def render(result) -> str:
    parts = []
    for writer, arg in ((write_event_log, result.timeline.events),
                        (write_command_log, result.timeline.commands),
                        (write_probe_log, result.timeline),
                        (write_dose_grid_csv, result.dose_grid)):
        buf = io.StringIO()
        writer(arg, buf)
        parts.append(buf.getvalue())
    return "\n".join(parts)


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
}


@pytest.mark.parametrize("run", sorted(ROUND_TRIP_RUNS))
def test_replay_of_the_event_log_reproduces_the_commands(run):
    scenario = ROUND_TRIP_RUNS[run]()
    result = simulate(scenario)
    log = io.StringIO()
    write_event_log(result.timeline.events, log)
    events = read_event_log(io.StringIO(log.getvalue()))
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


# ---------------------------------------------------------------------------
# offline audit agreement
# ---------------------------------------------------------------------------

def unseen(script: OccupantScript) -> Scenario:
    """``script`` in a room assumed vacant and without the upper-room lamp,
    so that no command falls at tick 0. The cycle at 60 s lights every
    lamp, and an occupant whom no sensor sees does not stop it."""
    room = dataclasses.replace(ROOM, lamps=tuple(
        l for l in ROOM.lamps if l.tier is not LampTier.UPPER_ROOM))
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


def test_safety_check_agrees_with_the_engine():
    # the audit of the command log as written to and read back from
    # commands.csv, with nothing else of the run
    counts = []
    for sc in (make_scenario([walker()]),
               make_scenario([walker()],
                             unsafe_force_on={"ceiling_2": ((30.0, 45.0),)}),
               unseen(seated()), unseen(creeper())):
        result = simulate(sc)
        log = io.StringIO()
        write_command_log(result.timeline.commands, log)
        timeline = simulator.Timeline(
            scenario_name=sc.name, start_time=sc.start_time,
            end_time=sc.end_time, tick=sc.tick, probe_names=(),
            commands=read_command_log(io.StringIO(log.getvalue())))
        assert safety_check(timeline, sc) == result.safety
        counts.append(result.safety.violation_count)
    assert counts == [0, 150, 6800, 5980]


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
    # with no fusion hold, a seated worker's ultrasonic events keep no
    # window open: only someone being inside stops the control pass's jump
    "zero_hold_B": lambda: dataclasses.replace(
        reference_scenarios()["B"], duration=300.0,
        fusion=FusionParams(pir_hold=0.0, us_hold=0.0)),
}


def _outputs(scenario):
    result = simulate(scenario)
    return (render(result), result.safety,
            safety_check(result.timeline, scenario),
            replay(scenario, result.timeline.events))


@pytest.mark.parametrize("run", sorted(NEXT_EVENT_RUNS))
def test_next_event_advance_equals_stepping_every_tick(run, monkeypatch):
    scenario = NEXT_EVENT_RUNS[run]()
    jumped = _outputs(scenario)
    # a controller rule always due and nobody ever parked: every tick
    # steps, and neither pass jumps
    monkeypatch.setattr(simulator, "next_due_at", lambda *args: -math.inf)
    monkeypatch.setattr(simulator._OccupantTracker, "parked_until",
                        lambda self: -math.inf)
    stepped = _outputs(scenario)
    assert jumped[0] == stepped[0]
    assert jumped[1] == stepped[1]
    assert jumped[2] == stepped[2]
    assert jumped[3] == stepped[3]
