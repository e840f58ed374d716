"""Controller step semantics: interlocks, cycles, schedules, replay.

Snapshots are constructed directly so each rule can be exercised in
isolation from the sensor models.
"""

import copy
import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uvcguard.controller import (
    COMMAND_LOG_HEADER,
    CommandReason,
    ControllerState,
    CyclePolicy,
    LampAction,
    LampRoster,
    load_policy,
    next_due_at,
    policy_from_dict,
    policy_to_dict,
    read_command_log,
    step,
    write_command_log,
)
from uvcguard.fusion import (FusionParams, OccupancySnapshot, PirMotion,
                             SensorEvent)
from uvcguard.room import default_room
from uvcguard.simulator import NoiseParams, Scenario, replay

ROOM = default_room()
POLICY = CyclePolicy()

# 2021-03-02 00:00:00 UTC
MIDNIGHT = 1614643200.0


def snap(t: float, room: bool = False, zone1: bool = False, zone2: bool = False,
         approach: bool = False, kill: bool = False,
         motion: bool = False) -> OccupancySnapshot:
    return OccupancySnapshot(
        timestamp=t,
        room_occupied=room or motion or zone1 or zone2,
        desk_zone_occupied={"desk_1": zone1, "desk_2": zone2},
        approach_detected=approach,
        manual_kill=kill,
        motion_active=motion,
        last_motion_time=None,
        contributing_sources=())


def vacant_state(t0: float = 0.0) -> ControllerState:
    return ControllerState.initial(ROOM, POLICY, t0, assume_vacant_since=t0)


def run_steps(state, snaps):
    commands = []
    for s in snaps:
        state, cmds = step(state, s, s.timestamp, POLICY)
        commands.extend(cmds)
    return state, commands


def by_reason(commands, reason):
    return [c for c in commands if c.reason is reason]


# ---------------------------------------------------------------------------
# policy configuration
# ---------------------------------------------------------------------------

def test_policy_defaults():
    assert POLICY.ceiling_cycle == 600.0
    assert POLICY.desk_cycle == 300.0
    assert POLICY.upper_room_cycle == 300.0
    assert POLICY.upper_room_period == 3600.0
    assert POLICY.vacancy_grace == 60.0
    assert POLICY.desk_quiet_gap == 60.0
    assert POLICY.reaction_deadline == 1.0


def test_policy_validation():
    with pytest.raises(ValueError):
        CyclePolicy(reaction_deadline=1.5)
    with pytest.raises(ValueError):
        CyclePolicy(reaction_deadline=-0.1)
    with pytest.raises(ValueError):
        CyclePolicy(ceiling_cycle=0.0)
    CyclePolicy(reaction_deadline=0.0)   # the strictest setting is legal


@pytest.mark.parametrize("cls, name", [
    (CyclePolicy, "ceiling_cycle"), (CyclePolicy, "tz_offset"),
    (FusionParams, "pir_hold"), (FusionParams, "ble_ref_rssi_1m"),
    (NoiseParams, "pir_miss_prob")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


def test_policy_round_trip():
    policy = CyclePolicy(desk_cycle=240.0, tz_offset=3600.0)
    assert policy_from_dict(policy_to_dict(policy)) == policy
    assert load_policy('{"desk_cycle": 120}').desk_cycle == 120.0
    with pytest.raises(ValueError):
        policy_from_dict({"desk_cycle": 120, "lunch_break": 1})


def test_roster_wires_desk_lamp_to_its_zone():
    roster = LampRoster.for_room(ROOM)
    assert roster.ceiling_ids == ("ceiling_1", "ceiling_2")
    assert roster.upper_ids == ("upper_room",)
    assert roster.desk_lamp_zone == {"desk_2": "desk_2"}


# ---------------------------------------------------------------------------
# vacancy cycle and completion
# ---------------------------------------------------------------------------

def test_post_departure_cycle_waits_for_grace():
    state, cmds = run_steps(vacant_state(), [snap(59.9)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []
    state, cmds = run_steps(state, [snap(60.0)])
    started = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_START)}
    assert started == {"ceiling_1", "ceiling_2", "desk_2"}


def test_cycles_complete_on_schedule():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    state, cmds = run_steps(state, [snap(359.9)])
    assert cmds == []
    # the desk (300 s from 60) and the hourly upper-room run (300 s from the
    # first step) both end here; the ceiling pair runs the full 600 s
    state, cmds = run_steps(state, [snap(360.0)])
    done = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_COMPLETE)}
    assert done == {"desk_2", "upper_room"}
    state, cmds = run_steps(state, [snap(660.0)])
    done = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_COMPLETE)}
    assert done == {"ceiling_1", "ceiling_2"}
    assert state.running == {}


def test_only_one_cycle_per_vacancy_episode():
    state, _ = run_steps(vacant_state(), [snap(60.0), snap(660.0)])
    _, cmds = run_steps(state, [snap(t) for t in (700.0, 1000.0, 3000.0)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []


def test_new_vacancy_episode_allows_another_cycle():
    state, _ = run_steps(vacant_state(), [snap(60.0), snap(660.0)])
    # a person passes through: presence, then vacancy again
    state, cmds = run_steps(state, [snap(700.0, motion=True), snap(710.0)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []
    _, cmds = run_steps(state, [snap(770.0)])
    started = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_START)}
    assert started == {"ceiling_1", "ceiling_2", "desk_2"}


# ---------------------------------------------------------------------------
# interrupts
# ---------------------------------------------------------------------------

def test_occupancy_interrupt_kills_running_ceiling():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    _, cmds = run_steps(state, [snap(100.0, motion=True)])
    reasons = {(c.lamp_id, c.reason) for c in cmds}
    assert ("ceiling_1", CommandReason.OCCUPANCY_INTERRUPT) in reasons
    assert ("ceiling_2", CommandReason.OCCUPANCY_INTERRUPT) in reasons
    assert ("desk_2", CommandReason.OCCUPANCY_INTERRUPT) in reasons


def test_approach_interrupt_reason():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    _, cmds = run_steps(state, [snap(100.0, approach=True)])
    ceiling = {c.lamp_id: c.reason for c in cmds if c.lamp_id != "desk_2"}
    assert ceiling == {"ceiling_1": CommandReason.APPROACH_INTERRUPT,
                       "ceiling_2": CommandReason.APPROACH_INTERRUPT}
    # an approach is not motion and not in-zone, so the desk lamp keeps going
    assert not any(c.lamp_id == "desk_2" for c in cmds)


def test_desk_lamp_ignores_presence_outside_its_zone():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    # someone seated at the unlit desk_1: ceiling stops, desk_2 lamp does not
    _, cmds = run_steps(state, [snap(100.0, zone1=True)])
    off = {c.lamp_id for c in cmds if c.action is LampAction.TURN_OFF}
    assert off == {"ceiling_1", "ceiling_2"}


def test_interrupted_cycle_restarts_only_after_next_vacancy():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    state, _ = run_steps(state, [snap(100.0, motion=True)])
    # the desk may come back on the 60 s quiet-gap rule, but the ceiling
    # pair waits for a full vacancy episode plus grace
    state, cmds = run_steps(state, [snap(130.0), snap(165.0)])
    started = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_START)}
    assert started <= {"desk_2"}
    _, cmds = run_steps(state, [snap(190.0)])
    started = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_START)}
    assert started == {"ceiling_1", "ceiling_2"}


# ---------------------------------------------------------------------------
# manual kill
# ---------------------------------------------------------------------------

def test_manual_kill_turns_everything_off_and_disarms():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    state, cmds = run_steps(state, [snap(100.0, kill=True)])
    assert {c.reason for c in cmds} == {CommandReason.MANUAL_KILL}
    assert state.running == {}
    assert not state.armed
    # still killed: nothing restarts no matter how long the room stays empty
    _, cmds = run_steps(state, [snap(t, kill=True) for t in (200.0, 4000.0)])
    assert cmds == []


def test_rearm_after_kill_needs_presence_then_vacancy():
    state, _ = run_steps(vacant_state(), [snap(60.0)])
    state, _ = run_steps(state, [snap(100.0, kill=True)])
    state, cmds = run_steps(state, [snap(200.0)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []   # still disarmed
    state, _ = run_steps(state, [snap(300.0, motion=True)])   # rearms
    state, cmds = run_steps(state, [snap(310.0), snap(370.0)])
    started = {c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_START)}
    assert started == {"ceiling_1", "ceiling_2", "desk_2"}


# ---------------------------------------------------------------------------
# midnight cycle
# ---------------------------------------------------------------------------

def midnight_state(t0: float) -> ControllerState:
    return ControllerState.initial(ROOM, POLICY, t0)


def test_midnight_cycle_fires_once_per_date():
    t0 = MIDNIGHT - 1000.0
    state = midnight_state(t0)
    # let the hourly upper-room run start and finish before midnight so the
    # midnight cycle owns all four lamps
    state, cmds = run_steps(state, [snap(MIDNIGHT - 400.0), snap(MIDNIGHT - 50.0)])
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []
    state, cmds = run_steps(state, [snap(MIDNIGHT + 5.0)])
    fired = {c.lamp_id for c in by_reason(cmds, CommandReason.MIDNIGHT_CYCLE)}
    assert fired == {"ceiling_1", "ceiling_2", "desk_2", "upper_room"}
    assert not state.armed   # dark until occupancy returns
    _, cmds = run_steps(state, [snap(MIDNIGHT + 4000.0)])
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []


def test_midnight_skipped_while_occupied_consumes_the_date():
    state = midnight_state(MIDNIGHT - 1000.0)
    state, cmds = run_steps(state, [snap(MIDNIGHT + 5.0, room=True)])
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []
    # later the same date, now vacant: no late midnight run
    state, cmds = run_steps(state, [snap(MIDNIGHT + 100.0)])
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []


def test_second_midnight_needs_rearming():
    state = midnight_state(MIDNIGHT - 1000.0)
    state, _ = run_steps(state, [snap(MIDNIGHT + 5.0)])       # fires, disarms
    next_midnight = MIDNIGHT + 86400.0
    state, cmds = run_steps(state, [snap(next_midnight + 5.0)])
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []  # disarmed
    # the date was consumed, so rearming does not replay it either
    state, _ = run_steps(state, [snap(next_midnight + 10.0, motion=True)])
    _, cmds = run_steps(state, [snap(next_midnight + 100.0)])
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []


def test_midnight_respects_local_offset():
    # with tz +02:00, the date rolls at 22:00 UTC of the previous day
    policy = CyclePolicy(tz_offset=7200.0)
    t0 = MIDNIGHT - 7200.0 - 100.0
    state = ControllerState.initial(ROOM, policy, t0)
    state, cmds = step(state, snap(t0 + 50.0), t0 + 50.0, policy)
    assert by_reason(cmds, CommandReason.MIDNIGHT_CYCLE) == []
    _, cmds = step(state, snap(t0 + 150.0), t0 + 150.0, policy)
    fired = {c.lamp_id for c in by_reason(cmds, CommandReason.MIDNIGHT_CYCLE)}
    assert "ceiling_1" in fired


# ---------------------------------------------------------------------------
# hourly upper-room schedule
# ---------------------------------------------------------------------------

def test_hourly_upper_room_runs_even_while_occupied():
    state = midnight_state(0.0)
    state, cmds = run_steps(state, [snap(0.0, room=True)])
    assert [(c.lamp_id, c.reason) for c in cmds] == [
        ("upper_room", CommandReason.HOURLY_SCHEDULE)]
    state, cmds = run_steps(state, [snap(300.0, room=True)])
    assert [(c.lamp_id, c.action) for c in cmds] == [
        ("upper_room", LampAction.TURN_OFF)]
    _, cmds = run_steps(state, [snap(3600.0, room=True)])
    assert [(c.lamp_id, c.reason) for c in cmds] == [
        ("upper_room", CommandReason.HOURLY_SCHEDULE)]


def test_hourly_slots_skipped_while_disarmed():
    state = midnight_state(MIDNIGHT - 1000.0)
    state, _ = run_steps(state, [snap(MIDNIGHT - 999.0)])   # consumes slot 0
    state, _ = run_steps(state, [snap(MIDNIGHT + 5.0)])     # midnight, disarms
    # the next hourly slot passes while dark: skipped, not deferred
    state, cmds = run_steps(state, [snap(MIDNIGHT + 2700.0)])
    assert by_reason(cmds, CommandReason.HOURLY_SCHEDULE) == []
    state, _ = run_steps(state, [snap(MIDNIGHT + 2800.0, motion=True)])
    state, cmds = run_steps(state, [snap(MIDNIGHT + 2900.0, motion=True)])
    assert by_reason(cmds, CommandReason.HOURLY_SCHEDULE) == []
    # it fires again at the next on-schedule slot
    _, cmds = run_steps(state, [snap(MIDNIGHT + 6200.0, motion=True)])
    assert [c.lamp_id for c in by_reason(cmds, CommandReason.HOURLY_SCHEDULE)] == [
        "upper_room"]


# ---------------------------------------------------------------------------
# desk quiet-gap restarts
# ---------------------------------------------------------------------------

def test_desk_restarts_after_quiet_gap_with_room_occupied():
    state = midnight_state(0.0)
    # someone works at desk_1 all along; one motion blip at t = 0
    state, cmds = run_steps(state, [snap(0.0, zone1=True, motion=True)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []
    state, cmds = run_steps(state, [snap(59.9, zone1=True)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []
    state, cmds = run_steps(state, [snap(60.0, zone1=True)])
    assert [(c.lamp_id, c.reason) for c in cmds] == [
        ("desk_2", CommandReason.CYCLE_START)]


def test_desk_quiet_gap_runs_once_per_detection_episode():
    state = midnight_state(0.0)
    state, _ = run_steps(state, [snap(0.0, zone1=True, motion=True),
                                 snap(60.0, zone1=True)])
    # cycle completes at 360; the same quiet episode must not retrigger
    state, cmds = run_steps(state, [snap(360.0, zone1=True),
                                    snap(500.0, zone1=True)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []
    # fresh motion opens a new episode; 60 s later the desk runs again
    state, _ = run_steps(state, [snap(600.0, zone1=True, motion=True)])
    _, cmds = run_steps(state, [snap(660.0, zone1=True)])
    assert [c.lamp_id for c in by_reason(cmds, CommandReason.CYCLE_START)] == [
        "desk_2"]


def test_desk_waits_while_its_own_zone_is_occupied():
    state = midnight_state(0.0)
    state, cmds = run_steps(state, [snap(0.0, zone2=True),
                                    snap(100.0, zone2=True),
                                    snap(400.0, zone2=True)])
    assert by_reason(cmds, CommandReason.CYCLE_START) == []
    # chair empties at 500; the zone was last seen at 400, so the quiet gap
    # has already elapsed and the desk lamp starts at the next step
    _, cmds = run_steps(state, [snap(500.0)])
    assert any(c.lamp_id == "desk_2" for c in
               by_reason(cmds, CommandReason.CYCLE_START))


# ---------------------------------------------------------------------------
# safety invariants under arbitrary snapshot streams
# ---------------------------------------------------------------------------

_flags = st.fixed_dictionaries({
    "motion": st.booleans(), "zone1": st.booleans(), "zone2": st.booleans(),
    "approach": st.booleans(), "kill": st.booleans(),
})


@settings(max_examples=80, deadline=None)
@given(st.lists(_flags, min_size=1, max_size=40), st.floats(0.1, 400.0))
def test_interlock_invariants_hold_for_any_stream(flag_seq, dt):
    state = vacant_state(0.0)
    t = 0.0
    for flags in flag_seq:
        t += dt
        s = snap(t, **flags)
        state, _ = step(state, s, t, POLICY)
        presence = s.room_occupied or s.approach_detected
        if s.manual_kill:
            assert state.running == {}
        if presence:
            assert "ceiling_1" not in state.running
            assert "ceiling_2" not in state.running
        if s.motion_active or s.desk_zone_occupied["desk_2"]:
            assert "desk_2" not in state.running


@settings(max_examples=150, deadline=None)
@given(st.lists(_flags, max_size=20), st.floats(0.1, 900.0),
       st.floats(0.0, 86400.0), st.booleans(), st.booleans(),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from([0.0, 19800.0, -18000.0]))
def test_a_quiet_snapshot_does_nothing_before_next_due_at(
        flag_seq, dt, start, approach, kill, frac, tz_offset):
    policy = CyclePolicy(tz_offset=tz_offset)
    t = MIDNIGHT - start
    state = ControllerState.initial(ROOM, policy, t, assume_vacant_since=t)
    for flags in flag_seq:
        state, _ = step(state, snap(t, **flags), t, policy)
        t += dt
    quiet = snap(t, approach=approach, kill=kill)
    state, _ = step(state, quiet, t, policy)
    due = next_due_at(state, policy, t)
    assert due > t
    later = t + frac * (min(due, t + 2 * 86400.0) - t)
    assume(t < later < due)
    before = copy.deepcopy(state)
    after, commands = step(state, quiet, later, policy)
    assert commands == []
    assert after == before


# ---------------------------------------------------------------------------
# replay and the command log
# ---------------------------------------------------------------------------

def empty_room(duration: float = 240.0) -> Scenario:
    """No occupants, vacant since the start: a cycle starts at 60 s."""
    return Scenario(name="empty", room=ROOM, policy=POLICY,
                    fusion=FusionParams(), occupants=(), start_time=0.0,
                    duration=duration, assume_vacant_at_start=True)


def test_replay_is_deterministic():
    events = [SensorEvent(100.0, "pir_1", PirMotion()),
              SensorEvent(130.0, "pir_2", PirMotion())]
    first = replay(empty_room(), events)
    # replay sorts its events, so their order on input does not matter
    second = replay(empty_room(), events[::-1])
    assert first == second
    assert len(first) > 0


def test_command_log_round_trip():
    commands = replay(empty_room(), [SensorEvent(100.0, "pir_1", PirMotion())])
    assert commands
    buf = io.StringIO()
    write_command_log(commands, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == COMMAND_LOG_HEADER
    assert read_command_log(io.StringIO(text)) == commands


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_command_log_rejects_non_finite_timestamps(bad):
    # a NaN first row never fell due, so no later command was applied
    text = (COMMAND_LOG_HEADER + f"\n{bad},ceiling_1,turn_on,cycle_start\n"
            "10.0,ceiling_1,turn_off,cycle_complete\n")
    with pytest.raises(ValueError, match=f"line 2: bad timestamp '{bad}'"):
        read_command_log(io.StringIO(text))


def test_command_log_rejects_decreasing_timestamps():
    text = (COMMAND_LOG_HEADER + "\n10.0,ceiling_1,turn_on,cycle_start\n"
            "10.0,ceiling_2,turn_on,cycle_start\n"
            "5.0,ceiling_1,turn_off,cycle_complete\n")
    with pytest.raises(ValueError, match="line 4: timestamp 5.0 is before"):
        read_command_log(io.StringIO(text))
