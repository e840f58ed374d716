"""Safety-interlocked lamp cycle controller.

The controller is a pure step function over fused occupancy snapshots: all
time flows through the ``now`` argument and every output is a lamp command.
Priorities, highest first:

1. Manual kill: everything off, cycles disarmed until rearm.
2. Occupancy/approach interrupts: ceiling lamps go off the moment the room
   is occupied or an approach is detected; desk lamps go off on any room
   motion or on occupancy of their own zone. Upper-room fixtures are safe
   around people and ignore occupancy.
3. One post-departure cycle per vacancy episode, started ``vacancy_grace``
   seconds after the room empties.
4. A desk lamp may also run while the room is occupied elsewhere, once its
   zone and the motion channel have been quiet for ``desk_quiet_gap``.
5. The upper-room fixture runs ``upper_room_cycle`` seconds every
   ``upper_room_period`` while armed.
6. At local midnight, if vacant, one full cycle runs and the controller
   disarms; only renewed occupancy rearms it, which keeps empty days dark.

The controller has no loop of its own. ``uvcguard.simulator`` steps it from
a single control step shared by ``simulate`` and ``replay``, so replaying a
run's event log reproduces its command log by construction. While the fused
picture is quiet (no motion, no occupied desk zone), a step on an unchanged
snapshot does nothing until ``next_due_at``: the control step skips the
ticks before it, and before the next change of the snapshot.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone, date
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .fusion import OccupancySnapshot
from .room import (LampTier, RoomConfigError, RoomModel, params_from_dict,
                   read_json, require_finite)


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclePolicy:
    """Cycle durations and interlock timing, all in seconds.

    ``tz_offset`` shifts epoch timestamps to the controller's local clock
    for the midnight schedule. The field names are the keys of a policy
    file and of a scenario's ``policy`` object; every value must be finite.
    """

    ceiling_cycle: float = 600.0
    desk_cycle: float = 300.0
    upper_room_cycle: float = 300.0
    upper_room_period: float = 3600.0
    vacancy_grace: float = 60.0
    desk_quiet_gap: float = 60.0
    reaction_deadline: float = 1.0
    tz_offset: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("ceiling_cycle", "desk_cycle", "upper_room_cycle",
                     "upper_room_period", "vacancy_grace", "desk_quiet_gap"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.reaction_deadline <= 1.0:
            raise ValueError("reaction_deadline must be in [0, 1] seconds")


def policy_from_dict(doc: dict) -> CyclePolicy:
    """Read a policy object whose keys are CyclePolicy fields; raises
    RoomConfigError listing every problem."""
    errors: List[str] = []
    policy = params_from_dict(doc, CyclePolicy, "policy", errors)
    if errors:
        raise RoomConfigError(errors)
    return policy


def load_policy(text: str) -> CyclePolicy:
    return policy_from_dict(read_json(text, "policy", RoomConfigError))


def policy_to_dict(policy: CyclePolicy) -> dict:
    return dataclasses.asdict(policy)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class LampAction(Enum):
    TURN_ON = "turn_on"
    TURN_OFF = "turn_off"


class CommandReason(Enum):
    CYCLE_START = "cycle_start"
    CYCLE_COMPLETE = "cycle_complete"
    OCCUPANCY_INTERRUPT = "occupancy_interrupt"
    APPROACH_INTERRUPT = "approach_interrupt"
    MANUAL_KILL = "manual_kill"
    MIDNIGHT_CYCLE = "midnight_cycle"
    HOURLY_SCHEDULE = "hourly_schedule"


@dataclass(frozen=True)
class LampCommand:
    timestamp: float
    lamp_id: str
    action: LampAction
    reason: CommandReason


COMMAND_LOG_HEADER = "timestamp_s,lamp_id,action,reason"


def write_command_log(commands: Sequence[LampCommand], stream) -> None:
    stream.write(COMMAND_LOG_HEADER + "\n")
    for cmd in commands:
        stream.write(f"{cmd.timestamp!r},{cmd.lamp_id},"
                     f"{cmd.action.value},{cmd.reason.value}\n")


def read_command_log(stream) -> List[LampCommand]:
    """Parse a command-log CSV; raises ValueError naming the bad line.
    Timestamps must be finite and never decrease: lamps act in log order."""
    header = stream.readline().rstrip("\n")
    if header != COMMAND_LOG_HEADER:
        raise ValueError(f"line 1: expected header {COMMAND_LOG_HEADER!r}")
    out: List[LampCommand] = []
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields")
        try:
            cmd = LampCommand(timestamp=float(parts[0]), lamp_id=parts[1],
                              action=LampAction(parts[2]),
                              reason=CommandReason(parts[3]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not math.isfinite(cmd.timestamp):
            raise ValueError(f"line {lineno}: bad timestamp {parts[0]!r}")
        if out and cmd.timestamp < out[-1].timestamp:
            raise ValueError(f"line {lineno}: timestamp {parts[0]} is before "
                             "the previous line's")
        out.append(cmd)
    return out


# ---------------------------------------------------------------------------
# controller state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LampRoster:
    """Static lamp/zone wiring derived from the room model."""

    ceiling_ids: Tuple[str, ...]
    upper_ids: Tuple[str, ...]
    desk_lamp_zone: Dict[str, str]      # desk lamp id -> guarded zone id

    @classmethod
    def for_room(cls, room: RoomModel) -> "LampRoster":
        desk_map: Dict[str, str] = {}
        lamped_zones = [z for z in room.desk_zones if z.has_desk_lamp]
        for lamp in room.lamps_by_tier(LampTier.DESK):
            if not lamped_zones:
                continue
            nearest = min(lamped_zones,
                          key=lambda z: z.center.horizontal_distance_to(lamp.position))
            desk_map[lamp.id] = nearest.desk_id
        return cls(
            ceiling_ids=tuple(l.id for l in room.lamps_by_tier(LampTier.CEILING)),
            upper_ids=tuple(l.id for l in room.lamps_by_tier(LampTier.UPPER_ROOM)),
            desk_lamp_zone=desk_map)


@dataclass
class ControllerState:
    """Mutable controller memory between steps."""

    roster: LampRoster
    armed: bool = True
    manual_killed: bool = False
    # lamp id -> (started_at, ends_at) while running, absent while off
    running: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    last_room_vacated_at: Optional[float] = None
    post_departure_cycle_done: bool = True
    midnight_done_date: Optional[date] = None
    prev_presence: bool = False
    motion_last_seen: Optional[float] = None
    zone_last_seen: Dict[str, Optional[float]] = field(default_factory=dict)
    desk_last_started: Dict[str, Optional[float]] = field(default_factory=dict)
    next_upper_room_at: float = 0.0

    @classmethod
    def initial(cls, room: RoomModel, policy: CyclePolicy, now: float,
                assume_vacant_since: Optional[float] = None) -> "ControllerState":
        """Fresh state at time ``now``.

        ``assume_vacant_since`` pre-seeds a vacancy episode, as if the room
        had emptied at that instant: the post-departure cycle will run
        ``vacancy_grace`` after it.
        """
        roster = LampRoster.for_room(room)
        state = cls(roster=roster)
        state.zone_last_seen = {zone: None for zone in roster.desk_lamp_zone.values()}
        state.desk_last_started = {lamp: None for lamp in roster.desk_lamp_zone}
        state.midnight_done_date = _local_date(now, policy.tz_offset)
        state.next_upper_room_at = now
        if assume_vacant_since is not None:
            state.last_room_vacated_at = assume_vacant_since
            state.post_departure_cycle_done = False
        return state


def _local_date(now: float, tz_offset: float) -> date:
    return datetime.fromtimestamp(now + tz_offset, tz=timezone.utc).date()


# ---------------------------------------------------------------------------
# the step function
# ---------------------------------------------------------------------------

def step(state: ControllerState, snapshot: OccupancySnapshot, now: float,
         policy: CyclePolicy) -> Tuple[ControllerState, List[LampCommand]]:
    """Advance the controller one step; must be called at every tick where
    its inputs change or ``next_due_at`` falls, and on every tick while the
    snapshot shows motion or an occupied desk zone. Returns the state and
    the commands to apply."""
    commands: List[LampCommand] = []
    roster = state.roster

    def turn_on(lamp_id: str, duration: float, reason: CommandReason) -> None:
        if lamp_id not in state.running:
            state.running[lamp_id] = (now, now + duration)
            commands.append(LampCommand(now, lamp_id, LampAction.TURN_ON, reason))

    def turn_off(lamp_id: str, reason: CommandReason) -> None:
        if lamp_id in state.running:
            del state.running[lamp_id]
            commands.append(LampCommand(now, lamp_id, LampAction.TURN_OFF, reason))

    # recency trackers feed the quiet-gap rule; a hold window that is still
    # open counts as a detection happening right now
    if snapshot.motion_active:
        state.motion_last_seen = now
    for zone_id, occupied in snapshot.desk_zone_occupied.items():
        if occupied and zone_id in state.zone_last_seen:
            state.zone_last_seen[zone_id] = now

    presence = snapshot.room_occupied or snapshot.approach_detected

    # 1. manual kill dominates everything
    if snapshot.manual_kill:
        for lamp_id in list(state.running):
            turn_off(lamp_id, CommandReason.MANUAL_KILL)
        state.manual_killed = True
        state.armed = False
        state.last_room_vacated_at = None
        state.prev_presence = presence
        return state, commands
    state.manual_killed = False

    # 2. any detection rearms the cycle machinery
    if presence:
        state.armed = True

    # 3. safety interrupts
    if presence:
        reason = (CommandReason.OCCUPANCY_INTERRUPT if snapshot.room_occupied
                  else CommandReason.APPROACH_INTERRUPT)
        for lamp_id in roster.ceiling_ids:
            turn_off(lamp_id, reason)
    for lamp_id, zone_id in roster.desk_lamp_zone.items():
        if snapshot.motion_active or snapshot.desk_zone_occupied.get(zone_id, False):
            turn_off(lamp_id, CommandReason.OCCUPANCY_INTERRUPT)

    # 4. scheduled completions
    for lamp_id, (_, ends_at) in list(state.running.items()):
        if now >= ends_at:
            turn_off(lamp_id, CommandReason.CYCLE_COMPLETE)

    # 5. vacancy episode bookkeeping
    if state.prev_presence and not presence:
        state.last_room_vacated_at = now
        state.post_departure_cycle_done = False
    if presence:
        state.last_room_vacated_at = None

    # 6. midnight cycle, at most once per local calendar date
    today = _local_date(now, policy.tz_offset)
    if state.midnight_done_date is None or today > state.midnight_done_date:
        state.midnight_done_date = today
        if state.armed and not presence:
            for lamp_id in roster.ceiling_ids:
                turn_on(lamp_id, policy.ceiling_cycle, CommandReason.MIDNIGHT_CYCLE)
            for lamp_id, zone_id in roster.desk_lamp_zone.items():
                if not snapshot.desk_zone_occupied.get(zone_id, False):
                    turn_on(lamp_id, policy.desk_cycle, CommandReason.MIDNIGHT_CYCLE)
                    state.desk_last_started[lamp_id] = now
            for lamp_id in roster.upper_ids:
                turn_on(lamp_id, policy.upper_room_cycle, CommandReason.MIDNIGHT_CYCLE)
            state.armed = False  # stay dark until occupancy returns

    # 7. one post-departure cycle per vacancy episode
    if (state.armed and not presence
            and state.last_room_vacated_at is not None
            and not state.post_departure_cycle_done
            and now - state.last_room_vacated_at >= policy.vacancy_grace):
        for lamp_id in roster.ceiling_ids:
            turn_on(lamp_id, policy.ceiling_cycle, CommandReason.CYCLE_START)
        for lamp_id, zone_id in roster.desk_lamp_zone.items():
            if (not snapshot.desk_zone_occupied.get(zone_id, False)
                    and not snapshot.motion_active):
                turn_on(lamp_id, policy.desk_cycle, CommandReason.CYCLE_START)
                state.desk_last_started[lamp_id] = now
        state.post_departure_cycle_done = True

    # 8. desk lamp restart after a quiet gap, even with the room occupied
    #    elsewhere; one run per detection episode
    if state.armed:
        for lamp_id, zone_id in roster.desk_lamp_zone.items():
            if lamp_id in state.running:
                continue
            if snapshot.motion_active or snapshot.desk_zone_occupied.get(zone_id, False):
                continue
            candidates = [t for t in (state.zone_last_seen.get(zone_id),
                                      state.motion_last_seen) if t is not None]
            if not candidates:
                continue
            last_detection = max(candidates)
            started = state.desk_last_started.get(lamp_id)
            if (now - last_detection >= policy.desk_quiet_gap
                    and (started is None or started < last_detection)):
                turn_on(lamp_id, policy.desk_cycle, CommandReason.CYCLE_START)
                state.desk_last_started[lamp_id] = now

    # 9. hourly upper-room schedule; skipped (not deferred) while disarmed
    if now >= state.next_upper_room_at:
        if state.armed:
            for lamp_id in roster.upper_ids:
                turn_on(lamp_id, policy.upper_room_cycle,
                        CommandReason.HOURLY_SCHEDULE)
        while state.next_upper_room_at <= now:
            state.next_upper_room_at += policy.upper_room_period

    state.prev_presence = presence
    return state, commands


def next_due_at(state: ControllerState, policy: CyclePolicy,
                after: float) -> float:
    """Earliest time after a step at ``after`` at which a rule of ``step``
    can fire on the same quiet snapshot (no motion, no occupied desk zone):
    a running lamp's end, the vacancy grace, a desk quiet gap, the next
    upper-room slot or the next local midnight. Before it, stepping that
    snapshot again returns no commands and leaves the state equal."""
    if state.manual_killed:
        return float("inf")
    due = [ends_at for _, ends_at in state.running.values()]
    due.append(state.next_upper_room_at)
    today = _local_date(after, policy.tz_offset)
    if today < date.max:
        # datetime rounds timestamps to the microsecond, so the date can
        # turn half a microsecond early
        midnight = datetime.combine(today + timedelta(days=1),
                                    datetime.min.time(), timezone.utc)
        due.append(midnight.timestamp() - policy.tz_offset - 1e-6)
    if not state.armed:
        return min(due)
    if state.last_room_vacated_at is not None and not state.post_departure_cycle_done:
        due.append(state.last_room_vacated_at + policy.vacancy_grace)
    for lamp_id, zone_id in state.roster.desk_lamp_zone.items():
        seen = [t for t in (state.zone_last_seen.get(zone_id),
                            state.motion_last_seen) if t is not None]
        started = state.desk_last_started.get(lamp_id)
        if (lamp_id not in state.running and seen
                and (started is None or started < max(seen))):
            due.append(max(seen) + policy.desk_quiet_gap)
    return min(due)
