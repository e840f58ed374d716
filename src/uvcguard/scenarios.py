"""Bundled scenarios and the scenario file format.

The four reference scenarios (A through D) exercise the canonical room
layout with hand-scripted occupant motion and zero sensor noise, so their
structural outcomes (cycle counts, interrupt ordering, lamp budgets) are
stable facts rather than statistics. Noisy variants belong in randomized
tests, not here.

Scenario files are strict JSON, read with the field readers of
:mod:`uvcguard.room`: unknown keys, wrong types and non-finite numbers are
rejected and every error names the offending path. The ``policy``,
``fusion`` and ``noise`` objects take their schema from the CyclePolicy,
FusionParams and NoiseParams dataclasses.
"""

from __future__ import annotations

import dataclasses
import json
import random
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from .controller import CyclePolicy
from .fusion import FusionParams
from .room import (Point3, RoomConfigError, RoomModel, default_room,
                   params_from_dict, read_bool, read_int, read_json, read_keys,
                   read_list, read_number, read_numbers, read_object, read_str,
                   room_from_dict, room_to_dict)
from .simulator import (NoiseParams, OccupantScript, Scenario, ScenarioError,
                        Waypoint, validate_scenario)

# all reference scenarios start at 09:00 UTC so the midnight schedule stays
# out of the picture; the midnight scenario anchors at 23:00 instead
REFERENCE_START = datetime(2021, 3, 1, 9, 0, tzinfo=timezone.utc).timestamp()
MIDNIGHT_START = datetime(2021, 3, 1, 23, 0, tzinfo=timezone.utc).timestamp()

REFERENCE_SCENARIO_NAMES = ("A", "B", "C", "D")

_QUIET = NoiseParams(rssi_sigma_db=0.0, pir_miss_prob=0.0,
                     false_positive_rate_per_hour=0.0)

# seats at the two desks; z is torso height while seated
_DESK1_SEAT = (2.15, 0.6, 1.0)
_DESK2_SEAT = (2.15, 5.0, 1.0)


def _wp(t: float, x: float, y: float, z: float, inside: bool) -> Waypoint:
    return Waypoint(t=t, position=Point3(x, y, z), inside_room=inside)


def _seated_script(occupant_id: str, seat: Tuple[float, float, float],
                   nudge: Tuple[float, float, float],
                   movement_times: Sequence[float], duration: float,
                   carries_beacon: bool) -> OccupantScript:
    """Sit at ``seat`` for the whole scenario, shifting to ``nudge`` and
    back over two seconds at each movement time (enough to trip a PIR)."""
    wps = [_wp(0.0, *seat, True)]
    for m in movement_times:
        wps.append(_wp(m, *seat, True))
        wps.append(_wp(m + 2.0, *nudge, True))
        wps.append(_wp(m + 4.0, *seat, True))
    wps.append(_wp(duration, *seat, True))
    return OccupantScript(occupant_id=occupant_id, carries_beacon=carries_beacon,
                          waypoints=tuple(wps))


def scenario_a(room: Optional[RoomModel] = None) -> Scenario:
    """Healthy worker at desk 1 for two hours, occasional chair movement.

    Desk 1 has no lamp of its own; desk 2's lamp should cycle repeatedly
    across the worker's quiet stretches while the ceiling tier stays dark
    the whole time (the worker's beacon keeps approach asserted).
    """
    room = room or default_room()
    movements = (420.0, 900.0, 1100.0, 1800.0, 2040.0, 2700.0,
                 3600.0, 3780.0, 4800.0, 5700.0, 6600.0)
    occupant = _seated_script("worker_1", _DESK1_SEAT, (2.45, 0.75, 1.0),
                              movements, 7200.0, carries_beacon=True)
    return Scenario(name="A", room=room, policy=CyclePolicy(),
                    fusion=FusionParams(), occupants=(occupant,),
                    start_time=REFERENCE_START, duration=7200.0,
                    tick=0.1, seed=101, noise=_QUIET)


def scenario_b(room: Optional[RoomModel] = None) -> Scenario:
    """Worker seated inside desk 2's guarded zone for two hours.

    The ultrasonic zone guard must keep desk 2's lamp (and the ceiling
    tier) off for the entire run even across long motionless stretches;
    only the occupancy-safe upper-room fixture may run.
"""
    room = room or default_room()
    occupant = _seated_script("worker_2", _DESK2_SEAT, (2.4, 4.85, 1.0),
                              (1200.0, 3600.0, 6000.0), 7200.0,
                              carries_beacon=True)
    return Scenario(name="B", room=room, policy=CyclePolicy(),
                    fusion=FusionParams(), occupants=(occupant,),
                    start_time=REFERENCE_START, duration=7200.0,
                    tick=0.1, seed=102, noise=_QUIET)


def scenario_c(room: Optional[RoomModel] = None) -> Scenario:
    """Departure, one post-vacancy cycle, then a beacon-led return.

    The worker leaves at one minute; after the vacancy grace a single
    cycle starts. On the way back the beacon must interrupt the ceiling
    tier strictly before the worker crosses the door plane.
    """
    room = room or default_room()
    occupant = OccupantScript(
        occupant_id="worker_3", carries_beacon=True,
        waypoints=(
            _wp(0.0, *_DESK2_SEAT, True),
            _wp(60.0, *_DESK2_SEAT, True),
            _wp(67.0, 2.15, 0.3, 1.1, True),      # walk to the door
            _wp(68.5, 2.15, -0.7, 1.1, False),    # through it
            _wp(95.0, 2.15, -28.0, 1.1, False),   # off down the corridor
            _wp(500.0, 2.15, -28.0, 1.1, False),
            _wp(524.0, 2.15, -0.5, 1.1, False),   # walking back
            _wp(526.0, 2.15, 0.8, 1.1, True),
            _wp(532.0, *_DESK2_SEAT, True),
            _wp(7200.0, *_DESK2_SEAT, True),
        ))
    return Scenario(name="C", room=room, policy=CyclePolicy(),
                    fusion=FusionParams(), occupants=(occupant,),
                    start_time=REFERENCE_START, duration=7200.0,
                    tick=0.1, seed=103, noise=_QUIET)


def scenario_d(room: Optional[RoomModel] = None) -> Scenario:
    """Beacon-less visitor: three visits, the second mid-cycle.

    Only the PIR layer can see this person. The second entry lands while
    ceiling and desk cycles are running, so everything must drop out on
    motion alone within the reaction deadline, and the cycles must not
    restart until the visitor has left again.
    """
    room = room or default_room()
    occupant = OccupantScript(
        occupant_id="visitor_1", carries_beacon=False,
        waypoints=(
            _wp(0.0, 2.15, -8.0, 1.1, False),
            _wp(100.0, 2.15, -8.0, 1.1, False),
            _wp(107.0, 2.15, -0.8, 1.1, False),
            _wp(109.0, 2.15, 0.5, 1.1, True),     # visit one
            _wp(112.0, 1.0, 1.2, 1.1, True),
            _wp(120.0, 1.0, 1.2, 1.1, True),
            _wp(124.0, 3.3, 1.5, 1.1, True),
            _wp(132.0, 3.3, 1.5, 1.1, True),
            _wp(137.0, 3.5, 4.5, 1.1, True),
            _wp(146.0, 3.5, 4.5, 1.1, True),
            _wp(151.0, 1.2, 4.6, 1.1, True),
            _wp(160.0, 1.2, 4.6, 1.1, True),
            _wp(166.0, 2.0, 2.5, 1.1, True),
            _wp(174.0, 2.0, 2.5, 1.1, True),
            _wp(178.0, 2.15, 0.4, 1.1, True),
            _wp(180.0, 2.15, -1.0, 1.1, False),
            _wp(190.0, 2.15, -12.0, 1.1, False),
            _wp(400.0, 2.15, -12.0, 1.1, False),
            _wp(410.0, 2.15, -0.9, 1.1, False),
            _wp(411.2, 2.15, 0.4, 1.1, True),     # visit two, mid-cycle
            _wp(415.0, 1.4, 2.0, 1.1, True),
            _wp(423.0, 1.4, 2.0, 1.1, True),
            _wp(428.0, 3.0, 2.9, 1.1, True),
            _wp(436.0, 3.0, 2.9, 1.1, True),
            _wp(441.0, 2.15, 0.5, 1.1, True),
            _wp(443.0, 2.15, -0.9, 1.1, False),
            _wp(453.0, 2.15, -12.0, 1.1, False),
            _wp(1600.0, 2.15, -12.0, 1.1, False),
            _wp(1610.0, 2.15, -0.9, 1.1, False),
            _wp(1611.2, 2.15, 0.4, 1.1, True),    # visit three, all dark
            _wp(1615.0, 1.5, 1.5, 1.1, True),
            _wp(1623.0, 1.5, 1.5, 1.1, True),
            _wp(1628.0, 2.15, 0.5, 1.1, True),
            _wp(1630.0, 2.15, -1.1, 1.1, False),
            _wp(1640.0, 2.15, -12.0, 1.1, False),
            _wp(7200.0, 2.15, -12.0, 1.1, False),
        ))
    return Scenario(name="D", room=room, policy=CyclePolicy(),
                    fusion=FusionParams(), occupants=(occupant,),
                    start_time=REFERENCE_START, duration=7200.0,
                    tick=0.1, seed=104, noise=_QUIET)


def reference_scenarios(room: Optional[RoomModel] = None) -> Dict[str, Scenario]:
    return {"A": scenario_a(room), "B": scenario_b(room),
            "C": scenario_c(room), "D": scenario_d(room)}


def midnight_scenario(room: Optional[RoomModel] = None) -> Scenario:
    """26 hours across two local midnights at a coarse one-second tick.

    The first midnight runs a full cycle and disarms; the schedule must
    then stay completely dark until a late-morning visitor rearms it, and
    the second midnight must run exactly once as well.
    """
    room = room or default_room()
    visit = 39600.0   # 10:00 local on day two
    occupant = OccupantScript(
        occupant_id="visitor_2", carries_beacon=False,
        waypoints=(
            _wp(0.0, 2.15, -8.0, 1.1, False),
            _wp(visit - 10.0, 2.15, -8.0, 1.1, False),
            _wp(visit - 2.0, 2.15, -0.8, 1.1, False),
            _wp(visit, 2.15, 0.5, 1.1, True),
            _wp(visit + 5.0, 1.2, 2.5, 1.1, True),
            _wp(visit + 12.0, 1.2, 2.5, 1.1, True),
            _wp(visit + 18.0, 3.1, 3.3, 1.1, True),
            _wp(visit + 25.0, 3.1, 3.3, 1.1, True),
            _wp(visit + 30.0, 2.15, 0.5, 1.1, True),
            _wp(visit + 32.0, 2.15, -1.0, 1.1, False),
            _wp(visit + 42.0, 2.15, -12.0, 1.1, False),
            _wp(93600.0, 2.15, -12.0, 1.1, False),
        ))
    return Scenario(name="midnight", room=room, policy=CyclePolicy(),
                    fusion=FusionParams(), occupants=(occupant,),
                    start_time=MIDNIGHT_START, duration=93600.0,
                    tick=1.0, seed=105, noise=_QUIET)


# ---------------------------------------------------------------------------
# randomized fuzz walks
# ---------------------------------------------------------------------------

def random_walk_scenario(seed: int, room: Optional[RoomModel] = None) -> Scenario:
    """A short scenario with physically consistent random visits.

    Occupants approach along the corridor, tour the room at walking speeds
    comfortably above the PIR threshold with pauses shorter than the
    motion hold, then leave the way they came. Sensor noise is zero, so
    any lamp-on overlap the safety audit finds is a controller bug, not
    bad luck.
    """
    room = room or default_room()
    rng = random.Random(seed)
    duration = rng.uniform(60.0, 120.0)
    n_occupants = 1 if rng.random() < 0.7 else 2
    scripts = []
    for i in range(n_occupants):
        scripts.append(_random_visit(rng, room, f"walker_{i + 1}", duration))
    return Scenario(name=f"fuzz_{seed}", room=room, policy=CyclePolicy(),
                    fusion=FusionParams(),
                    occupants=tuple(scripts),
                    start_time=REFERENCE_START, duration=duration,
                    tick=0.1, seed=seed, noise=_QUIET)


def _random_visit(rng: random.Random, room: RoomModel, occupant_id: str,
                  duration: float) -> OccupantScript:
    door = room.door_position
    z = rng.uniform(1.0, 1.2)
    corridor_y = -rng.uniform(3.0, 8.0)
    t = rng.uniform(0.0, 0.2 * duration)
    wps = [_wp(0.0, door.x, corridor_y, z, False)]
    if t > 0.0:
        wps.append(_wp(t, door.x, corridor_y, z, False))

    def walk_to(x: float, y: float, inside: bool) -> None:
        nonlocal t
        last = wps[-1].position
        dist = ((x - last.x) ** 2 + (y - last.y) ** 2) ** 0.5
        t += max(dist / rng.uniform(0.4, 1.5), 0.2)
        wps.append(_wp(t, x, y, z, inside))

    walk_to(door.x, -0.4, False)
    walk_to(door.x, 0.5, True)
    for _ in range(rng.randint(2, 6)):
        walk_to(rng.uniform(0.3, room.width - 0.3),
                rng.uniform(0.3, room.length - 0.3), True)
        if rng.random() < 0.5:
            # linger; kept below the motion hold so presence never drops
            t += rng.uniform(1.0, 8.0)
            wps.append(_wp(t, wps[-1].position.x, wps[-1].position.y, z, True))
    walk_to(door.x, 0.4, True)
    walk_to(door.x, -0.6, False)
    walk_to(door.x, corridor_y, False)
    return OccupantScript(occupant_id=occupant_id,
                          carries_beacon=rng.random() < 0.5,
                          waypoints=tuple(wps))


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_SCENARIO_REQUIRED = ("name", "room", "occupants", "start_iso8601", "duration_s")
_SCENARIO_OPTIONAL = ("policy", "fusion", "tick_s", "seed", "noise",
                      "assume_vacant_at_start", "unsafe_force_on")


def _waypoint(row, path: str, errors: List[str]) -> Optional[Waypoint]:
    ok = isinstance(row, list) and len(row) == 5 and isinstance(row[4], bool)
    txyz = read_numbers(row[:4] if ok else None, 4, path, errors,
                        "[t, x, y, z, inside]")
    if txyz is None:
        return None
    t, x, y, z = txyz
    return Waypoint(t=t, position=Point3(x, y, z), inside_room=row[4])


def _occupant(obj, path: str, errors: List[str]) -> Optional[OccupantScript]:
    if not read_keys(obj, path, errors, ("id", "waypoints"), ("carries_beacon",)):
        return None
    occupant_id = read_str(obj, "id", path, errors)
    waypoints = read_list(obj["waypoints"], f"{path}.waypoints", errors,
                          _waypoint, non_empty=True)
    if not occupant_id or not waypoints:
        return None
    return OccupantScript(
        occupant_id=occupant_id,
        carries_beacon=read_bool(obj, "carries_beacon", path, errors, False),
        waypoints=tuple(waypoints))


def _span(span, path: str, errors: List[str]) -> Optional[Tuple[float, ...]]:
    return read_numbers(span, 2, path, errors, "[start_s, end_s]")


def _start_time(doc: dict, errors: List[str]) -> float:
    text = read_str(doc, "start_iso8601", "", errors)
    if not text:
        return 0.0
    try:
        start = datetime.fromisoformat(text)
    except ValueError:
        errors.append(f"start_iso8601: cannot parse {text!r}")
        return 0.0
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    return start.timestamp()


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated Scenario from a parsed scenario file.

    The ``policy``, ``fusion`` and ``noise`` objects take exactly the fields
    of CyclePolicy, FusionParams and NoiseParams. Raises ScenarioError
    listing every problem found.
    """
    errors: List[str] = []
    if not read_keys(doc, "scenario", errors, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL):
        raise ScenarioError(errors)
    try:
        room = room_from_dict(doc["room"])
    except RoomConfigError as exc:
        raise ScenarioError(errors + [f"room: {e}" for e in exc.errors]) from None

    scenario = Scenario(
        name=read_str(doc, "name", "", errors), room=room,
        policy=params_from_dict(doc.get("policy", {}), CyclePolicy, "policy", errors),
        fusion=params_from_dict(doc.get("fusion", {}), FusionParams, "fusion", errors),
        occupants=tuple(read_list(doc["occupants"], "occupants", errors, _occupant)),
        start_time=_start_time(doc, errors),
        duration=read_number(doc, "duration_s", "", errors, 0.0),
        tick=read_number(doc, "tick_s", "", errors, 0.1),
        seed=read_int(doc, "seed", "", errors),
        noise=params_from_dict(doc.get("noise", {}), NoiseParams, "noise", errors),
        assume_vacant_at_start=read_bool(doc, "assume_vacant_at_start", "",
                                         errors, False),
        unsafe_force_on={
            lamp_id: tuple(read_list(spans, f"unsafe_force_on[{lamp_id!r}]",
                                     errors, _span))
            for lamp_id, spans in read_object(doc, "unsafe_force_on", "",
                                              errors).items()})
    if errors:
        raise ScenarioError(errors)
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(problems)
    return scenario


def load_scenario(text: str) -> Scenario:
    return scenario_from_dict(read_json(text, "scenario", ScenarioError))


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {
        "name": scenario.name,
        "room": room_to_dict(scenario.room),
        "policy": dataclasses.asdict(scenario.policy),
        "fusion": dataclasses.asdict(scenario.fusion),
        "occupants": [
            {"id": occ.occupant_id, "carries_beacon": occ.carries_beacon,
             "waypoints": [[w.t, w.position.x, w.position.y, w.position.z,
                            w.inside_room] for w in occ.waypoints]}
            for occ in scenario.occupants
        ],
        "start_iso8601": datetime.fromtimestamp(
            scenario.start_time, tz=timezone.utc).isoformat(),
        "duration_s": scenario.duration,
        "tick_s": scenario.tick,
        "seed": scenario.seed,
        "noise": dataclasses.asdict(scenario.noise),
        "assume_vacant_at_start": scenario.assume_vacant_at_start,
    }
    if scenario.unsafe_force_on:
        doc["unsafe_force_on"] = {
            lamp: [[s, e] for s, e in spans]
            for lamp, spans in scenario.unsafe_force_on.items()}
    return doc


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
