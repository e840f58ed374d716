"""Deterministic fixed-step simulation of occupants, sensors, and lamps.

A run makes two passes over the tick grid. The control pass interpolates
occupant positions, evaluates the physical sensor models, feeds events
through fusion and steps the controller: it writes the event and command
logs. The exposure pass turns the command log and any ``unsafe_force_on``
windows into the lamps lit over each tick, the probe irradiance, the lamp
on-intervals (and from them the floor dose grid) and the occupant exposure
audit. All randomness comes from one seeded generator drawn in a fixed
order, so a scenario run twice with the same seed produces identical
output byte for byte. simulate() runs both passes, replay() the control
step alone on recorded events, and safety_check() the exposure pass alone
on recorded commands: the audit follows from the commands alone.

Time advances to the next event where nothing can happen in between. The
control step snapshots fusion and steps the controller only at tick 0,
after an ingest, after a snapshot with motion or an occupied desk zone, and
at the first tick at or after the next hold-window expiry or controller
rule due (``next_change_at``, ``next_due_at``); on every other tick a step
would return nothing. The control pass crosses a span of such ticks in one
jump while nobody is inside or moving and no sensor latch is open, up to
the next waypoint, PIR false positive or BLE advert. The exposure pass
jumps from tick 1 on while nobody moves, no lamp is forced on and no
downward lamp is lit with anyone inside, up to the next command or
waypoint. replay() jumps to the next control tick or event. The output is
the same byte for byte as stepping every tick.

Walls are opaque to PIR and ultrasonic sensing but transparent to BLE.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from .controller import (ControllerState, CyclePolicy, LampAction,
                         LampCommand, LampRoster, next_due_at, step)
from .dosimetry import (DoseGrid, LampOnIntervals, accumulate_dose,
                        irradiance_at_point)
from .fusion import (BleAdvert, FusionParams, OccupancyFusion, Payload,
                     PirMotion, SensorEvent, UsPresence, distance_to_rssi,
                     sort_events)
from .room import (ID_PATTERN, LampSpec, LampTier, Point3, RoomModel,
                   SensorKind, SensorSpec, angle_between_deg,
                   require_finite, validate as validate_room)

PIR_SPEED_THRESHOLD = 0.1      # m/s; slower targets look stationary to a PIR
BLE_ADVERT_PERIOD = 1.0        # s between beacon advertisements
CHEST_HEIGHT = 1.1             # m; exposure accounting plane
PROBE_HEIGHT = 0.7             # m; desk-level virtual radiometers
MAX_RECORDED_VIOLATIONS = 10000
MAX_TICKS = 2_000_000          # 16 MB of probe rows, 8 bytes a tick


# ---------------------------------------------------------------------------
# occupant scripts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Waypoint:
    t: float
    position: Point3
    inside_room: bool


@dataclass(frozen=True)
class OccupantScript:
    """Piecewise-linear movement script for one occupant.

    Positions interpolate linearly between waypoints and clamp outside the
    scripted range. The inside flag follows the most recent waypoint, but a
    position inside the room box always counts as inside: an occupant
    crossing the door plane mid-segment is treated as present from the
    crossing instant, never later.
    """

    occupant_id: str
    carries_beacon: bool
    waypoints: Tuple[Waypoint, ...]   # times in seconds from scenario start

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints", tuple(self.waypoints))


class _OccupantTracker:
    """Fast per-tick interpolation cursor over one script."""

    __slots__ = ("times", "wps", "index")

    def __init__(self, script: OccupantScript):
        self.wps = script.waypoints
        self.times = [w.t for w in self.wps]
        self.index = 0

    def at(self, t: float) -> Tuple[Point3, bool]:
        wps = self.wps
        times = self.times
        n = len(wps)
        while self.index + 1 < n and times[self.index + 1] <= t:
            self.index += 1
        i = self.index
        if t <= times[0]:
            return wps[0].position, wps[0].inside_room
        if i + 1 >= n:
            return wps[-1].position, wps[-1].inside_room
        a, b = wps[i], wps[i + 1]
        frac = (t - a.t) / (b.t - a.t)
        pos = Point3(a.position.x + frac * (b.position.x - a.position.x),
                     a.position.y + frac * (b.position.y - a.position.y),
                     a.position.z + frac * (b.position.z - a.position.z))
        return pos, a.inside_room

    def parked_until(self) -> float:
        """Script time up to which the position stays as at the last ``at``
        call: the next waypoint, inf past the last one, -inf while moving."""
        i = self.index
        if i + 1 >= len(self.wps):
            return math.inf
        if self.wps[i].position != self.wps[i + 1].position:
            return -math.inf
        return self.times[i + 1]


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseParams:
    """Sensor imperfection knobs. Zero noise means ideal sensors except the
    PIR false-positive process, which defaults to 0.5 events/sensor/hour."""

    rssi_sigma_db: float = 0.0
    pir_miss_prob: float = 0.0
    false_positive_rate_per_hour: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)


@dataclass(frozen=True)
class Scenario:
    name: str
    room: RoomModel
    policy: CyclePolicy
    fusion: FusionParams
    occupants: Tuple[OccupantScript, ...]
    start_time: float            # epoch seconds; the calendar anchor
    duration: float
    tick: float = 0.1
    seed: int = 0
    noise: NoiseParams = field(default_factory=NoiseParams)
    assume_vacant_at_start: bool = False
    # test-only bypass: force lamps on over [start, end) windows given in
    # seconds from scenario start, ignoring the controller, to exercise
    # the violation-reporting path
    unsafe_force_on: Mapping[str, Tuple[Tuple[float, float], ...]] = \
        field(default_factory=dict)

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


class ScenarioError(ValueError):
    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def validate_scenario(sc: Scenario) -> List[str]:
    problems = list(validate_room(sc.room))
    # the CLI names a run's output directory after its scenario
    if not ID_PATTERN.fullmatch(sc.name) or sc.name in (".", ".."):
        problems.append(f"name {sc.name!r} must match {ID_PATTERN.pattern} "
                        "and not be '.' or '..'")
    if not 0.0 < sc.tick <= 1.0:
        problems.append(f"tick must be in (0, 1] seconds, got {sc.tick}")
    if not 0.0 < sc.duration < math.inf:
        problems.append("duration must be finite and > 0")
    elif 0.0 < sc.tick <= 1.0:
        count = int(round(sc.duration / sc.tick))
        if not 1 <= count <= MAX_TICKS:
            problems.append(f"duration / tick gives {count} ticks; "
                            f"it must be in [1, {MAX_TICKS}]")
    if sc.policy.reaction_deadline and sc.tick > max(sc.policy.reaction_deadline, 1e-9):
        problems.append("tick must not exceed the reaction deadline")
    occupant_ids: Set[str] = set()
    for occ in sc.occupants:
        where = f"occupant {occ.occupant_id!r}"
        if not ID_PATTERN.fullmatch(occ.occupant_id):
            problems.append(f"{where}: id must match {ID_PATTERN.pattern}")
        # the safety audit keys entry times and doses by occupant id
        if occ.occupant_id in occupant_ids:
            problems.append(f"{where}: duplicate id")
        occupant_ids.add(occ.occupant_id)
        if not occ.waypoints:
            problems.append(f"{where}: needs waypoints")
            continue
        prev_t = -math.inf
        for i, wp in enumerate(occ.waypoints):
            p = wp.position
            if not all(map(math.isfinite, (wp.t, p.x, p.y, p.z))):
                problems.append(f"{where}: waypoint {i} must be finite")
                break
            if not wp.t > prev_t:
                problems.append(f"{where}: waypoint {i} "
                                "timestamps must strictly increase")
                break
            prev_t = wp.t
            if wp.inside_room and not sc.room.contains(wp.position):
                problems.append(f"{where}: waypoint {i} "
                                "flagged inside but lies outside the room box")
    lamp_ids = {l.id for l in sc.room.lamps}
    for lamp_id, spans in sc.unsafe_force_on.items():
        if lamp_id not in lamp_ids:
            problems.append(f"unsafe_force_on: unknown lamp {lamp_id!r}")
        for start, end in spans:
            if not -math.inf < start <= end < math.inf:
                problems.append(f"unsafe_force_on[{lamp_id!r}]: bad interval")
    return problems


# ---------------------------------------------------------------------------
# sensor models
# ---------------------------------------------------------------------------

def _in_cone(sensor: SensorSpec, target: Point3) -> bool:
    offset = Point3(target.x - sensor.position.x,
                    target.y - sensor.position.y,
                    target.z - sensor.position.z)
    return angle_between_deg(sensor.aim, offset) <= sensor.fov_half_angle


def pir_model(sensor: SensorSpec, moves: Sequence[Tuple[Point3, Point3]],
              tick: float, rng: random.Random, miss_prob: float) -> bool:
    """True when any inside occupant moved fast enough within the view cone.

    ``moves`` holds (previous, current) positions of occupants currently
    inside the room; a displacement at or below the speed threshold looks
    stationary and passive infrared cannot see it.
    """
    threshold = PIR_SPEED_THRESHOLD * tick
    for prev, cur in moves:
        if prev is None:
            continue
        dx = cur.x - prev.x
        dy = cur.y - prev.y
        dz = cur.z - prev.z
        if dx * dx + dy * dy + dz * dz <= threshold * threshold:
            continue
        if not _in_cone(sensor, cur):
            continue
        if miss_prob > 0.0 and rng.random() < miss_prob:
            continue
        return True
    return False


def us_model(sensor: SensorSpec, positions: Sequence[Point3]) -> Optional[float]:
    """Distance to the nearest occupant in the cone and range, else None.

    Ultrasonic ranging sees stationary targets, which is exactly why it
    guards the desk zone.
    """
    best = None
    for pos in positions:
        d = sensor.position.distance_to(pos)
        if d > sensor.max_range:
            continue
        if not _in_cone(sensor, pos):
            continue
        if best is None or d < best:
            best = d
    return best


def ble_model(receiver: SensorSpec, beacon_pos: Point3, params: FusionParams,
              rng: random.Random, sigma_db: float) -> float:
    """RSSI in dBm heard by the receiver for a beacon at ``beacon_pos``."""
    rssi = distance_to_rssi(receiver.position.distance_to(beacon_pos), params)
    if sigma_db > 0.0:
        rssi += rng.gauss(0.0, sigma_db)
    return min(0.0, max(-120.0, rssi))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class Timeline:
    """Chronological record of everything a run produced. Tick k starts at
    ``start_time + k * tick``; ``probe_samples[k]`` holds its probe values,
    one tuple object shared by each run of ticks with unchanged lamps."""

    scenario_name: str
    start_time: float
    end_time: float
    tick: float
    probe_names: Tuple[str, ...]
    events: List[SensorEvent] = field(default_factory=list)
    commands: List[LampCommand] = field(default_factory=list)
    probe_samples: List[Tuple[float, ...]] = field(default_factory=list)
    lamp_intervals: LampOnIntervals = field(default_factory=dict)


@dataclass(frozen=True)
class SafetyViolation:
    timestamp: float
    occupant_id: str
    lamp_id: str
    received_irradiance: float


@dataclass(frozen=True)
class SafetyReport:
    """Zero-exposure audit: pass verdict iff no violation was observed."""

    violations: Tuple[SafetyViolation, ...]
    violation_count: int
    total_occupant_dose: Dict[str, float]

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class SimulationResult:
    scenario: Scenario
    timeline: Timeline
    safety: SafetyReport
    dose_grid: DoseGrid


# ---------------------------------------------------------------------------
# safety accounting
# ---------------------------------------------------------------------------

def _box_entry_frac(pa: Point3, pb: Point3, room: RoomModel) -> float:
    """Segment fraction where pa->pb first enters the room box (slab clip).

    Assumes pb is inside; falls back to 0.0 (the conservative, earliest
    possible entry) for degenerate geometry.
    """
    frac = 0.0
    for a, b, lo, hi in ((pa.x, pb.x, 0.0, room.width),
                         (pa.y, pb.y, 0.0, room.length),
                         (pa.z, pb.z, 0.0, room.ceiling_height)):
        d = b - a
        if a < lo:
            if d <= 0.0:
                return 0.0
            frac = max(frac, (lo - a) / d)
        elif a > hi:
            if d >= 0.0:
                return 0.0
            frac = max(frac, (hi - a) / d)
    return min(frac, 1.0)


def _circle_cross_frac(pa: Point3, pb: Point3, center: Point3, radius: float,
                       entering: bool) -> float:
    """Fraction where the horizontal segment pa->pb crosses the circle."""
    dx, dy = pb.x - pa.x, pb.y - pa.y
    fx, fy = pa.x - center.x, pa.y - center.y
    a = dx * dx + dy * dy
    if a == 0.0:
        return 0.0 if entering else 1.0
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0.0 if entering else 1.0
    root = math.sqrt(disc)
    s = (-b - root) / (2.0 * a) if entering else (-b + root) / (2.0 * a)
    return min(max(s, 0.0), 1.0)


class _SafetyAccumulator:
    """Interval-based exposure audit of the exposure pass.

    Each observation covers one tick [t, t+tick) over which the lamp state
    is constant. Room and zone entries are located geometrically on the
    movement segment, so the audit clock starts at the true crossing
    instant rather than the first tick that sampled the occupant inside.
    A lamp-on overlap is a violation only past ``reaction_deadline`` after
    room entry (when detection first became possible). Dose integrates
    all downward-lamp irradiance at chest height while inside, no grace.
    A tick on which nobody moves and no downward lamp is lit with anyone
    inside changes only the entry clocks of those outside, which the next
    tick observed sets afresh.
    """

    def __init__(self, scenario: Scenario, occupant_ids: Sequence[str]):
        room = self.room = scenario.room
        self.deadline = scenario.policy.reaction_deadline
        self.tick = scenario.tick
        self.ceiling = {l.id: l for l in room.lamps if l.tier is LampTier.CEILING}
        self.desk = {l.id: l for l in room.lamps if l.tier is LampTier.DESK}
        self.desk_zone = LampRoster.for_room(room).desk_lamp_zone
        self.zones = {z.desk_id: z for z in room.desk_zones}
        self.entered_at: Dict[str, Optional[float]] = {o: None for o in occupant_ids}
        self.dose: Dict[str, float] = {o: 0.0 for o in occupant_ids}
        self.violations: List[SafetyViolation] = []
        self.violation_count = 0

    def observe(self, t: float, occupant_id: str,
                pos_a: Point3, inside_a: bool,
                pos_b: Point3, inside_b: bool,
                on_lamps: Dict[str, LampSpec]) -> None:
        tick = self.tick
        if not inside_a and not inside_b:
            self.entered_at[occupant_id] = None
            return
        if inside_a:
            if self.entered_at[occupant_id] is None:
                self.entered_at[occupant_id] = t
        else:
            self.entered_at[occupant_id] = \
                t + _box_entry_frac(pos_a, pos_b, self.room) * tick
        entered = self.entered_at[occupant_id]
        # all sub-tick arithmetic runs on offsets from t: at epoch magnitudes
        # (t + tick) - t does not round back to tick, and that quantization
        # error would otherwise accumulate into the dose every single tick
        entered_off = entered - t            # negative once entry is past
        inside_off = max(0.0, entered_off)
        if inside_off >= tick:
            return
        eval_pos = pos_a if inside_a else pos_b
        chest = Point3(eval_pos.x, eval_pos.y, CHEST_HEIGHT)

        if on_lamps:
            downward_on = [l for l in on_lamps.values() if l.emits_downward]
            if downward_on:
                self.dose[occupant_id] += irradiance_at_point(downward_on, chest) \
                    * (tick - inside_off)

        overdue_off = entered_off + self.deadline
        violation_off = max(inside_off, overdue_off)
        if violation_off < tick - 1e-12:
            for lamp_id, lamp in self.ceiling.items():
                if lamp_id in on_lamps:
                    self._record(t + violation_off, occupant_id, lamp_id,
                                 irradiance_at_point([lamp], chest))

        for lamp_id, zone_id in self.desk_zone.items():
            if lamp_id not in on_lamps:
                continue
            zone = self.zones[zone_id]
            in_a = inside_a and (zone.center.horizontal_distance_to(pos_a)
                                 <= zone.exclusion_radius)
            in_b = inside_b and (zone.center.horizontal_distance_to(pos_b)
                                 <= zone.exclusion_radius)
            if not in_a and not in_b:
                continue
            zone_start_off = 0.0 if in_a else tick * _circle_cross_frac(
                pos_a, pos_b, zone.center, zone.exclusion_radius, entering=True)
            zone_end_off = tick if in_b else tick * _circle_cross_frac(
                pos_a, pos_b, zone.center, zone.exclusion_radius, entering=False)
            violation_off = max(zone_start_off, inside_off, overdue_off)
            if violation_off < zone_end_off - 1e-12:
                self._record(t + violation_off, occupant_id, lamp_id,
                             irradiance_at_point([self.desk[lamp_id]], chest))

    def _record(self, now: float, occupant_id: str, lamp_id: str,
                irradiance: float) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(SafetyViolation(
                timestamp=now, occupant_id=occupant_id, lamp_id=lamp_id,
                received_irradiance=irradiance))

    def report(self) -> SafetyReport:
        return SafetyReport(violations=tuple(self.violations),
                            violation_count=self.violation_count,
                            total_occupant_dose=dict(self.dose))


# ---------------------------------------------------------------------------
# the tick pipeline: simulate, replay and safety_check
# ---------------------------------------------------------------------------

def _probe_points(room: RoomModel) -> List[Tuple[str, Point3]]:
    probes = [("room_center", Point3(room.width / 2.0, room.length / 2.0,
                                     PROBE_HEIGHT))]
    for zone in room.desk_zones:
        if zone.has_desk_lamp:
            probes.append((zone.desk_id,
                           Point3(zone.center.x, zone.center.y, PROBE_HEIGHT)))
    return probes


class _TickGrid:
    """Tick k of a run covers [time(k), time(k + 1)). Offsets count seconds
    from the scenario start, the clock occupant scripts run on; everything
    else (fusion, controller, logs) uses absolute epoch seconds."""

    def __init__(self, scenario: Scenario):
        self.start = scenario.start_time
        self.tick = scenario.tick
        self.count = int(round(scenario.duration / scenario.tick))

    def offset(self, k: int) -> float:
        return k * self.tick

    def time(self, k: int) -> float:
        return self.start + k * self.tick

    def first_at(self, t: float) -> int:
        """The first tick k with time(k) >= t, or count if there is none."""
        if not t < self.time(self.count):
            return self.count
        k = math.ceil(max(0.0, (t - self.start) / self.tick))
        while k > 0 and self.time(k - 1) >= t:
            k -= 1
        while self.time(k) < t:
            k += 1
        return k


class _Control:
    """Fusion and controller of one run: events go into ``fusion`` as they
    happen, and ``decide`` steps the controller on a tick's snapshot when
    the step can do something. ``next_k`` is the next tick that must step
    even if no event arrives before it."""

    def __init__(self, scenario: Scenario, ticks: _TickGrid):
        start = scenario.start_time
        self.fusion = OccupancyFusion(scenario.room, scenario.fusion)
        self.policy = scenario.policy
        self.ticks = ticks
        self.next_k = 0
        self.state = ControllerState.initial(
            scenario.room, scenario.policy, start,
            assume_vacant_since=start if scenario.assume_vacant_at_start else None)

    def decide(self, k: int, t: float) -> List[LampCommand]:
        fusion = self.fusion
        if k < self.next_k and not fusion.ingested:
            return []
        snapshot = fusion.snapshot(t)
        self.state, commands = step(self.state, snapshot, t, self.policy)
        if snapshot.room_occupied:
            # step stamps motion and zone recency with ``t`` on such ticks
            self.next_k = k + 1
        else:
            # 1e-6 s early: the candidates carry rounding of a few ulps
            self.next_k = self.ticks.first_at(min(
                fusion.next_change_at(t),
                next_due_at(self.state, self.policy, t) - 1e-6))
        return commands


class _Occupants:
    """Scripted occupant kinematics on the tick grid: ``positions`` and
    ``insides`` at the start of the current tick, ``prev_positions`` one
    tick earlier (None before tick 0)."""

    def __init__(self, scenario: Scenario, ticks: _TickGrid):
        self.room = scenario.room
        self.ticks = ticks
        self.trackers = [_OccupantTracker(o) for o in scenario.occupants]
        self.ids = [o.occupant_id for o in scenario.occupants]
        self.positions: List[Optional[Point3]] = [None] * len(self.ids)
        self.move_to(0)

    def parked_until(self) -> int:
        """The first tick at whose start someone may have moved, 0 while
        someone moves: both passes jump only over ticks that end before it."""
        until = min([tr.parked_until() for tr in self.trackers], default=math.inf)
        return self.ticks.first_at(self.ticks.start + until) if until > -math.inf else 0

    def move_to(self, k: int) -> None:
        """Move everyone to the start of tick k."""
        offset = self.ticks.offset(k)
        states = [tr.at(offset) for tr in self.trackers]
        self.prev_positions = self.positions
        self.positions = [pos for pos, _ in states]
        self.insides = [flag or self.room.contains(pos) for pos, flag in states]


def simulate(scenario: Scenario) -> SimulationResult:
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(problems)

    room = scenario.room
    ticks = _TickGrid(scenario)
    tick = ticks.tick
    rng = random.Random(scenario.seed)
    noise = scenario.noise
    control = _Control(scenario, ticks)
    occupants = _Occupants(scenario, ticks)

    sensors = sorted(room.sensors, key=lambda s: s.id)

    # independent false-positive Poisson clock per PIR sensor
    fp_rate = noise.false_positive_rate_per_hour / 3600.0
    next_fp: Dict[str, float] = {
        s.id: ticks.start + rng.expovariate(fp_rate)
        for s in sensors if s.kind is SensorKind.PIR} if fp_rate > 0.0 else {}

    # hardware output latches (hold_time > 0 keeps re-emitting)
    latch_until: Dict[str, float] = {}
    latch_payload: Dict[str, Payload] = {}

    beacon_indices = [i for i, o in enumerate(scenario.occupants)
                      if o.carries_beacon]

    timeline = Timeline(scenario_name=scenario.name, start_time=ticks.start,
                        end_time=ticks.time(ticks.count), tick=tick,
                        probe_names=tuple(name for name, _ in _probe_points(room)))
    # adverts matter only when someone carries a beacon
    next_advert = ticks.start if beacon_indices else math.inf

    k = 0
    while k < ticks.count:
        # -- jump over ticks where nothing can happen ------------------------
        if k + 1 < control.next_k and not any(occupants.insides) and all(
                ticks.time(k) >= until for until in latch_until.values()):
            stop = min(control.next_k, occupants.parked_until(),
                       ticks.first_at(min(next_fp.values(), default=math.inf)),
                       ticks.first_at(next_advert - 1e-9))
            if stop > k + 1:
                # tick stop-1 runs the loop body, which moves everyone into
                # tick stop
                k = stop - 1
        t = ticks.time(k)

        # -- occupant kinematics -------------------------------------------
        positions = occupants.positions
        moves_inside: List[Tuple[Optional[Point3], Point3]] = [
            (prev, pos) for prev, pos, inside in zip(
                occupants.prev_positions, positions, occupants.insides)
            if inside]
        inside_positions = [pos for _, pos in moves_inside]

        # -- sensor models, in sorted-sensor order --------------------------
        advert_due = t >= next_advert - 1e-9
        if advert_due:
            next_advert += BLE_ADVERT_PERIOD
        for sensor in sensors:
            kind = sensor.kind
            payload: Optional[Payload] = None
            if kind is SensorKind.PIR:
                fired = bool(moves_inside) and pir_model(
                    sensor, moves_inside, tick, rng, noise.pir_miss_prob)
                if sensor.id in next_fp:
                    while next_fp[sensor.id] <= t:
                        fired = True
                        next_fp[sensor.id] += rng.expovariate(fp_rate)
                if fired:
                    payload = PirMotion()
            elif kind is SensorKind.ULTRASONIC:
                distance = us_model(sensor, inside_positions) \
                    if inside_positions else None
                if distance is not None:
                    payload = UsPresence(distance=distance)
            elif kind is SensorKind.BLE_RECEIVER and advert_due:
                for idx in beacon_indices:
                    rssi = ble_model(sensor, positions[idx], scenario.fusion,
                                     rng, noise.rssi_sigma_db)
                    event = SensorEvent(
                        timestamp=t, source=sensor.id,
                        payload=BleAdvert(beacon_id=occupants.ids[idx],
                                          rssi=rssi))
                    control.fusion.ingest(event)
                    timeline.events.append(event)
                continue
            else:
                continue

            if payload is None and sensor.hold_time > 0.0:
                if t < latch_until.get(sensor.id, -math.inf):
                    payload = latch_payload.get(sensor.id)
            elif payload is not None and sensor.hold_time > 0.0:
                latch_until[sensor.id] = t + sensor.hold_time
                latch_payload[sensor.id] = payload
            if payload is not None:
                event = SensorEvent(timestamp=t, source=sensor.id, payload=payload)
                control.fusion.ingest(event)
                timeline.events.append(event)

        # -- fuse and decide ------------------------------------------------
        timeline.commands.extend(control.decide(k, t))
        occupants.move_to(k + 1)
        k += 1

    timeline.probe_samples, spans, safety = _expose(scenario, timeline.commands)
    timeline.lamp_intervals = {
        lamp_id: [(ticks.time(a), ticks.time(b)) for a, b in pairs]
        for lamp_id, pairs in spans.items()}
    # the dose grid from on-durations counted in ticks: epoch differences
    # carry rounding of up to 2.4e-7 s per endpoint, tick indices none
    dose_grid = accumulate_dose(DoseGrid.for_room(room), room.lamps, {
        lamp_id: [(ticks.offset(a), ticks.offset(b)) for a, b in pairs]
        for lamp_id, pairs in spans.items()})
    return SimulationResult(scenario=scenario, timeline=timeline,
                            safety=safety, dose_grid=dose_grid)


def replay(scenario: Scenario, events: Iterable[SensorEvent]) -> List[LampCommand]:
    """Lamp commands re-derived from a run's sensor events alone: sorted,
    then fed to fusion on the tick grid as simulate feeds them, so a run's
    own event log reproduces its command log exactly."""
    events = sort_events(events)
    ticks = _TickGrid(scenario)
    control = _Control(scenario, ticks)
    commands: List[LampCommand] = []
    i = 0
    k = 0
    while k < ticks.count:
        t = ticks.time(k)
        while i < len(events) and events[i].timestamp <= t:
            control.fusion.ingest(events[i])
            i += 1
        commands.extend(control.decide(k, t))
        k += 1
        if k < control.next_k:
            next_event = events[i].timestamp if i < len(events) else math.inf
            k = min(control.next_k, ticks.first_at(next_event))
    return commands


# ---------------------------------------------------------------------------
# the exposure pass: lamps, probes and the audit from the command log
# ---------------------------------------------------------------------------

class _LampState:
    """Lamps lit over each tick: the controller's commands plus the
    ``unsafe_force_on`` windows. ``on`` lists them in switch-on order, ties
    in room order, so sums over it repeat bit for bit whatever the hash
    seed. On-intervals are tick-index pairs."""

    def __init__(self, scenario: Scenario):
        start = scenario.start_time
        self.lamps = scenario.room.lamps
        self.force_on = {lamp: tuple((start + s, start + e) for s, e in spans)
                         for lamp, spans in scenario.unsafe_force_on.items()
                         if spans}
        self.commanded: Set[str] = set()
        self.pending = False
        self.on: Dict[str, LampSpec] = {}
        self.on_since: Dict[str, int] = {}
        self.spans: Dict[str, List[Tuple[int, int]]] = {}

    def apply(self, cmd: LampCommand) -> None:
        if cmd.action is LampAction.TURN_ON:
            self.commanded.add(cmd.lamp_id)
        else:
            self.commanded.discard(cmd.lamp_id)
        self.pending = True

    def settle(self, k: int, t: float) -> bool:
        """Bring ``on`` up to date at tick k, time t; True if it changed."""
        if not self.pending and not self.force_on:
            return False
        self.pending = False
        lit = {l.id: l for l in self.lamps if l.id in self.commanded or any(
            s <= t < e for s, e in self.force_on.get(l.id, ()))}
        if lit.keys() == self.on.keys():
            return False
        for lamp_id in self.on:
            if lamp_id not in lit:
                self.spans.setdefault(lamp_id, []).append(
                    (self.on_since.pop(lamp_id), k))
        for lamp_id in lit:
            self.on_since.setdefault(lamp_id, k)
        self.on = {lamp_id: lit[lamp_id] for lamp_id in self.on_since}
        return True

    def close(self, k: int) -> Dict[str, List[Tuple[int, int]]]:
        """All on-intervals, the open ones ended at tick k."""
        for lamp_id, since in sorted(self.on_since.items()):
            self.spans.setdefault(lamp_id, []).append((since, k))
        return self.spans


def _expose(scenario: Scenario, commands: Sequence[LampCommand]) -> Tuple[
        List[Tuple[float, ...]], Dict[str, List[Tuple[int, int]]], SafetyReport]:
    """The lamps a command log lights, stepped along the tick grid: each
    tick's probe values (ticks with unchanged lamps share one tuple), the
    on-intervals as tick-index pairs, and the audit of each tick's movement
    segment against the lamps lit over it. A command acts from the first
    tick at or after its timestamp, in log order."""
    ticks = _TickGrid(scenario)
    lamps = _LampState(scenario)
    occupants = _Occupants(scenario, ticks)
    audit = _SafetyAccumulator(scenario, occupants.ids)
    probe_positions = [p for _, p in _probe_points(scenario.room)]
    values: Tuple[float, ...] = tuple(0.0 for _ in probe_positions)
    samples: List[Tuple[float, ...]] = []
    ci = 0
    k = 0
    while k < ticks.count:
        # -- jump over ticks on which observe() changes nothing --------------
        # tick 0 starts the entry clocks of those inside, and the skipped
        # ticks' clocks of those outside are set afresh by tick stop-1
        stop = occupants.parked_until() if 0 < k and not lamps.force_on else 0
        if stop > k + 1 and ci < len(commands):
            stop = min(stop, ticks.first_at(commands[ci].timestamp))
        if stop > k + 1 and not (any(occupants.insides) and any(
                l.emits_downward for l in lamps.on.values())):
            # tick stop-1 runs the loop body, whose audit covers the move
            # into tick stop
            samples.extend(itertools.repeat(values, stop - 1 - k))
            k = stop - 1
        t = ticks.time(k)

        while ci < len(commands) and commands[ci].timestamp <= t:
            lamps.apply(commands[ci])
            ci += 1
        if lamps.settle(k, t):
            on_lamps = list(lamps.on.values())
            values = tuple(irradiance_at_point(on_lamps, p) if on_lamps else 0.0
                           for p in probe_positions)
        samples.append(values)

        pos_a, in_a = occupants.positions, occupants.insides
        occupants.move_to(k + 1)
        for i, occupant_id in enumerate(occupants.ids):
            audit.observe(t, occupant_id, pos_a[i], in_a[i],
                          occupants.positions[i], occupants.insides[i], lamps.on)
        k += 1
    return samples, lamps.close(ticks.count), audit.report()


def safety_check(timeline: Timeline, scenario: Scenario) -> SafetyReport:
    """The exposure audit of a timeline's command record: simulate()'s own
    exposure pass over the logged commands, any forced-on test windows and
    the scripted occupant motion. On commands read back from
    ``commands.csv`` it audits the log as written."""
    return _expose(scenario, timeline.commands)[2]


# ---------------------------------------------------------------------------
# timeline serialization
# ---------------------------------------------------------------------------

def write_probe_log(timeline: Timeline, stream) -> None:
    """Probe irradiance per tick as CSV, one column per probe, full float
    precision so identical runs serialize byte for byte. Ticks that share
    one values tuple share its formatted text."""
    header = "timestamp_s," + ",".join(f"{name}_w_m2"
                                       for name in timeline.probe_names)
    stream.write(header + "\n")
    start, tick = timeline.start_time, timeline.tick
    formatted: Optional[Tuple[float, ...]] = None
    for k, values in enumerate(timeline.probe_samples):
        if values is not formatted:
            formatted, text = values, "," + ",".join(map(repr, values)) + "\n"
        stream.write(repr(start + k * tick) + text)


DOSE_GRID_HEADER = "row,col,x_m,y_m,dose_j_m2"


def write_dose_grid_csv(grid: DoseGrid, stream) -> None:
    stream.write(DOSE_GRID_HEADER + "\n")
    for r in range(grid.rows):
        for c in range(grid.cols):
            center = grid.cell_center(r, c)
            dose = float(grid.accumulated_dose[r, c])
            stream.write(f"{r},{c},{center.x!r},{center.y!r},{dose!r}\n")
