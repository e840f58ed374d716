"""Deterministic fixed-step simulation of occupants, sensors, and lamps.

A run is three passes over the tick grid: sense, decide, expose. The
sensing pass interpolates occupant positions and evaluates the physical
sensor models: it writes the event log. The decide pass feeds the events
through fusion and steps the controller: it writes the command log. The
exposure pass turns the command log and any ``unsafe_force_on`` windows
into the lamps lit over each tick, the probe irradiance, the lamp
on-intervals (and from them the floor dose grid) and the occupant exposure
audit. It records the probe values as runs (``ProbeRuns``): a run starts
on each tick on which the lamps lit change. All randomness comes from one
seeded generator drawn in a fixed order, so a scenario run twice with the
same seed produces identical output byte for byte. simulate() runs all
three; replay() is the decide pass alone on recorded events, and
safety_check() the exposure pass alone on recorded commands: the commands
follow from the sensor events alone, and the audit from the commands.

Sensor events travel as runs per source (``fusion.EventRuns``): rows of
one payload from one source and lane at a fixed period in ticks, held as a
first tick, a period, a row count, a source, a payload and a lane. A run
continues across ticks and spans while its source repeats an equal payload
at its period, whatever other sources emit in between. The sensing pass
adds a still span's rows as one run per source, and each advert's rows to
their lanes' runs. Sense and decide interleave: the sensing pass yields
the tick up to which its rows are final, after tick 0 and after each still
span, and the decide pass takes the rows added so far and steps the ticks
up to it. A run may grow after its first rows went in; the decide pass
takes the rows it gained at the next such tick.

Time advances to the next event where nothing can happen in between. The
decide pass snapshots fusion and steps the controller only at tick 0,
after an ingest that opens a hold window or presses the manual switch, and
at the first tick at or after the next hold-window expiry or controller
rule due (``next_change_at``, ``next_due_at``); on every other tick a step
would only renew the recency stamps of open windows, which the next step
restamps with the last skipped tick. A tick that only an expiry or a due
brought is counted again from the windows of the moment before it steps. A
desk lamp's quiet gap falls due only once its zone and motion windows have
closed. Every row goes into fusion through ``ingest_window``, in a window
piece that goes in at its first row's time: a stretch of a run's rows in
which each falls before the previous one's timestamp plus the hold, so
that only its first row can open a window, and the window it holds open
carries its true end from the moment it goes in. An anomaly, a manual
switch press and a row off the tick grid are pieces of one row. Pieces go
in merged in (timestamp, source, lane) order of their first rows. While
nobody inside moves
and nobody moves before the next waypoint, every tick emits the same sensor
payloads and draws nothing. Such a still span runs up to that waypoint, the
next PIR false positive, the end of an open latch or, with RSSI noise, the
next BLE advert, and no span starts on a tick into which someone inside
moved or on which a false positive falls. Its ticks repeat the payloads
that the sensor models made on its first tick, or on its first advert tick;
with a sensor that latches (``hold_time`` > 0), the models run again on
its last tick, so that every latch ends where stepping each tick leaves
it. The exposure pass reads the command log and the forced windows once,
into the lamps lit as runs: one from tick 0 and one from each tick on
which the set of lamps lit changes (``_lamp_runs``). It skips every run in
which no lamp the audit acts on is lit (none that emits downward, no
ceiling lamp and no desk lamp guarding a zone), whoever moves. It moves
its own occupants, the only ones that track entry clocks: before a run it
audits, it jumps to the reaction deadline plus at least a tick before the
run's first tick, and moves from there over parked spans only. Every
clock it reads is then exact or, like the true one, older than the
deadline by a tick or more, which the audit reads alike. Within a run it
audits, it jumps while nobody moves, up to the next waypoint or the run's
end, adding the dose of the skipped ticks at once, unless a ceiling lamp
is lit with anyone inside or a desk lamp over someone in its zone. The
output is the same byte for byte as stepping every tick.

Walls are opaque to PIR and ultrasonic sensing but transparent to BLE.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .controller import (ControllerState, CyclePolicy, LampAction,
                         LampCommand, LampRoster, next_due_at, stamp_recency,
                         step)
from .dosimetry import (DoseGrid, LampOnIntervals, accumulate_dose,
                        irradiance_at_point)
from .fusion import (BleAdvert, EventRuns, FusionParams, OccupancyFusion,
                     OccupancySnapshot, Payload, PirMotion, SensorEvent,
                     UsPresence, distance_to_rssi, first_tick, tick_texts,
                     window_end)
from .room import (ID_PATTERN, LampSpec, LampTier, Point3, RoomModel,
                   SensorKind, SensorSpec, angle_between_deg,
                   require_finite, validate as validate_room)

PIR_SPEED_THRESHOLD = 0.1      # m/s; slower targets look stationary to a PIR
BLE_ADVERT_PERIOD = 1.0        # s between beacon advertisements
CHEST_HEIGHT = 1.1             # m; exposure accounting plane
PROBE_HEIGHT = 0.7             # m; desk-level virtual radiometers
MAX_RECORDED_VIOLATIONS = 10000
MAX_TICKS = 2_000_000          # bounds the per-tick audit and probes.csv
PIR_MOTION = PirMotion()       # the one payload of every PIR trigger


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
    if sc.tick > sc.policy.reaction_deadline:
        problems.append("tick must not exceed the reaction deadline")
    occupant_ids: Set[str] = set()
    for occ in sc.occupants:
        where = f"occupant {occ.occupant_id!r}"
        if not ID_PATTERN.fullmatch(occ.occupant_id):
            problems.append(f"{where}: id must match {ID_PATTERN.pattern}")
        # the safety audit keys doses by occupant id
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

class ProbeRuns:
    """Probe values per tick, held as runs: a run is a first tick and the
    values tuple of the ticks from it up to the next run's first tick, or
    up to ``count``. It reads as a sequence of ``count`` ticks: ``len``
    counts ticks, ``[k]`` finds tick k's run by bisection, and iteration
    repeats each run's tuple over its ticks."""

    __slots__ = ("firsts", "values", "count")

    def __init__(self, count: int = 0, firsts: Sequence[int] = (),
                 values: Sequence[Tuple[float, ...]] = ()):
        self.firsts = list(firsts)
        self.values = list(values)
        self.count = count

    def runs(self) -> Iterator[Tuple[int, int, Tuple[float, ...]]]:
        """(first tick, end tick, values) of each run, in tick order."""
        return zip(self.firsts, self.firsts[1:] + [self.count], self.values)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> Tuple[float, ...]:
        if k < 0:
            k += self.count
        if not 0 <= k < self.count:
            raise IndexError("probe sample index out of range")
        return self.values[bisect.bisect_right(self.firsts, k) - 1]

    def __iter__(self) -> Iterator[Tuple[float, ...]]:
        for first, end, values in self.runs():
            yield from itertools.repeat(values, end - first)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ProbeRuns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))


@dataclass
class Timeline:
    """Chronological record of everything a run produced. Tick k starts at
    ``start_time + k * tick``; ``probe_samples[k]`` holds its probe values,
    which ``simulate`` holds as ``ProbeRuns``, one run from each tick on
    which the lamps lit change. ``simulate`` holds the sensor events as
    ``EventRuns`` on that grid."""

    scenario_name: str
    start_time: float
    end_time: float
    tick: float
    probe_names: Tuple[str, ...]
    events: Sequence[SensorEvent] = field(default_factory=list)
    commands: List[LampCommand] = field(default_factory=list)
    probe_samples: ProbeRuns = field(default_factory=ProbeRuns)
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
    is constant. Room entries come from the track's entry clocks, which
    start at the true crossing instant on the movement segment rather than
    the first tick that sampled the occupant inside; zone entries are
    located on the segment here. A lamp-on overlap is a violation only past
    ``reaction_deadline`` after room entry (when detection first became
    possible). Dose integrates all downward-lamp irradiance at chest height
    while inside, no grace. Only the lamps in ``acted_on`` matter: on ticks
    with none of them lit, ``observe`` changes nothing, and the exposure
    pass skips them whoever moves. ``still`` accounts a span of ticks on
    which nobody moves and the lamps stay as they are, without observing
    each, when it can record no violation.
    """

    def __init__(self, scenario: Scenario, occupant_ids: Sequence[str]):
        room = scenario.room
        self.deadline = scenario.policy.reaction_deadline
        self.tick = scenario.tick
        self.ceiling = {l.id: l for l in room.lamps if l.tier is LampTier.CEILING}
        self.desk = {l.id: l for l in room.lamps if l.tier is LampTier.DESK}
        self.desk_zone = LampRoster.for_room(room).desk_lamp_zone
        self.zones = {z.desk_id: z for z in room.desk_zones}
        self.ids = list(occupant_ids)
        # the lamps that can add dose or make a violation
        self.acted_on = {l.id for l in room.lamps if l.emits_downward}.union(
            self.ceiling, self.desk_zone)
        self.dose: Dict[str, float] = {o: 0.0 for o in occupant_ids}
        self.violations: List[SafetyViolation] = []
        self.violation_count = 0

    def acts_on(self, on_lamps: Mapping[str, LampSpec]) -> bool:
        """Whether a lamp in ``on_lamps`` is one the audit acts on."""
        return not self.acted_on.isdisjoint(on_lamps)

    def observe(self, t: float, occupant_id: str, entered: Optional[float],
                pos_a: Point3, inside_a: bool,
                pos_b: Point3, inside_b: bool,
                on_lamps: Dict[str, LampSpec]) -> None:
        """Audit the tick at t of someone whose entry clock reads
        ``entered`` on it, moving from ``pos_a`` to ``pos_b``."""
        if not inside_a and not inside_b:
            return
        tick = self.tick
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
                self.dose[occupant_id] += self._dose(downward_on, chest, inside_off)

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

    def _dose(self, downward_on: Sequence[LampSpec], chest: Point3,
              inside_off: float) -> float:
        """Dose at ``chest`` over the part of a tick from ``inside_off`` on."""
        return irradiance_at_point(downward_on, chest) * (self.tick - inside_off)

    def still(self, t: float, entered: Sequence[Optional[float]],
              positions: Sequence[Point3], insides: Sequence[bool],
              on_lamps: Dict[str, LampSpec], n: int) -> bool:
        """Account the n ticks from t on, over which nobody moves from
        ``positions`` and ``on_lamps`` stay lit, as ``observe`` would, and
        return True; or return False, with nothing changed, if a violation
        could be recorded on them. ``entered`` holds the entry clocks on
        the tick at t, which those inside keep over the span."""
        downward_on = [l for l in on_lamps.values() if l.emits_downward]
        inside = [(occupant_id, pos, clock) for occupant_id, pos, flag, clock in
                  zip(self.ids, positions, insides, entered) if flag]
        if not downward_on or not inside:
            return True
        if any(lamp_id in on_lamps for lamp_id in self.ceiling):
            return False
        for lamp_id, zone_id in self.desk_zone.items():
            zone = self.zones[zone_id]
            if lamp_id in on_lamps and any(
                    zone.center.horizontal_distance_to(pos) <= zone.exclusion_radius
                    for _, pos, _ in inside):
                return False
        if any(clock > t for _, _, clock in inside):
            return False
        for occupant_id, pos, _ in inside:
            # each tick's increment added once per tick, as observe adds it
            increment = self._dose(downward_on, Point3(pos.x, pos.y, CHEST_HEIGHT), 0.0)
            dose = self.dose[occupant_id]
            for _ in range(n):
                dose += increment
            self.dose[occupant_id] = dose
        return True

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
        if not t > self.start:
            return 0
        return first_tick(self.start, self.tick, t)


class _Control:
    """Fusion and controller of one run: events go into ``fusion`` as they
    happen, and ``decide`` steps the controller on a tick's snapshot.
    ``next_k`` is the next tick that must step even if no event arrives
    before it; ``stepped`` is the last tick that stepped, ``last`` its
    snapshot and ``due`` the time from which a rule of the controller may
    fire on that snapshot. The ticks before ``next_k`` need no step but
    after an ingest that raises ``fusion.ingested``."""

    def __init__(self, scenario: Scenario, ticks: _TickGrid):
        start = scenario.start_time
        self.fusion = OccupancyFusion(scenario.room, scenario.fusion)
        self.policy = scenario.policy
        self.ticks = ticks
        self.next_k = 0
        self.stepped = -1
        self.due = -math.inf
        self.last: Optional[OccupancySnapshot] = None
        self.state = ControllerState.initial(
            scenario.room, scenario.policy, start,
            assume_vacant_since=start if scenario.assume_vacant_at_start else None)

    def decide(self, k: int, t: float) -> List[LampCommand]:
        if self.last is not None and self.stepped < k - 1:
            # a step on each skipped tick would have stamped the windows open
            # at the last one: none closes before next_k, so all were still
            # open at tick k - 1
            stamp_recency(self.state, self.last, self.ticks.time(k - 1))
        snapshot = self.fusion.snapshot(t)
        self.state, commands = step(self.state, snapshot, t, self.policy)
        self.stepped, self.last = k, snapshot
        # 1e-6 s early: the candidates carry rounding of a few ulps
        self.due = next_due_at(self.state, self.policy, t) - 1e-6
        self.schedule()
        return commands

    def schedule(self) -> int:
        """Set ``next_k`` to the first tick at or after the earlier of
        ``due`` and the first end of a window after the last step, and
        return it. Between ingests that raise ``ingested``, the pieces that
        go in only move the ends of open windows later, and ``next_k`` with
        them."""
        self.next_k = self.ticks.first_at(min(
            self.fusion.next_change_at(self.ticks.time(self.stepped)),
            self.due))
        return self.next_k


class _Occupants:
    """Scripted occupant kinematics on the tick grid: ``positions`` and
    ``insides`` at the start of tick ``k``, ``prev_positions`` at the tick
    visited before it (None before tick 0).

    A tracked one (``track=True``) holds in ``entered`` each occupant's
    entry clock as the move into tick k leaves it: the instant the audit
    counts them inside from, or None. It starts at tick 0 for those inside
    then. A move that finds someone inside who was outside on the tick
    visited before sets it to the crossing instant on the segment into
    tick k, and one that finds them still outside clears it; from where
    they were inside it runs on, also over the segment that leaves. This
    is the only code that computes entry instants. They are exact when the
    move crosses no waypoint before tick k, so that everyone stays where
    they were on the ticks in between."""

    def __init__(self, scenario: Scenario, ticks: _TickGrid, track: bool = False):
        self.room = scenario.room
        self.ticks = ticks
        self.trackers = [_OccupantTracker(o) for o in scenario.occupants]
        self.ids = [o.occupant_id for o in scenario.occupants]
        self.positions: List[Optional[Point3]] = [None] * len(self.ids)
        self.entered: Optional[List[Optional[float]]] = None
        self.k = 0
        self.move_to(0)
        if track:
            self.entered = [ticks.time(0) if inside else None
                            for inside in self.insides]

    def parked_until(self) -> int:
        """The first tick at whose start someone may have moved, 0 while
        someone moves: the passes jump only over ticks that end before it."""
        until = min([tr.parked_until() for tr in self.trackers], default=math.inf)
        return self.ticks.first_at(self.ticks.start + until) if until > -math.inf else 0

    def move_to(self, k: int) -> None:
        """Move everyone to the start of tick k."""
        offset = self.ticks.offset(k)
        states = [tr.at(offset) for tr in self.trackers]
        self.prev_positions = self.positions
        was = self.insides if self.entered is not None else None
        self.positions = [pos for pos, _ in states]
        self.insides = [flag or self.room.contains(pos) for pos, flag in states]
        if was is not None:
            # from where everyone was on the last tick visited, only the
            # segment into tick k can cross into the room
            start, tick = self.ticks.time(k - 1), self.ticks.tick
            for i, now in enumerate(self.insides):
                if not was[i]:
                    self.entered[i] = start + _box_entry_frac(
                        self.prev_positions[i], self.positions[i],
                        self.room) * tick if now else None
        self.k = k


class _Sensing:
    """The sensor models of a run and what they carry from tick to tick:
    a false-positive Poisson clock per PIR sensor, the hardware output
    latches (``hold_time`` > 0 keeps re-emitting) and the BLE advert clock.
    All randomness of a run comes from ``rng``, drawn in sorted-sensor order
    within each tick. ``tick`` is the only code that evaluates them: a still
    span repeats what it made."""

    def __init__(self, scenario: Scenario, ticks: _TickGrid):
        self.ticks = ticks
        self.rng = rng = random.Random(scenario.seed)
        self.noise = scenario.noise
        self.params = scenario.fusion
        self.sensors = sorted(scenario.room.sensors, key=lambda s: s.id)
        self.fp_rate = self.noise.false_positive_rate_per_hour / 3600.0
        self.next_fp: Dict[str, float] = {
            s.id: ticks.start + rng.expovariate(self.fp_rate)
            for s in self.sensors
            if s.kind is SensorKind.PIR} if self.fp_rate > 0.0 else {}
        self.latches: Dict[str, Tuple[float, Payload]] = {}   # until, payload
        self.latching = any(s.hold_time > 0.0 for s in self.sensors)
        self.beacons = [(i, o.occupant_id) for i, o in enumerate(scenario.occupants)
                        if o.carries_beacon]
        # adverts matter only when someone carries a beacon
        self.next_advert = ticks.start if self.beacons else math.inf

    def advert_due(self, t: float) -> bool:
        """Whether the beacons advertise on the tick at t; moves the clock."""
        if t >= self.next_advert - 1e-9:
            self.next_advert += BLE_ADVERT_PERIOD
            return True
        return False

    def tick(self, t: float, occupants: "_Occupants",
             advert: bool) -> List[Tuple[str, Payload]]:
        """The (source, payload) pairs of the events of the tick at t, in
        sorted-sensor order; ``advert`` says whether the beacons advertise
        on it."""
        positions = occupants.positions
        moves_inside: List[Tuple[Optional[Point3], Point3]] = [
            (prev, pos) for prev, pos, inside in zip(
                occupants.prev_positions, positions, occupants.insides)
            if inside]
        inside_positions = [pos for _, pos in moves_inside]
        noise = self.noise
        payloads: List[Tuple[str, Payload]] = []
        for sensor in self.sensors:
            kind = sensor.kind
            payload: Optional[Payload] = None
            if kind is SensorKind.PIR:
                fired = bool(moves_inside) and pir_model(
                    sensor, moves_inside, self.ticks.tick, self.rng,
                    noise.pir_miss_prob)
                if sensor.id in self.next_fp:
                    while self.next_fp[sensor.id] <= t:
                        fired = True
                        self.next_fp[sensor.id] += self.rng.expovariate(self.fp_rate)
                if fired:
                    payload = PIR_MOTION
            elif kind is SensorKind.ULTRASONIC:
                distance = us_model(sensor, inside_positions) \
                    if inside_positions else None
                if distance is not None:
                    payload = UsPresence(distance=distance)
            elif kind is SensorKind.BLE_RECEIVER and advert:
                for idx, beacon_id in self.beacons:
                    rssi = ble_model(sensor, positions[idx], self.params,
                                     self.rng, noise.rssi_sigma_db)
                    payloads.append((sensor.id, BleAdvert(beacon_id=beacon_id,
                                                          rssi=rssi)))
                continue
            else:
                continue

            if payload is None and sensor.hold_time > 0.0:
                until, held = self.latches.get(sensor.id, (-math.inf, None))
                if t < until:
                    payload = held
            elif payload is not None and sensor.hold_time > 0.0:
                self.latches[sensor.id] = (t + sensor.hold_time, payload)
            if payload is not None:
                payloads.append((sensor.id, payload))
        return payloads

    def still_until(self, k: int, occupants: "_Occupants") -> int:
        """The end (exclusive) of a still span from tick k, or k + 1 if tick
        k starts none. The span's ticks make the payloads of tick k, or of
        its first advert tick, and draw nothing: nobody moves before the
        span ends, and no PIR false positive, end of an open latch or (with
        RSSI noise) advert falls in it. No span starts on a tick into which
        an inside occupant moved or on which a false positive falls. With a
        sensor that latches, the span ends a tick short of its stop, and the
        models run again on that tick, so that every latch ends where
        stepping each tick leaves it."""
        stop = occupants.parked_until()
        if stop <= k + 1 or any(
                inside and prev is not None and prev != pos
                for prev, pos, inside in zip(occupants.prev_positions,
                                             occupants.positions,
                                             occupants.insides)):
            return k + 1
        ticks = self.ticks
        if self.next_fp:
            stop = min(stop, ticks.first_at(min(self.next_fp.values())))
        if self.noise.rssi_sigma_db > 0.0:
            stop = min(stop, ticks.first_at(self.next_advert - 1e-9))
        t = ticks.time(k)
        for end, _ in self.latches.values():
            if t < end:
                stop = min(stop, ticks.first_at(end))
        return max(stop - 1 if self.latching else stop, k + 1)


def _sense(scenario: Scenario, runs: EventRuns) -> Iterator[int]:
    """The sensing pass: moves the occupants through the run and adds the
    run's sensor events to ``runs``, on its tick grid: a tick alone adds
    its rows, and a still span adds each source's rows as one run over the
    span and each lane's adverts in it as a run per stretch of one period.
    It yields the tick up to which the rows are final, and rows after it
    may be there: after tick 0's rows, after each span, and last the run's
    last tick. It reads no controller state and tracks no entry clocks, and
    simulate() pulls it to the end."""
    ticks = _TickGrid(scenario)
    occupants = _Occupants(scenario, ticks)
    sensing = _Sensing(scenario, ticks)
    k = 0
    while k < ticks.count:
        until = sensing.still_until(k, occupants)
        t = ticks.time(k)
        advert = sensing.advert_due(t)
        payloads = sensing.tick(t, occupants, advert)
        for source, payload in payloads:
            runs.add(k, 1, 1 if payload.__class__ is BleAdvert else until - k,
                     source, payload)
        if k == 0:
            yield 0
        if until > k + 1:
            adverts = None
            for j, period, n in _advert_stretches(ticks, sensing, k, until):
                if adverts is None:
                    # the span's advert ticks repeat the adverts of the first
                    adverts = [(source, payload) for source, payload in (
                        payloads if advert else
                        sensing.tick(ticks.time(j), occupants, True))
                               if payload.__class__ is BleAdvert]
                for source, payload in adverts:
                    runs.add(j, period, n, source, payload)
            yield until - 1
        k = until
        occupants.move_to(k)
    yield ticks.count - 1


def _advert_stretches(ticks: _TickGrid, sensing: "_Sensing", k: int,
                      until: int) -> Iterator[Tuple[int, int, int]]:
    """The ticks after k and before ``until`` on which the beacons
    advertise, as the runs (first tick, period, count) that one add per
    tick makes: the first tick alone, then each stretch of one period. Each
    advert moves the advert clock, and its tick is the first tick at or
    after its time less 1e-9 s, and after the one before. The tick one gap
    on from the one before (after the first, one advert period in ticks)
    is taken where it is that tick, and ``first_at`` is asked otherwise."""
    count = ticks.count
    j, guess = k, -1
    first = period = n = 0          # the stretch under way, of n ticks
    while True:
        t = sensing.next_advert - 1e-9
        if not (0 < guess < count and
                ticks.time(guess - 1) < t <= ticks.time(guess)):
            guess = ticks.first_at(t)
        prev, j = j, max(j + 1, guess)
        if j >= until:
            break
        sensing.next_advert += BLE_ADVERT_PERIOD
        if prev == k:
            yield j, 1, 1
            gap = round(BLE_ADVERT_PERIOD / ticks.tick)
        else:
            gap = j - prev
            if n and gap == period:
                n += 1
            else:
                if n:
                    yield first, period, n
                first, period, n = j, gap, 1
        guess = j + gap
    if n:
        yield first, period, n


def _decide(scenario: Scenario, events: EventRuns,
            checkpoints: Iterable[float]) -> List[LampCommand]:
    """The decide pass over ``EventRuns`` on the scenario's tick grid. At
    each checkpoint K, every row up to tick K has been added, and rows after
    it may have been: it queues the entries and the rows the runs gained
    since the last one, and steps the ticks up to K. Tick k steps once the
    rows up to its time are in; the ticks after it before ``next_k`` only
    feed fusion, up to the first ingest that raises ``ingested``.

    Every row goes in through ``ingest_window`` in a window piece, in
    (timestamp, source, lane) order of the pieces' first rows: a piece goes
    in at its first row's time, up to the row ``window_end`` finds, and its
    own tick steps if it raises ``ingested``. A row whose hold is None and a
    row off the grid are pieces of one row. A tick that only the end of a
    window or a controller rule due brought, with no ingest that raised
    ``ingested``, steps only if it still comes first when counted again
    from the windows as they are then: the pieces that went in since may
    have moved window ends later."""
    ticks = _TickGrid(scenario)
    control = _Control(scenario, ticks)
    fusion = control.fusion
    hold_of = fusion.hold
    start, tick, count = ticks.start, ticks.tick, ticks.count
    entries = events.entries
    # the rest of each entry yet to go in: (timestamp, source, lane, seq,
    # first tick, last tick, period, payload), the rows at ticks first,
    # first + period, ... up to last; both ticks are None for a row alone
    pending: List[tuple] = []
    order = itertools.count()
    # the last entry taken of each (source, lane), which may still gain
    # rows, and the tick of the last row taken of it
    growing: Dict[Tuple[str, int], list] = {}

    def step_to(ts: float) -> None:
        """Step every tick that must step before a row at ``ts``."""
        nonlocal k, t
        while ts > t and k < count:
            if not fusion.ingested:
                # only the end of a window or a rule due brought tick k: the
                # pieces that went in since the last step may hold that
                # window open past it
                later = control.schedule()
                if later > k:
                    k, t = later, ticks.time(later)
                    continue
            commands.extend(control.decide(k, t))
            k = max(k + 1, control.next_k)
            t = ticks.time(k)

    commands: List[LampCommand] = []
    k, t = 0, ticks.time(0)         # the next tick to step, and its time
    taken = 0                       # entries taken
    for checkpoint in checkpoints:
        bound = ticks.time(checkpoint + 1)      # rows before it are final
        # the rows that the runs which may grow gained since the last one
        for grown in growing.values():
            entry, row = grown
            last = entry[0] + (entry[2] - 1) * entry[1]
            if last > row:
                row += entry[1]
                heapq.heappush(pending, (start + row * tick, entry[3],
                                         entry[5], next(order), row, last,
                                         entry[1], entry[4]))
                grown[1] = last
        # the entries added since the last one: each starts by it, but a
        # run's later rows may not
        for entry in entries[taken:]:
            if entry.__class__ is SensorEvent:
                heapq.heappush(pending, (entry.timestamp, entry.source, 0,
                                         next(order), None, None, None,
                                         entry.payload))
            else:
                row, period, n, source, payload, lane = entry
                last = row + (n - 1) * period
                growing[source, lane] = [entry, last]
                heapq.heappush(pending, (start + row * tick, source, lane,
                                         next(order), row, last, period,
                                         payload))
        taken = len(entries)
        while pending and pending[0] < (bound,):
            ts, source, lane, _, row, last, period, payload = \
                heapq.heappop(pending)
            step_to(ts)
            hold = hold_of(source, payload)
            end = row if row is None or hold is None else \
                window_end(start, tick, range(row, last + 1, period or 1), hold)
            fusion.ingest_window(ts, ts if end == row else start + end * tick,
                                 source, payload)
            if fusion.ingested:
                # the ingest that raised it makes its own tick the next to step
                k = ticks.first_at(ts)
                t = ticks.time(k)
            if end != last:
                end += period
                heapq.heappush(pending, (start + end * tick, source, lane,
                                         next(order), end, last, period,
                                         payload))
        step_to(bound)
    return commands


def simulate(scenario: Scenario) -> SimulationResult:
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(problems)

    room = scenario.room
    ticks = _TickGrid(scenario)
    timeline = Timeline(scenario_name=scenario.name, start_time=ticks.start,
                        end_time=ticks.time(ticks.count), tick=ticks.tick,
                        probe_names=tuple(name for name, _ in _probe_points(room)))
    events = timeline.events = EventRuns(ticks.start, ticks.tick)
    timeline.commands = _decide(scenario, events, _sense(scenario, events))
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
    """Lamp commands re-derived from a run's sensor events alone: simulate()'s
    own decide pass over the events in time order, so a run's own event log
    reproduces its command log exactly. Events that are not ``EventRuns`` on
    the scenario's grid are sorted and joined into runs."""
    if not (isinstance(events, EventRuns) and events.start == scenario.start_time
            and events.tick == scenario.tick):
        events = EventRuns.of(events, scenario.start_time, scenario.tick)
    return _decide(scenario, events, (math.inf,))


# ---------------------------------------------------------------------------
# the exposure pass: lamps, probes and the audit from the command log
# ---------------------------------------------------------------------------

def _lamp_runs(scenario: Scenario, commands: Sequence[LampCommand],
               ticks: _TickGrid) -> List[Tuple[int, Dict[str, LampSpec]]]:
    """The lamps lit, as runs (first tick, lamps): one from tick 0 and one
    from each tick on which the set of lamps lit changes. The commands act
    from the first tick at or after their timestamps, in log order; one for
    a lamp the room lacks is a ``ValueError``. A run lists its lamps in
    switch-on order, ties in room order, so sums over them repeat bit for
    bit whatever the hash seed."""
    lamps = scenario.room.lamps
    known = {l.id for l in lamps}
    for cmd in commands:
        if cmd.lamp_id not in known:
            raise ValueError(f"command at {cmd.timestamp!r} s names lamp "
                             f"{cmd.lamp_id!r}, which the room lacks")
    start = scenario.start_time
    forced = {lamp: [(start + s, start + e) for s, e in spans]
              for lamp, spans in scenario.unsafe_force_on.items()}
    # the lamps lit can change only on a tick that applies a command or on
    # which a forced window starts or ends
    changes = {0, *(ticks.first_at(cmd.timestamp) for cmd in commands)}.union(
        ticks.first_at(t) for spans in forced.values()
        for window in spans for t in window)
    commanded: Dict[str, bool] = {}
    on: Dict[str, LampSpec] = {}
    runs: List[Tuple[int, Dict[str, LampSpec]]] = []
    ci = 0
    for k in sorted(changes - {ticks.count}):
        t = ticks.time(k)
        while ci < len(commands) and commands[ci].timestamp <= t:
            commanded[commands[ci].lamp_id] = commands[ci].action is LampAction.TURN_ON
            ci += 1
        lit = {l.id: l for l in lamps if commanded.get(l.id) or any(
            s <= t < e for s, e in forced.get(l.id, ()))}
        if not runs or lit.keys() != on.keys():
            # lamps still lit keep their places, and those that switch on follow
            on = {**{i: l for i, l in on.items() if i in lit}, **lit}
            runs.append((k, on))
    return runs


def _expose(scenario: Scenario, commands: Sequence[LampCommand]) -> Tuple[
        ProbeRuns, Dict[str, List[Tuple[int, int]]], SafetyReport]:
    """The lamps a command log lights, run by run of ``_lamp_runs``: the
    probe values of each run, the on-intervals as tick-index pairs, and
    the audit of each tick's movement segment against the lamps lit over
    it. It audits only the runs in which a lamp the audit acts on is lit.
    On-intervals are keyed in the order their lamps first switch off, then
    the lamps still lit at the end by id: the dose grid adds them in that
    order.

    The pass moves its own tracked occupants for the entry clocks. Before
    a run it audits, from tick k, it jumps to tick k - ``lead``, crossing
    waypoints if it must, and from there moves over parked spans only, so
    that every clock changed after the jump is exact. A clock the jump
    leaves may be wrong, but it is at most time(k - lead), as the true one
    is, and ``lead`` ticks are at least the reaction deadline plus a whole
    tick: on every audited tick t >= time(k), clock - t + deadline <= -tick
    for either clock, a margin that no rounding closes. ``observe`` then finds the occupant inside from the
    tick's start and the deadline past, and ``still`` finds no clock after
    t, with the jump's clock as with the true one."""
    ticks = _TickGrid(scenario)
    runs = _lamp_runs(scenario, commands, ticks)
    occupants = _Occupants(scenario, ticks, track=True)
    audit = _SafetyAccumulator(scenario, occupants.ids)
    lead = math.ceil(scenario.policy.reaction_deadline / ticks.tick) + 1
    probe_positions = [p for _, p in _probe_points(scenario.room)]
    values: List[Tuple[float, ...]] = []
    spans: Dict[str, List[Tuple[int, int]]] = {}
    since: Dict[str, int] = {}      # the lamps lit, in switch-on order
    ends = [first for first, _ in runs[1:]] + [ticks.count]
    for (k, on), end in zip(runs, ends):
        for lamp_id in [i for i in since if i not in on]:
            spans.setdefault(lamp_id, []).append((since.pop(lamp_id), k))
        for lamp_id in on:
            since.setdefault(lamp_id, k)
        on_lamps = list(on.values())
        values.append(tuple(irradiance_at_point(on_lamps, p) if on_lamps
                            else 0.0 for p in probe_positions))
        if not audit.acts_on(on):
            # nothing lit that the audit acts on: whoever moves, it can
            # record nothing
            continue
        # the one move that may cross waypoints, then parked spans up to k
        if occupants.k < k - lead:
            occupants.move_to(k - lead)
        while occupants.k < k:
            occupants.move_to(min(k, max(occupants.k + 1,
                                         occupants.parked_until())))
        while k < end:
            t = ticks.time(k)
            # -- cross ticks of the run on which nobody moves ----------------
            stop = min(occupants.parked_until(), end)
            if stop > k + 1 and audit.still(t, occupants.entered,
                                            occupants.positions,
                                            occupants.insides, on, stop - 1 - k):
                # tick stop-1 audits the move into tick stop
                k = stop - 1
                t = ticks.time(k)

            pos_a, in_a = occupants.positions, occupants.insides
            # a crossing on tick k is known after the move into k + 1
            occupants.move_to(k + 1)
            entered = occupants.entered
            for i, occupant_id in enumerate(occupants.ids):
                audit.observe(t, occupant_id, entered[i], pos_a[i], in_a[i],
                              occupants.positions[i], occupants.insides[i], on)
            k += 1
    for lamp_id, first in sorted(since.items()):
        spans.setdefault(lamp_id, []).append((first, ticks.count))
    samples = ProbeRuns(ticks.count, [first for first, _ in runs], values)
    return samples, spans, audit.report()


def safety_check(timeline: Timeline, scenario: Scenario) -> SafetyReport:
    """The exposure audit of a timeline's command record: simulate()'s own
    exposure pass over the logged commands, any forced-on test windows and
    the scripted occupant motion. On commands read back from
    ``commands.csv`` it audits the log as written; a command for a lamp
    the room lacks is a ``ValueError``."""
    return _expose(scenario, timeline.commands)[2]


# ---------------------------------------------------------------------------
# timeline serialization
# ---------------------------------------------------------------------------

# rows of probes.csv formatted and written at once: a block's texts are all
# the text the writer holds, a few hundred KB at most, whatever the run's
# length; the process's peak memory counts every block held
_PROBE_BLOCK = 1024


def write_probe_log(timeline: Timeline, stream) -> None:
    """Probe irradiance per tick as CSV, one column per probe, full float
    precision so identical runs serialize byte for byte: the ``repr`` of
    each tick's time, as ``tick_texts`` gives it, and of its values.
    Each run of ``ProbeRuns`` formats its values once and writes its ticks
    in blocks of up to ``_PROBE_BLOCK`` rows."""
    header = "timestamp_s," + ",".join(f"{name}_w_m2"
                                       for name in timeline.probe_names)
    stream.write(header + "\n")
    start, tick = timeline.start_time, timeline.tick
    for first, end, values in timeline.probe_samples.runs():
        text = "," + ",".join(map(repr, values)) + "\n"
        for a in range(first, end, _PROBE_BLOCK):
            stamps = tick_texts(start, tick, range(a, min(a + _PROBE_BLOCK, end)))
            stamps.append("")           # the last row's text ends the block
            stream.write(text.join(stamps))


DOSE_GRID_HEADER = "row,col,x_m,y_m,dose_j_m2"


def write_dose_grid_csv(grid: DoseGrid, stream) -> None:
    stream.write(DOSE_GRID_HEADER + "\n")
    for r in range(grid.rows):
        for c in range(grid.cols):
            center = grid.cell_center(r, c)
            dose = float(grid.accumulated_dose[r, c])
            stream.write(f"{r},{c},{center.x!r},{center.y!r},{dose!r}\n")
