"""Occupancy sensor fusion with fail-safe hold-time latching.

Raw sensor events are folded into a single occupancy picture. Every
detection opens a half-open hold window ``[t, t + hold)`` during which the
corresponding condition stays asserted; detections can only extend
windows, never shorten them, so adding events never flips an occupied
snapshot to vacant. Payloads the fuser does not recognize are treated as
detections and logged as anomalies.

Events travel as runs per source. A run is rows of one payload from one
source at a fixed period on a tick grid whose tick k starts at
``start + k * tick``: a first tick, a period in ticks, a row count, a
source, a payload and a lane, the n-th row the source emits on a tick.
A run continues only the last run of its own source and lane, so rows of
other sources between its rows do not cut it. ``EventRuns`` holds the runs
in the order of their first rows and reads as a sequence of
``SensorEvent`` rows merged in (timestamp, source, lane) order, which is
``sort_events`` order; a row off the grid stays a ``SensorEvent``.
``write_event_log`` merges the runs window by window and formats each
run's rows from its ticks. ``read_event_log`` joins rows on the grid into
runs, and reads them the way they were written: while the runs it holds
predict the next rows, it writes their next block with the writer's slot
fill and compares the text with the stream, and parses rows one at a time
only where the text differs.

Each channel of fusion (motion, anomaly, each desk zone, approach) is a
union of half-open windows ``[row, row + hold)`` (Allen, CACM 1983). Every
row goes in through ``OccupancyFusion.ingest_window`` as a window piece: a
stretch of a run's rows, each before the previous row's timestamp plus the
hold, so that only its first row can open a window; a lone row is a piece
of one row. ``window_end`` finds where a piece ends. A piece goes in at its
first row's time as ``ingest`` of each of its rows would: ``ingested``
rises if the first row opens a window, which ends at the last row plus the
hold.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .room import (RoomModel, SensorKind, SensorSpec, angle_between_deg, Point3,
                   require_finite)

logger = logging.getLogger(__name__)

RSSI_FLOOR = -120.0
RSSI_CEILING = 0.0
# the channel of the fail-safe window that anomalies hold open: no desk id,
# which is a free string, can equal it
_ANOMALY = object()


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PirMotion:
    """Passive-infrared motion trigger."""


@dataclass(frozen=True)
class UsPresence:
    """Ultrasonic presence return at a measured distance in meters."""

    distance: float


@dataclass(frozen=True)
class BleAdvert:
    """BLE advertisement heard by a receiver, with RSSI in dBm."""

    beacon_id: str
    rssi: float


@dataclass(frozen=True)
class ManualOff:
    """Kill-switch press: latch everything off until rearmed."""


@dataclass(frozen=True)
class ManualRearm:
    """Explicit release of the manual kill latch."""


Payload = Union[PirMotion, UsPresence, BleAdvert, ManualOff, ManualRearm]


@dataclass(frozen=True)
class SensorEvent:
    timestamp: float
    source: str          # sensor id
    payload: Payload


def sort_events(events: Sequence[SensorEvent]) -> List[SensorEvent]:
    """Total order: by timestamp, ties broken by source id."""
    return sorted(events, key=attrgetter("timestamp", "source"))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _endings(size: int, whole: bool) -> Tuple[str, ...]:
    """The text of a tick time after its leading digits v // size, by
    v % size, for a size of 100 or 1000: v counts whole seconds ("dd.0",
    "ddd.0") or tenths of a second ("d.d", "dd.d")."""
    if whole:
        return tuple(f"{r:0{len(str(size)) - 1}d}.0" for r in range(size))
    return tuple(f"{r // 10:0{len(str(size)) - 2}d}.{r % 10}"
                 for r in range(size))


def _digit_texts(first: int, step: int, n: int, whole: bool) -> List[str]:
    """``str(v // size) + _endings(size, whole)[v % size]`` for the n values
    v = first, first + step, ..., all at least 100: size is 1000 from 1000
    on, else 100. A prefix per thousand or hundred, and only the endings the
    step reaches. Each is joined into lines and the lines split once, so
    that no text is built one at a time."""
    size = 1000 if first >= 1000 else 100
    endings = _endings(size, whole)
    chunks: List[str] = []
    v, left = first, n
    while left > 0:
        q, r = divmod(v, size)
        tail = endings[r:r + left * step:step]
        prefix = str(q)
        chunks.append(prefix + ("\n" + prefix).join(tail))
        left -= len(tail)
        v += len(tail) * step
    return "\n".join(chunks).split("\n") if chunks else []


def tick_texts(start: float, tick: float, ks: range) -> List[str]:
    """``[repr(start + k * tick) for k in ks]``, built from decimal digits
    where it can. From a whole start at a 1 s tick the times are exact
    integers below 2**53, so each text is the integer and ".0". On a grid of
    whole tenths in [10 s, 2**48 s) an ulp is under 0.1 s, so a
    one-fraction-digit decimal that parses back to the time is its shortest
    round-trip text, which ``repr`` prints (Steele & White, PLDI 1990): the
    text of m / 10 is kept if ``m / 10``, correctly rounded as the parse is,
    equals the time.

    That holds for every tick at once, with no time built, when ``start``
    is m0 / 10 exactly (m0 a multiple of 5, so m0 / 10 is a dyadic
    rational) and, with K the largest |k|,
    ``K * ulp(tick) + ulp(K * tick) < ulp(lo) / 16``. The time of tick k
    then differs from m / 10, m = m0 + k * step, by the error of ``tick``
    times k and the rounding of the product, under half that sum
    (Goldberg, ACM Computing Surveys 1991), before the sum rounds. m / 10
    is never a dyadic midpoint: at an ulp u <= 1/32 its distance to the
    nearest midpoint of the doubles is at least u / 10, and over [lo, 2**48)
    at least ulp(lo) / 20. So the sum rounds to the double nearest m / 10.
    Any other grid of tenths checks each text against its time."""
    if not (ks and ks.step > 0 and tick > 0.0):
        return [repr(start + k * tick) for k in ks]
    lo, hi = start + ks[0] * tick, start + ks[-1] * tick
    if tick == 1.0 and 100.0 <= lo and hi < 2.0 ** 53 and ks.start >= 0 \
            and 0.0 <= start and start % 1.0 == 0.0:
        return _digit_texts(int(start) + ks.start, ks.step, len(ks), True)
    if not (10.0 <= lo and hi < 2.0 ** 48):
        return [repr(start + k * tick) for k in ks]
    step, m0 = round(tick * 10.0), round(start * 10.0)
    if not (step / 10 == tick and m0 / 10 == start):
        return [repr(start + k * tick) for k in ks]
    ms = range(m0 + ks.start * step, m0 + ks.stop * step, ks.step * step)
    texts = _digit_texts(ms.start, ms.step, len(ms), False)
    top = max(abs(ks[0]), abs(ks[-1]))
    if m0 % 5 == 0 and \
            top * math.ulp(tick) + math.ulp(top * tick) < math.ulp(lo) / 16:
        return texts
    times = [start + k * tick for k in ks]
    if [m / 10 for m in ms] != times:
        texts = [text if m / 10 == t else repr(t)
                 for text, m, t in zip(texts, ms, times)]
    return texts


def grid_tick(start: float, tick: float, ts: float) -> Optional[int]:
    """The tick k whose start ``start + k * tick`` is ``ts``, if one is."""
    x = (ts - start) / tick
    if not -2.0 ** 53 < x < 2.0 ** 53:
        return None
    k = round(x)
    return k if start + k * tick == ts else None


def window_end(start: float, tick: float, ks: range, hold: float) -> int:
    """The last tick of the window piece that starts at the first tick of
    ``ks``: up to it, each row at ``start + k * tick`` falls before the
    previous row's time plus ``hold``, the comparison ``ingest_window``
    makes, so that only the piece's first row can open a window."""
    if hold == math.inf:
        return ks[-1]
    # each tick time, each sum and the gap below carry under an ulp of error
    # at the largest magnitude m: a gap 8 ulps short of the hold passes the
    # comparison on every row
    m = abs(start) + max(abs(ks[0]), abs(ks[-1])) * tick + hold
    if ks.step * tick + 8.0 * math.ulp(m) < hold:
        return ks[-1]
    prev = start + ks[0] * tick
    for k in ks[1:]:
        ts = start + k * tick
        if not ts < prev + hold:
            return k - ks.step
        prev = ts
    return ks[-1]


def _same_payload(a: Payload, b: Payload) -> bool:
    """Whether two payloads are equal and write the same row text: equal
    floats write alike, but for zeros of opposite sign."""
    if a.__class__ is not b.__class__ or a != b:
        return False
    return all(math.copysign(1.0, x) == math.copysign(1.0, y)
               for x, y in zip(vars(a).values(), vars(b).values())
               if isinstance(x, float))


# ticks in one window of the merge of ``EventRuns``: each window costs a
# few list operations, and each tick of it a slot per run under way
_WINDOW = 1024


def first_tick(start: float, tick: float, ts: float) -> int:
    """The first tick k whose start ``start + k * tick`` is at or after ``ts``."""
    k = math.ceil((ts - start) / tick)
    while start + (k - 1) * tick >= ts:
        k -= 1
    while start + k * tick < ts:
        k += 1
    return k


def _layout(a: int, placed: List[tuple]) -> Tuple[range, list]:
    """A window of ``EventRuns._windows`` from tick a: (ticks, placed) for
    ``placed``, each run's (entry, ks) in row order on a tick."""
    step = 0
    top = a
    for _, ks in placed:
        step = math.gcd(step, ks.start - a, ks.step if len(ks) > 1 else 0)
        top = max(top, ks[-1])
    step = step or 1
    width = len(placed)
    window = []
    for r, (entry, ks) in enumerate(placed):
        at = (ks.start - a) // step
        stride = ks.step // step if len(ks) > 1 else 1
        window.append((entry, ks, slice(at, at + len(ks) * stride, stride),
                       slice(at * width + r, (at + (len(ks) - 1) * stride)
                             * width + r + 1, stride * width)))
    return range(a, top + 1, step), window


class EventRuns:
    """Sensor events held as runs per source. A run
    ``[first, period, count, source, payload, lane]`` is ``count`` rows of
    one payload from one source at ticks first, first + period, ... of the
    grid whose tick k starts at ``start + k * tick``; its period is 0 while
    it holds one row. A lane is the n-th row a source emits on one tick:
    the adverts of two beacons that one receiver hears on a tick are two
    lanes. A lone row, on the grid or off it, is held as its
    ``SensorEvent``, in lane 0. ``entries`` holds runs and lone rows in the
    order of their first rows, by (timestamp, source, lane), and the
    collection reads as their rows merged in that order, which is
    ``sort_events`` order: ``len`` counts rows, iteration builds them, and
    indexing builds them all."""

    __slots__ = ("start", "tick", "entries", "_lanes", "_added")

    def __init__(self, start: float, tick: float):
        self.start = start
        self.tick = tick
        self.entries: List[Union[list, SensorEvent]] = []
        self._lanes: Dict[Tuple[str, int], list] = {}   # last run of each lane
        self._added: Tuple[Optional[int], str, int] = (None, "", 0)

    @classmethod
    def of(cls, events: Iterable[SensorEvent], start: float,
           tick: float) -> "EventRuns":
        """``events`` sorted stably, as runs where they sit on the grid."""
        runs = cls(start, tick)
        for event in sort_events(events):
            k = grid_tick(start, tick, event.timestamp)
            if k is None:
                runs.extend((event,))
            else:
                runs.add(k, 1, 1, event.source, event.payload)
        return runs

    def add(self, k: int, period: int, count: int, source: str,
            payload: Payload) -> None:
        """Add ``count`` rows of ``payload`` from ``source`` at ticks k,
        k + period, ...: the run builder. A row of the source that the
        previous ``add`` added on tick k takes the next lane. The rows
        continue the last run of their source and lane when they repeat its
        payload at its period, or at any later tick after its one row."""
        added = self._added
        lane = added[2] + 1 if k == added[0] and source == added[1] else 0
        self._added = (k, source, lane)
        run = self._lanes.get((source, lane))
        if run is not None:
            gap = k - run[0] - (run[2] - 1) * run[1]
            if gap > 0 and (run[1] == gap or not run[1]) and \
                    (count == 1 or period == gap) and \
                    (run[4] is payload or _same_payload(run[4], payload)):
                # the run's rows read alike whichever of the equal payloads
                # it holds: holding the latest makes the next check ``is``
                run[1], run[4] = gap, payload
                run[2] += count
                return
        run = self._lanes[source, lane] = [
            k, period if count > 1 else 0, count, source, payload, lane]
        self._append((run,), self.start + k * self.tick, source)

    def extend(self, events: Sequence[SensorEvent]) -> None:
        """Add rows that no run holds, each alone, in ``sort_events`` order
        among themselves."""
        if events:
            first = events[0]
            self._append(events, first.timestamp, first.source)

    def _append(self, entries: Sequence, ts: float, source: str) -> None:
        """Append ``entries``, the first of which starts at ``ts`` from
        ``source``; sort all stably if it starts before the last one."""
        held = self.entries
        if held:
            last = held[-1]
            if last.__class__ is SensorEvent:
                last_ts, last_source = last.timestamp, last.source
            else:
                last_ts, last_source = self.start + last[0] * self.tick, last[3]
            held.extend(entries)
            if ts < last_ts or ts == last_ts and source < last_source:
                held.sort(key=self._head)
        else:
            held.extend(entries)

    def _head(self, entry) -> Tuple[float, str, int]:
        """(timestamp, source, lane) of the first row of ``entry``."""
        if entry.__class__ is SensorEvent:
            return entry.timestamp, entry.source, 0
        return self.start + entry[0] * self.tick, entry[3], entry[5]

    def _windows(self) -> Iterator[Tuple[Optional[range], list]]:
        """The rows in order, window by window. A window is (ticks, placed):
        the ticks a, a + g, ... of up to ``_WINDOW`` ticks over which no
        entry starts, with g the largest step that holds every row in it,
        and for each run with rows in it, in (source, lane, entry) order,
        (entry, ks, at, into): its rows at ticks ``ks``, which sit at
        ``ticks[at]``, and where they go in a list of
        ``len(ticks) * len(placed)`` slots, tick by tick. A row off the grid
        comes as (None, [(event, None, None, None)])."""
        start, tick = self.start, self.tick
        entries = self.entries
        n = len(entries)
        # runs under way: [source, lane, entry index, entry, tick of the
        # next row, tick of the last row, period or 1]
        runs: List[list] = []
        i = 0
        following = math.inf        # first tick of entries[i]
        while True:
            a = min([run[4] for run in runs], default=math.inf)
            # the entries that start by tick a join the runs under way
            joined = False
            while i < n:
                entry = entries[i]
                if entry.__class__ is SensorEvent:
                    k = first_tick(start, tick, entry.timestamp)
                    if k > a:
                        following = k
                        break
                    i += 1
                    if start + k * tick != entry.timestamp:
                        # off the grid: before the rows from tick k on
                        yield None, [(entry, None, None, None)]
                        continue
                    runs.append([entry.source, 0, i - 1, entry, k, k, 1])
                else:
                    k = entry[0]
                    if k > a:
                        following = k
                        break
                    i += 1
                    runs.append([entry[3], entry[5], i - 1, entry, k,
                                 k + (entry[2] - 1) * entry[1], entry[1] or 1])
                a = min(a, k)
                joined = True
            else:
                following = math.inf
            if not runs:
                return
            if joined:
                runs.sort(key=itemgetter(0, 1, 2))
            b = min(a + _WINDOW, following)
            placed = []
            for run in runs:
                j, period = run[4], run[6]
                if j < b:
                    end = j + (min(run[5], b - 1) - j) // period * period
                    run[4] = end + period
                    placed.append((run[3], range(j, end + 1, period)))
            yield _layout(a, placed)
            runs = [run for run in runs if run[4] <= run[5]]

    def __len__(self) -> int:
        return sum(1 if entry.__class__ is SensorEvent else entry[2]
                   for entry in self.entries)

    def __iter__(self) -> Iterator[SensorEvent]:
        start, tick = self.start, self.tick
        for ticks, placed in self._windows():
            if ticks is None:
                yield placed[0][0]
                continue
            slots: List[Optional[SensorEvent]] = [None] * (len(ticks) * len(placed))
            for entry, ks, _, into in placed:
                if entry.__class__ is SensorEvent:
                    slots[into] = (entry,)
                else:
                    source, payload = entry[3], entry[4]
                    slots[into] = [SensorEvent(start + k * tick, source, payload)
                                   for k in ks]
            yield from filter(None, slots)

    def __getitem__(self, i):
        return list(self)[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventRuns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None     # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"EventRuns({len(self)} rows in {len(self.entries)} entries, "
                f"start={self.start!r}, tick={self.tick!r})")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionParams:
    pir_hold: float = 15.0
    us_hold: float = 10.0
    ble_ref_rssi_1m: float = -59.0
    ble_path_loss_exponent: float = 2.0
    approach_radius: float = 5.0
    ble_stale_after: float = 10.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not 1.5 <= self.ble_path_loss_exponent <= 4.0:
            raise ValueError("ble_path_loss_exponent must be in [1.5, 4.0]")
        for name in ("pir_hold", "us_hold", "approach_radius", "ble_stale_after"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


def rssi_to_distance(rssi: float, params: FusionParams) -> float:
    """Invert the log-distance path-loss model to an estimated range in meters."""
    exponent = (params.ble_ref_rssi_1m - rssi) / (10.0 * params.ble_path_loss_exponent)
    return 10.0 ** exponent


def distance_to_rssi(distance: float, params: FusionParams) -> float:
    """Forward path-loss model; clamped into the valid dBm payload range."""
    d = max(distance, 1e-3)
    rssi = params.ble_ref_rssi_1m - 10.0 * params.ble_path_loss_exponent * math.log10(d)
    return min(RSSI_CEILING, max(RSSI_FLOOR, rssi))


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupancySnapshot:
    """The fused occupancy picture at one instant.

    ``room_occupied`` is true whenever any desk zone is occupied;
    ``motion_active`` isolates the motion-driven (and fail-safe anomaly)
    component so consumers can tell a moving person from a seated one.
    """

    timestamp: float
    room_occupied: bool
    desk_zone_occupied: Dict[str, bool]
    approach_detected: bool
    manual_kill: bool
    motion_active: bool


class EventOrderError(ValueError):
    """Events were ingested out of timestamp order."""


class OccupancyFusion:
    """Single-owner fusion state: ingest events, then read snapshots.

    ``snapshot(now)`` is a pure function of the ingested event log and
    ``now``. ``_until`` holds the end of the window on each channel. The
    one state ``snapshot`` touches is ``ingested``, which it clears and
    ``ingest_window`` sets only for a piece that can change a field the
    controller reads: one whose first row opens a window closed at its
    timestamp, or a manual kill or rearm. A piece that extends an open
    window leaves it down: its caller asks ``next_change_at`` again before
    it steps at the window's old end.
    ``ingest_window`` leaves the state that ``ingest`` on each row of its
    piece leaves, with ``ingested`` and the anomaly log, except that later
    ingests and snapshots are checked against its first row, not its last.
    """

    def __init__(self, room: RoomModel, params: Optional[FusionParams] = None):
        self.params = params or FusionParams()
        self._sensors: Dict[str, SensorSpec] = {s.id: s for s in room.sensors}
        self._us_zone = {s.id: _aimed_zone(room, s) for s in room.sensors
                         if s.kind is SensorKind.ULTRASONIC}
        self._latest_ts = -math.inf
        # the end of the hold window on each channel: motion (PirMotion),
        # anomaly, each desk zone, approach (BleAdvert)
        self._until: Dict[object, float] = {
            PirMotion: -math.inf, _ANOMALY: -math.inf, BleAdvert: -math.inf,
            **{z.desk_id: -math.inf for z in room.desk_zones}}
        self._zones = [z.desk_id for z in room.desk_zones]
        self._manual_kill = False
        self.anomalies: List[Tuple[float, str, str]] = []
        self.ingested = False

    # -- ingestion ---------------------------------------------------------

    def ingest(self, event: SensorEvent) -> None:
        ts = event.timestamp
        self.ingest_window(ts, ts, event.source, event.payload)

    def ingest_window(self, first: float, last: float, source: str,
                      payload: Payload) -> None:
        """Ingest the rows of ``payload`` from ``source`` from ``first`` to
        ``last``, a window piece: each falls before the previous one's
        timestamp plus its ``hold``, as ``window_end`` finds them; an
        anomaly is logged at ``first``."""
        if first < self._latest_ts:
            raise EventOrderError(
                f"event from {source!r} at t={first} arrived "
                f"after t={self._latest_ts}")
        self._latest_ts = first
        channel, hold, why = self._route(source, payload)
        if hold is None:
            self._manual_kill = channel is ManualOff
            self.ingested = True
            return
        if why:
            # fail safe: anything we cannot interpret counts as a detection
            self.anomalies.append((first, source, why))
            logger.warning("anomalous sensor event from %r at t=%s: %s",
                           source, first, why)
        if hold == math.inf:
            return
        until = self._until
        end = until[channel]
        # the first row starts a new window of the channel's union
        if end <= first < first + hold:
            self.ingested = True
        until[channel] = max(end, last + hold)

    def hold(self, source: str, payload: Payload) -> Optional[float]:
        """How long a row of ``payload`` from ``source`` holds its window
        open, math.inf for a row that opens none; None for a row that goes
        in alone: an anomaly, which is logged, or a manual switch press. Of
        a window piece, only the first row can open a window."""
        _, hold, why = self._route(source, payload)
        return None if why else hold

    def _route(self, source: str,
               payload: Payload) -> Tuple[object, Optional[float], str]:
        """(channel, hold, why) of a row of ``payload`` from ``source``: the
        channel of ``_until`` whose window it holds open and for how long,
        math.inf for a row that opens none; an anomaly holds the anomaly
        channel open for ``pir_hold`` and says why it is one. A manual
        switch press routes to its payload class, with hold None."""
        params = self.params
        if isinstance(payload, PirMotion):
            return PirMotion, params.pir_hold, ""
        if isinstance(payload, UsPresence):
            sensor = self._sensors.get(source)
            if sensor is not None and payload.distance > sensor.max_range:
                return None, math.inf, ""   # out-of-range return: no change
            zone = self._us_zone.get(source)
            if zone is None:
                return _ANOMALY, params.pir_hold, \
                    "ultrasonic return without an aimed zone"
            return zone, params.us_hold, ""
        if isinstance(payload, BleAdvert):
            if not RSSI_FLOOR <= payload.rssi <= RSSI_CEILING:
                return _ANOMALY, params.pir_hold, \
                    f"rssi {payload.rssi} outside [{RSSI_FLOOR}, {RSSI_CEILING}]"
            if rssi_to_distance(payload.rssi, params) < params.approach_radius:
                return BleAdvert, params.ble_stale_after, ""
            return None, math.inf, ""
        if isinstance(payload, (ManualOff, ManualRearm)):
            return payload.__class__, None, ""
        return _ANOMALY, params.pir_hold, \
            f"unrecognized payload {type(payload).__name__}"

    # -- reading -----------------------------------------------------------

    def snapshot(self, now: float) -> OccupancySnapshot:
        if now < self._latest_ts:
            raise EventOrderError(
                f"snapshot at t={now} precedes ingested event at t={self._latest_ts}")
        self.ingested = False
        until = self._until
        motion = now < until[PirMotion] or now < until[_ANOMALY]
        zones = {zone_id: now < until[zone_id] for zone_id in self._zones}
        return OccupancySnapshot(
            timestamp=now,
            room_occupied=motion or any(zones.values()),
            desk_zone_occupied=zones,
            approach_detected=now < until[BleAdvert],
            manual_kill=self._manual_kill,
            motion_active=motion,
        )

    def next_change_at(self, now: float) -> float:
        """Earliest end after ``now`` of a hold window that the controller
        reads (motion, anomaly, each desk zone, approach): without new
        events, those fields of ``snapshot(t)`` stay as they are at ``now``
        for every t before it. A window piece that went in ends its window
        at its last row plus the hold."""
        return min((end for end in self._until.values() if end > now),
                   default=math.inf)


def _aimed_zone(room: RoomModel, sensor: SensorSpec) -> Optional[str]:
    """Desk zone an ultrasonic sensor guards: nearest zone center to its aim ray."""
    if sensor.aim is None or not room.desk_zones:
        return None
    best = None
    best_angle = math.inf
    for zone in room.desk_zones:
        offset = Point3(zone.center.x - sensor.position.x,
                        zone.center.y - sensor.position.y,
                        zone.center.z - sensor.position.z)
        angle = angle_between_deg(sensor.aim, offset)
        if angle < best_angle:
            best_angle = angle
            best = zone.desk_id
    return best


# ---------------------------------------------------------------------------
# event-log CSV
# ---------------------------------------------------------------------------

EVENT_LOG_HEADER = "timestamp_s,source,kind,arg1,arg2"

_KIND_PIR = "PIR"
_KIND_US = "US"
_KIND_BLE = "BLE"
_KIND_MANUAL_OFF = "MANUAL_OFF"
_KIND_MANUAL_REARM = "MANUAL_REARM"
# tails the log writer and reader keep; a still span repeats a few per source
_TAILS_CACHED = 256


def event_to_row(event: SensorEvent) -> Tuple[str, str, str, str, str]:
    return (repr(event.timestamp),) + _row_tail(event.source, event.payload)


def _row_tail(source: str, p: Payload) -> Tuple[str, str, str, str]:
    if isinstance(p, PirMotion):
        return source, _KIND_PIR, "", ""
    if isinstance(p, UsPresence):
        return source, _KIND_US, repr(p.distance), ""
    if isinstance(p, BleAdvert):
        return source, _KIND_BLE, p.beacon_id, repr(p.rssi)
    if isinstance(p, ManualOff):
        return source, _KIND_MANUAL_OFF, "", ""
    if isinstance(p, ManualRearm):
        return source, _KIND_MANUAL_REARM, "", ""
    raise ValueError(f"cannot serialize payload {type(p).__name__}")


def _rows_text(count: int, rows: Iterable[Tuple[slice, List[str], str]]) -> str:
    """The text of a window of ``count`` row slots, tick by tick, as
    ``write_event_log`` writes it: for each run, (its slots, the timestamp
    texts of its rows, its tail). Two strings a slot, a row's timestamp and
    its tail, so that the window joins in one call."""
    slots = [""] * (2 * count)
    for into, stamps, tail in rows:
        first, stop, step = 2 * into.start, 2 * into.stop - 1, 2 * into.step
        slots[first:stop:step] = stamps
        slots[first + 1:stop + 1:step] = [tail] * len(stamps)
    return "".join(slots)


def write_event_log(events: Iterable[SensorEvent], stream) -> None:
    """Write events as CSV rows in the order given. A row is the event's
    ``repr`` timestamp and the tail that ``event_to_row`` gives its source
    and payload. Rows whose source and payload object repeat, as those of a
    run do, share one formatted tail. ``EventRuns`` are written in their
    order window by window, with no event built: each run's rows from its
    ticks, with one timestamp text per tick of the window, which
    ``tick_texts`` formats."""
    stream.write(EVENT_LOG_HEADER + "\n")
    # (source, payload id) -> (payload, tail). An entry holds its payload,
    # so no other object can take that id while the entry lives.
    tails: Dict[Tuple[str, int], Tuple[Payload, str]] = {}

    def tail(source: str, payload: Payload) -> str:
        key = (source, id(payload))
        cached = tails.get(key)
        if cached is None:
            if len(tails) == _TAILS_CACHED:
                tails.clear()
            cached = tails[key] = (
                payload, "," + ",".join(_row_tail(source, payload)) + "\n")
        return cached[1]

    if not isinstance(events, EventRuns):
        for event in events:
            stream.write(repr(event.timestamp) + tail(event.source, event.payload))
        return
    start, tick = events.start, events.tick
    texts: Dict[int, str] = {}      # id of a run -> its rows' tail
    for ticks, placed in events._windows():
        if ticks is None:
            event = placed[0][0]
            stream.write(repr(event.timestamp) + tail(event.source, event.payload))
            continue
        # one timestamp text per tick, shared by its rows
        stamps = tick_texts(start, tick, ticks)
        rows = []
        for entry, _, at, into in placed:
            if entry.__class__ is SensorEvent:
                rows.append((into, [repr(entry.timestamp)],
                             tail(entry.source, entry.payload)))
                continue
            text = texts.get(id(entry))
            if text is None:
                text = texts[id(entry)] = tail(entry[3], entry[4])
            rows.append((into, stamps[at], text))
        stream.write(_rows_text(len(ticks) * len(placed), rows))


# characters the event-log reader asks its stream for at a time
_CHUNK = 1 << 16
# rows the reader parses one at a time after a block that stops short of
# its end: the first count after a block that read rows, doubled for each
# block after it that reads none, up to the last
_BACKOFF = (4, 256)
# the steps of the reader's first block, and of its first after one that
# stopped short, a step being the gcd of the periods of its runs; each
# block whose rows all match doubles them, up to ``_WINDOW`` ticks
_SPAN = 64
# characters of the log that the reader splits into lines per row it is
# to parse before its next block
_LINE = 64
# whether the reader tries blocks at all; the tests turn it off to compare
_BLOCKS = True


class _LogText:
    """The text of a stream read ``_CHUNK`` characters at a time:
    ``buf[pos:]`` is yet to be parsed, and ``eof`` says whether the stream
    has ended."""

    __slots__ = ("stream", "buf", "pos", "eof")

    def __init__(self, stream):
        self.stream, self.buf, self.pos, self.eof = stream, "", 0, False

    def more(self, need: int = 0) -> None:
        """Read on, chunk by chunk, until ``buf[pos:]`` holds ``need``
        characters, or a newline when ``need`` is 0, or the stream ends."""
        rest = self.buf[self.pos:]
        pieces, have = [rest], len(rest)
        while not self.eof:
            piece = self.stream.read(_CHUNK)
            self.eof = not piece
            pieces.append(piece)
            have += len(piece)
            if have >= need if need else "\n" in piece:
                break
        self.buf, self.pos = "".join(pieces), 0


def read_event_log(stream, grid: Optional[Tuple[float, float]] = None) -> EventRuns:
    """Parse an event-log CSV into ``EventRuns``; raises ValueError naming
    the bad line. Every row's timestamp is parsed and checked, and each
    distinct text after it is parsed once: the rows that repeat it share
    one payload object. With a ``grid`` (start, tick), the rows of each
    text whose timestamps sit on it are joined into runs; every other row
    stays alone. A log out of ``sort_events`` order is read row by row and
    sorted. A last row with no newline reads as if it had one.

    The stream is read ``_CHUNK`` characters at a time. With a grid, while
    the runs read so far predict the next rows, the reader writes the text
    that ``write_event_log`` would write for their next block of ticks and
    compares it with the stream (``_read_block``): equal text is the same
    rows, which extend the runs as the row parser would extend them. Where
    the text differs, the rows from the first tick that differs are parsed
    one at a time, a few more after each block that differs."""
    start, tick = grid if grid is not None else (0.0, 1.0)
    events = EventRuns(start, tick)
    entries = events.entries
    text = _LogText(stream)
    text.more()
    text.pos = text.buf.find("\n") + 1 or len(text.buf)
    if text.buf[:text.pos].rstrip("\n") != EVENT_LOG_HEADER:
        raise ValueError(f"line 1: expected header {EVENT_LOG_HEADER!r}")
    # text after the timestamp -> [source, payload, the text's latest run,
    # the time of its next row, its lane, the text with its comma and
    # newline]; ``periodic`` holds the texts whose latest run has a period
    tails: Dict[str, list] = {}
    periodic: Dict[str, list] = {}
    # the row before, and the lane of its source on its tick
    prev_ts, prev, lane = -math.inf, [""], 0
    rows: Optional[List[SensorEvent]] = None    # every row, once out of order
    lineno = 1
    blocks = _BLOCKS and grid is not None
    # rows to parse before the next block, and after the next that differs;
    # the steps the next block spans
    wait, backoff, span = 0, _BACKOFF[0], _SPAN
    while True:
        if blocks and wait <= 0:
            read, last, whole = _read_block(
                text, start, tick, periodic, prev_ts, span)
            if whole is not None:
                span = min(2 * span, _WINDOW) if whole else _SPAN
            if read:
                run = last[2]
                prev_ts = start + (run[0] + (run[2] - 1) * run[1]) * tick
                prev, lane, lineno = last, last[4], lineno + read
                backoff = _BACKOFF[0]
            if whole:
                continue
            wait, backoff = backoff, min(2 * backoff, _BACKOFF[1])
        # the next lines to parse one at a time: about ``wait`` of them
        # while blocks are tried, else every line held
        buf, pos = text.buf, text.pos
        cut = buf.rfind("\n", pos, pos + _LINE * wait) if blocks else -1
        if cut < 0:
            cut = buf.find("\n", pos) if blocks else buf.rfind("\n", pos)
        if cut < 0:
            if not text.eof:
                text.more()
            elif pos < len(buf):
                text.buf, text.pos = buf[pos:] + "\n", 0
            else:
                break
            continue
        lines = buf[pos:cut].split("\n")
        text.pos = cut + 1
        wait -= len(lines)
        for lineno, line in enumerate(lines, lineno + 1):
            ts_raw, _, tail = line.partition(",")
            parsed = tails.get(tail)
            try:
                ts = float(ts_raw)
            except ValueError:
                ts = math.nan
            if parsed is not None and ts == parsed[3] and ts > prev_ts and \
                    not parsed[4]:
                # the next row of the text's run, first on its tick
                run = parsed[2]
                run[2] += 1
                parsed[3] = start + (run[0] + run[2] * run[1]) * tick
                prev_ts, prev, lane = ts, parsed, 0
                continue
            if parsed is None:
                if not line:
                    continue
                if tail.count(",") != 3:
                    raise ValueError(f"line {lineno}: expected 5 fields, "
                                     f"got {line.count(',') + 1}")
            if not math.isfinite(ts):
                raise ValueError(f"line {lineno}: bad timestamp {ts_raw!r}")
            if parsed is None:
                if len(tails) == _TAILS_CACHED:
                    tails.clear()
                    periodic.clear()
                parsed = tails[tail] = [*_parse_tail(lineno, tail), None,
                                        math.nan, 0, "," + tail + "\n"]
            source = parsed[0]
            if rows is not None:
                rows.append(SensorEvent(ts, source, parsed[1]))
                continue
            if ts > prev_ts:
                lane = 0
            elif ts == prev_ts and source >= prev[0]:
                lane = lane + 1 if source == prev[0] else 0
            else:
                # no run continues from here on: every row goes in ``rows``
                rows = [*events, SensorEvent(ts, source, parsed[1])]
                prev_ts, blocks = math.inf, False
                continue
            prev_ts, prev = ts, parsed
            k = grid_tick(start, tick, ts) if grid is not None else None
            if k is None:
                events.extend((SensorEvent(ts, source, parsed[1]),))
                continue
            run = parsed[2]
            if run is not None and lane == parsed[4]:
                if ts == parsed[3]:
                    run[2] += 1
                    parsed[3] = start + (run[0] + run[2] * run[1]) * tick
                    continue
                if run[2] == 1 and k > run[0]:
                    run[1], run[2] = k - run[0], 2
                    parsed[3] = start + (run[0] + 2 * run[1]) * tick
                    # a new period predicts rows: try a block next
                    periodic[tail] = parsed
                    wait = 0
                    continue
            parsed[2:5] = [k, 0, 1, source, parsed[1], lane], math.nan, lane
            periodic.pop(tail, None)
            entries.append(parsed[2])
    if rows is None:
        return events
    if grid is not None:
        return EventRuns.of(rows, start, tick)
    events = EventRuns(start, tick)
    events.extend(sort_events(rows))
    return events


def _read_block(text: _LogText, start: float, tick: float,
                periodic: Dict[str, list], prev_ts: float,
                span: int) -> Tuple[int, Optional[list], Optional[bool]]:
    """Read the next block of rows of ``read_event_log`` at ``text``, as far
    as the stream holds the text that ``write_event_log`` writes for it:
    (rows read, the tail entry of the last row, whether the stream held the
    whole block or None if no block was built), with the runs extended and
    ``text.pos`` moved past the rows. Where the text differs, the block
    reads the ticks before the first tick whose rows differ.

    The block is the rows that the latest run of each text in ``periodic``
    predicts from the first row after ``prev_ts``, over ``span`` steps of
    the gcd of their periods and at most ``_WINDOW`` ticks: of the runs
    whose next row is after it, the one of each source and lane with the
    latest last row, if it has a row in the block. A source's lanes must be
    0..L and share a next tick and a period, so that on each tick the row
    parser numbers their rows as their lanes; the block's ticks must have
    distinct times. The block's first row is compared before the rest is
    built."""
    heads: Dict[Tuple[str, int], list] = {}
    for parsed in periodic.values():
        if parsed[3] > prev_ts:
            run = parsed[2]
            key = (parsed[0], parsed[4])
            other = heads.get(key)
            if other is None or other[2][0] + (other[2][2] - 1) * other[2][1] \
                    < run[0] + (run[2] - 1) * run[1]:
                heads[key] = parsed
    if not heads:
        return 0, None, None
    nexts = [(parsed[2][0] + parsed[2][2] * parsed[2][1], parsed)
             for parsed in heads.values()]
    a = min(j for j, _ in nexts)
    b = a + min(span * math.gcd(*(parsed[2][1] for parsed in heads.values())),
                _WINDOW)
    placed = sorted(((parsed, range(j, j + (b - 1 - j) // parsed[2][1]
                                    * parsed[2][1] + 1, parsed[2][1]))
                     for j, parsed in nexts if j < b),
                    key=lambda item: (item[0][0], item[0][4]))
    first = None
    lanes = 0
    for i, (parsed, ks) in enumerate(placed):
        lanes = lanes + 1 if i and parsed[0] == placed[i - 1][0][0] else 0
        if parsed[4] != lanes or lanes and ks != placed[i - 1][1]:
            return 0, None, None
        if first is None and ks.start == a:
            first = repr(parsed[3]) + parsed[5]
    if len(text.buf) - text.pos < len(first) and not text.eof:
        text.more(len(first))
    buf, pos = text.buf, text.pos
    if not buf.startswith(first, pos):
        return 0, None, None
    ticks, window = _layout(a, placed)
    top = max(abs(ticks[0]), abs(ticks[-1]))
    if not ticks.step * tick > math.ulp(top * tick) + \
            math.ulp(max(abs(start + ticks[0] * tick),
                         abs(start + ticks[-1] * tick))):
        return 0, None, None
    stamps = tick_texts(start, tick, ticks)
    rows = _rows_text(len(ticks) * len(window),
                      [(into, stamps[at], parsed[5])
                       for parsed, _, at, into in window])
    if len(buf) - pos < len(rows) and not text.eof:
        text.more(len(rows))
        buf, pos = text.buf, text.pos
    size, stop = len(rows), ticks.stop
    if not buf.startswith(rows, pos):
        # the block ends before the first tick whose rows differ
        row = rows.rfind("\n", 0, _same_prefix(buf, pos, rows)) + 1
        stamp = rows[row:rows.index(",", row)]
        stop = ticks[stamps.index(stamp)]
        if stop == a:
            return 0, None, False
        size = rows.find("\n" + stamp + ",") + 1
    read, last, end = 0, None, a
    for parsed, ks in placed:
        n = len(range(ks.start, stop, ks.step))
        if n:
            run = parsed[2]
            run[2] += n
            parsed[3] = start + (run[0] + run[2] * run[1]) * tick
            read += n
            if ks[n - 1] >= end:
                last, end = parsed, ks[n - 1]
    text.pos = pos + size
    return read, last, stop == ticks.stop


def _same_prefix(buf: str, pos: int, text: str) -> int:
    """The length of the longest common prefix of ``buf[pos:]`` and
    ``text``, by bisection."""
    same, most = 0, min(len(text), len(buf) - pos)
    while same < most:
        mid = (same + most + 1) // 2
        if buf.startswith(text[same:mid], pos + same):
            same = mid
        else:
            most = mid - 1
    return same


def _parse_tail(lineno: int, tail: str) -> Tuple[str, Payload]:
    """The source and payload of a row's four fields after the timestamp."""
    source, kind, arg1, arg2 = tail.split(",")
    try:
        if kind == _KIND_PIR:
            payload: Payload = PirMotion()
        elif kind == _KIND_US:
            payload = UsPresence(distance=float(arg1))
        elif kind == _KIND_BLE:
            payload = BleAdvert(beacon_id=arg1, rssi=float(arg2))
        elif kind == _KIND_MANUAL_OFF:
            payload = ManualOff()
        elif kind == _KIND_MANUAL_REARM:
            payload = ManualRearm()
        else:
            raise ValueError(f"unknown kind {kind!r}")
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return source, payload
