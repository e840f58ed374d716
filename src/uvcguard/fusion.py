"""Occupancy sensor fusion with fail-safe hold-time latching.

Raw sensor events are folded into a single occupancy picture. Every
detection opens a half-open hold window ``[t, t + hold)`` during which the
corresponding condition stays asserted; detections can only extend
windows, never shorten them, so adding events never flips an occupied
snapshot to vacant. Payloads the fuser does not recognize are treated as
detections and logged as anomalies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .room import (RoomModel, SensorKind, SensorSpec, angle_between_deg, Point3,
                   require_finite)

logger = logging.getLogger(__name__)

RSSI_FLOOR = -120.0
RSSI_CEILING = 0.0


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
    return sorted(events, key=lambda e: (e.timestamp, e.source))


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
    last_motion_time: Optional[float]
    contributing_sources: Tuple[str, ...]


class EventOrderError(ValueError):
    """Events were ingested out of timestamp order."""


class OccupancyFusion:
    """Single-owner fusion state: ingest events, then read snapshots.

    ``snapshot(now)`` is a pure function of the ingested event log and
    ``now``. The one state it touches is ``ingested``, which ``ingest``
    sets and ``snapshot`` clears, so a caller can tell whether events
    arrived since its last snapshot.
    """

    def __init__(self, room: RoomModel, params: Optional[FusionParams] = None):
        self.room = room
        self.params = params or FusionParams()
        self._sensors: Dict[str, SensorSpec] = {s.id: s for s in room.sensors}
        self._us_zone = {s.id: _aimed_zone(room, s) for s in room.sensors
                         if s.kind is SensorKind.ULTRASONIC}
        self._latest_ts = -math.inf
        self._motion_until = -math.inf
        self._misc_until = -math.inf          # fail-safe window for anomalies
        self._zone_until: Dict[str, float] = {z.desk_id: -math.inf
                                              for z in room.desk_zones}
        self._approach_until = -math.inf
        self._manual_kill = False
        self._manual_source: Optional[str] = None
        self._last_motion_time: Optional[float] = None
        self._source_until: Dict[str, float] = {}
        self.anomalies: List[Tuple[float, str, str]] = []
        self.ingested = False

    # -- ingestion ---------------------------------------------------------

    def ingest(self, event: SensorEvent) -> None:
        if event.timestamp < self._latest_ts:
            raise EventOrderError(
                f"event from {event.source!r} at t={event.timestamp} arrived "
                f"after t={self._latest_ts}")
        self._latest_ts = event.timestamp
        self.ingested = True
        ts = event.timestamp
        p = event.payload
        params = self.params
        if isinstance(p, PirMotion):
            self._motion_until = max(self._motion_until, ts + params.pir_hold)
            self._last_motion_time = ts
            self._mark(event.source, ts + params.pir_hold)
        elif isinstance(p, UsPresence):
            sensor = self._sensors.get(event.source)
            max_range = sensor.max_range if sensor is not None else math.inf
            if p.distance > max_range:
                return  # out-of-range return: no occupancy change
            zone = self._us_zone.get(event.source)
            if zone is None:
                self._anomaly(event, "ultrasonic return without an aimed zone")
                return
            until = ts + params.us_hold
            self._zone_until[zone] = max(self._zone_until[zone], until)
            self._mark(event.source, until)
        elif isinstance(p, BleAdvert):
            if not RSSI_FLOOR <= p.rssi <= RSSI_CEILING:
                self._anomaly(event, f"rssi {p.rssi} outside [{RSSI_FLOOR}, {RSSI_CEILING}]")
                return
            if rssi_to_distance(p.rssi, params) < params.approach_radius:
                until = ts + params.ble_stale_after
                self._approach_until = max(self._approach_until, until)
                self._mark(event.source, until)
        elif isinstance(p, ManualOff):
            self._manual_kill = True
            self._manual_source = event.source
        elif isinstance(p, ManualRearm):
            self._manual_kill = False
        else:
            self._anomaly(event, f"unrecognized payload {type(p).__name__}")

    def _mark(self, source: str, until: float) -> None:
        prev = self._source_until.get(source, -math.inf)
        if until > prev:
            self._source_until[source] = until

    def _anomaly(self, event: SensorEvent, why: str) -> None:
        # fail safe: anything we cannot interpret counts as a detection
        self.anomalies.append((event.timestamp, event.source, why))
        logger.warning("anomalous sensor event from %r at t=%s: %s",
                       event.source, event.timestamp, why)
        self._misc_until = max(self._misc_until,
                               event.timestamp + self.params.pir_hold)
        self._mark(event.source, event.timestamp + self.params.pir_hold)

    # -- reading -----------------------------------------------------------

    def snapshot(self, now: float) -> OccupancySnapshot:
        if now < self._latest_ts:
            raise EventOrderError(
                f"snapshot at t={now} precedes ingested event at t={self._latest_ts}")
        self.ingested = False
        motion = now < self._motion_until or now < self._misc_until
        zones = {zone_id: now < until for zone_id, until in self._zone_until.items()}
        contributing = sorted(
            src for src, until in self._source_until.items() if now < until)
        if self._manual_kill and self._manual_source is not None:
            if self._manual_source not in contributing:
                contributing.append(self._manual_source)
                contributing.sort()
        return OccupancySnapshot(
            timestamp=now,
            room_occupied=motion or any(zones.values()),
            desk_zone_occupied=zones,
            approach_detected=now < self._approach_until,
            manual_kill=self._manual_kill,
            motion_active=motion,
            last_motion_time=self._last_motion_time,
            contributing_sources=tuple(contributing),
        )

    def next_change_at(self, now: float) -> float:
        """Earliest end after ``now`` of a hold window that the controller
        reads (motion, anomaly, each desk zone, approach): without new
        events, those fields of ``snapshot(t)`` stay as they are at ``now``
        for every t before it."""
        return min((until for until in (self._motion_until, self._misc_until,
                                         self._approach_until,
                                         *self._zone_until.values())
                    if until > now), default=math.inf)


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


def event_to_row(event: SensorEvent) -> Tuple[str, str, str, str, str]:
    p = event.payload
    ts = repr(event.timestamp)
    if isinstance(p, PirMotion):
        return ts, event.source, _KIND_PIR, "", ""
    if isinstance(p, UsPresence):
        return ts, event.source, _KIND_US, repr(p.distance), ""
    if isinstance(p, BleAdvert):
        return ts, event.source, _KIND_BLE, p.beacon_id, repr(p.rssi)
    if isinstance(p, ManualOff):
        return ts, event.source, _KIND_MANUAL_OFF, "", ""
    if isinstance(p, ManualRearm):
        return ts, event.source, _KIND_MANUAL_REARM, "", ""
    raise ValueError(f"cannot serialize payload {type(p).__name__}")


def write_event_log(events: Sequence[SensorEvent], stream) -> None:
    stream.write(EVENT_LOG_HEADER + "\n")
    for event in events:
        stream.write(",".join(event_to_row(event)) + "\n")


def read_event_log(stream) -> List[SensorEvent]:
    """Parse an event-log CSV; raises ValueError naming the bad line."""
    events: List[SensorEvent] = []
    header = stream.readline().rstrip("\n")
    if header != EVENT_LOG_HEADER:
        raise ValueError(f"line 1: expected header {EVENT_LOG_HEADER!r}")
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        ts_raw, source, kind, arg1, arg2 = parts
        try:
            ts = float(ts_raw)
        except ValueError:
            ts = math.nan
        if not math.isfinite(ts):
            raise ValueError(f"line {lineno}: bad timestamp {ts_raw!r}")
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
        events.append(SensorEvent(timestamp=ts, source=source, payload=payload))
    return events
