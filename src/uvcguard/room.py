"""Room geometry: lamps, sensors, desk zones, and the validated room model.

All lengths are in meters, powers in watts, angles in degrees. The room is an
axis-aligned box with its origin at one floor corner: x spans the width,
y the length, z the height.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple


# ---------------------------------------------------------------------------
# geometry primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point3:
    """A point (or direction) in room coordinates."""

    x: float
    y: float
    z: float

    def distance_to(self, other: "Point3") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def horizontal_distance_to(self, other: "Point3") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def unit_vector(v: Point3) -> Point3:
    n = v.norm()
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return Point3(v.x / n, v.y / n, v.z / n)


def angle_between_deg(a: Point3, b: Point3) -> float:
    """Angle between two directions in degrees."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    cos = (a.x * b.x + a.y * b.y + a.z * b.z) / (na * nb)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


# ---------------------------------------------------------------------------
# component specs
# ---------------------------------------------------------------------------

class LampTier(Enum):
    UPPER_ROOM = "upper_room"
    CEILING = "ceiling"
    DESK = "desk"


class SensorKind(Enum):
    PIR = "pir"
    ULTRASONIC = "ultrasonic"
    BLE_RECEIVER = "ble_receiver"
    MANUAL_SWITCH = "manual_switch"


DEFAULT_UVC_EFFICIENCY = 0.33
DEFAULT_PIR_FOV_HALF_ANGLE = 60.0   # 120 degree full field
DEFAULT_US_FOV_HALF_ANGLE = 30.0
DEFAULT_US_MAX_RANGE = 2.0


@dataclass(frozen=True)
class LampSpec:
    """One UVC luminaire.

    ``uvc_power`` (radiant output) is ``electrical_power * uvc_efficiency``.
    Upper-room fixtures are louvered and emit horizontally only, so they
    must carry ``emits_downward=False``.
    """

    id: str
    tier: LampTier
    position: Point3
    electrical_power: float
    uvc_efficiency: float = DEFAULT_UVC_EFFICIENCY
    emits_downward: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.emits_downward is None:
            object.__setattr__(self, "emits_downward",
                               self.tier is not LampTier.UPPER_ROOM)

    @property
    def uvc_power(self) -> float:
        return self.electrical_power * self.uvc_efficiency


@dataclass(frozen=True)
class SensorSpec:
    """One detector.

    ``aim`` is normalized on construction. ``fov_half_angle`` and
    ``max_range`` default per kind; kinds without a directional field of
    view (BLE receiver, manual switch) get an all-around default.
    ``hold_time`` models a hardware output latch; the fusion layer applies
    its own hold windows on top, so 0 is the normal value.
    """

    id: str
    kind: SensorKind
    position: Point3
    aim: Optional[Point3] = None
    fov_half_angle: Optional[float] = None
    max_range: Optional[float] = None
    hold_time: float = 0.0

    def __post_init__(self) -> None:
        if self.aim is not None and self.aim.norm() > 0.0:
            # keep already-unit aims bit-stable so configs round-trip exactly
            if abs(self.aim.norm() - 1.0) > 1e-9:
                object.__setattr__(self, "aim", unit_vector(self.aim))
        if self.fov_half_angle is None:
            if self.kind is SensorKind.PIR:
                object.__setattr__(self, "fov_half_angle", DEFAULT_PIR_FOV_HALF_ANGLE)
            elif self.kind is SensorKind.ULTRASONIC:
                object.__setattr__(self, "fov_half_angle", DEFAULT_US_FOV_HALF_ANGLE)
            else:
                object.__setattr__(self, "fov_half_angle", 180.0)
        if self.max_range is None:
            if self.kind is SensorKind.ULTRASONIC:
                object.__setattr__(self, "max_range", DEFAULT_US_MAX_RANGE)
            else:
                object.__setattr__(self, "max_range", math.inf)


@dataclass(frozen=True)
class DeskZone:
    """A protected exclusion zone around one desk."""

    desk_id: str
    center: Point3
    exclusion_radius: float = 2.0
    has_desk_lamp: bool = False


@dataclass(frozen=True)
class RoomModel:
    """Immutable description of one room and its installed hardware."""

    width: float
    length: float
    ceiling_height: float
    lamps: Tuple[LampSpec, ...]
    sensors: Tuple[SensorSpec, ...]
    desk_zones: Tuple[DeskZone, ...]
    door_position: Point3

    def __post_init__(self) -> None:
        object.__setattr__(self, "lamps", tuple(self.lamps))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "desk_zones", tuple(self.desk_zones))

    def contains(self, p: Point3) -> bool:
        return (0.0 <= p.x <= self.width
                and 0.0 <= p.y <= self.length
                and 0.0 <= p.z <= self.ceiling_height)

    def lamps_by_tier(self, tier: LampTier) -> Tuple[LampSpec, ...]:
        return tuple(l for l in self.lamps if l.tier is tier)

    def zone_of(self, desk_id: str) -> DeskZone:
        for z in self.desk_zones:
            if z.desk_id == desk_id:
                return z
        raise KeyError(desk_id)


# ---------------------------------------------------------------------------
# default testbed layout
# ---------------------------------------------------------------------------

def default_room() -> RoomModel:
    """The reference 4.3 m x 5.6 m x 2.6 m office layout.

    Two 36 W ceiling fixtures sit on the long-axis centerline at the quarter
    and three-quarter points (this spacing keeps the worst floor cell under
    the 300 s time-to-target budget; thirds spacing narrowly misses it).
    A 24 W desk fixture hangs over Desk 2, a louvered 25 W upper-room
    fixture sits at 2.4 m, and the detector suite is two corner PIRs, one
    ultrasonic sensor staring at the Desk 2 chair, a BLE receiver by the
    door, and the mandatory manual kill switch.
    """
    width, length, height = 4.3, 5.6, 2.6
    cx = width / 2.0
    desk1 = Point3(cx, 0.6, 0.7)
    desk2 = Point3(cx, 5.0, 0.7)  # 4.4 m from desk1, carries the desk lamp
    lamps = (
        LampSpec(id="ceiling_1", tier=LampTier.CEILING,
                 position=Point3(cx, length * 0.25, height),
                 electrical_power=36.0),
        LampSpec(id="ceiling_2", tier=LampTier.CEILING,
                 position=Point3(cx, length * 0.75, height),
                 electrical_power=36.0),
        LampSpec(id="desk_2", tier=LampTier.DESK,
                 position=Point3(cx, 5.0, 1.8),
                 electrical_power=24.0),
        LampSpec(id="upper_room", tier=LampTier.UPPER_ROOM,
                 position=Point3(0.1, 2.8, 2.4),
                 electrical_power=25.0),
    )
    # corner PIRs on the desk-lamp side, aimed across the room; together
    # their 120 degree cones cover every point of the floor area
    pir_target = Point3(cx, 2.0, 0.9)
    pir1_pos = Point3(0.15, 5.45, 2.4)
    pir2_pos = Point3(4.15, 5.45, 2.4)
    sensors = (
        SensorSpec(id="pir_1", kind=SensorKind.PIR, position=pir1_pos,
                   aim=Point3(pir_target.x - pir1_pos.x,
                              pir_target.y - pir1_pos.y,
                              pir_target.z - pir1_pos.z)),
        SensorSpec(id="pir_2", kind=SensorKind.PIR, position=pir2_pos,
                   aim=Point3(pir_target.x - pir2_pos.x,
                              pir_target.y - pir2_pos.y,
                              pir_target.z - pir2_pos.z)),
        SensorSpec(id="us_desk_2", kind=SensorKind.ULTRASONIC,
                   position=Point3(cx, 5.55, 1.2),
                   aim=Point3(0.0, 5.0 - 5.55, 0.85 - 1.2),
                   max_range=2.0),
        SensorSpec(id="ble_door", kind=SensorKind.BLE_RECEIVER,
                   position=Point3(cx, 0.1, 1.5)),
        SensorSpec(id="kill_switch", kind=SensorKind.MANUAL_SWITCH,
                   position=Point3(cx, 0.05, 1.2)),
    )
    desk_zones = (
        DeskZone(desk_id="desk_1", center=desk1, exclusion_radius=2.0,
                 has_desk_lamp=False),
        DeskZone(desk_id="desk_2", center=desk2, exclusion_radius=2.0,
                 has_desk_lamp=True),
    )
    return RoomModel(width=width, length=length, ceiling_height=height,
                     lamps=lamps, sensors=sensors, desk_zones=desk_zones,
                     door_position=Point3(cx, 0.0, 0.0))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# lamp, sensor and occupant ids are written unquoted into the CSV logs
ID_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


def _finite(p: Point3) -> bool:
    return all(math.isfinite(v) for v in (p.x, p.y, p.z))


def validate(model: RoomModel) -> List[str]:
    """Return a list of rule violations; an empty list means the model is sound."""
    problems: List[str] = []
    for name in ("width", "length", "ceiling_height"):
        v = getattr(model, name)
        if not (math.isfinite(v) and v > 0.0):
            problems.append(f"room.{name} must be finite and positive, got {v!r}")
    if problems:
        return problems

    lamp_ids = set()
    for lamp in model.lamps:
        where = f"lamp {lamp.id!r}"
        if not ID_PATTERN.fullmatch(lamp.id):
            problems.append(f"{where}: id must match {ID_PATTERN.pattern}")
        if lamp.id in lamp_ids:
            problems.append(f"{where}: duplicate id")
        lamp_ids.add(lamp.id)
        if not _finite(lamp.position) or not model.contains(lamp.position):
            problems.append(f"{where}: position outside the room box")
        if not (math.isfinite(lamp.electrical_power) and lamp.electrical_power > 0.0):
            problems.append(f"{where}: electrical_power must be > 0")
        if not (0.0 < lamp.uvc_efficiency <= 1.0):
            problems.append(f"{where}: uvc_efficiency must be in (0, 1]")
        if lamp.tier is LampTier.UPPER_ROOM and lamp.emits_downward:
            problems.append(f"{where}: upper-room fixtures must not emit downward")
        if lamp.tier is not LampTier.UPPER_ROOM and not lamp.emits_downward:
            problems.append(f"{where}: {lamp.tier.value} fixtures must emit downward")

    manual_count = 0
    sensor_ids = set()
    for sensor in model.sensors:
        where = f"sensor {sensor.id!r}"
        if not ID_PATTERN.fullmatch(sensor.id):
            problems.append(f"{where}: id must match {ID_PATTERN.pattern}")
        if sensor.id in sensor_ids:
            problems.append(f"{where}: duplicate id")
        sensor_ids.add(sensor.id)
        if not _finite(sensor.position) or not model.contains(sensor.position):
            problems.append(f"{where}: position outside the room box")
        if sensor.kind is SensorKind.MANUAL_SWITCH:
            manual_count += 1
        if sensor.kind in (SensorKind.PIR, SensorKind.ULTRASONIC):
            if sensor.aim is None or sensor.aim.norm() == 0.0:
                problems.append(f"{where}: {sensor.kind.value} needs an aim direction")
            if not (0.0 < sensor.fov_half_angle <= 180.0):
                problems.append(f"{where}: fov_half_angle must be in (0, 180]")
            if not sensor.max_range > 0.0:
                problems.append(f"{where}: max_range must be > 0")
        if sensor.hold_time < 0.0:
            problems.append(f"{where}: hold_time must be >= 0")
    if manual_count != 1:
        problems.append(f"room must have exactly one manual switch, found {manual_count}")

    zone_ids = set()
    for zone in model.desk_zones:
        where = f"desk zone {zone.desk_id!r}"
        if zone.desk_id in zone_ids:
            problems.append(f"{where}: duplicate id")
        zone_ids.add(zone.desk_id)
        if not _finite(zone.center) or not model.contains(zone.center):
            problems.append(f"{where}: center outside the room box")
        if not zone.exclusion_radius > 0.0:
            problems.append(f"{where}: exclusion_radius must be > 0")
    for a in model.desk_zones:
        for b in model.desk_zones:
            if a.desk_id != b.desk_id:
                if a.center.horizontal_distance_to(b.center) < a.exclusion_radius:
                    problems.append(
                        f"desk zone {a.desk_id!r} contains the center of {b.desk_id!r}")

    if not _finite(model.door_position) or not model.contains(model.door_position):
        problems.append("door position outside the room box")

    has_downward = any(l.emits_downward for l in model.lamps)
    if has_downward:
        kinds = {s.kind for s in model.sensors}
        if SensorKind.PIR not in kinds:
            problems.append("downward-emitting lamps require at least one PIR sensor")
        if SensorKind.ULTRASONIC not in kinds:
            problems.append("downward-emitting lamps require at least one ultrasonic sensor")
    return problems


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

class RoomConfigError(ValueError):
    """Raised for malformed or invalid room configuration text."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> List[str]:
    errors = []
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}.{key}: unexpected key")
    for key in required:
        if key not in obj:
            errors.append(f"{path}.{key}: missing")
    return errors


def _parse_point(value, path: str, errors: List[str]) -> Point3:
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        errors.append(f"{path}: expected [x, y, z] numbers")
        return Point3(0.0, 0.0, 0.0)
    return Point3(float(value[0]), float(value[1]), float(value[2]))


def _parse_number(obj: dict, key: str, path: str, errors: List[str],
                  default=None) -> Optional[float]:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        errors.append(f"{path}.{key}: expected a number")
        return default
    return float(v)


def _parse_bool(obj: dict, key: str, path: str, errors: List[str],
                default=None) -> Optional[bool]:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        errors.append(f"{path}.{key}: expected true/false")
        return default
    return v


def _parse_str(obj: dict, key: str, path: str, errors: List[str]) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        errors.append(f"{path}.{key}: expected a non-empty string")
        return ""
    return v


def room_from_dict(doc: dict) -> RoomModel:
    """Build a RoomModel from a parsed config tree, rejecting unknown keys."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        raise RoomConfigError(["top level: expected an object"])
    errors += _require_keys(doc, "config",
                            ("room", "lamps", "sensors", "desk_zones", "door"))
    if errors:
        raise RoomConfigError(errors)

    room_obj = doc["room"]
    if not isinstance(room_obj, dict):
        errors.append("room: expected an object")
        raise RoomConfigError(errors)
    errors += _require_keys(room_obj, "room", ("width", "length", "ceiling_height"))
    width = _parse_number(room_obj, "width", "room", errors, 0.0)
    length = _parse_number(room_obj, "length", "room", errors, 0.0)
    height = _parse_number(room_obj, "ceiling_height", "room", errors, 0.0)

    lamps: List[LampSpec] = []
    if not isinstance(doc["lamps"], list):
        errors.append("lamps: expected a list")
    else:
        for i, obj in enumerate(doc["lamps"]):
            path = f"lamps[{i}]"
            if not isinstance(obj, dict):
                errors.append(f"{path}: expected an object")
                continue
            errors += _require_keys(obj, path,
                                    ("id", "tier", "position", "electrical_power"),
                                    ("uvc_efficiency", "emits_downward"))
            lamp_id = _parse_str(obj, "id", path, errors)
            tier_raw = obj.get("tier")
            try:
                tier = LampTier(tier_raw)
            except ValueError:
                errors.append(f"{path}.tier: expected one of "
                              f"{[t.value for t in LampTier]}, got {tier_raw!r}")
                continue
            lamps.append(LampSpec(
                id=lamp_id, tier=tier,
                position=_parse_point(obj.get("position"), f"{path}.position", errors),
                electrical_power=_parse_number(obj, "electrical_power", path, errors, 0.0),
                uvc_efficiency=_parse_number(obj, "uvc_efficiency", path, errors,
                                             DEFAULT_UVC_EFFICIENCY),
                emits_downward=_parse_bool(obj, "emits_downward", path, errors),
            ))

    sensors: List[SensorSpec] = []
    if not isinstance(doc["sensors"], list):
        errors.append("sensors: expected a list")
    else:
        for i, obj in enumerate(doc["sensors"]):
            path = f"sensors[{i}]"
            if not isinstance(obj, dict):
                errors.append(f"{path}: expected an object")
                continue
            errors += _require_keys(obj, path, ("id", "kind", "position"),
                                    ("aim", "fov_half_angle", "max_range", "hold_time"))
            sensor_id = _parse_str(obj, "id", path, errors)
            kind_raw = obj.get("kind")
            try:
                kind = SensorKind(kind_raw)
            except ValueError:
                errors.append(f"{path}.kind: expected one of "
                              f"{[k.value for k in SensorKind]}, got {kind_raw!r}")
                continue
            aim = None
            if "aim" in obj:
                aim = _parse_point(obj["aim"], f"{path}.aim", errors)
            sensors.append(SensorSpec(
                id=sensor_id, kind=kind,
                position=_parse_point(obj.get("position"), f"{path}.position", errors),
                aim=aim,
                fov_half_angle=_parse_number(obj, "fov_half_angle", path, errors),
                max_range=_parse_number(obj, "max_range", path, errors),
                hold_time=_parse_number(obj, "hold_time", path, errors, 0.0),
            ))

    zones: List[DeskZone] = []
    if not isinstance(doc["desk_zones"], list):
        errors.append("desk_zones: expected a list")
    else:
        for i, obj in enumerate(doc["desk_zones"]):
            path = f"desk_zones[{i}]"
            if not isinstance(obj, dict):
                errors.append(f"{path}: expected an object")
                continue
            errors += _require_keys(obj, path, ("desk_id", "center"),
                                    ("exclusion_radius", "has_desk_lamp"))
            zones.append(DeskZone(
                desk_id=_parse_str(obj, "desk_id", path, errors),
                center=_parse_point(obj.get("center"), f"{path}.center", errors),
                exclusion_radius=_parse_number(obj, "exclusion_radius", path, errors, 2.0),
                has_desk_lamp=_parse_bool(obj, "has_desk_lamp", path, errors, False),
            ))

    door = _parse_point(doc.get("door"), "door", errors)
    if errors:
        raise RoomConfigError(errors)

    model = RoomModel(width=width, length=length, ceiling_height=height,
                      lamps=tuple(lamps), sensors=tuple(sensors),
                      desk_zones=tuple(zones), door_position=door)
    problems = validate(model)
    if problems:
        raise RoomConfigError(problems)
    return model


def load_room(text: str) -> RoomModel:
    """Parse config text to a validated RoomModel.

    Raises RoomConfigError naming the offending line or field on any parse
    problem, unknown key, or validation violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RoomConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    return room_from_dict(doc)


def _point_to_list(p: Point3) -> list:
    return [p.x, p.y, p.z]


def room_to_dict(model: RoomModel) -> dict:
    return {
        "room": {"width": model.width, "length": model.length,
                 "ceiling_height": model.ceiling_height},
        "lamps": [
            {"id": l.id, "tier": l.tier.value,
             "position": _point_to_list(l.position),
             "electrical_power": l.electrical_power,
             "uvc_efficiency": l.uvc_efficiency,
             "emits_downward": l.emits_downward}
            for l in model.lamps
        ],
        "sensors": [
            {"id": s.id, "kind": s.kind.value,
             "position": _point_to_list(s.position),
             **({"aim": _point_to_list(s.aim)} if s.aim is not None else {}),
             "fov_half_angle": s.fov_half_angle,
             **({"max_range": s.max_range} if math.isfinite(s.max_range) else {}),
             "hold_time": s.hold_time}
            for s in model.sensors
        ],
        "desk_zones": [
            {"desk_id": z.desk_id, "center": _point_to_list(z.center),
             "exclusion_radius": z.exclusion_radius,
             "has_desk_lamp": z.has_desk_lamp}
            for z in model.desk_zones
        ],
        "door": _point_to_list(model.door_position),
    }


def serialize_room(model: RoomModel) -> str:
    """Render a RoomModel as config text that load_room parses back equal."""
    return json.dumps(room_to_dict(model), indent=2)
