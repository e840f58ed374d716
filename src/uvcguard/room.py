"""Room geometry: lamps, sensors, desk zones, and the validated room model.

All lengths are in meters, powers in watts, angles in degrees. The room is an
axis-aligned box with its origin at one floor corner: x spans the width,
y the length, z the height.

This module also holds the strict JSON field readers that room, policy and
scenario files share. They reject unknown keys, wrong JSON types and
non-finite numbers, and name the path of every problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple


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
        if sensor.aim is not None and not _finite(sensor.aim):
            problems.append(f"{where}: aim must be finite")
        if sensor.kind in (SensorKind.PIR, SensorKind.ULTRASONIC):
            if sensor.aim is None or sensor.aim.norm() == 0.0:
                problems.append(f"{where}: {sensor.kind.value} needs an aim direction")
            if not (0.0 < sensor.fov_half_angle <= 180.0):
                problems.append(f"{where}: fov_half_angle must be in (0, 180]")
            if not sensor.max_range > 0.0:
                problems.append(f"{where}: max_range must be > 0")
        if not 0.0 <= sensor.hold_time < math.inf:
            problems.append(f"{where}: hold_time must be finite and >= 0")
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
    """Raised for malformed or invalid room or policy configuration text."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# Room, policy and scenario files share the readers below; no other code
# checks a config value's JSON type. A reader that finds a problem appends
# "<path>: ..." to ``errors`` and returns a default, so one pass over a
# document reports every problem it can reach.

def read_json(text: str, what: str, error: Callable[[List[str]], Exception]):
    """Parse JSON text; a syntax error raises ``error`` naming line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error([f"{what} parse error at line {exc.lineno}, "
                     f"column {exc.colno}: {exc.msg}"]) from None


def _expect(ok: bool, path: str, expected: str, errors: List[str]) -> bool:
    if not ok:
        errors.append(f"{path}: expected {expected}")
    return ok


def is_number(value) -> bool:
    """A finite JSON number. RFC 8259 has no NaN or Infinity, and an integer
    too large for a float is refused rather than overflowing later."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def read_keys(obj, path: str, errors: List[str], required: Sequence[str],
              optional: Sequence[str] = ()) -> bool:
    """Report unknown and missing keys of ``obj``. True when it is an object
    holding every required key, so that its fields can be read."""
    if not _expect(isinstance(obj, dict), path, "an object", errors):
        return False
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        errors.append(f"{path}: unexpected keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    errors += [f"{path}: missing key {key!r}" for key in missing]
    return not missing


def _read(obj: dict, key: str, path: str, errors: List[str], default,
          valid: Callable[[object], bool], expected: str):
    if key not in obj:
        return default
    value = obj[key]
    ok = _expect(valid(value), f"{path}.{key}" if path else key, expected, errors)
    return value if ok else default


def read_number(obj: dict, key: str, path: str, errors: List[str],
                default: Optional[float] = None) -> Optional[float]:
    value = _read(obj, key, path, errors, None, is_number, "a number")
    return default if value is None else float(value)


def read_int(obj: dict, key: str, path: str, errors: List[str], default: int = 0) -> int:
    return _read(obj, key, path, errors, default,
                 lambda v: isinstance(v, int) and not isinstance(v, bool),
                 "an integer")


def read_bool(obj: dict, key: str, path: str, errors: List[str],
              default: Optional[bool] = None) -> Optional[bool]:
    return _read(obj, key, path, errors, default,
                 lambda v: isinstance(v, bool), "a boolean")


def read_str(obj: dict, key: str, path: str, errors: List[str]) -> str:
    return _read(obj, key, path, errors, "",
                 lambda v: isinstance(v, str) and v != "", "a non-empty string")


def read_object(obj: dict, key: str, path: str, errors: List[str]) -> dict:
    return _read(obj, key, path, errors, {},
                 lambda v: isinstance(v, dict), "an object")


def read_enum(obj: dict, key: str, path: str, errors: List[str], enum: type):
    values = [member.value for member in enum]
    value = _read(obj, key, path, errors, None, lambda v: v in values,
                  f"one of {values}")
    return None if value is None else enum(value)


def read_numbers(value, n: int, path: str, errors: List[str],
                 expected: str) -> Optional[Tuple[float, ...]]:
    """Read a JSON array of exactly ``n`` numbers."""
    ok = isinstance(value, list) and len(value) == n and all(map(is_number, value))
    return tuple(map(float, value)) if _expect(ok, path, expected, errors) else None


def read_point(value, path: str, errors: List[str]) -> Point3:
    xyz = read_numbers(value, 3, path, errors, "[x, y, z] numbers")
    return Point3(*xyz) if xyz is not None else Point3(0.0, 0.0, 0.0)


def read_list(value, path: str, errors: List[str], item: Callable,
              non_empty: bool = False) -> list:
    """Read a JSON array through ``item(raw, path, errors)``, dropping the
    items it rejects by returning None."""
    ok = isinstance(value, list) and (bool(value) or not non_empty)
    if not _expect(ok, path, "a non-empty list" if non_empty else "a list", errors):
        return []
    items = (item(raw, f"{path}[{i}]", errors) for i, raw in enumerate(value))
    return [parsed for parsed in items if parsed is not None]


def params_from_dict(doc, cls: type, path: str, errors: List[str]):
    """Read a dataclass of numbers keyed by its field names; absent fields
    keep their defaults and ``cls`` checks the values it is given."""
    fields = dataclasses.fields(cls)
    if not read_keys(doc, path, errors, (), [f.name for f in fields]):
        return cls()
    try:
        return cls(**{f.name: read_number(doc, f.name, path, errors, f.default)
                      for f in fields})
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return cls()


def require_finite(params) -> None:
    """Raise ValueError naming the first field of a dataclass of numbers
    that is NaN or infinite."""
    for f in dataclasses.fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


def _lamp(obj, path: str, errors: List[str]) -> Optional[LampSpec]:
    if not read_keys(obj, path, errors, ("id", "tier", "position", "electrical_power"),
                     ("uvc_efficiency", "emits_downward")):
        return None
    tier = read_enum(obj, "tier", path, errors, LampTier)
    if tier is None:
        return None
    return LampSpec(
        id=read_str(obj, "id", path, errors), tier=tier,
        position=read_point(obj["position"], f"{path}.position", errors),
        electrical_power=read_number(obj, "electrical_power", path, errors, 0.0),
        uvc_efficiency=read_number(obj, "uvc_efficiency", path, errors,
                                   DEFAULT_UVC_EFFICIENCY),
        emits_downward=read_bool(obj, "emits_downward", path, errors))


def _sensor(obj, path: str, errors: List[str]) -> Optional[SensorSpec]:
    if not read_keys(obj, path, errors, ("id", "kind", "position"),
                     ("aim", "fov_half_angle", "max_range", "hold_time")):
        return None
    kind = read_enum(obj, "kind", path, errors, SensorKind)
    if kind is None:
        return None
    return SensorSpec(
        id=read_str(obj, "id", path, errors), kind=kind,
        position=read_point(obj["position"], f"{path}.position", errors),
        aim=read_point(obj["aim"], f"{path}.aim", errors) if "aim" in obj else None,
        fov_half_angle=read_number(obj, "fov_half_angle", path, errors),
        max_range=read_number(obj, "max_range", path, errors),
        hold_time=read_number(obj, "hold_time", path, errors, 0.0))


def _zone(obj, path: str, errors: List[str]) -> Optional[DeskZone]:
    if not read_keys(obj, path, errors, ("desk_id", "center"),
                     ("exclusion_radius", "has_desk_lamp")):
        return None
    return DeskZone(
        desk_id=read_str(obj, "desk_id", path, errors),
        center=read_point(obj["center"], f"{path}.center", errors),
        exclusion_radius=read_number(obj, "exclusion_radius", path, errors, 2.0),
        has_desk_lamp=read_bool(obj, "has_desk_lamp", path, errors, False))


def room_from_dict(doc: dict) -> RoomModel:
    """Build a validated RoomModel from a parsed config tree, rejecting
    unknown keys, wrong JSON types and non-finite numbers."""
    errors: List[str] = []
    if not read_keys(doc, "config", errors,
                     ("room", "lamps", "sensors", "desk_zones", "door")):
        raise RoomConfigError(errors)
    dims = ("width", "length", "ceiling_height")
    box = doc["room"] if read_keys(doc["room"], "room", errors, dims) else {}
    model = RoomModel(
        **{name: read_number(box, name, "room", errors, 0.0) for name in dims},
        lamps=read_list(doc["lamps"], "lamps", errors, _lamp),
        sensors=read_list(doc["sensors"], "sensors", errors, _sensor),
        desk_zones=read_list(doc["desk_zones"], "desk_zones", errors, _zone),
        door_position=read_point(doc["door"], "door", errors))
    if errors:
        raise RoomConfigError(errors)
    problems = validate(model)
    if problems:
        raise RoomConfigError(problems)
    return model


def load_room(text: str) -> RoomModel:
    """Parse config text to a validated RoomModel.

    Raises RoomConfigError naming the offending line or field on any parse
    problem, unknown key, or validation violation.
    """
    return room_from_dict(read_json(text, "room", RoomConfigError))


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
