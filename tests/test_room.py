"""Room model construction, validation rules, and config round-trips."""

import dataclasses
import json
import math

import pytest

from uvcguard.room import (
    DeskZone,
    LampSpec,
    LampTier,
    Point3,
    RoomConfigError,
    SensorKind,
    SensorSpec,
    angle_between_deg,
    default_room,
    load_room,
    room_from_dict,
    room_to_dict,
    serialize_room,
    unit_vector,
    validate,
)


def test_point_distances():
    a = Point3(0.0, 0.0, 0.0)
    b = Point3(3.0, 4.0, 12.0)
    assert a.distance_to(b) == pytest.approx(13.0, rel=1e-12)
    assert a.horizontal_distance_to(b) == pytest.approx(5.0, rel=1e-12)


def test_unit_vector_normalizes_and_rejects_zero():
    v = unit_vector(Point3(0.0, 0.0, -2.0))
    assert (v.x, v.y, v.z) == (0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        unit_vector(Point3(0.0, 0.0, 0.0))


def test_angle_between_deg():
    assert angle_between_deg(Point3(1, 0, 0), Point3(0, 1, 0)) == pytest.approx(90.0)
    assert angle_between_deg(Point3(1, 0, 0), Point3(1, 0, 0)) == pytest.approx(0.0)
    assert angle_between_deg(Point3(1, 0, 0), Point3(-1, 0, 0)) == pytest.approx(180.0)


def test_lamp_uvc_power_and_downward_default():
    lamp = LampSpec("l", LampTier.CEILING, Point3(1, 1, 2.5), electrical_power=36.0)
    assert lamp.uvc_power == pytest.approx(36.0 * 0.33, rel=1e-12)
    assert lamp.emits_downward is True
    upper = LampSpec("u", LampTier.UPPER_ROOM, Point3(1, 1, 2.4),
                     electrical_power=25.0)
    assert upper.emits_downward is False


def test_sensor_defaults_per_kind():
    pir = SensorSpec("p", SensorKind.PIR, Point3(0.1, 0.1, 2.4),
                     aim=Point3(0.0, 0.0, -3.0))
    assert pir.fov_half_angle == 60.0
    assert pir.max_range == math.inf
    assert pir.aim.norm() == pytest.approx(1.0, rel=1e-12)
    us = SensorSpec("u", SensorKind.ULTRASONIC, Point3(0.1, 0.1, 1.2),
                    aim=Point3(1.0, 0.0, 0.0))
    assert us.fov_half_angle == 30.0
    assert us.max_range == 2.0
    ble = SensorSpec("b", SensorKind.BLE_RECEIVER, Point3(0.1, 0.1, 1.5))
    assert ble.fov_half_angle == 180.0


def test_default_room_is_valid():
    room = default_room()
    assert validate(room) == []
    assert room.contains(Point3(2.0, 2.0, 1.0))
    assert not room.contains(Point3(-0.1, 2.0, 1.0))
    assert not room.contains(Point3(2.0, 2.0, 2.7))


def test_default_room_inventory():
    room = default_room()
    tiers = {t: [l.id for l in room.lamps_by_tier(t)] for t in LampTier}
    assert tiers[LampTier.CEILING] == ["ceiling_1", "ceiling_2"]
    assert tiers[LampTier.DESK] == ["desk_2"]
    assert tiers[LampTier.UPPER_ROOM] == ["upper_room"]
    kinds = sorted(s.kind.value for s in room.sensors)
    assert kinds == ["ble_receiver", "manual_switch", "pir", "pir", "ultrasonic"]
    assert sorted(z.desk_id for z in room.desk_zones) == ["desk_1", "desk_2"]


def test_zone_lookup_by_id():
    room = default_room()
    zone = room.zone_of("desk_2")
    assert zone.has_desk_lamp
    assert zone.center == Point3(2.15, 5.0, 0.7)
    with pytest.raises(KeyError):
        room.zone_of("desk_99")


def test_validate_flags_bad_dimensions():
    room = dataclasses.replace(default_room(), width=-1.0)
    problems = validate(room)
    assert any("width" in p for p in problems)


def test_validate_flags_lamp_problems():
    room = default_room()
    bad_lamps = room.lamps + (
        LampSpec("ceiling_1", LampTier.CEILING, Point3(1, 1, 2.0), 36.0),
        LampSpec("outside", LampTier.CEILING, Point3(9.0, 1, 2.0), 36.0),
        LampSpec("weak", LampTier.CEILING, Point3(1, 1, 2.0), 0.0),
    )
    problems = validate(dataclasses.replace(room, lamps=bad_lamps))
    assert any("duplicate id" in p for p in problems)
    assert any("outside the room box" in p for p in problems)
    assert any("electrical_power" in p for p in problems)


def test_validate_rejects_ids_the_csv_logs_cannot_carry():
    room = default_room()
    lamps = tuple(dataclasses.replace(l, id="ceiling 1") if l.id == "ceiling_1"
                  else l for l in room.lamps)
    sensors = tuple(dataclasses.replace(s, id="pir,1") if s.id == "pir_1"
                    else s for s in room.sensors)
    problems = validate(dataclasses.replace(room, lamps=lamps, sensors=sensors))
    assert "lamp 'ceiling 1': id must match [A-Za-z0-9_.-]+" in problems
    assert "sensor 'pir,1': id must match [A-Za-z0-9_.-]+" in problems
    assert validate(room) == []


def test_validate_rejects_downward_upper_room_fixture():
    room = default_room()
    bad = LampSpec("ur_bad", LampTier.UPPER_ROOM, Point3(1, 1, 2.4), 25.0,
                   emits_downward=True)
    problems = validate(dataclasses.replace(room, lamps=room.lamps + (bad,)))
    assert any("must not emit downward" in p for p in problems)


def test_validate_requires_one_manual_switch():
    room = default_room()
    stripped = tuple(s for s in room.sensors
                     if s.kind is not SensorKind.MANUAL_SWITCH)
    problems = validate(dataclasses.replace(room, sensors=stripped))
    assert any("exactly one manual switch" in p for p in problems)


def test_validate_requires_detectors_when_downward_lamps_exist():
    room = default_room()
    keep = tuple(s for s in room.sensors
                 if s.kind in (SensorKind.MANUAL_SWITCH, SensorKind.BLE_RECEIVER))
    problems = validate(dataclasses.replace(room, sensors=keep))
    assert any("PIR" in p for p in problems)
    assert any("ultrasonic" in p for p in problems)


def test_validate_flags_overlapping_zone_centers():
    room = default_room()
    crowded = room.desk_zones + (
        DeskZone("desk_3", Point3(2.15, 1.0, 0.7), exclusion_radius=2.0,
                 has_desk_lamp=False),
    )
    problems = validate(dataclasses.replace(room, desk_zones=crowded))
    assert any("contains the center" in p for p in problems)


def test_validate_rejects_non_finite_sensor_settings():
    room = default_room()
    for bad in ({"hold_time": math.nan}, {"hold_time": math.inf},
                {"aim": Point3(math.nan, 0.0, 0.0)},
                {"aim": Point3(math.inf, 1.0, 0.0)}):
        sensors = (dataclasses.replace(room.sensors[0], **bad),) + room.sensors[1:]
        problems = validate(dataclasses.replace(room, sensors=sensors))
        assert len(problems) == 1 and "must be finite" in problems[0], bad


def test_load_room_rejects_non_finite_numbers():
    doc = room_to_dict(default_room())
    doc["sensors"][0]["hold_time"] = math.nan
    doc["lamps"][0]["position"][0] = math.inf
    with pytest.raises(RoomConfigError) as exc_info:
        load_room(json.dumps(doc))
    assert exc_info.value.errors == [
        "lamps[0].position: expected [x, y, z] numbers",
        "sensors[0].hold_time: expected a number"]


def test_room_dict_round_trip():
    room = default_room()
    doc = room_to_dict(room)
    assert room_from_dict(doc) == room


def test_serialize_room_is_stable_and_loads_back():
    room = default_room()
    text = serialize_room(room)
    assert serialize_room(load_room(text)) == text


def test_load_room_rejects_unknown_keys():
    doc = room_to_dict(default_room())
    doc["lamps"][0]["wattage"] = 40
    with pytest.raises(RoomConfigError) as exc_info:
        room_from_dict(doc)
    assert any("wattage" in e for e in exc_info.value.errors)


def test_load_room_rejects_missing_keys():
    doc = room_to_dict(default_room())
    del doc["lamps"][0]["position"]
    with pytest.raises(RoomConfigError) as exc_info:
        room_from_dict(doc)
    assert any("position" in e for e in exc_info.value.errors)


def test_load_room_reports_json_position():
    with pytest.raises(RoomConfigError) as exc_info:
        load_room("{not json")
    assert any("line 1" in e for e in exc_info.value.errors)


def test_load_room_collects_multiple_errors():
    doc = room_to_dict(default_room())
    doc["lamps"][0]["electrical_power"] = "many"
    doc["sensors"][0]["position"] = "corner"
    with pytest.raises(RoomConfigError) as exc_info:
        room_from_dict(doc)
    assert any("electrical_power" in e for e in exc_info.value.errors)
    assert any("position" in e for e in exc_info.value.errors)
