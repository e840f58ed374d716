"""Occupancy fusion: path-loss inversion, hold windows, fail-safe behavior."""

import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uvcguard.fusion import (
    EVENT_LOG_HEADER,
    BleAdvert,
    EventOrderError,
    FusionParams,
    ManualOff,
    ManualRearm,
    OccupancyFusion,
    PirMotion,
    SensorEvent,
    UsPresence,
    distance_to_rssi,
    read_event_log,
    rssi_to_distance,
    sort_events,
    write_event_log,
)
from uvcguard.room import default_room

PARAMS = FusionParams()


def fusion() -> OccupancyFusion:
    return OccupancyFusion(default_room(), PARAMS)


def ev(t: float, source: str, payload) -> SensorEvent:
    return SensorEvent(timestamp=t, source=source, payload=payload)


# ---------------------------------------------------------------------------
# path-loss model
# ---------------------------------------------------------------------------

def test_rssi_to_distance_known_point():
    # 10 dB above the 1 m reference with n = 2 puts the beacon at 10^0.5 m
    assert rssi_to_distance(-49.0, PARAMS) == pytest.approx(
        0.31622776601683794, rel=1e-12)
    assert rssi_to_distance(-59.0, PARAMS) == pytest.approx(1.0, rel=1e-12)


def test_distance_to_rssi_round_trip():
    for d in (0.3, 1.0, 2.5, 4.99, 8.0):
        assert rssi_to_distance(distance_to_rssi(d, PARAMS), PARAMS) == (
            pytest.approx(d, rel=1e-9))


def test_distance_to_rssi_clamped():
    assert distance_to_rssi(1e-9, PARAMS) == 0.0
    assert distance_to_rssi(1e12, PARAMS) == -120.0


def test_fusion_params_validation():
    with pytest.raises(ValueError):
        FusionParams(ble_path_loss_exponent=1.0)
    with pytest.raises(ValueError):
        FusionParams(pir_hold=-1.0)


# ---------------------------------------------------------------------------
# hold windows
# ---------------------------------------------------------------------------

def test_pir_hold_window_is_half_open():
    f = fusion()
    f.ingest(ev(100.0, "pir_1", PirMotion()))
    assert f.snapshot(100.0).room_occupied
    assert f.snapshot(114.999).motion_active
    snap = f.snapshot(115.0)
    assert not snap.motion_active
    assert not snap.room_occupied
    assert snap.last_motion_time == 100.0


def test_us_hold_marks_the_aimed_zone():
    f = fusion()
    f.ingest(ev(50.0, "us_desk_2", UsPresence(distance=1.2)))
    snap = f.snapshot(50.0)
    assert snap.desk_zone_occupied["desk_2"]
    assert snap.room_occupied          # zone presence implies room presence
    assert not snap.motion_active      # but it is not motion
    assert f.snapshot(59.999).desk_zone_occupied["desk_2"]
    assert not f.snapshot(60.0).desk_zone_occupied["desk_2"]


def test_us_out_of_range_return_ignored():
    f = fusion()
    f.ingest(ev(50.0, "us_desk_2", UsPresence(distance=2.5)))
    assert not f.snapshot(50.0).room_occupied


def test_ble_approach_window():
    f = fusion()
    rssi = distance_to_rssi(3.0, PARAMS)   # inside the 5 m approach radius
    f.ingest(ev(10.0, "ble_door", BleAdvert("badge", rssi)))
    snap = f.snapshot(10.0)
    assert snap.approach_detected
    assert not snap.room_occupied          # approach alone is not occupancy
    assert f.snapshot(19.999).approach_detected
    assert not f.snapshot(20.0).approach_detected


def test_ble_far_beacon_ignored():
    f = fusion()
    rssi = distance_to_rssi(8.0, PARAMS)
    f.ingest(ev(10.0, "ble_door", BleAdvert("badge", rssi)))
    assert not f.snapshot(10.0).approach_detected


def test_detections_extend_but_never_shorten():
    f = fusion()
    f.ingest(ev(0.0, "pir_1", PirMotion()))
    f.ingest(ev(5.0, "pir_1", PirMotion()))
    assert f.snapshot(19.999).motion_active
    assert not f.snapshot(20.0).motion_active


def test_manual_kill_latches_until_rearm():
    f = fusion()
    f.ingest(ev(5.0, "kill_switch", ManualOff()))
    assert f.snapshot(5.0).manual_kill
    assert f.snapshot(10000.0).manual_kill
    assert "kill_switch" in f.snapshot(10000.0).contributing_sources
    f.ingest(ev(10001.0, "kill_switch", ManualRearm()))
    assert not f.snapshot(10001.0).manual_kill


def test_contributing_sources_sorted_and_windowed():
    f = fusion()
    f.ingest(ev(0.0, "pir_2", PirMotion()))
    f.ingest(ev(1.0, "pir_1", PirMotion()))
    assert f.snapshot(1.0).contributing_sources == ("pir_1", "pir_2")
    assert f.snapshot(15.0).contributing_sources == ("pir_1",)
    assert f.snapshot(16.0).contributing_sources == ()


# ---------------------------------------------------------------------------
# fail-safe anomaly handling
# ---------------------------------------------------------------------------

def test_out_of_band_rssi_is_fail_safe():
    f = fusion()
    f.ingest(ev(10.0, "ble_door", BleAdvert("badge", 12.0)))
    snap = f.snapshot(10.0)
    assert snap.motion_active and snap.room_occupied
    assert len(f.anomalies) == 1
    assert not f.snapshot(10.0 + PARAMS.pir_hold).room_occupied


def test_unknown_payload_is_fail_safe():
    class Garbage:
        pass

    f = fusion()
    f.ingest(SensorEvent(3.0, "mystery", Garbage()))
    assert f.snapshot(3.0).room_occupied
    assert f.anomalies[0][1] == "mystery"


# ---------------------------------------------------------------------------
# ordering discipline
# ---------------------------------------------------------------------------

def test_ingest_rejects_time_travel():
    f = fusion()
    f.ingest(ev(10.0, "pir_1", PirMotion()))
    with pytest.raises(EventOrderError):
        f.ingest(ev(9.0, "pir_1", PirMotion()))


def test_snapshot_rejects_past_instants():
    f = fusion()
    f.ingest(ev(10.0, "pir_1", PirMotion()))
    with pytest.raises(EventOrderError):
        f.snapshot(9.0)


def test_sort_events_breaks_ties_by_source():
    events = [ev(1.0, "pir_2", PirMotion()), ev(1.0, "pir_1", PirMotion()),
              ev(0.5, "pir_2", PirMotion())]
    ordered = sort_events(events)
    assert [(e.timestamp, e.source) for e in ordered] == [
        (0.5, "pir_2"), (1.0, "pir_1"), (1.0, "pir_2")]


# ---------------------------------------------------------------------------
# monotonicity: extra detections can only widen the occupied picture
# ---------------------------------------------------------------------------

def _payload_strategy():
    return st.one_of(
        st.just(("pir_1", PirMotion())),
        st.just(("pir_2", PirMotion())),
        st.builds(lambda d: ("us_desk_2", UsPresence(distance=d)),
                  st.floats(0.1, 3.0)),
        st.builds(lambda r: ("ble_door", BleAdvert("b", r)),
                  st.floats(-95.0, -35.0)),
    )


def _event_list():
    return st.lists(
        st.tuples(st.floats(0.0, 100.0), _payload_strategy()), max_size=12)


def _occupied_at(raw_events, now: float):
    f = fusion()
    events = sort_events([ev(t, src, p) for t, (src, p) in raw_events])
    for event in events:
        if event.timestamp <= now:
            f.ingest(event)
    snap = f.snapshot(now)
    return snap.room_occupied, snap.approach_detected


@settings(max_examples=60, deadline=None)
@given(base=_event_list(), extra=_event_list(),
       now=st.floats(0.0, 130.0))
def test_extra_events_never_flip_occupied_to_vacant(base, extra, now):
    occ_base, app_base = _occupied_at(base, now)
    occ_all, app_all = _occupied_at(base + extra, now)
    if occ_base:
        assert occ_all
    if app_base:
        assert app_all


def _step_inputs(snap):
    return (snap.room_occupied, snap.approach_detected, snap.manual_kill,
            snap.motion_active, snap.desk_zone_occupied)


_any_payload = st.one_of(
    _payload_strategy(),
    st.just(("ble_door", BleAdvert("b", 5.0))),       # anomaly
    st.just(("pir_1", ManualOff())),
    st.just(("pir_1", ManualRearm())),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 100.0), _any_payload), max_size=8),
       st.floats(0.0, 25.0),
       st.floats(0.0, 1.0, exclude_max=True))
def test_step_inputs_hold_until_next_change_at(raw_events, wait, frac):
    f = fusion()
    for event in sort_events([ev(t, src, p) for t, (src, p) in raw_events]):
        f.ingest(event)
    t0 = max((t for t, _ in raw_events), default=0.0) + wait
    change = f.next_change_at(t0)
    assert change > t0
    t = t0 + frac * (min(change, t0 + 100.0) - t0)
    assume(t < change)
    assert _step_inputs(f.snapshot(t)) == _step_inputs(f.snapshot(t0))


# ---------------------------------------------------------------------------
# event-log CSV
# ---------------------------------------------------------------------------

def test_event_log_round_trip():
    events = sort_events([
        ev(0.1, "pir_1", PirMotion()),
        ev(0.2, "us_desk_2", UsPresence(distance=1.2345678901234567)),
        ev(0.3, "ble_door", BleAdvert("badge-7", -63.25)),
        ev(0.4, "kill_switch", ManualOff()),
        ev(0.5, "kill_switch", ManualRearm()),
    ])
    buf = io.StringIO()
    write_event_log(events, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == EVENT_LOG_HEADER
    assert read_event_log(io.StringIO(text)) == events


def test_read_event_log_names_the_bad_line():
    text = EVENT_LOG_HEADER + "\n0.1,pir_1,PIR,,\nnot-a-time,pir_1,PIR,,\n"
    with pytest.raises(ValueError, match="line 3"):
        read_event_log(io.StringIO(text))
    with pytest.raises(ValueError, match="line 1"):
        read_event_log(io.StringIO("bogus\n"))
    with pytest.raises(ValueError, match="line 2"):
        read_event_log(io.StringIO(EVENT_LOG_HEADER + "\n0.1,pir_1,LIDAR,,\n"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_event_log_rejects_non_finite_timestamps(bad):
    text = EVENT_LOG_HEADER + f"\n0.1,pir_1,PIR,,\n{bad},pir_1,PIR,,\n"
    with pytest.raises(ValueError, match=f"line 3: bad timestamp '{bad}'"):
        read_event_log(io.StringIO(text))
