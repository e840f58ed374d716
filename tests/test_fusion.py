"""Occupancy fusion: path-loss inversion, hold windows, fail-safe behavior."""

import io
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uvcguard.fusion import (
    EVENT_LOG_HEADER,
    BleAdvert,
    EventOrderError,
    EventRuns,
    FusionParams,
    ManualOff,
    ManualRearm,
    OccupancyFusion,
    PirMotion,
    SensorEvent,
    UsPresence,
    distance_to_rssi,
    event_to_row,
    read_event_log,
    rssi_to_distance,
    sort_events,
    tick_texts,
    window_end,
    write_event_log,
)
from uvcguard.room import default_room

PARAMS = FusionParams()


def fusion() -> OccupancyFusion:
    return OccupancyFusion(default_room(), PARAMS)


def ev(t: float, source: str, payload) -> SensorEvent:
    return SensorEvent(timestamp=t, source=source, payload=payload)


class Garbage:
    """A payload that fusion does not recognize."""


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
    f.ingest(ev(10001.0, "kill_switch", ManualRearm()))
    assert not f.snapshot(10001.0).manual_kill


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
    st.just(("mystery", Garbage())),                  # anomaly
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
# ``ingested``: raised only by events that can change a step input
# ---------------------------------------------------------------------------

def _ingested_after(f: OccupancyFusion, event: SensorEvent) -> bool:
    f.snapshot(event.timestamp)
    f.ingest(event)
    return f.ingested


def test_ingested_rises_only_when_a_window_opens_or_a_switch_is_pressed():
    f = fusion()
    near = distance_to_rssi(3.0, PARAMS)
    far = distance_to_rssi(8.0, PARAMS)
    steps = [
        (ev(0.0, "pir_1", PirMotion()), True),                 # opens motion
        (ev(1.0, "pir_2", PirMotion()), False),                # extends it
        (ev(15.0, "pir_1", PirMotion()), False),               # open till 16
        (ev(30.0, "pir_1", PirMotion()), True),                # closed at 30
        (ev(30.0, "us_desk_2", UsPresence(distance=2.5)), False),  # out of range
        (ev(31.0, "us_desk_2", UsPresence(distance=1.2)), True),
        (ev(31.1, "us_desk_2", UsPresence(distance=1.2)), False),
        (ev(32.0, "ble_door", BleAdvert("badge", far)), False),
        (ev(33.0, "ble_door", BleAdvert("badge", near)), True),
        (ev(34.0, "ble_door", BleAdvert("badge", near)), False),
        (ev(35.0, "ble_door", BleAdvert("badge", 12.0)), True),   # anomaly
        (ev(36.0, "ble_door", BleAdvert("badge", 12.0)), False),
        (ev(37.0, "kill_switch", ManualOff()), True),
        (ev(38.0, "kill_switch", ManualOff()), True),
        (ev(39.0, "kill_switch", ManualRearm()), True),
    ]
    assert [_ingested_after(f, e) for e, _ in steps] == [up for _, up in steps]
    # a zero hold opens no window
    still = OccupancyFusion(default_room(), FusionParams(pir_hold=0.0, us_hold=0.0))
    assert not _ingested_after(still, ev(0.0, "pir_1", PirMotion()))
    assert not _ingested_after(still, ev(0.0, "us_desk_2", UsPresence(1.2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 100.0), _any_payload), max_size=8),
       st.floats(0.0, 25.0), _any_payload,
       st.floats(0.0, 1.0, exclude_max=True))
def test_an_ingest_that_leaves_ingested_down_changes_no_step_input(
        raw_events, wait, extra, frac):
    f, twin = fusion(), fusion()
    for event in sort_events([ev(t, src, p) for t, (src, p) in raw_events]):
        f.ingest(event)
        twin.ingest(event)
    ts = max((t for t, _ in raw_events), default=0.0) + wait
    assume(not _ingested_after(f, ev(ts, *extra)))
    # the picture stays as it was without the event, up to the first end
    # of a window, which the event may only have moved later
    change = f.next_change_at(ts)
    assert change >= twin.next_change_at(ts)
    t = ts + frac * (min(change, ts + 100.0) - ts)
    assume(t < change)
    assert _step_inputs(f.snapshot(t)) == _step_inputs(twin.snapshot(ts))


# ---------------------------------------------------------------------------
# window pieces: one update for a piece leaves what ingesting each row leaves
# ---------------------------------------------------------------------------

_RUN_PAYLOADS = [
    ("pir_1", PirMotion()),
    ("pir_2", PirMotion()),
    ("us_desk_2", UsPresence(distance=1.2)),
    ("us_desk_2", UsPresence(distance=2.5)),                 # out of range
    ("us_nowhere", UsPresence(distance=1.2)),                # no aimed zone
    ("ble_door", BleAdvert("badge", distance_to_rssi(3.0, PARAMS))),
    ("ble_door", BleAdvert("badge", distance_to_rssi(8.0, PARAMS))),
    ("ble_door", BleAdvert("badge", 5.0)),                   # outside its band
    ("mystery", Garbage()),                                  # unrecognized
    ("kill_switch", ManualOff()),
    ("kill_switch", ManualRearm()),
]

# (ticks since the last run's last row, payload, period in ticks, rows)
_runs = st.lists(st.tuples(st.integers(0, 40),
                           st.sampled_from(range(len(_RUN_PAYLOADS))),
                           st.integers(1, 4), st.integers(1, 60)),
                 min_size=1, max_size=6)
# holds shorter than, equal to and longer than a period, and zero
_holds = st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 15.0])
_grid = st.tuples(st.sampled_from([0.0, 1_700_000_000.0]),
                  st.sampled_from([0.1, 0.25, 1.0]))


def _twins(pir_hold, us_hold, ble_hold):
    params = FusionParams(pir_hold=pir_hold, us_hold=us_hold,
                          ble_stale_after=ble_hold)
    return (OccupancyFusion(default_room(), params),
            OccupancyFusion(default_room(), params))


def _pieces(f, start, tick, ks, source, payload):
    """The window pieces of rows at ticks ``ks``, (first, last, source,
    payload) each, cut at ``window_end`` as the decide pass cuts them; a
    row whose hold is None is a piece alone."""
    hold = f.hold(source, payload)
    pieces = []
    while ks:
        end = ks[0] if hold is None else window_end(start, tick, ks, hold)
        pieces.append((start + ks[0] * tick, start + end * tick, source, payload))
        ks = ks[ks.index(end) + 1:]
    return pieces


def _same_as_rows(by_piece, by_row, pieces, rows, at_each_row):
    """Feed ``by_piece`` the ``pieces`` in order of their start through
    ``ingest_window`` and ``by_row`` the ``rows`` in time order through
    ``ingest``: at each row time, or only at the last one unless
    ``at_each_row``, both raise the same ``ingested`` and give the same step
    inputs, and after the last row the same ``next_change_at`` and the same
    anomalies."""
    pieces = sorted(pieces, key=lambda piece: piece[0])
    rows = sorted(rows, key=lambda row: row.timestamp)
    times = sorted({row.timestamp for row in rows})
    p = r = 0
    for t in times if at_each_row else times[-1:]:
        while p < len(pieces) and pieces[p][0] <= t:
            by_piece.ingest_window(*pieces[p])
            p += 1
        while r < len(rows) and rows[r].timestamp <= t:
            by_row.ingest(rows[r])
            r += 1
        assert by_piece.ingested == by_row.ingested
        assert _step_inputs(by_piece.snapshot(t)) == _step_inputs(by_row.snapshot(t))
    assert by_piece.next_change_at(t) == by_row.next_change_at(t)
    assert by_piece.anomalies == by_row.anomalies


@settings(max_examples=200, deadline=None)
@given(_runs, _holds, _holds, _holds, _grid, st.booleans())
# a run that starts inside a window which ends before its last row
@example([(0, 0, 1, 1), (0, 0, 1, 30)], 1.0, 0.0, 0.0, (0.0, 0.1), True)
def test_a_run_ingest_equals_ingesting_each_row(runs, pir_hold, us_hold,
                                                ble_hold, grid, clear):
    start, tick = grid
    by_piece, by_row = _twins(pir_hold, us_hold, ble_hold)
    k = 0
    for gap, index, period, count in runs:
        source, payload = _RUN_PAYLOADS[index]
        ks = range(k + gap, k + gap + count * period, period)
        k = ks[-1]
        _same_as_rows(by_piece, by_row,
                      _pieces(by_piece, start, tick, ks, source, payload),
                      [SensorEvent(start + j * tick, source, payload) for j in ks],
                      clear)


@settings(max_examples=200, deadline=None)
@given(_runs, _holds, _holds, _holds, _grid)
# a run inside another on the same window, given first: the other holds
# the window open after the one the row before them opened has closed
@example([(25, 1, 1, 3), (5, 0, 1, 30)], 1.0, 0.0, 0.0, (0.0, 0.1))
def test_interleaved_runs_ingest_as_their_rows_in_time_order(
        runs, pir_hold, us_hold, ble_hold, grid):
    # runs that overlap in time, each after the rows before all of them
    start, tick = grid
    by_piece, by_row = _twins(pir_hold, us_hold, ble_hold)
    pieces, rows = [], []
    for gap, index, period, count in runs:
        source, payload = _RUN_PAYLOADS[index]
        ks = range(gap, gap + count * period, period)
        pieces += _pieces(by_piece, start, tick, ks, source, payload)
        rows += [SensorEvent(start + j * tick, source, payload) for j in ks]
    for f in (by_piece, by_row):
        f.ingest(SensorEvent(start, "pir_1", PirMotion()))
        f.snapshot(start)
    _same_as_rows(by_piece, by_row, pieces, rows, True)
    with pytest.raises(EventOrderError):
        by_piece.ingest_window(start - tick, start - tick, "pir_1", PirMotion())


def test_a_run_holds_open_while_each_row_is_within_the_hold_before_it():
    f = OccupancyFusion(default_room(), FusionParams(pir_hold=0.3, us_hold=0.0))
    pir = f.hold("pir_1", PirMotion())
    assert window_end(0.0, 0.1, range(0, 50), pir) == 49
    assert window_end(0.0, 0.1, range(0, 50, 2), pir) == 48
    # 0.1 * 3 rounds up past 0.3: the third tick is not before 0.3
    assert window_end(0.0, 0.1, range(0, 50, 3), pir) == 0
    # on an epoch grid, a hold half an ulp of the clock longer than the
    # tick: some tick gaps round under it and some do not
    epoch = 1_700_000_000.0
    hold = 0.1 + 0.5 * math.ulp(epoch)
    assert window_end(epoch, 0.1, range(0, 200), hold) == 1
    assert window_end(epoch, 0.1, range(2, 200), hold) == 3
    us = f.hold("us_desk_2", UsPresence(1.2))
    assert window_end(0.0, 0.1, range(0, 2), us) == 0       # a zero hold
    # an out-of-range return holds no window: its rows make one piece
    out = f.hold("us_desk_2", UsPresence(2.5))
    assert window_end(0.0, 100.0, range(0, 9), out) == 8
    assert f.hold("us_nowhere", UsPresence(1.2)) is None
    assert f.hold("kill_switch", ManualOff()) is None


_TEXT_STARTS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0, exclude_max=True),
    st.integers(0, 2 ** 48).map(float),                         # whole
    st.integers(0, 2 ** 48 * 10).map(lambda m: m / 10),         # whole tenths
    st.floats(10.0, 2.0 ** 48),                                 # off tenths
    st.floats(2.0 ** 48 - 1e4, 2.0 ** 48 + 1e4),
    st.floats(-2.0 ** 48, 0.0),
)
_TEXT_TICKS = st.one_of(st.sampled_from([0.1, 0.2, 0.25, 0.5, 1.0]),
                        st.floats(0.0, 1.0, exclude_min=True))
_TEXT_KS = st.one_of(
    st.builds(lambda first, step, n: range(first, first + n * step, step),
              st.integers(0, 10 ** 7), st.integers(1, 15), st.integers(1, 300)),
    st.just(range(0)))


@settings(max_examples=500, deadline=None)
@given(_TEXT_STARTS, _TEXT_TICKS, _TEXT_KS)
# a tenths grid on which some sums round away from the decimal's float
@example(25576867259.2, 0.1, range(751984, 752084, 1))
# whole seconds, and whole seconds whose leading digits change mid-range
@example(1614589200.0, 1.0, range(0, 300, 7))
@example(9900.0, 1.0, range(0, 300, 1))
# tenths just under and at 10 s
@example(9.5, 0.1, range(0, 20, 1))
def test_tick_time_texts_are_the_repr_of_each_time(start, tick, ks):
    assert tick_texts(start, tick, ks) == [repr(start + k * tick) for k in ks]


def test_event_runs_read_as_their_rows():
    runs = EventRuns(10.0, 0.5)
    runs.add(0, 1, 3, "us_desk_2", UsPresence(1.2))
    runs.add(3, 1, 1, "us_desk_2", UsPresence(1.2))       # joins the run
    runs.add(5, 1, 1, "pir_1", PirMotion())
    runs.add(7, 1, 1, "pir_1", PirMotion())               # a period of 2
    runs.extend([SensorEvent(13.9, "pir_1", PirMotion())])  # off the grid
    runs.add(9, 1, 1, "pir_1", PirMotion())               # continues its run
    rows = [ev(10.0 + 0.5 * k, "us_desk_2", UsPresence(1.2)) for k in range(4)] + [
        ev(12.5, "pir_1", PirMotion()), ev(13.5, "pir_1", PirMotion()),
        ev(13.9, "pir_1", PirMotion()), ev(14.5, "pir_1", PirMotion())]
    assert len(runs) == len(rows) == 8
    assert [e if e.__class__ is SensorEvent else e[:3] for e in runs.entries] == [
        [0, 1, 4], [5, 2, 3], rows[6]]
    assert runs == rows and list(runs) == rows and runs[5] == rows[5]
    assert EventRuns.of(rows[::-1], 10.0, 0.5) == rows
    assert EventRuns.of(rows, 10.0, 0.5) == runs


def test_event_runs_hold_a_run_per_lane_and_read_in_sort_order():
    # two beacons heard by one receiver on each tick: two lanes, each a run
    lanes = EventRuns(0.0, 1.0)
    for k in range(3):
        lanes.add(k, 1, 1, "ble_door", BleAdvert("b", -70.0))
        lanes.add(k, 1, 1, "ble_door", BleAdvert("a", -60.0))
        lanes.add(k, 1, 1, "us_desk_2", UsPresence(1.2))
    assert [e[:3] + e[5:] for e in lanes.entries] == [
        [0, 1, 3, 0], [0, 1, 3, 1], [0, 1, 3, 0]]
    assert [(e.timestamp, e.source, getattr(e.payload, "beacon_id", ""))
            for e in lanes] == [(float(k), *row) for k in range(3) for row in (
                ("ble_door", "b"), ("ble_door", "a"), ("us_desk_2", ""))]
    # rows added before the last entry's first row: the entries sort again
    late = EventRuns(0.0, 1.0)
    late.extend([ev(5.0, "pir_1", PirMotion()), ev(6.0, "pir_1", PirMotion())])
    late.add(2, 2, 3, "pir_2", PirMotion())
    late.extend([ev(4.5, "us_desk_2", UsPresence(1.2))])
    assert list(late) == sort_events([
        ev(5.0, "pir_1", PirMotion()), ev(6.0, "pir_1", PirMotion()),
        *(ev(t, "pir_2", PirMotion()) for t in (2.0, 4.0, 6.0)),
        ev(4.5, "us_desk_2", UsPresence(1.2))])


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


def plain_event_log(events) -> str:
    """The event log written one row at a time, with nothing cached."""
    return "".join([EVENT_LOG_HEADER + "\n"] +
                   [",".join(event_to_row(e)) + "\n" for e in events])


def test_event_log_tails_follow_the_payload_object_not_its_value():
    # equal payloads in distinct objects, of which a signed zero equals
    # its positive twin yet writes differently
    events = [ev(0.1 * i, source, payload) for i, (source, payload) in
              enumerate([("us_desk_1", UsPresence(1.5)),
                         ("us_desk_1", UsPresence(1.5)),
                         ("us_desk_1", UsPresence(0.0)),
                         ("us_desk_1", UsPresence(-0.0)),
                         ("ble_door", BleAdvert("badge-7", 0.0)),
                         ("ble_door", BleAdvert("badge-7", -0.0)),
                         ("us_desk_2", UsPresence(0.0)),
                         ("pir_1", PirMotion()),
                         ("pir_2", PirMotion())])]
    buf = io.StringIO()
    write_event_log(events, buf)
    assert buf.getvalue() == plain_event_log(events)
    assert "0.1,us_desk_1,US,1.5," in buf.getvalue()
    assert "us_desk_1,US,-0.0," in buf.getvalue()


def test_event_log_from_a_generator_that_frees_each_payload():
    # each payload is gone once its row is written, so the next one may
    # take its id: a tail found by id alone would repeat a stale distance
    def events():
        for i in range(2000):
            source = ("us_desk_1", "us_desk_2")[i % 2]
            yield ev(0.1 * i, source, UsPresence(distance=float(i % 7)))

    buf = io.StringIO()
    write_event_log(events(), buf)
    assert buf.getvalue() == plain_event_log(events())


def test_read_event_log_shares_payloads_of_repeated_tails():
    events = [ev(0.1 * i, "us_desk_1", UsPresence(1.25)) for i in range(3)]
    read = read_event_log(io.StringIO(plain_event_log(events)))
    assert read == events
    assert read[0].payload is read[1].payload is read[2].payload


def test_read_event_log_checks_the_timestamp_of_a_cached_tail():
    rows = "".join(f"{0.1 * i!r},us_desk_1,US,1.25,\n" for i in range(5))
    text = EVENT_LOG_HEADER + "\n" + rows + "0.6x,us_desk_1,US,1.25,\n"
    with pytest.raises(ValueError, match="line 7: bad timestamp '0.6x'"):
        read_event_log(io.StringIO(text))


def test_read_event_log_names_the_bad_line():
    text = EVENT_LOG_HEADER + "\n0.1,pir_1,PIR,,\nnot-a-time,pir_1,PIR,,\n"
    with pytest.raises(ValueError, match="line 3"):
        read_event_log(io.StringIO(text))
    with pytest.raises(ValueError, match="line 1"):
        read_event_log(io.StringIO("bogus\n"))
    with pytest.raises(ValueError, match="line 2"):
        read_event_log(io.StringIO(EVENT_LOG_HEADER + "\n0.1,pir_1,LIDAR,,\n"))
    for row, fields in (("0.2", 1), ("0.2,pir_1,PIR,", 4), ("0.2,pir_1,PIR,,,", 6)):
        with pytest.raises(ValueError,
                           match=f"line 3: expected 5 fields, got {fields}$"):
            read_event_log(io.StringIO(
                EVENT_LOG_HEADER + "\n0.1,pir_1,PIR,,\n" + row + "\n"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_event_log_rejects_non_finite_timestamps(bad):
    text = EVENT_LOG_HEADER + f"\n0.1,pir_1,PIR,,\n{bad},pir_1,PIR,,\n"
    with pytest.raises(ValueError, match=f"line 3: bad timestamp '{bad}'"):
        read_event_log(io.StringIO(text))
