"""Acceptance gate: the nine release criteria, one test and one line each.

Every test re-derives its expectations from first principles (waypoint
geometry, closed-form physics, command-log structure) rather than from
recorded simulator output, and finishes by printing ``criterion N: PASS``.
A failed criterion shows up as a plain pytest failure instead.
"""

import dataclasses
import io
import math
import random
import time
from datetime import datetime, timezone
from typing import List, Tuple

import numpy as np
import pytest

from uvcguard.controller import CommandReason, LampAction, write_command_log
from uvcguard.dosimetry import (DoseGrid, accumulate_dose, coverage_report,
                                grid_irradiance, inactivation_fraction,
                                irradiance_at_point)
from uvcguard.fusion import write_event_log
from uvcguard.room import LampSpec, LampTier, Point3, default_room
from uvcguard.scenarios import (midnight_scenario, random_walk_scenario,
                                reference_scenarios)
from uvcguard.simulator import (NoiseParams, Scenario, simulate,
                                write_dose_grid_csv, write_probe_log)

CEILING_IDS = ("ceiling_1", "ceiling_2")
DESK_LAMP_ID = "desk_2"


def report(criterion: int, label: str) -> None:
    print(f"criterion {criterion} ({label}): PASS")


def timed_simulate(scenario: Scenario):
    started = time.monotonic()
    result = simulate(scenario)
    return result, time.monotonic() - started


def presence_windows(occupant, duration: float) -> List[Tuple[float, float]]:
    """Room-presence windows in scenario-relative seconds.

    Derived purely from the waypoint geometry: every bundled occupant
    crosses the box boundary through the door wall at y = 0, so each
    inside-flag flip is located by interpolating that plane crossing.
    """
    wps = occupant.waypoints
    entered = wps[0].t if wps[0].inside_room else None
    windows = []
    for a, b in zip(wps, wps[1:]):
        if a.inside_room == b.inside_room:
            continue
        frac = (0.0 - a.position.y) / (b.position.y - a.position.y)
        crossing = a.t + frac * (b.t - a.t)
        if b.inside_room:
            entered = crossing
        else:
            windows.append((entered, crossing))
            entered = None
    if entered is not None:
        windows.append((entered, duration))
    return windows


def vacancy_episodes(windows, duration: float) -> List[Tuple[float, float]]:
    episodes, cursor = [], 0.0
    for start, end in windows:
        if start > cursor:
            episodes.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < duration:
        episodes.append((cursor, duration))
    return episodes


def rel_commands(result, scenario):
    return [(c.timestamp - scenario.start_time, c.lamp_id, c.action, c.reason)
            for c in result.timeline.commands]


@pytest.fixture(scope="module")
def run_b():
    return timed_simulate(reference_scenarios()["B"])


@pytest.fixture(scope="module")
def run_c():
    return timed_simulate(reference_scenarios()["C"])


@pytest.fixture(scope="module")
def run_d():
    return timed_simulate(reference_scenarios()["D"])


@pytest.fixture(scope="module")
def run_midnight():
    return timed_simulate(midnight_scenario())


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_floor_grid_reaches_target_within_300s():
    room = default_room()
    lamps = [l for l in room.lamps if l.emits_downward]
    grid = DoseGrid.for_room(room)
    started = time.monotonic()
    cov = coverage_report(grid, lamps, cycle_seconds=600.0)
    wall = time.monotonic() - started
    assert wall < 1.0
    assert cov.covered_fraction == 1.0
    assert cov.max_time_to_target <= 300.0
    assert 0.0 < cov.min_time_to_target <= cov.max_time_to_target
    assert grid.rows * grid.cols == 48
    report(1, f"floor grid time-to-target max "
              f"{cov.max_time_to_target:.1f} s <= 300 s")


def test_criterion_2_log_reduction_identities():
    assert inactivation_fraction(27.0, 27.0) == pytest.approx(0.90, abs=1e-12)
    assert inactivation_fraction(54.0, 27.0) == pytest.approx(0.99, abs=1e-12)
    # two sequential one-log cycles compose: 0.99 = 0.9 + 0.9 * (1 - 0.9)
    composed = 0.90 + 0.90 * (1.0 - 0.90)
    assert inactivation_fraction(54.0, 27.0) == pytest.approx(composed, abs=1e-12)
    report(2, "one-log and two-log reduction identities at 1e-12")


def test_criterion_3_occupied_room_sees_no_disinfection_exposure(run_b):
    result, wall = run_b
    assert wall < 5.0
    timeline = result.timeline
    assert set(timeline.lamp_intervals) <= {"upper_room"}
    for values in timeline.probe_samples:
        assert all(v == 0.0 for v in values)
    assert result.safety.verdict == "pass"
    assert result.safety.violation_count == 0
    assert result.safety.total_occupant_dose == {"worker_2": 0.0}
    report(3, "occupied room: zero lamp time, zero probe irradiance")


def test_criterion_4_departure_cycle_then_approach_interrupt(run_c):
    result, wall = run_c
    assert wall < 5.0
    scenario = reference_scenarios()["C"]
    windows = presence_windows(scenario.occupants[0], scenario.duration)
    departure = windows[0][1]
    reentry = windows[1][0]
    commands = rel_commands(result, scenario)

    starts = [(t, lamp) for t, lamp, action, reason in commands
              if action is LampAction.TURN_ON
              and reason is CommandReason.CYCLE_START]
    for lamp_id in CEILING_IDS + (DESK_LAMP_ID,):
        lamp_starts = [t for t, lamp in starts if lamp == lamp_id]
        assert len(lamp_starts) == 1, f"{lamp_id}: exactly one cycle"
        assert lamp_starts[0] >= departure + scenario.policy.vacancy_grace

    approach_offs = [(t, lamp) for t, lamp, action, reason in commands
                     if reason is CommandReason.APPROACH_INTERRUPT]
    assert sorted(lamp for _, lamp in approach_offs) == list(CEILING_IDS)
    margin = reentry - max(t for t, _ in approach_offs)
    assert margin > 0.0, "interrupt must precede the door crossing"
    report(4, f"one post-departure cycle; approach interrupt "
              f"{margin:.2f} s before entry")


def test_criterion_5_reentry_cutoff_within_deadline_then_gated_restart(run_d):
    result, wall = run_d
    assert wall < 5.0
    scenario = reference_scenarios()["D"]
    deadline = scenario.policy.reaction_deadline
    tick = scenario.tick
    windows = presence_windows(scenario.occupants[0], scenario.duration)
    commands = rel_commands(result, scenario)

    interrupts = [(t, lamp) for t, lamp, action, reason in commands
                  if reason is CommandReason.OCCUPANCY_INTERRUPT]
    assert sorted(lamp for _, lamp in interrupts) == \
        sorted(CEILING_IDS + (DESK_LAMP_ID,)), "the mid-cycle entry interrupts"
    for t, lamp in interrupts:
        entry = max(a for a, b in windows if a <= t + tick)
        first_seen_tick = math.ceil(entry / tick - 1e-9) * tick
        assert t >= entry - 1e-9
        assert t <= first_seen_tick + deadline + 1e-9, \
            f"{lamp} off {t - first_seen_tick:.3f} s after first occupied tick"

    restarts = [t for t, lamp, action, reason in commands
                if action is LampAction.TURN_ON
                and lamp in CEILING_IDS + (DESK_LAMP_ID,)]
    for t in restarts:
        assert not any(a < t < b for a, b in windows), \
            f"cycle start at {t:.1f} s inside a presence window"
    interrupted_exit = next(b for a, b in windows
                            if a <= interrupts[0][0] + tick)
    assert min(t for t in restarts if t > interrupts[0][0]) > interrupted_exit
    report(5, "re-entry cut lamps within the reaction deadline; "
              "restarts waited for vacancy")


def test_criterion_6_randomized_walks_see_no_exposure():
    started = time.monotonic()
    total_violations = 0
    worst_dose = 0.0
    for seed in range(1000):
        result = simulate(random_walk_scenario(seed))
        total_violations += result.safety.violation_count
        worst_dose = max(worst_dose,
                         max(result.safety.total_occupant_dose.values(),
                             default=0.0))
    wall = time.monotonic() - started
    assert total_violations == 0
    assert worst_dose == 0.0
    assert wall < 120.0
    report(6, f"1000 randomized walks, zero violations, "
              f"zero dose in {wall:.0f} s")


def test_criterion_7_same_seed_runs_are_byte_identical():
    noisy = dataclasses.replace(
        random_walk_scenario(11),
        noise=NoiseParams(rssi_sigma_db=2.0, pir_miss_prob=0.05,
                          false_positive_rate_per_hour=50.0))

    def render(result) -> bytes:
        out = io.StringIO()
        write_event_log(result.timeline.events, out)
        write_command_log(result.timeline.commands, out)
        write_probe_log(result.timeline, out)
        write_dose_grid_csv(result.dose_grid, out)
        return out.getvalue().encode()

    assert render(simulate(noisy)) == render(simulate(noisy))
    report(7, "noisy scenario rendered byte-identical across reruns")


def test_criterion_8_closed_form_dose_matches_fine_quadrature():
    rng = random.Random(20240814)
    room = default_room()
    step = 0.001
    for _ in range(10):
        lamps = []
        intervals = {}
        for i in range(rng.randint(1, 3)):
            lamps.append(LampSpec(
                id=f"lamp_{i}", tier=LampTier.CEILING,
                position=Point3(rng.uniform(0.3, room.width - 0.3),
                                rng.uniform(0.3, room.length - 0.3),
                                rng.uniform(2.2, 2.9)),
                electrical_power=rng.uniform(10.0, 60.0)))
            spans, cursor = [], 0
            for _ in range(rng.randint(1, 2)):
                start = cursor + rng.randint(0, 4000)
                end = start + rng.randint(500, 6000)
                spans.append((start * step, end * step))
                cursor = end + rng.randint(1, 1000)
            intervals[f"lamp_{i}"] = spans

        grid = DoseGrid.for_room(room, plane_height=rng.uniform(0.0, 1.0))
        closed = accumulate_dose(grid, lamps, intervals).accumulated_dose

        fields = {l.id: grid_irradiance(grid, [l]) for l in lamps}
        quadrature = np.zeros_like(closed)
        horizon = max(e for spans in intervals.values() for _, e in spans)
        for k in range(int(round(horizon / step))):
            midpoint = (k + 0.5) * step
            for lamp_id, spans in intervals.items():
                if any(s <= midpoint < e for s, e in spans):
                    quadrature = quadrature + fields[lamp_id] * step
        assert np.allclose(quadrature, closed, rtol=1e-6, atol=1e-12)

    lamp = LampSpec(id="axis", tier=LampTier.CEILING,
                    position=Point3(2.0, 2.0, 3.0), electrical_power=36.0)
    near = irradiance_at_point([lamp], Point3(2.0, 2.0, 3.0 - 0.7))
    far = irradiance_at_point([lamp], Point3(2.0, 2.0, 3.0 - 1.4))
    assert near / far == pytest.approx(4.0, rel=1e-12)
    report(8, "10 random configurations match 1 ms quadrature at 1e-6; "
              "inverse square exact")


def test_criterion_9_cycle_budgets_and_midnight_discipline(
        run_c, run_d, run_midnight):
    for name, (result, _) in (("C", run_c), ("D", run_d)):
        scenario = reference_scenarios()[name]
        windows = presence_windows(scenario.occupants[0], scenario.duration)
        episodes = vacancy_episodes(windows, scenario.duration)
        budgets = {lamp: scenario.policy.ceiling_cycle for lamp in CEILING_IDS}
        budgets[DESK_LAMP_ID] = scenario.policy.desk_cycle
        for lamp_id, budget in budgets.items():
            spans = [(s - scenario.start_time, e - scenario.start_time)
                     for s, e in result.timeline.lamp_intervals.get(lamp_id, [])]
            for ep_start, ep_end in episodes:
                on_time = sum(max(0.0, min(e, ep_end) - max(s, ep_start))
                              for s, e in spans)
                assert on_time <= budget + 1e-6, \
                    f"{name}/{lamp_id}: {on_time:.1f} s in one vacancy episode"

    result, _ = run_midnight
    scenario = midnight_scenario()
    commands = rel_commands(result, scenario)
    midnight_starts = [(t, lamp) for t, lamp, action, reason in commands
                       if reason is CommandReason.MIDNIGHT_CYCLE]
    by_date = {}
    for t, lamp in midnight_starts:
        stamp = datetime.fromtimestamp(scenario.start_time + t,
                                       tz=timezone.utc).date()
        by_date.setdefault(stamp, set()).add(t)
    assert len(by_date) == 2, "one midnight per calendar date in a 26 h run"
    for stamp, times in by_date.items():
        assert len(times) == 1, f"{stamp}: midnight cycle fired twice"

    # after each midnight cycle winds down the room must stay dark until
    # the next detectable occupancy (or the end of the run)
    first_start = min(t for t, _ in midnight_starts)
    second_start = max(t for t, _ in midnight_starts)
    batch_end = scenario.policy.ceiling_cycle
    windows = presence_windows(scenario.occupants[0], scenario.duration)
    first_seen_tick = math.ceil(windows[0][0] / scenario.tick) * scenario.tick
    times = sorted(t for t, _, _, _ in commands)
    after_first = [t for t in times if t > first_start + batch_end + 1e-9]
    assert after_first and after_first[0] >= first_seen_tick - 1e-9
    assert not [t for t in times if t > second_start + batch_end + 1e-9]
    report(9, "per-episode lamp budgets held; midnight ran once per date "
              "then stayed dark")
