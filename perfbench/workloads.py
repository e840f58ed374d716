"""The three workloads: what a unit is, how it is timed, and how it is checked.

A *unit* is one run as a user sees it. On ``office_day`` and
``night_vacant`` it is one bundled scenario run through the CLI the way a
user does it: ``simulate`` writing all six artifacts, then ``replay
--expect`` on the run's own ``events.csv``. On ``fuzz_gate`` it is one
random walk built, simulated and judged as acceptance criterion 6 judges it
(zero violations, zero occupant dose), with no artifacts written.

Only the unit itself sits inside the timer. Everything after it (digests,
counts, the audit cross-check, the dose oracle) runs between timed units.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import uvcguard.cli as cli
import uvcguard.scenarios as scenarios
import uvcguard.simulator as simulator
from uvcguard.controller import LampAction, read_command_log, write_command_log
from uvcguard.dosimetry import DoseGrid, accumulate_dose

ARTIFACTS = ("scenario.json", "events.csv", "commands.csv", "probes.csv",
             "dose_grid.csv", "safety.json")
DIGESTED = ("events.csv", "commands.csv", "probes.csv")
FUZZ_BLOCK = 200          # leaves 10 walks beyond the 95th percentile
DOSE_REL_TOL = 1e-9


@dataclass
class Sample:
    """One timed unit run and what was learned from it afterwards."""

    unit: str
    latency_s: float
    simulate_s: float
    counts: Dict[str, object] = field(default_factory=dict)
    fingerprint: str = ""
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    trace: Optional[tuple] = None     # (table, counters) of a traced run
    result: object = None             # a walk's result, dropped by inspect


def lamp_intervals(commands, scenario) -> Dict[str, List[Tuple[float, float]]]:
    """Lamp-on intervals rebuilt from the command log alone, in seconds
    from scenario start on the tick grid. Differences of epoch timestamps
    carry up to 2.4e-7 s of rounding per endpoint, which exceeds the dose
    tolerance on intervals of a few seconds; tick indices carry none."""
    def rel(t: float) -> float:
        return round((t - scenario.start_time) / scenario.tick) * scenario.tick

    on_since: Dict[str, float] = {}
    spans: Dict[str, List[Tuple[float, float]]] = {}
    for cmd in commands:
        if cmd.action is LampAction.TURN_ON:
            on_since.setdefault(cmd.lamp_id, rel(cmd.timestamp))
        elif cmd.lamp_id in on_since:
            spans.setdefault(cmd.lamp_id, []).append(
                (on_since.pop(cmd.lamp_id), rel(cmd.timestamp)))
    end = int(round(scenario.duration / scenario.tick)) * scenario.tick
    for lamp_id, since in sorted(on_since.items()):
        spans.setdefault(lamp_id, []).append((since, end))
    return spans


def command_counts(commands, scenario) -> Dict[str, object]:
    spans = lamp_intervals(commands, scenario)
    return {
        "commands": dict(sorted(Counter(c.reason.value for c in commands).items())),
        "useful_steps": len({c.timestamp for c in commands}),
        "lamp_on_s": {lamp: round(sum(e - s for s, e in spans[lamp]), 6)
                      for lamp in sorted(spans)},
    }


def audit_problems(scenario, commands, violation_count: int,
                   occupant_dose: Dict[str, float],
                   dose_cells: Sequence[float]) -> List[str]:
    """Cross-check a run's audit and dose grid against independent paths."""
    problems = []
    timeline = simulator.Timeline(
        scenario_name=scenario.name, start_time=scenario.start_time,
        end_time=scenario.end_time, tick=scenario.tick, probe_names=(),
        commands=list(commands))
    audit = simulator.safety_check(timeline, scenario)
    if audit.violation_count != violation_count:
        problems.append(f"safety_check found {audit.violation_count} "
                        f"violations, the engine {violation_count}")
    if audit.total_occupant_dose != occupant_dose:
        problems.append("safety_check occupant dose differs from the engine's")
    room = scenario.room
    expected = accumulate_dose(DoseGrid.for_room(room), room.lamps,
                               lamp_intervals(commands, scenario))
    flat = [float(v) for v in expected.accumulated_dose.ravel()]
    if len(flat) != len(dose_cells) or not all(
            math.isclose(a, b, rel_tol=DOSE_REL_TOL, abs_tol=1e-12)
            for a, b in zip(dose_cells, flat)):
        problems.append("dose grid differs from accumulate_dose over the "
                        f"lamp intervals beyond rel {DOSE_REL_TOL}")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# office_day and night_vacant: bundled scenarios through the CLI
# ---------------------------------------------------------------------------

class ScenarioPipeline:
    """simulate with all artifacts, then replay --expect, per scenario."""

    def __init__(self, name: str, units: Tuple[str, ...], largest: str,
                 workdir: Path, reference: Optional[dict]):
        self.name = name
        self.units = units
        self.largest = largest
        self.workdir = workdir
        self.reference = reference

    @staticmethod
    def build(unit: str):
        if unit == "midnight":
            return scenarios.midnight_scenario()
        return scenarios.reference_scenarios()[unit]

    def run(self, unit: str) -> Sample:
        outdir = self.workdir / unit
        sink = io.StringIO()
        replay_argv = ["replay", "--scenario", unit,
                       "--events", str(outdir / "events.csv"),
                       "--expect", str(outdir / "commands.csv"),
                       "--out", str(outdir / "replay")]
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            simulate_rc = cli.main(["simulate", "--scenario", unit,
                                    "--out", str(self.workdir)])
            replay_rc = cli.main(replay_argv)
        latency = time.perf_counter() - start
        manifest = json.loads((outdir / "manifest.json").read_text())
        sample = Sample(unit=unit, latency_s=latency,
                        simulate_s=manifest["elapsed_s"])
        if simulate_rc != cli.EXIT_OK:
            sample.problems.append(f"simulate exited {simulate_rc}")
        if replay_rc != cli.EXIT_OK:
            sample.problems.append(f"replay --expect exited {replay_rc}")
        return sample

    def inspect(self, sample: Sample, full: bool) -> None:
        outdir = self.workdir / sample.unit
        blobs = {name: (outdir / name).read_bytes() for name in ARTIFACTS}
        sample.digests = {name: sha256(blobs[name]) for name in DIGESTED}
        safety = json.loads(blobs["safety.json"])
        commands = read_command_log(io.StringIO(blobs["commands.csv"].decode()))
        scenario = self.build(sample.unit)
        sample.counts = {
            "ticks": blobs["probes.csv"].count(b"\n") - 1,
            "events": blobs["events.csv"].count(b"\n") - 1,
            **command_counts(commands, scenario),
            "violations": safety["violation_count"],
            "artifact_bytes": sum(len(blob) for blob in blobs.values()),
        }
        sample.fingerprint = sha256(json.dumps(
            [{name: sha256(blob) for name, blob in blobs.items()},
             sample.counts], sort_keys=True).encode())
        if safety["verdict"] != "pass":
            sample.problems.append(f"audit verdict {safety['verdict']}")
        if self.reference is not None:
            ref = self.reference["scenarios"][sample.unit]["sha256"]
            for name in DIGESTED:
                if sample.digests[name] not in ref[name]:
                    sample.problems.append(
                        f"{sample.unit}: {name} differs from the reference")
        if full:
            dose_cells = [float(line.rsplit(",", 1)[1]) for line in
                          blobs["dose_grid.csv"].decode().splitlines()[1:]]
            sample.problems += audit_problems(
                scenario, commands, safety["violation_count"],
                safety["total_occupant_dose_j_m2"], dose_cells)


# ---------------------------------------------------------------------------
# fuzz_gate: acceptance criterion 6 over a block of walk seeds
# ---------------------------------------------------------------------------

class FuzzGate:
    """Build, simulate and judge one random walk per unit."""

    def __init__(self, base: int):
        self.name = "fuzz_gate"
        self.base = base
        self.units = tuple(str(seed) for seed in range(base, base + FUZZ_BLOCK))

    @staticmethod
    def build(unit: str):
        return scenarios.random_walk_scenario(int(unit))

    @property
    def largest(self) -> str:
        """The walk with the most occupant-ticks; its result is the largest."""
        def size(unit: str) -> float:
            sc = self.build(unit)
            return sc.duration * len(sc.occupants)
        return max(self.units, key=size)

    def run(self, unit: str) -> Sample:
        start = time.perf_counter()
        scenario = self.build(unit)
        sim_start = time.perf_counter()
        result = simulator.simulate(scenario)
        sim_end = time.perf_counter()
        safety = result.safety
        passed = safety.violation_count == 0 and \
            max(safety.total_occupant_dose.values(), default=0.0) == 0.0
        end = time.perf_counter()
        sample = Sample(unit=unit, latency_s=end - start,
                        simulate_s=sim_end - sim_start)
        if not passed:
            sample.problems.append(
                f"walk {unit}: {safety.violation_count} violations, "
                f"dose {safety.total_occupant_dose}")
        sample.result = result
        return sample

    def inspect(self, sample: Sample, full: bool) -> None:
        result, sample.result = sample.result, None
        timeline = result.timeline
        scenario = result.scenario
        log = io.StringIO()
        write_command_log(timeline.commands, log)
        sample.counts = {
            "ticks": len(timeline.probe_samples),
            "events": len(timeline.events),
            **command_counts(timeline.commands, scenario),
            "violations": result.safety.violation_count,
            "artifact_bytes": 0,
        }
        sample.fingerprint = sha256(json.dumps(
            [log.getvalue(), sample.counts,
             sorted(result.safety.total_occupant_dose.items())]).encode())
        if full:
            sample.problems += audit_problems(
                scenario, timeline.commands, result.safety.violation_count,
                result.safety.total_occupant_dose,
                [float(v) for v in result.dose_grid.accumulated_dose.ravel()])


def make(name: str, workdir: Path, fuzz_base: int, reference: Optional[dict]):
    """``reference`` is None while a reference is being recorded."""
    if name == "office_day":
        # B holds the most events, so its result is the largest of A-D
        return ScenarioPipeline(name, ("A", "B", "C", "D"), "B", workdir,
                                reference)
    if name == "night_vacant":
        return ScenarioPipeline(name, ("midnight",), "midnight", workdir,
                                reference)
    if name == "fuzz_gate":
        return FuzzGate(fuzz_base)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("office_day", "night_vacant", "fuzz_gate")
