"""Call tracing installed from outside the program.

The tracer replaces public functions of ``uvcguard`` with timing wrappers at
the names their callers look up: the engine and the CLI import ``step``,
``simulate`` and the writers by name, so each importing module gets its own
patch. Per-tick calls are aggregated in place as
``(name, parent) -> [calls, total_s, child_s]``; only coarse boundaries (a
pass, ``simulate``, the writers, ``replay``) keep whole spans.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import uvcguard.cli as cli
import uvcguard.fusion as fusion
import uvcguard.scenarios as scenarios
import uvcguard.simulator as simulator

ROOT = "<root>"
SIMULATE = "simulator.simulate"

# (owner, attribute, layer name, keep whole spans)
PATCH_POINTS = (
    (simulator, "validate_scenario", "simulator.validate_scenario", False),
    (simulator, "pir_model", "simulator.pir_model", False),
    (simulator, "us_model", "simulator.us_model", False),
    (simulator, "ble_model", "simulator.ble_model", False),
    (simulator, "step", "controller.step", False),
    (simulator, "irradiance_at_point", "dosimetry.irradiance_at_point", False),
    (simulator, "simulate", SIMULATE, True),
    (simulator, "safety_check", "simulator.safety_check", False),
    (fusion.OccupancyFusion, "ingest", "fusion.ingest", False),
    (fusion.OccupancyFusion, "snapshot", "fusion.snapshot", False),
    (scenarios, "random_walk_scenario", "scenarios.build", False),
    (cli, "simulate", SIMULATE, True),
    (cli, "step", "controller.step", False),
    (cli, "cmd_replay", "cli.replay", True),
    (cli, "read_event_log", "fusion.read_event_log", False),
    (cli, "write_event_log", "fusion.write_event_log", True),
    (cli, "write_command_log", "controller.write_command_log", True),
    (cli, "write_probe_log", "simulator.write_probe_log", True),
    (cli, "write_dose_grid_csv", "simulator.write_dose_grid_csv", True),
    (cli, "reference_scenarios", "scenarios.build", False),
    (cli, "midnight_scenario", "scenarios.build", False),
    (cli, "random_walk_scenario", "scenarios.build", False),
)


def step_inputs(snapshot) -> tuple:
    """The snapshot fields ``controller.step`` reads."""
    return (snapshot.room_occupied, snapshot.approach_detected,
            snapshot.manual_kill, snapshot.motion_active,
            tuple(sorted(snapshot.desk_zone_occupied.items())))


class Tracer:
    def __init__(self) -> None:
        # frames are [name, child_s, id of the innermost open span]
        self._stack: List[list] = [[ROOT, 0.0, None]]
        self._saved: List[Tuple[object, str, object]] = []
        self._next_span = 0
        self._last_inputs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.table: Dict[Tuple[str, str], list] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[tuple] = []    # (id, parent id, name, start, end)

    def install(self) -> None:
        hooks = {"fusion.snapshot": self._on_snapshot,
                 "controller.step": self._on_step,
                 SIMULATE: self._on_simulate}
        for owner, attr, name, keep_span in PATCH_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep_span,
                                            hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> Tuple[Dict[Tuple[str, str], list], Dict[str, int]]:
        """Return the aggregate table and counters, and start new ones."""
        table, counts = self.table, self.counts
        self.table, self.counts = {}, {}
        return table, counts

    def span(self, name: str) -> "_Block":
        return _Block(self, name)

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, keep_span: bool) -> list:
        stack = self._stack
        if keep_span:
            span_id = self._next_span
            self._next_span += 1
        else:
            span_id = stack[-1][2]
        frame = [name, 0.0, span_id]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, keep_span: bool, start: float,
              elapsed: float) -> str:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += elapsed
        key = (frame[0], parent[0])
        row = self.table.get(key)
        if row is None:
            self.table[key] = [1, elapsed, frame[1]]
        else:
            row[0] += 1
            row[1] += elapsed
            row[2] += frame[1]
        if keep_span:
            self.spans.append((frame[2], parent[2], frame[0],
                               start, start + elapsed))
        return parent[0]

    def _wrap(self, name: str, fn: Callable, keep_span: bool,
              on_return: Optional[Callable]) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._enter(name, keep_span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = self._exit(frame, keep_span, start, clock() - start)
            if on_return is not None:
                on_return(parent, args, result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _on_snapshot(self, parent: str, args, snapshot) -> None:
        if parent != SIMULATE:
            return
        fuser = args[0]
        inputs = step_inputs(snapshot)
        previous = self._last_inputs.get(fuser)
        if previous is not None and previous != inputs:
            self._count("fusion.snapshot.changed")
        self._last_inputs[fuser] = inputs

    def _on_step(self, parent: str, args, result) -> None:
        if parent == SIMULATE and result[1]:
            self._count("controller.step.useful")

    def _on_simulate(self, parent: str, args, result) -> None:
        scenario = args[0]
        timeline = result.timeline
        self._count("simulator.ticks", int(round(scenario.duration / scenario.tick)))
        self._count("simulator.timeline.events", len(timeline.events))
        self._count("simulator.timeline.snapshots",
                    len(getattr(timeline, "snapshots", ())))
        self._count("simulator.timeline.probe_samples",
                    len(timeline.probe_samples))


class _Block:
    """A whole span, and a parent frame, around a block the benchmark runs."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Block":
        self.frame = self.tracer._enter(self.name, True)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._exit(self.frame, True, self.start,
                          time.perf_counter() - self.start)
        return False
