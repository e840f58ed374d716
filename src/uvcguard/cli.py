"""Command line interface.

Subcommands:

* ``simulate``        run one scenario and write its timeline artifacts
* ``dosemap``         planning-mode coverage map for the installed lamps
* ``reference-suite`` run the bundled scenarios plus a randomized batch
* ``validate``        check a room or scenario file and report problems
* ``replay``          re-derive lamp commands from a recorded event log

Exit codes: 0 on success, 1 on input or configuration errors, 2 when a
run completed but the safety audit found violations. Output locations
default to ``./runs``; the ``UVCGUARD_OUT`` environment variable overrides
that default (an explicit ``--out`` always wins).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__
from .controller import step, write_command_log  # perfbench patches cli.step
from .dosimetry import (DEFAULT_TARGET_DOSE, DoseGrid, coverage_report,
                        write_dose_map_csv)
from .fusion import read_event_log, write_event_log
from .room import (LampTier, RoomConfigError, RoomModel, default_room,
                   load_room)
from .scenarios import (load_scenario, midnight_scenario, random_walk_scenario,
                        reference_scenarios, serialize_scenario)
from .simulator import (Scenario, ScenarioError, SimulationResult, replay,
                        simulate, write_dose_grid_csv, write_probe_log)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SAFETY_FAIL = 2

BUILTIN_SCENARIOS = ("A", "B", "C", "D", "midnight")


class InputError(Exception):
    """A problem the user can fix: bad paths, bad files, bad flags."""


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _out_root(explicit: Optional[str]) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("UVCGUARD_OUT", "runs"))


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _load_room_arg(path: Optional[str]) -> RoomModel:
    if path is None:
        return default_room()
    try:
        return load_room(_read_text(path, "room file"))
    except RoomConfigError as exc:
        raise InputError("invalid room file:\n  " +
                         "\n  ".join(exc.errors)) from None


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    """Builtin name or scenario file, with flag overrides applied."""
    name = args.scenario
    room = _load_room_arg(getattr(args, "room", None))
    if name in BUILTIN_SCENARIOS:
        if name == "midnight":
            scenario = midnight_scenario(room)
        else:
            scenario = reference_scenarios(room)[name]
    elif name.startswith("fuzz:"):
        try:
            scenario = random_walk_scenario(int(name.split(":", 1)[1]), room)
        except ValueError:
            raise InputError(f"bad fuzz scenario spec {name!r}; "
                             "expected fuzz:<seed>") from None
    else:
        try:
            scenario = load_scenario(_read_text(name, "scenario file"))
        except ScenarioError as exc:
            raise InputError("invalid scenario file:\n  " +
                             "\n  ".join(exc.errors)) from None
        if getattr(args, "room", None) is not None:
            scenario = dataclasses.replace(scenario, room=room)
    return _apply_overrides(scenario, args)


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    if getattr(args, "seed", None) is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    overrides = {name: getattr(args, name) for name in ("reaction_deadline", "tz_offset")
                 if getattr(args, name, None) is not None}
    if overrides:
        try:
            policy = dataclasses.replace(scenario.policy, **overrides)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        scenario = dataclasses.replace(scenario, policy=policy)
    return scenario


# ---------------------------------------------------------------------------
# manifests and artifacts
# ---------------------------------------------------------------------------

def _write_manifest(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _safety_doc(result: SimulationResult) -> dict:
    safety = result.safety
    return {
        "verdict": safety.verdict,
        "violation_count": safety.violation_count,
        "total_occupant_dose_j_m2": dict(sorted(
            safety.total_occupant_dose.items())),
        "violations": [
            {"timestamp_s": v.timestamp, "occupant_id": v.occupant_id,
             "lamp_id": v.lamp_id, "received_irradiance_w_m2": v.received_irradiance}
            for v in safety.violations
        ],
    }


def _run_and_write(scenario: Scenario, outdir: Path, command: str) -> SimulationResult:
    """Simulate one scenario, writing a manifest before and after the run."""
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest = {
        "tool": "uvcguard",
        "version": __version__,
        "command": command,
        "created_utc": _now_iso(),
        "scenario": scenario.name,
        "seed": scenario.seed,
        "tick_s": scenario.tick,
        "duration_s": scenario.duration,
        "status": "running",
        "outputs": [],
    }
    _write_manifest(manifest_path, manifest)

    started = time.monotonic()
    result = simulate(scenario)
    elapsed = time.monotonic() - started

    outputs = {
        "scenario.json": lambda f: f.write(serialize_scenario(scenario)),
        "events.csv": lambda f: write_event_log(result.timeline.events, f),
        "commands.csv": lambda f: write_command_log(result.timeline.commands, f),
        "probes.csv": lambda f: write_probe_log(result.timeline, f),
        "dose_grid.csv": lambda f: write_dose_grid_csv(result.dose_grid, f),
        "safety.json": lambda f: f.write(
            json.dumps(_safety_doc(result), indent=2) + "\n"),
    }
    for filename, writer in outputs.items():
        with open(outdir / filename, "w") as f:
            writer(f)

    manifest.update({
        "status": "complete",
        "elapsed_s": round(elapsed, 6),
        "outputs": sorted(outputs),
        "event_count": len(result.timeline.events),
        "command_count": len(result.timeline.commands),
        "lamp_on_seconds": {
            lamp: round(sum(e - s for s, e in spans), 6)
            for lamp, spans in sorted(result.timeline.lamp_intervals.items())},
        "safety": {"verdict": result.safety.verdict,
                   "violation_count": result.safety.violation_count},
    })
    _write_manifest(manifest_path, manifest)
    return result


def _print_result(result: SimulationResult, outdir: Path) -> None:
    timeline = result.timeline
    print(f"scenario {timeline.scenario_name}: "
          f"{len(timeline.events)} events, {len(timeline.commands)} commands, "
          f"safety={result.safety.verdict} "
          f"({result.safety.violation_count} violations)")
    print(f"outputs in {outdir}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    outdir = _out_root(args.out) / scenario.name
    result = _run_and_write(scenario, outdir, "simulate")
    _print_result(result, outdir)
    return EXIT_OK if result.safety.passed else EXIT_SAFETY_FAIL


def cmd_dosemap(args: argparse.Namespace) -> int:
    room = _load_room_arg(args.room)
    tiers = {"downward": (LampTier.CEILING, LampTier.DESK),
             "ceiling": (LampTier.CEILING,),
             "desk": (LampTier.DESK,),
             "upper_room": (LampTier.UPPER_ROOM,),
             "all": tuple(LampTier)}[args.tier]
    lamps = [l for l in room.lamps if l.tier in tiers]
    if not lamps:
        raise InputError(f"room has no lamps in tier set {args.tier!r}")
    grid = DoseGrid.for_room(room, plane_height=args.plane_height,
                             target_dose=args.target_dose)
    report = coverage_report(grid, lamps, args.cycle)
    out_path = _out_root(args.out) / "dose_map.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        write_dose_map_csv(report.cells, f)
    print(f"dose map: {grid.rows}x{grid.cols} cells at z={grid.plane_height} m, "
          f"target {report.target_dose} J/m2, cycle {report.cycle_seconds} s")
    print(f"time-to-target: min={report.min_time_to_target:.1f} s, "
          f"mean={report.mean_time_to_target:.1f} s, "
          f"max={report.max_time_to_target:.1f} s, "
          f"covered={report.covered_fraction:.3f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if (args.room is None) == (args.scenario is None):
        raise InputError("validate needs exactly one of --room or --scenario")
    if args.room is not None:
        try:
            room = load_room(_read_text(args.room, "room file"))
        except RoomConfigError as exc:
            print(f"{args.room}: {len(exc.errors)} problem(s)")
            for e in exc.errors:
                print(f"  - {e}")
            return EXIT_INPUT_ERROR
        print(f"{args.room}: ok ({len(room.lamps)} lamps, "
              f"{len(room.sensors)} sensors, {len(room.desk_zones)} zones)")
        return EXIT_OK
    try:
        scenario = load_scenario(_read_text(args.scenario, "scenario file"))
    except ScenarioError as exc:
        print(f"{args.scenario}: {len(exc.errors)} problem(s)")
        for e in exc.errors:
            print(f"  - {e}")
        return EXIT_INPUT_ERROR
    print(f"{args.scenario}: ok (scenario {scenario.name!r}, "
          f"{len(scenario.occupants)} occupants, {scenario.duration} s)")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    try:
        with open(args.events) as f:
            events = read_event_log(f)
    except OSError as exc:
        raise InputError(f"cannot read event log {args.events!r}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"bad event log {args.events!r}: {exc}") from None

    commands = replay(scenario, events)
    out_path = _out_root(args.out) / "replay_commands.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        write_command_log(commands, f)
    print(f"replayed {len(events)} events -> {len(commands)} commands")
    print(f"wrote {out_path}")
    if args.expect:
        expected = _read_text(args.expect, "expected command log")
        actual = out_path.read_text()
        if expected != actual:
            print(f"mismatch against {args.expect}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        print(f"matches {args.expect}")
    return EXIT_OK


def _fuzz_one(seed: int) -> Dict[str, object]:
    result = simulate(random_walk_scenario(seed))
    return {"seed": seed,
            "violations": result.safety.violation_count,
            "max_dose": max(result.safety.total_occupant_dose.values(),
                            default=0.0)}


def cmd_reference_suite(args: argparse.Namespace) -> int:
    root = _out_root(args.out)
    root.mkdir(parents=True, exist_ok=True)
    suite_manifest = {
        "tool": "uvcguard",
        "version": __version__,
        "command": "reference-suite",
        "created_utc": _now_iso(),
        "status": "running",
        "fuzz_runs": args.fuzz,
        "jobs": args.jobs,
    }
    _write_manifest(root / "manifest.json", suite_manifest)
    failures: List[str] = []

    room = _load_room_arg(args.room)
    lamps = [l for l in room.lamps if l.emits_downward]
    grid = DoseGrid.for_room(room)
    report = coverage_report(grid, lamps, args.cycle)
    with open(root / "dose_map.csv", "w") as f:
        write_dose_map_csv(report.cells, f)
    map_ok = report.covered_fraction == 1.0
    print(f"dose map: max time-to-target "
          f"{report.max_time_to_target:.1f} s over cycle {args.cycle:.0f} s, "
          f"covered={report.covered_fraction:.3f}: "
          f"{'ok' if map_ok else 'FAIL'}")
    if not map_ok:
        failures.append("dose map leaves cells uncovered")

    scenarios = dict(reference_scenarios(room))
    scenarios["midnight"] = midnight_scenario(room)
    for name, scenario in scenarios.items():
        scenario = _apply_overrides(scenario, args)
        result = _run_and_write(scenario, root / name, "reference-suite")
        status = result.safety.verdict
        print(f"scenario {name}: {len(result.timeline.commands)} commands, "
              f"safety={status} ({result.safety.violation_count} violations)")
        if not result.safety.passed:
            failures.append(f"scenario {name} failed the safety audit")

    fuzz_rows = []
    if args.fuzz > 0:
        seeds = list(range(args.fuzz_base, args.fuzz_base + args.fuzz))
        if args.jobs > 1:
            import multiprocessing
            with multiprocessing.Pool(args.jobs) as pool:
                fuzz_rows = pool.map(_fuzz_one, seeds)
        else:
            fuzz_rows = [_fuzz_one(seed) for seed in seeds]
        bad = [row for row in fuzz_rows if row["violations"] or row["max_dose"]]
        print(f"fuzz: {len(fuzz_rows)} randomized walks, "
              f"{len(bad)} with violations or exposure: "
              f"{'ok' if not bad else 'FAIL'}")
        with open(root / "fuzz_summary.json", "w") as f:
            json.dump({"runs": len(fuzz_rows),
                       "failing_seeds": [row["seed"] for row in bad],
                       "rows": fuzz_rows}, f, indent=2)
            f.write("\n")
        if bad:
            failures.append(f"{len(bad)} fuzz walks saw exposure")

    suite_manifest.update({
        "status": "complete",
        "failures": failures,
        "verdict": "pass" if not failures else "fail",
    })
    _write_manifest(root / "manifest.json", suite_manifest)
    print(f"suite: {'PASS' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_SAFETY_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvcguard",
        description="Safety-interlocked controller and simulator for "
                    "automated UVC room disinfection.")
    parser.add_argument("--version", action="version",
                        version=f"uvcguard {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scenario_arg: bool = True) -> None:
        if scenario_arg:
            p.add_argument("--scenario", required=True,
                           help="builtin name (A, B, C, D, midnight), "
                                "fuzz:<seed>, or a scenario JSON path")
        p.add_argument("--room", help="room JSON path (default: built-in layout)")
        p.add_argument("--out", help="output directory "
                                     "(default: $UVCGUARD_OUT or ./runs)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--reaction-deadline", type=float,
                       help="override the interlock reaction deadline (s)")
        p.add_argument("--tz-offset", type=float,
                       help="override the local-midnight offset (s)")

    p = sub.add_parser("simulate", help="run one scenario")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dosemap", help="planning-mode coverage map")
    p.add_argument("--room", help="room JSON path (default: built-in layout)")
    p.add_argument("--out", help="output directory "
                                 "(default: $UVCGUARD_OUT or ./runs)")
    p.add_argument("--cycle", type=float, default=600.0,
                   help="cycle length in seconds (default 600)")
    p.add_argument("--target-dose", type=float, default=DEFAULT_TARGET_DOSE,
                   help="target dose in J/m2 (default 27)")
    p.add_argument("--plane-height", type=float, default=0.0,
                   help="evaluation plane height in meters (default 0, floor)")
    p.add_argument("--tier", choices=("downward", "ceiling", "desk",
                                      "upper_room", "all"),
                   default="downward", help="lamp tiers to include")
    p.set_defaults(func=cmd_dosemap)

    p = sub.add_parser("reference-suite",
                       help="run the bundled scenarios plus randomized walks")
    p.add_argument("--room", help="room JSON path (default: built-in layout)")
    p.add_argument("--out", help="output directory "
                                 "(default: $UVCGUARD_OUT or ./runs)")
    p.add_argument("--cycle", type=float, default=600.0,
                   help="dose-map cycle length in seconds (default 600)")
    p.add_argument("--fuzz", type=int, default=100,
                   help="number of randomized walks (default 100)")
    p.add_argument("--fuzz-base", type=int, default=0,
                   help="first fuzz seed (default 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for the randomized walks")
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--reaction-deadline", type=float,
                   help="override the interlock reaction deadline (s)")
    p.add_argument("--tz-offset", type=float,
                   help="override the local-midnight offset (s)")
    p.set_defaults(func=cmd_reference_suite)

    p = sub.add_parser("validate", help="validate a room or scenario file")
    p.add_argument("--room", help="room JSON path")
    p.add_argument("--scenario", help="scenario JSON path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay",
                       help="re-derive lamp commands from an event log")
    add_common(p)
    p.add_argument("--events", required=True, help="event log CSV path")
    p.add_argument("--expect",
                   help="compare the derived command log against this file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ScenarioError as exc:
        print("error: invalid scenario:\n  " + "\n  ".join(exc.errors),
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RoomConfigError as exc:
        print("error: invalid room:\n  " + "\n  ".join(exc.errors),
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
