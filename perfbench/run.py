#!/usr/bin/env python3
"""uvcguard benchmark: end-to-end metrics, output checks and a traced pass.

    python3 perfbench/run.py [--workload office_day|night_vacant|fuzz_gate|all]
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--fuzz-base N]

Run from anywhere; the program is imported from ``src/`` of the checkout
this directory sits in. Everything runs in one process and one thread,
apart from short-lived child processes that measure set-up time and memory
(``probe.py``). Work files go to ``perfbench/out/`` and are removed at the
end; a JSON record of each result stays there.

``--seed`` fixes the order in which a workload's units run (units are the
same for every seed); ``--fuzz-base`` picks the block of walk seeds for
``fuzz_gate``, so a claim can be rechecked on held-out walks.

With ``--trace 0`` the timed pass runs with nothing patched and the last
line carries the end-to-end metrics. With ``--trace 1`` an untraced pass
and a traced pass split the time, and the last line carries the per-layer
metrics. See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_RUNS = 11
PROBE_TIMEOUT_S = 120

WORKLOAD_CHOICES = ("office_day", "night_vacant", "fuzz_gate", "all")


def import_program() -> None:
    """Make ``uvcguard`` importable from this checkout's ``src`` only."""
    src = ROOT / "src"
    if not (src / "uvcguard" / "__init__.py").is_file():
        raise SystemExit(f"error: no uvcguard sources under {src}")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> Dict[str, object]:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# child-process probes
# ---------------------------------------------------------------------------

def probe(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, unit: str, workdir: Path) -> List[float]:
    """Process start to first simulated tick, in fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        spawned = time.monotonic()
        doc = probe("setup", workload.name, unit, str(workdir))
        times.append(doc["first_tick_monotonic"] - spawned)
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def timed_pass(workload, order: List[str], seconds: float, tracer=None):
    """Run units in ``order``, cycling, until every unit ran once and the
    timed units add up to ``seconds``. The first run of each unit gets the
    full output checks; every run gets digests and counts."""
    samples = []
    audits = []
    checked = set()
    measured = 0.0
    i = 0
    while measured < seconds or i < len(order):
        unit = order[i % len(order)]
        i += 1
        if tracer is None:
            sample = workload.run(unit)
        else:
            with tracer.span("run"):
                sample = workload.run(unit)
            sample.trace = tracer.take()
        measured += sample.latency_s
        workload.inspect(sample, full=unit not in checked)
        if tracer is not None:
            table, _ = tracer.take()
            if unit not in checked:
                audits.append(table)
        checked.add(unit)
        samples.append(sample)
    return samples, audits


def by_unit(samples) -> Dict[str, list]:
    groups: Dict[str, list] = {}
    for s in samples:
        groups.setdefault(s.unit, []).append(s)
    return dict(sorted(groups.items()))


def settle_failures(samples) -> int:
    """A unit fails wholesale when its checked run failed or its outputs
    changed between repeats; returns the number of failed runs."""
    failed = 0
    for unit, group in by_unit(samples).items():
        first = group[0]
        for s in group[1:]:
            if s.fingerprint != first.fingerprint:
                s.problems.append(f"unit {unit}: outputs differ between repeats")
        for s in group:
            if s.problems or first.problems:
                failed += 1
    return failed


def wall_s(samples) -> float:
    return sum(statistics.median(s.latency_s for s in group)
               for group in by_unit(samples).values())


def aggregate_counts(samples) -> Dict[str, object]:
    """Sum each unit's counts once, in unit order, so float sums repeat."""
    total: Dict[str, object] = {}
    for group in by_unit(samples).values():
        for key, value in group[0].counts.items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for k, v in value.items():
                    bucket[k] = bucket.get(k, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    if "lamp_on_s" in total:
        total["lamp_on_s"] = {k: round(v, 6) for k, v in
                              sorted(total["lamp_on_s"].items())}
    for key in ("commands", "lamp_on_s"):
        if key in total:
            total[key] = dict(sorted(total[key].items()))
    return total


def reference_problems(workload, samples, reference) -> List[str]:
    """Compare counts with those recorded at the commit that defined the
    benchmark. Artifact bytes are not recorded: the dose grid may change in
    its last bits. The fuzz block is compared as a whole, and only when it
    is the recorded block."""
    if workload.name == "fuzz_gate":
        ref = reference.get("fuzz_gate")
        if not ref or ref["base"] != workload.base:
            return []
        pairs = [("fuzz block", aggregate_counts(samples), ref["counts"])]
    else:
        pairs = [(s.unit, s.counts, reference["scenarios"][s.unit]["counts"])
                 for s in samples]
    problems = []
    for label, counts, ref_counts in pairs:
        for key, want in ref_counts.items():
            if key in counts and counts[key] != want:
                problems.append(f"{label}: {key} is {counts[key]}, "
                                f"reference {want}")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

SIMULATE = "simulator.simulate"
LAYERS = ("simulator.validate_scenario", "simulator.pir_model",
          "simulator.us_model", "simulator.ble_model", "fusion.ingest",
          "fusion.snapshot", "controller.step", "dosimetry.irradiance_at_point")
SERIALIZATION = ("fusion.write_event_log", "controller.write_command_log",
                 "simulator.write_probe_log", "simulator.write_dose_grid_csv",
                 "fusion.read_event_log")


def layer_values(table, counts) -> Dict[str, float]:
    """Per-layer numbers of one traced unit run."""
    def rows(name, parent=None):
        return [row for (n, p), row in table.items()
                if n == name and (parent is None or p == parent)]

    def calls(name, parent=None):
        return sum(r[0] for r in rows(name, parent))

    def self_s(name, parent=None):
        return sum(r[1] - r[2] for r in rows(name, parent))

    v: Dict[str, float] = {}
    v["scenarios.build.calls"] = calls("scenarios.build")
    v["scenarios.build.self_s"] = self_s("scenarios.build")
    v["simulator.simulate.calls"] = calls(SIMULATE)
    v["simulator.simulate.s"] = sum(r[1] for r in rows(SIMULATE))
    v["simulator.engine.self_s"] = self_s(SIMULATE)
    for name in LAYERS:
        v[f"{name}.calls"] = calls(name, SIMULATE)
        v[f"{name}.self_s"] = self_s(name, SIMULATE)
    for name in SERIALIZATION:
        v[f"{name}.self_s"] = self_s(name)
    v["cli.replay.s"] = sum(r[1] for r in rows("cli.replay"))
    v["cli.replay.self_s"] = self_s("cli.replay")
    v["layers.self_s_sum"] = v["simulator.engine.self_s"] + sum(
        r[1] - r[2] for (n, p), r in table.items() if p == SIMULATE)
    for key in ("simulator.ticks", "simulator.timeline.events",
                "simulator.timeline.snapshots",
                "simulator.timeline.probe_samples",
                "fusion.snapshot.changed", "controller.step.useful"):
        v[key] = counts.get(key, 0)
    return v


def representative(group):
    """The run of a unit with the median latency (the lower one of two)."""
    ranked = sorted(group, key=lambda s: s.latency_s)
    return ranked[(len(ranked) - 1) // 2]


def per_layer(traced, audits, untraced_wall: float) -> Dict[str, float]:
    """Sum over units of the numbers of each unit's median-latency traced
    run; taking one whole run per unit keeps the self times adding up."""
    values: Dict[str, float] = {}
    for group in by_unit(traced).values():
        rep = representative(group)
        for key, value in layer_values(*rep.trace).items():
            values[key] = values.get(key, 0) + value
        values["cli.artifacts.bytes"] = values.get("cli.artifacts.bytes", 0) \
            + rep.counts["artifact_bytes"]
    ticks = values["simulator.ticks"]
    audit_self = sum(row[1] - row[2] for table in audits
                     for (n, _), row in table.items()
                     if n == "simulator.safety_check")
    values["simulator.engine.self_us_per_tick"] = \
        values["simulator.engine.self_s"] / ticks * 1e6
    values["simulator.safety_check.self_s"] = audit_self
    values["simulator.safety_check.us_per_tick"] = audit_self / ticks * 1e6
    values["fusion.snapshot.changed_ratio"] = \
        values["fusion.snapshot.changed"] / values["fusion.snapshot.calls"]
    values["controller.step.useful_ratio"] = \
        values["controller.step.useful"] / values["controller.step.calls"]
    traced_wall = wall_s(traced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    return values


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def shuffled(units, seed: int) -> List[str]:
    order = list(units)
    random.Random(seed).shuffle(order)
    return order


def run_workload(name: str, args, reference):
    import tracer as tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}-{name}"
    workload = workloads.make(name, workdir, args.fuzz_base, reference)
    order = shuffled(workload.units, args.seed)
    record: Dict[str, object] = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "order": order if len(order) <= 8 else order[:8] + ["..."]}
    if name == "fuzz_gate":
        record["fuzz_base"] = workload.base
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            untraced, _ = timed_pass(workload, order, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, audits = timed_pass(workload, order, args.seconds / 2,
                                            tracer)
            finally:
                tracer.uninstall()
            for s in traced:
                counters = s.trace[1]
                s.counts["snapshot_changes"] = \
                    counters.get("fusion.snapshot.changed", 0)
                if counters.get("controller.step.useful", 0) != \
                        s.counts["useful_steps"]:
                    s.problems.append("useful steps seen by the tracer differ "
                                      "from the command log")
            passes = [untraced, traced]
            layers = per_layer(traced, audits, wall_s(untraced))
            record.update(layers=layers, trace_table=merged_table(traced),
                          spans=tracer.spans)
            metrics = layers
        else:
            setup = measure_setup(workload, order[0], workdir)
            timed, _ = timed_pass(workload, order, args.seconds)
            memory = probe("memory", name, workload.largest)
            passes = [timed]
            record.update(setup_samples_s=setup, memory_unit=workload.largest)
            metrics = end_to_end(timed, setup, memory)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for p in passes for s in p]
    failed = sum(settle_failures(p) for p in passes)
    problems = {x for s in samples for x in s.problems}
    if reference is not None:
        extra = [x for p in passes
                 for x in reference_problems(workload, p, reference)]
        if extra:
            failed = len(samples)
            problems.update(extra)
    record.update(attempted=len(samples), failed=failed,
                  problems=sorted(problems),
                  counts=aggregate_counts(passes[-1]), metrics=metrics,
                  unit_latency_s={u: [s.latency_s for s in g]
                                  for u, g in by_unit(samples).items()})
    return record, passes[-1]


def end_to_end(samples, setup: List[float], memory: dict) -> Dict[str, float]:
    groups = by_unit(samples)
    latency = [statistics.median(s.latency_s for s in g) for g in groups.values()]
    simulate = sum(statistics.median(s.simulate_s for s in g)
                   for g in groups.values())
    ticks = sum(g[0].counts["ticks"] for g in groups.values())
    out = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latency),
        "ticks_per_s": ticks / simulate,
        "peak_mb": memory["peak_bytes"] / 1e6,
        "retained_mb": memory["retained_bytes"] / 1e6,
    }
    if len(latency) >= 200:
        cuts = statistics.quantiles(latency, n=100)
        out["walk_ms_p50"] = statistics.median(latency) * 1e3
        out["walk_ms_p95"] = cuts[94] * 1e3
    return out


def merged_table(samples) -> List[list]:
    merged: Dict[tuple, list] = {}
    for s in samples:
        for key, (calls, total, child) in s.trace[0].items():
            row = merged.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += child
    return [[n, p, c, t, t - ch] for (n, p), (c, t, ch) in sorted(merged.items())]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

UNITS = {"setup_s": "s", "wall_s": "s", "ticks_per_s": "1/s",
         "walk_ms_p50": "ms", "walk_ms_p95": "ms", "peak_mb": "MB",
         "retained_mb": "MB", "failed_frac": ""}


def print_record(record) -> None:
    name = record["workload"]
    prov = record["provenance"]
    print(f"== {name}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}"
          + (f"  fuzz-base {record['fuzz_base']}" if "fuzz_base" in record else ""))
    print(f"   python {prov['python']}  numpy {prov['numpy']}  "
          f"nproc {prov['nproc']}  cpu {prov['cpu']}  commit {prov['commit']}")
    attempted, failed = record["attempted"], record["failed"]
    runs = sum(len(v) for v in record["unit_latency_s"].values())
    print(f"   {runs} unit runs over {len(record['unit_latency_s'])} units")
    if not record["trace"]:
        metrics = dict(record["metrics"])
        metrics["failed_frac"] = failed / attempted
        for key, unit in UNITS.items():
            if key in metrics:
                print(f"   {key:<14} {metrics[key]:>14.6g} {unit}")
            else:
                print(f"   {key:<14} {'n/a':>14}   (fuzz_gate only)")
        if "walk_ms_p95" in metrics:
            print(f"   walk latency samples: {len(record['unit_latency_s'])} "
                  "walks (medians over repeats), "
                  f"{len(record['unit_latency_s']) // 20} beyond p95")
    else:
        layers = record["layers"]
        print(f"   traced wall_s {layers['trace.wall_s']:.4f} s, untraced "
              f"{layers['trace.untraced_wall_s']:.4f} s, overhead "
              f"{layers['trace.overhead_s']:+.4f} s "
              f"({layers['trace.overhead_ratio']:+.1%})")
        for key in sorted(layers):
            print(f"   {key:<40} {layers[key]:>14.6g}")
        total = layers["simulator.simulate.s"]
        summed = layers["layers.self_s_sum"]
        print(f"   layer self times under simulate sum to {summed:.6f} s; "
              f"traced simulate {total:.6f} s: "
              f"{'ok' if abs(summed - total) <= 1e-9 * max(total, 1) else 'MISMATCH'}")
        print("   (name, parent) rows: calls, total_s, self_s")
        for n, p, c, t, s in record["trace_table"]:
            print(f"     {n:<32} <- {p:<26} {c:>9} {t:>11.5f} {s:>11.5f}")
    print(f"   counts: {json.dumps(record['counts'], sort_keys=True)}")
    print(f"   failed runs {failed}/{attempted}"
          + ("" if not record["problems"] else
             "; problems: " + "; ".join(record["problems"][:10])))


def result_line(record, spec) -> Dict[str, object]:
    return {"correct": record["failed"] == 0 and not record["problems"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                    "unit": m["unit"]} for m in spec}}


def write_record(record) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / (f"{record['workload']}-seed{record['seed']}-"
                  f"trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_CHOICES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fuzz-base", type=int, default=0,
                   help="first walk seed of the fuzz_gate block (default 0)")
    p.add_argument("--record-reference", action="store_true",
                   help="write reference.json from a traced run of every "
                        "workload instead of checking against it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.record_reference:
        return record_reference(args)
    reference = json.loads(REFERENCE.read_text())
    names = list(WORKLOAD_CHOICES[:-1]) if args.workload == "all" \
        else [args.workload]
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    lines = []
    for name in names:
        record, _ = run_workload(name, args, reference)
        print_record(record)
        write_record(record)
        lines.append((name, result_line(record, chosen)))
    if len(lines) == 1:
        line = lines[0][1]
    else:
        line = {"correct": all(l["correct"] for _, l in lines),
                "attempted": sum(l["attempted"] for _, l in lines),
                "failed": sum(l["failed"] for _, l in lines),
                "metrics": {f"{n}.{k}": v for n, l in lines
                            for k, v in l["metrics"].items()}}
    print(json.dumps(line))
    return 0


REFERENCE_HASH_SEEDS = range(24)


def record_reference(args) -> int:
    """Record the counts of one traced pass of every workload, and the
    digests each bundled scenario's CSV logs take under several hash seeds:
    at the commit that defined the benchmark, the last bits of some probe
    values depend on set iteration order, so a log can have variants."""
    args.trace, args.seconds = 1, 0.0
    doc = {"scenarios": {}, "fuzz_gate": None}
    for name in WORKLOAD_CHOICES[:-1]:
        record, samples = run_workload(name, args, None)
        if record["problems"]:
            print(f"{name}: {record['problems']}", file=sys.stderr)
            return 1
        if name == "fuzz_gate":
            counts = {k: v for k, v in record["counts"].items()
                      if k != "artifact_bytes"}
            doc["fuzz_gate"] = {"base": args.fuzz_base, "counts": counts}
            continue
        for unit, group in by_unit(samples).items():
            variants = {k: {v} for k, v in group[0].digests.items()}
            workdir = OUT / f"digests-{os.getpid()}"
            try:
                for hash_seed in REFERENCE_HASH_SEEDS:
                    os.environ["PYTHONHASHSEED"] = str(hash_seed)
                    for k, v in probe("digests", name, unit, str(workdir)).items():
                        variants[k].add(v)
            finally:
                os.environ.pop("PYTHONHASHSEED", None)
                shutil.rmtree(workdir, ignore_errors=True)
            doc["scenarios"][unit] = {
                "sha256": {k: sorted(v) for k, v in variants.items()},
                "counts": {k: v for k, v in group[0].counts.items()
                           if k != "artifact_bytes"}}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
