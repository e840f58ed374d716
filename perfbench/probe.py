"""Fresh-process measurements for the benchmark: set-up time and memory.

    python3 perfbench/probe.py setup  <workload> <unit> <workdir>
    python3 perfbench/probe.py memory <workload> <unit>
    python3 perfbench/probe.py digests <workload> <unit> <workdir>

``setup`` starts the way a user's process does and stops at the first
simulated tick: on the scenario workloads it is ``uvcguard simulate``
through ``cli.main``; on ``fuzz_gate`` it builds the walk and calls
``simulate``. It prints ``time.monotonic()`` at that tick, which on Linux
is one system-wide clock, so the parent can subtract its own spawn time.

``memory`` simulates the workload's largest run once and prints the
process's peak resident set size and the bytes the returned result holds.

``digests`` runs ``uvcguard simulate`` and prints the SHA-256 of the
CSV logs; reference.json is recorded from it under several hash seeds.

Each prints one JSON line. The program is imported from ``src/`` next to
this directory and nowhere else.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class FirstTick(Exception):
    """Raised from the first fusion snapshot, which every tick takes."""


def build(workload: str, unit: str):
    from uvcguard import scenarios
    if workload == "fuzz_gate":
        return scenarios.random_walk_scenario(int(unit))
    if unit == "midnight":
        return scenarios.midnight_scenario()
    return scenarios.reference_scenarios()[unit]


def setup(workload: str, unit: str, workdir: str) -> dict:
    from uvcguard import fusion

    def first_tick(self, now):
        raise FirstTick

    fusion.OccupancyFusion.snapshot = first_tick
    try:
        if workload == "fuzz_gate":
            from uvcguard import simulator
            simulator.simulate(build(workload, unit))
        else:
            from uvcguard import cli
            cli.main(["simulate", "--scenario", unit, "--out", workdir])
    except FirstTick:
        return {"first_tick_monotonic": time.monotonic()}
    raise RuntimeError("the run ended without a simulated tick")


def retained_bytes(result, exclude) -> int:
    """sys.getsizeof summed over the objects reachable from ``result`` but
    not from ``exclude`` (the run's input), skipping code and types."""
    import gc
    import types
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)

    def walk(root, seen, visit):
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, opaque):
                continue
            visit(obj)
            stack.extend(gc.get_referents(obj))

    seen: set = set()
    walk(exclude, seen, lambda obj: None)
    total = [0]

    def add(obj):
        total[0] += sys.getsizeof(obj)

    walk(result, seen, add)
    return total[0]


def memory(workload: str, unit: str) -> dict:
    import resource
    from uvcguard import simulator
    scenario = build(workload, unit)
    result = simulator.simulate(scenario)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {"peak_bytes": peak,
            "retained_bytes": retained_bytes(result, scenario)}


def digests(workload: str, unit: str, workdir: str) -> dict:
    import hashlib
    from uvcguard import cli
    from contextlib import redirect_stdout
    from io import StringIO
    with redirect_stdout(StringIO()):
        cli.main(["simulate", "--scenario", unit, "--out", workdir])
    outdir = Path(workdir) / unit
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ("events.csv", "commands.csv", "probes.csv")}


def main(argv) -> int:
    import json
    mode, workload, unit = argv[:3]
    if mode == "setup":
        doc = setup(workload, unit, argv[3])
    elif mode == "memory":
        doc = memory(workload, unit)
    elif mode == "digests":
        doc = digests(workload, unit, argv[3])
    else:
        print(f"unknown probe {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
