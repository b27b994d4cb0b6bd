"""The repo benchmark: one workload, timed in host seconds, with a
correctness gate and a separate traced run for per-layer numbers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hermes_highcps --seed 1 \\
        --seconds 30 --trace 0

A run does, in order:

1. one untimed warm-up cell;
2. untraced cells of the same seed until ``--seconds`` have passed (host
   metrics are the slow end of these cells), with set-up probes spread among
   them: fresh processes that import, build the workload and stop at the
   first simulated event (``setup_s`` is their median);
3. one traced cell of the same seed, with spans recorded around the
   public entry points of every layer (``layers.py``);
4. the gate: conservation across layers, simulated statistics identical
   in every cell (warm-up, timed reruns, traced), span counts equal to the
   program's own counters, and on the fleet every monitor passing.

It prints a table of every metric with its unit, host facts and the gate,
writes a record and the spans under ``perfbench/out/``, and ends with one
JSON line: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  It exits 1 when the gate fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import cells, layers  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

OUT = os.path.join(HERE, "out")
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 7
#: Timed cells per run at the least, however short ``--seconds`` is.
MIN_CELLS = 3
#: A percentile is reported only with at least this many samples, so that
#: ten or more lie beyond it.
P999_MIN_SAMPLES = 10_000


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh process to its first simulated
    event (imports, build of the server or fleet, and of the workload)."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), workload,
               str(seed)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, env=os.environ.copy())
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


def slow_end(values) -> float:
    """90th percentile of per-cell host costs.

    The shared host alternates over tens of seconds between a slow regime
    and faster spells that come and go with other tenants' load, so a
    run's median depends on how much of its window was fast.  Cells in
    the slow regime take the same time from run to run.
    """
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def percentile_ms(latencies, q: float) -> float:
    from repro.sim.monitor import Samples

    samples = Samples("latency")
    samples.extend(latencies)
    return samples.percentile(q) * 1e3


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_req"):
        return "1/req"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "count"


def check_predictions(workload: str, layer: dict) -> list:
    """(row, value, held) for every prediction with an ``expect``."""
    with open(os.path.join(HERE, "predictions.json")) as fh:
        rows = json.load(fh)["rows"]
    results = []
    for row in rows:
        expect = row.get("expect")
        if row["workload"] != workload or expect is None:
            continue
        value = layer[row["metric"]]
        if expect == "0":
            held = value == 0
        elif expect == ">0":
            held = value > 0
        else:
            held = value < float(expect[1:])
        results.append((row, value, held))
    return results


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    facts = host_facts()
    warmup = cells.run_cell(workload, seed)
    digests = [warmup.digest()]
    # Per timed cell: wall seconds, CPU seconds, requests, events.
    timed = []
    # Set-up probes are spread over the timed window so that they sample
    # the same host conditions as the cells.
    setup = []
    start = time.perf_counter()
    while len(timed) < MIN_CELLS or time.perf_counter() - start < seconds:
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(workload, seed))
        gc.collect()
        cell = cells.run_cell(workload, seed)
        digests.append(cell.digest())
        timed.append((cell.wall_s, cell.cpu_s, cell.counters["completed"],
                      cell.counters["steps"]))
        del cell
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(workload, seed))
    rss = cells.peak_rss_mb()

    gc.collect()
    rec = SpanRecorder()
    patches = layers.install(rec)
    try:
        traced = cells.run_cell(workload, seed)
    finally:
        patches.restore()

    # -- the gate -------------------------------------------------------
    errors = cells.ledger_errors(warmup.counters, warmup.sim.get("passes"))
    errors += layers.cross_check(rec, traced.counters)
    if len(set(digests)) != 1:
        errors.append(f"simulated statistics differ across reruns: "
                      f"{len(set(digests))} distinct digests")
    if traced.digest() != digests[0]:
        errors.append("simulated statistics differ between the traced and "
                      "the untraced run")

    # -- metrics --------------------------------------------------------
    c = warmup.counters
    latencies = warmup.latencies
    attempted, failed = cells.attempted_failed(c)
    walls, cpus, requests, events = zip(*timed)
    wall = slow_end(walls)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (slow_end(cpus), "s"),
        "sim_req_per_host_s": (
            1 / slow_end([w / r for w, r in zip(walls, requests)]), "1/s"),
        "events_per_host_s": (
            1 / slow_end([w / e for w, e in zip(walls, events)]), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    reported_only = {
        "sim_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "sim_p99_ms": (percentile_ms(latencies, 99), "ms"),
        "sim_p999_ms": ((percentile_ms(latencies, 99.9), "ms")
                        if len(latencies) >= P999_MIN_SAMPLES else None),
        "sim_fail_ratio": (failed / attempted, "ratio"),
        "sim_samples": (len(latencies), "count"),
        "sim_requests_attempted": (attempted, "count"),
    }
    layer = layers.layer_metrics(rec, traced.counters, traced.wall_s, wall)
    predictions = check_predictions(workload, layer)

    # -- report ---------------------------------------------------------
    facts_end = host_facts()
    print(f"workload {workload}  seed {seed}  seconds {seconds}  "
          f"timed cells {len(timed)}  trace {int(trace)}")
    print(f"host {json.dumps(facts)}")
    print("end-to-end (host: 90th percentile of timed-cell cost; sim_*: "
          "seeded model outputs):")
    for name, value in {**e2e, **reported_only}.items():
        if value is None:
            print(f"  {name:24s} n/a (fewer than {P999_MIN_SAMPLES} "
                  f"samples)")
        else:
            print(f"  {name:24s} {value[0]:.6g} {value[1]}")
    print("per-layer (traced cell):")
    for name, value in layer.items():
        print(f"  {name:40s} {value:.6g} {per_layer_unit(name)}")
    top = max((k for k in layer if k.endswith(".share")), key=layer.get)
    print(f"dominant layer: {top[:-len('.share')]} "
          f"({layer[top]:.1%} of traced wall time)")
    for row, value, held in predictions:
        print(f"prediction {row['metric']} {row['expect']}: {value:.6g} "
              f"{'holds' if held else 'FAILED'}")
    for error in errors:
        print(f"GATE FAILED: {error}", file=sys.stderr)
    print(f"gate {'passed' if not errors else 'FAILED'}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    rec.write(stem + "-spans")
    with open(f"{stem}-trace{int(trace)}.json", "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "seconds": seconds,
            "host": facts, "host_end": facts_end, "setup_samples": setup,
            "cell_wall_s": [cell[0] for cell in timed],
            "cell_cpu_s": [cell[1] for cell in timed],
            "end_to_end": {k: v[0] for k, v in e2e.items()},
            "reported_only": {k: (v[0] if v else None)
                              for k, v in reported_only.items()},
            "per_layer": layer, "counters": c,
            "sim_digest": digests[0],
            "predictions": [{"metric": r["metric"], "expect": r["expect"],
                             "value": v, "held": h}
                            for r, v, h in predictions],
            "gate_errors": errors,
        }, fh, indent=1)

    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(cells.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    # The engine's step count is cross-checked through its heap pops.
    os.environ.pop("REPRO_SCHED", None)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
