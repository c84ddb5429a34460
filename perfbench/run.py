"""grasstri benchmark: seeded experiment workloads, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --workload NAME --record

Run from the root of a grasstri checkout; grasstri is imported from ``src``.
Each experiment runs in a fresh process (perfbench/experiment.py), one at a
time, until ``--seconds`` have passed. The last line of stdout is the JSON
result: with --trace 0 the end-to-end metrics (median pipeline_s and
peak_rss_mb over the experiments, median setup_s over import-only processes
spread through the run), with --trace 1 the per-layer metrics of the traced
experiments.

An experiment fails if it raises, exits with an unexpected code, breaks an
output invariant, or writes outputs that differ from the recorded reference
for its seed (perfbench/reference.json) or from the run's first experiment.
An experiment that runs out of the run's time limit has not failed; a run
that cannot measure every metric for that reason exits with code 3 and
prints no result.
``--record`` rewrites the references of a workload's seed pool; do that only
for a change that alters outputs on purpose. ``--workload all`` prints the
end-to-end metrics and the fail rate of every workload for the given seed, or
for seeds 0 (the default) and 1 (held out) when none is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPERIMENT = os.path.join(HERE, "experiment.py")
REFERENCE = os.path.join(HERE, "reference.json")
# Experiment seeds per workload; benchmark seed n runs SEED_POOLS[w][n % len].
# Pool seeds build complexes of about seed 0's size and reduction work, so
# that the work per experiment is about the same on every seed (README.md
# gives the rule and each seed's figures). Each has recorded outputs in
# reference.json.
SEED_POOLS = {
    "rp2-rips": (0, 1, 9, 18, 35, 46, 72, 73, 86, 95),
    "g24-witness-staged": (0, 7, 26, 49, 102, 156, 178, 231, 312, 334),
    "g25-witness-wide": (0, 1, 2, 4, 5, 6, 7, 8, 9, 13),
}
WORKLOADS = tuple(SEED_POOLS)
SETUP_PROBES_PER_GAP = 4   # import-only probes before each experiment and after the last
SETUP_PROBES_MIN = 12
RUN_LIMIT_S = 170.0   # a run must end within 180 s


class NotRunnable(RuntimeError):
    """grasstri cannot be imported from this checkout."""


class Incomplete(RuntimeError):
    """The run ran out of time before it could measure every metric."""


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def setup_probe() -> tuple[float, dict]:
    """Wall time of a fresh process that only imports numpy and grasstri."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, EXPERIMENT, "--setup-only"],
                          capture_output=True, text=True, cwd=ROOT)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise NotRunnable(proc.stderr.strip().splitlines()[-1:] or "import failed")
    return elapsed, json.loads(proc.stdout.splitlines()[-1])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_experiment(workload: str, seed: int, traced: bool, workroot: str,
                   timeout: float) -> dict:
    workdir = tempfile.mkdtemp(dir=workroot)
    cmd = [sys.executable, EXPERIMENT, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"timeout": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"error": f"experiment exited {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def failure(result: dict, expected: dict | None) -> str | None:
    """Why an experiment counts as failed, or None when it passed."""
    if result.get("error"):
        return result["error"]
    if result["problems"]:
        return "; ".join(result["problems"])
    if expected is not None and result["outputs"] != expected:
        return f"outputs {result['outputs']} differ from {expected}"
    return None


def measure(workload: str, seed: int, seconds: float, traced: bool,
            reference: dict) -> dict:
    """Run experiments for `seconds` and aggregate them; see the module doc."""
    began = perf_counter()
    _, versions = setup_probe()   # fills the bytecode cache; not counted
    setup: list[float] = []
    expected = reference.get(workload, {}).get(str(seed))
    plain, marked, failures, timeouts = [], [], [], []
    workroot = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-")
    start = perf_counter()
    try:
        while True:
            # probes between the experiments sample the host's speed across the run
            setup += [setup_probe()[0] for _ in range(SETUP_PROBES_PER_GAP)]
            # a traced run alternates traced and plain experiments on one seed,
            # the traced one first
            tracing = traced and len(marked) <= len(plain)
            t0 = perf_counter()
            result = run_experiment(workload, seed, tracing, workroot,
                                    RUN_LIMIT_S - (t0 - began))
            took = perf_counter() - t0
            if result.get("timeout"):
                timeouts.append(result["timeout"])
                break
            why = failure(result, expected)
            if why is None and expected is None:
                expected = result["outputs"]   # later experiments must agree with it
            if why is not None:
                failures.append(why)
                break
            (marked if tracing else plain).append(result)
            complete = bool(plain) and (bool(marked) or not traced)
            done = perf_counter() - start >= seconds
            out_of_time = perf_counter() - began + took > RUN_LIMIT_S
            if complete and (done or out_of_time):
                break
        if not failures and (not plain or (traced and not marked)):
            raise Incomplete(f"{timeouts[0] if timeouts else 'no experiment finished'}; "
                             f"finished {len(plain)} plain and {len(marked)} traced")
        setup += [setup_probe()[0] for _ in range(SETUP_PROBES_PER_GAP)]
        setup += [setup_probe()[0] for _ in range(SETUP_PROBES_MIN - len(setup))]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    summary = {
        "attempted": len(plain) + len(marked) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "outputs": expected,
        "setup_s": statistics.median(setup),
        "versions": versions,
        "runs": {"setup": len(setup), "plain": len(plain), "traced": len(marked),
                 "timed_out": len(timeouts)},
    }
    if plain:
        summary["pipeline_s"] = statistics.median(r["pipeline_s"] for r in plain)
        summary["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    if marked and plain:
        layers = {name: statistics.median(r["layers"][name] for r in marked)
                  for name in marked[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(
            r["pipeline_s"] for r in marked) - summary["pipeline_s"]
        summary["layers"] = layers
    return summary


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(summary: dict, traced: bool, units: dict) -> dict:
    """The JSON result. A failed run reports only the metrics it measured."""
    if traced:
        metrics = {name: metric(value, units.get(name, "count"))
                   for name, value in sorted(summary.get("layers", {}).items())}
    else:
        metrics = {name: metric(summary[name], unit) for name, unit in (
            ("pipeline_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
            if name in summary}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def record(workload: str) -> int:
    """Re-record the reference outputs of every seed in the workload's pool."""
    reference = load_reference()
    outputs = {}
    for seed in SEED_POOLS[workload]:
        summary = measure(workload, seed, 0, False, {})
        if summary["failed"]:
            print("\n".join(summary["failures"]), file=sys.stderr)
            return 1
        outputs[str(seed)] = summary["outputs"]
        print(f"recorded {workload} seed {seed} ({summary['pipeline_s']:.2f} s): "
              f"{summary['outputs']}", flush=True)
    reference[workload] = outputs
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def pool_seed(workload: str, seed: int) -> int:
    pool = SEED_POOLS[workload]
    return pool[seed % len(pool)]


def summary_table(seed: int | None, seconds: float) -> int:
    """End-to-end metrics and fail rate of every workload, as a table."""
    reference = load_reference()
    print(json.dumps({"machine": machine_record()}))
    print(f"{'workload':<20} {'seed':>4} {'pipeline_s':>12} {'peak_rss_mb':>12} "
          f"{'setup_s':>8} {'fail_rate':>9} {'runs':>5}")
    bad = 0
    for workload in WORKLOADS:
        # by default the default seed and the held-out one
        for s in [seed] if seed is not None else [0, 1]:
            r = measure(workload, pool_seed(workload, s), seconds, False, reference)
            bad += r["failed"]
            print(f"{workload:<20} {s:>4} {r.get('pipeline_s', math.nan):>10.3f} s "
                  f"{r.get('peak_rss_mb', math.nan):>9.1f} MB {r['setup_s']:>6.3f} s "
                  f"{r['failed'] / r['attempted']:>9.3f} {r['attempted']:>5}", flush=True)
            for why in r["failures"]:
                print(f"  failed: {why}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grasstri", "__init__.py")):
        print(f"run.py: no grasstri sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return summary_table(args.seed, args.seconds)
        if args.record:
            return record(args.workload)
        if args.seed is None:
            parser.error("--seed is required for a single workload")
        seed = pool_seed(args.workload, args.seed)
        summary = measure(args.workload, seed, args.seconds, bool(args.trace),
                          load_reference())
    except NotRunnable as exc:
        print(f"run.py: grasstri does not import: {exc}", file=sys.stderr)
        return 2
    except Incomplete as exc:
        print(f"run.py: run incomplete: {exc}", file=sys.stderr)
        return 3
    units = per_layer_units() if args.trace else {}
    info = dict(machine_record(), **summary["versions"], workload=args.workload,
                seed=args.seed, experiment_seed=seed, runs=summary["runs"],
                fail_rate=summary["failed"] / summary["attempted"])
    print(json.dumps({"machine": info}))
    for why in summary["failures"]:
        print(f"failed: {why}")
    print(json.dumps(result_line(summary, bool(args.trace), units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
