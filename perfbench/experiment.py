"""One measured grasstri experiment in a fresh process.

    python3 perfbench/experiment.py --workload NAME --seed N --workdir DIR [--trace]
    python3 perfbench/experiment.py --setup-only

Times the workload from its first call into grasstri to the written window
report, then, outside the timed region, digests the output files, checks them
against invariants computed here independently of grasstri, and, with
--trace, builds the per-layer metrics from the recorded spans. Prints one
JSON object on the last line of stdout. ``--setup-only`` imports numpy and
every grasstri module and exits, so a caller can time process start plus
imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import grasstri  # noqa: E402
from grasstri import cli  # noqa: E402,F401  (imports every grasstri module)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_filtration_file(path: str):
    """Simplex counts per dimension, plus the edges as (value, a, b) rows."""
    counts: list[int] = []
    edges: list[tuple[float, int, int]] = []
    with open(path) as fh:
        fh.readline()
        for line in fh:
            d = line.count(" ") - 1
            while len(counts) <= d:
                counts.append(0)
            counts[d] += 1
            if d == 1:
                value, a, b = line.split()
                edges.append((float(value), int(a), int(b)))
    return counts, edges


def read_barcode_file(path: str) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    bars: dict[int, list[tuple[float, float]]] = {}
    with open(path) as fh:
        fh.readline()
        for line in fh:
            deg, birth, death = line.split(",")
            bars.setdefault(int(deg), []).append((float(birth), float(death)))
    return {d: (np.array([b for b, _ in v]), np.array([e for _, e in v]))
            for d, v in bars.items()}


def read_report_file(path: str) -> tuple[tuple[int, ...], list[str]]:
    target: tuple[int, ...] = ()
    windows: list[str] = []
    with open(path) as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key == "target":
                target = tuple(int(t) for t in rest.split())
            elif key == "window":
                windows.append(rest.strip())
    return target, windows


def degree0_bars(vertex_count: int, edges) -> tuple[list[float], int]:
    """Finite H0 deaths (nonzero) and the component count, by union-find."""
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deaths = []
    components = vertex_count
    for value, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            components -= 1
            if value > 0:
                deaths.append(value)
    return sorted(deaths), components


def windows_from_bars(bars, top_dim: int, target) -> list[tuple[float, float]]:
    """Maximal parameter windows where the Betti profile equals the target."""
    used = [bars.get(d, (np.empty(0), np.empty(0))) for d in range(top_dim + 1)]
    crit = np.unique(np.concatenate([np.concatenate([b, e[np.isfinite(e)]]) for b, e in used]))
    points = crit if len(crit) and crit[0] <= 0.0 else np.concatenate([[0.0], crit])
    match = np.ones(len(points), dtype=bool)
    for d, (b, e) in enumerate(used):
        betti = (np.searchsorted(np.sort(b), points, side="right")
                 - np.searchsorted(np.sort(e), points, side="right"))
        match &= betti == target[d]
    ends = np.append(points[1:], np.inf)
    windows: list[tuple[float, float]] = []
    for i in np.flatnonzero(match):
        if windows and windows[-1][1] == points[i]:
            windows[-1] = (windows[-1][0], float(ends[i]))
        else:
            windows.append((float(points[i]), float(ends[i])))
    return windows


def check_outputs(workload, paths: dict, codes: list[int]) -> tuple[dict, list[str]]:
    """The outputs compared across runs, and the invariants they break.

    Every written file is digested whole, so a changed cloud coordinate,
    landmark or simplex value fails the run even where no invariant sees it.
    """
    counts, edges = read_filtration_file(paths["filtration"])
    target, windows = read_report_file(paths["report"])
    outputs = {"counts": counts, "sha256": {name: file_sha256(path)
                                            for name, path in sorted(paths.items())},
               "windows": windows, "exit_codes": codes}

    problems = []
    if counts[:1] != [workload.vertices]:
        problems.append(f"expected {workload.vertices} vertices, found {counts[:1]}")
    if target != workload.target:
        problems.append(f"report target {target} is not {workload.target}")
    bars = read_barcode_file(paths["barcode"])
    deaths, components = degree0_bars(workload.vertices, edges)
    births0, ends0 = bars.get(0, (np.empty(0), np.empty(0)))
    if sorted(ends0[np.isfinite(ends0)].tolist()) != deaths \
            or int(np.count_nonzero(np.isinf(ends0))) != components \
            or np.any(births0 != 0.0):
        problems.append("H0 bars disagree with union-find over the filtration's edges")
    top_dim = len(workload.target) - 1
    expected = [f"[{lo!r}, {hi!r})"
                for lo, hi in windows_from_bars(bars, top_dim, workload.target)]
    if windows != expected:
        problems.append(f"report windows {windows} differ from recomputed {expected}")
    if codes and codes != [0, 0, 0, 0 if windows else 3]:
        problems.append(f"unexpected exit codes {codes}")
    return outputs, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"grasstri": grasstri.__version__, "numpy": np.__version__}))
        return 0

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    stage = lambda name, fn, *a: fn(*a)  # noqa: E731
    if args.trace:
        tracer = Tracer()
        tracer.install()
        stage = tracer.span
    result: dict = {"error": None}
    try:
        start = perf_counter()
        paths, codes = workload.run(args.seed, args.workdir, stage)
        wall = perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        outputs, problems = check_outputs(workload, paths, codes)
        result.update(pipeline_s=wall, peak_rss_mb=rss_mb, outputs=outputs,
                      problems=problems)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, workload, wall,
                                             outputs["counts"], paths)
    except Exception:  # reported to the caller, which counts the run as failed
        traceback.print_exc()
        result["error"] = traceback.format_exc().strip().splitlines()[-1]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
