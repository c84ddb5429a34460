"""Per-layer spans recorded from outside grasstri, and the metrics built on them.

The tracer replaces public module attributes with wrappers that record a span
(name, start, end, parent) around each call. grasstri's modules reach each
other through module globals, so a wrapper on ``complexes.pairwise_distances``
sees every distance call the complex builders make. Spans stay in memory; the
metrics are computed once the experiment has finished.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter

import numpy as np

from grasstri import analysis, complexes, grassmann, persistence


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counters: Counter = Counter()
        self.last: dict = {}             # span name -> latest return value kept

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, observe=None) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, name, out)
            return out

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics are built from."""
        samplers = [a for a in dir(grassmann) if a.startswith("sample_")]
        for attr in samplers + ["gram_schmidt", "random_orthogonal",
                                "projection_matrix", "write_cloud", "read_cloud"]:
            self.wrap(grassmann, attr)
        self.wrap(complexes, "pairwise_distances", _count_distances)
        for attr in ("maxmin_landmarks", "witness_edge_values", "vietoris_rips",
                     "witness_filtration", "write_filtration", "read_filtration"):
            self.wrap(complexes, attr)
        for attr in ("build_boundary", "reduce_boundary"):
            self.wrap(persistence, attr, _keep)
        for attr in ("write_barcode", "write_barcode_svg"):
            self.wrap(persistence, attr)
        self.wrap(analysis, "sample_space")
        self.wrap(analysis, "matching_windows", _keep)
        self.wrap(analysis, "write_window_report")

    def total(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def self_time(self, *names: str) -> float:
        """Duration of the named spans minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i]
                   for i, s in enumerate(self.spans) if s[0] in names)

    def layer_time(self) -> float:
        """Time covered by library spans directly under the workload's stage spans."""
        roots = {i for i, s in enumerate(self.spans) if s[3] < 0}
        return sum(s[2] - s[1] for s in self.spans if s[3] in roots)


def _count_distances(tracer: Tracer, name: str, out) -> None:
    tracer.counters["distances"] += int(out.size)


def _keep(tracer: Tracer, name: str, out) -> None:
    tracer.last[name] = out


def input_properties(matrix, pairing) -> dict:
    """Shares of persistence pairs that are apparent, and that have zero length.

    A pair (sigma, tau) is apparent when sigma is tau's pivot (its youngest
    facet) and tau is the leftmost column with a nonzero in row sigma (its
    oldest cofacet).
    """
    ptr, rows = matrix.col_ptr, matrix.col_rows
    lengths = np.diff(ptr)
    cols = np.flatnonzero(lengths)
    pivots = rows[ptr[cols + 1] - 1]
    # columns are stored left to right, so a row's first entry is its leftmost column
    entry_col = np.repeat(np.arange(len(lengths)), lengths)
    seen, first = np.unique(rows, return_index=True)
    leftmost = np.full(len(lengths), -1, dtype=np.int64)
    leftmost[seen] = entry_col[first]
    apparent = int(np.count_nonzero(leftmost[pivots] == cols))
    pairs = np.asarray(pairing.pairs, dtype=np.int64).reshape(-1, 2)
    zero = int(np.count_nonzero(matrix.values[pairs[:, 0]] == matrix.values[pairs[:, 1]]))
    return {"apparent_share": apparent / len(pairs), "zero_length_share": zero / len(pairs)}


STAGES = ("sample", "witness", "persist", "window")


def layer_metrics(tracer: Tracer, workload, wall: float, counts: list[int],
                  paths: dict) -> dict:
    """Every per-layer metric of one traced experiment, keyed by metric name.

    Every workload builds, reduces and looks for windows once; a layer a
    workload does not use (landmarks, file reads, stage commands) reads 0.
    """
    m: dict[str, float] = {}
    matrix = tracer.last["persistence.build_boundary"]
    pairing = tracer.last["persistence.reduce_boundary"]
    reduce_s = tracer.total("persistence.reduce_boundary")
    m["persistence.reduce_s"] = reduce_s
    m["persistence.columns_per_s"] = pairing.size / reduce_s
    m["persistence.pairs"] = len(pairing.pairs)
    m["persistence.essential"] = len(pairing.essential)
    m.update({f"persistence.{k}": v for k, v in input_properties(matrix, pairing).items()})
    m["persistence.boundary_s"] = tracer.total("persistence.build_boundary")
    m["persistence.boundary_nnz"] = len(matrix.col_rows)
    m["persistence.boundary_mb"] = sum(
        a.nbytes for a in (matrix.col_ptr, matrix.col_rows, matrix.dims, matrix.values)) / 1e6

    builders = ("complexes.vietoris_rips", "complexes.witness_filtration")
    build_s = tracer.total(*builders)
    m["complexes.build_s"] = build_s
    m["complexes.build_self_s"] = tracer.self_time(*builders)
    m["complexes.edges"] = counts[1] if len(counts) > 1 else 0
    m["complexes.simplices"] = sum(counts)
    for d in range(6):
        m[f"complexes.simplices.d{d}"] = counts[d] if d < len(counts) else 0
    m["complexes.simplices_per_s"] = sum(counts) / build_s
    m["complexes.filtration_write_s"] = tracer.total("complexes.write_filtration")
    m["complexes.filtration_read_s"] = tracer.total("complexes.read_filtration")
    m["complexes.filtration_bytes"] = os.path.getsize(paths["filtration"])
    m["complexes.landmarks_s"] = tracer.total("complexes.maxmin_landmarks")
    m["complexes.witness_edge_s"] = tracer.total("complexes.witness_edge_values")
    n = workload.vertices
    m["complexes.witness_pairs"] = (
        tracer.calls("complexes.witness_edge_values") * n * (n - 1) // 2)

    sample_s = tracer.total("analysis.sample_space")
    m["grassmann.sample_s"] = sample_s
    m["grassmann.points_per_s"] = workload.points / sample_s
    m["grassmann.cloud_write_s"] = tracer.total("grassmann.write_cloud")
    m["grassmann.cloud_read_s"] = tracer.total("grassmann.read_cloud")
    m["grassmann.cloud_bytes"] = os.path.getsize(paths["cloud"])

    m["linalg.distance_s"] = tracer.total("complexes.pairwise_distances")
    m["linalg.distance_calls"] = tracer.calls("complexes.pairwise_distances")
    m["linalg.distances_computed"] = tracer.counters["distances"]
    m["linalg.frame_calls"] = tracer.calls(
        "grassmann.gram_schmidt", "grassmann.random_orthogonal",
        "grassmann.projection_matrix")

    report = tracer.last["analysis.matching_windows"]
    m["analysis.windows_s"] = tracer.total("analysis.matching_windows")
    m["analysis.critical_values"] = len(report.critical_values)
    m["analysis.windows"] = len(report.windows)
    m["analysis.report_write_s"] = tracer.total("analysis.write_window_report")

    for stage in STAGES:
        m[f"cli.{stage}_s"] = tracer.total(f"cli.{stage}")
    m["trace.unattributed_s"] = wall - tracer.layer_time()
    return m
