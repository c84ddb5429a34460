"""Persistent homology over Z/2 by sparse boundary-matrix reduction.

The boundary matrix is stored column-compressed: one sorted row-index array
per simplex, concatenated. Reduction works dimension by dimension from the
top, clearing columns already identified as killers; the resulting pairing
is identical to the naive left-to-right reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import FacetIndex, Filtration, MissingFace  # MissingFace: raised by build_boundary

INF = math.inf
BLOCK = 1 << 15   # boundary columns looked up at once

_SVG_COLORS = ("#1f6f8b", "#b55439", "#3d7a3d", "#7a4f9d", "#946b00", "#555555")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Z/2 boundary columns in filtration order, column-compressed.

    Column j occupies ``col_rows[col_ptr[j]:col_ptr[j+1]]``, sorted ascending;
    a d-simplex column holds its d+1 facet positions, a vertex column is empty.
    """

    col_ptr: np.ndarray
    col_rows: np.ndarray
    dims: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.col_ptr) - 1

    def column(self, j: int) -> np.ndarray:
        return self.col_rows[self.col_ptr[j]:self.col_ptr[j + 1]]


def build_boundary(filtration: Filtration) -> BoundaryMatrix:
    """Boundary columns from one ``FacetIndex``, each sorted ascending. The
    matrix is allocated before the lookup, which runs BLOCK columns at a time
    so that its temporaries stay small."""
    dims = filtration.dims
    counts = np.where(dims > 0, dims.astype(np.int64) + 1, 0)
    col_ptr = np.zeros(len(filtration) + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    col_rows = np.empty(int(col_ptr[-1]), dtype=np.int64)
    matrix = BoundaryMatrix(col_ptr, col_rows, dims.copy(), filtration.values.copy())
    index = FacetIndex(filtration)
    for d in range(1, filtration.max_dim + 1):
        cols = np.flatnonzero(dims == d)
        for lo in range(0, len(cols), BLOCK):
            block = cols[lo:lo + BLOCK]
            rowmat = index.facet_rows(d, block)
            rowmat.sort(axis=1)
            starts = col_ptr[block]
            for p in range(d + 1):
                col_rows[starts + p] = rowmat[:, p]
    return matrix


@dataclass(frozen=True)
class Pairing:
    """Reduction outcome: (birth, death) column pairs plus essential births."""

    pairs: tuple[tuple[int, int], ...]
    essential: tuple[int, ...]
    size: int


def reduce_boundary(matrix: BoundaryMatrix, optimized: bool = True) -> Pairing:
    """Column reduction over Z/2.

    Repeatedly adds earlier columns sharing the same lowest nonzero row until
    lows are distinct or the column vanishes. The optimized path processes
    dimensions from the top, skips columns whose row was already paired (they
    are guaranteed to reduce to zero), and replaces the degree-0 pass with
    union-find, which yields the same merge pairing; both paths produce the
    one canonical pairing.
    """
    m = len(matrix)
    col_ptr, col_rows, dims = matrix.col_ptr, matrix.col_rows, matrix.dims
    pairs: list[tuple[int, int]] = []
    killed = bytearray(m)

    def run_columns(columns) -> None:
        low_inv: dict[int, tuple[int, ...]] = {}
        for j in columns:
            if killed[j]:
                continue
            p0, p1 = col_ptr[j], col_ptr[j + 1]
            if p1 == p0:
                continue
            rows = col_rows[p0:p1].tolist()
            other = low_inv.get(rows[-1])
            if other is None:
                low_inv[rows[-1]] = tuple(rows)
                pairs.append((rows[-1], j))
                killed[rows[-1]] = 1
                killed[j] = 1
                continue
            work = set(rows)
            while True:
                work.symmetric_difference_update(other)
                if not work:
                    break
                low = max(work)
                other = low_inv.get(low)
                if other is None:
                    low_inv[low] = tuple(sorted(work))
                    pairs.append((low, j))
                    killed[low] = 1
                    killed[j] = 1
                    break

    def run_edges(columns) -> None:
        # merge pairing by union-find: an edge joining two components kills
        # the younger component's root, matching the reduced pivot exactly
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j in columns:
            a, b = col_rows[col_ptr[j]:col_ptr[j + 1]]
            ra, rb = find(int(a)), find(int(b))
            if ra == rb:
                continue
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra
            pairs.append((rb, j))
            killed[rb] = 1
            killed[j] = 1

    if optimized:
        top = int(dims.max()) if m else 0
        for d in range(top, 1, -1):
            run_columns(np.flatnonzero(dims == d).tolist())
        run_edges(np.flatnonzero(dims == 1).tolist())
    else:
        run_columns(range(m))

    essential = tuple(j for j in range(m) if not killed[j])
    pairs.sort()
    return Pairing(tuple(pairs), essential, m)


class Barcode:
    """Intervals per homological degree, sorted by (birth, death)."""

    def __init__(self, intervals: dict[int, list[tuple[float, float]]]):
        self._intervals = {
            int(d): sorted((float(b), float(e)) for b, e in bars)
            for d, bars in intervals.items() if bars
        }
        for d, bars in self._intervals.items():
            for b, e in bars:
                if not b <= e:
                    raise ValueError(f"degree {d} interval ({b}, {e}) has birth > death")

    def degrees(self) -> list[int]:
        return sorted(self._intervals)

    def intervals(self, degree: int) -> list[tuple[float, float]]:
        return list(self._intervals.get(degree, []))

    @property
    def max_degree(self) -> int:
        return max(self._intervals, default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return self._intervals == other._intervals

    def __repr__(self) -> str:
        parts = [f"H{d}:{len(bars)}" for d, bars in sorted(self._intervals.items())]
        return f"Barcode({', '.join(parts)})"


def pairing_to_barcode(pairing: Pairing, filtration: Filtration,
                       max_dim: int | None = None) -> Barcode:
    if max_dim is None:
        max_dim = filtration.max_dim
    values, dims = filtration.values, filtration.dims
    intervals: dict[int, list[tuple[float, float]]] = {}
    for i, j in pairing.pairs:
        deg = int(dims[i])
        if deg > max_dim:
            continue
        birth, death = float(values[i]), float(values[j])
        if birth == death:
            continue
        intervals.setdefault(deg, []).append((birth, death))
    for i in pairing.essential:
        deg = int(dims[i])
        if deg > max_dim:
            continue
        intervals.setdefault(deg, []).append((float(values[i]), INF))
    return Barcode(intervals)


def barcodes(filtration: Filtration, max_dim: int | None = None) -> Barcode:
    """Persistent homology of the filtration in degrees 0..max_dim."""
    pairing = reduce_boundary(build_boundary(filtration))
    return pairing_to_barcode(pairing, filtration, max_dim)


def betti_at(barcode: Barcode, r: float, top_dim: int | None = None) -> tuple[int, ...]:
    """Betti numbers at parameter r: intervals with birth <= r < death."""
    if top_dim is None:
        top_dim = barcode.max_degree
    return tuple(
        sum(1 for b, e in barcode.intervals(d) if b <= r < e)
        for d in range(top_dim + 1)
    )


def write_barcode(path, barcode: Barcode) -> None:
    """CSV rows ``degree,birth,death``; death is the token inf for essential bars."""
    with open(path, "w") as fh:
        fh.write("degree,birth,death\n")
        for d in barcode.degrees():
            for b, e in barcode.intervals(d):
                death = "inf" if e == INF else f"{e:.17g}"
                fh.write(f"{d},{b:.17g},{death}\n")


def read_barcode(path) -> Barcode:
    intervals: dict[int, list[tuple[float, float]]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "degree,birth,death":
            raise ValueError(f"unexpected barcode header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            deg, birth, death = line.strip().split(",")
            intervals.setdefault(int(deg), []).append((float(birth), float(death)))
    return Barcode(intervals)


def write_barcode_svg(path, barcode: Barcode, width: int = 900) -> None:
    """One panel per degree, horizontal bars along the shared r-axis."""
    degrees = barcode.degrees()
    finite = [e for d in degrees for _, e in barcode.intervals(d) if e != INF]
    births = [b for d in degrees for b, _ in barcode.intervals(d)]
    r_hi = max(finite + births + [1.0]) * 1.05 or 1.0
    left, right, bar_h, gap, panel_pad = 60.0, width - 20.0, 6.0, 4.0, 28.0

    def x_of(r: float) -> float:
        return left + (right - left) * (r / r_hi)

    rows = []
    y = 10.0
    for d in degrees:
        color = _SVG_COLORS[d % len(_SVG_COLORS)]
        bars = barcode.intervals(d)
        rows.append(f'<text x="8" y="{y + 14:.1f}" font-size="13" '
                    f'fill="{color}">H{d} ({len(bars)})</text>')
        y += panel_pad - 8
        for b, e in bars:
            x0 = x_of(b)
            x1 = right if e == INF else x_of(e)
            rows.append(f'<rect x="{x0:.2f}" y="{y:.2f}" width="{max(x1 - x0, 1.0):.2f}" '
                        f'height="{bar_h:.1f}" fill="{color}"/>')
            if e == INF:
                rows.append(f'<text x="{right + 2:.1f}" y="{y + bar_h:.1f}" '
                            f'font-size="9" fill="{color}">&#8734;</text>')
            y += bar_h + gap
        y += panel_pad
    height = y + 30
    axis_y = height - 22
    ticks = "".join(
        f'<line x1="{x_of(t):.2f}" y1="{axis_y:.1f}" x2="{x_of(t):.2f}" '
        f'y2="{axis_y + 5:.1f}" stroke="#333"/>'
        f'<text x="{x_of(t):.2f}" y="{axis_y + 16:.1f}" font-size="10" '
        f'text-anchor="middle" fill="#333">{t:.3g}</text>'
        for t in (0.0, r_hi / 2, r_hi)
    )
    body = "\n".join(rows)
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height:.0f}" viewBox="0 0 {width} {height:.0f}">\n'
            f'<rect width="{width}" height="{height:.0f}" fill="white"/>\n'
            f'<line x1="{left}" y1="{axis_y:.1f}" x2="{right}" y2="{axis_y:.1f}" '
            f'stroke="#333"/>\n{ticks}\n{body}\n</svg>\n'
        )
