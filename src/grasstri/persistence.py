"""Persistent homology over Z/2 by sparse matrix reduction.

The boundary matrix is stored column-compressed: one sorted row-index array
per simplex, concatenated. The pairing is computed by cohomology: for each d
from 0 up the coboundary columns of the d-simplices (the boundary matrix
transposed, one dimension at a time) are reduced youngest first. Apparent
pairs are registered before any column addition, and d-simplices that killed
a class in degree d-1 are skipped (clearing), so the top dimension is never
reduced. The pairing is identical to the naive left-to-right reduction of
the boundary matrix, which stays as the reference (``_reduce_columns``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import FacetIndex, Filtration, MissingFace  # MissingFace: raised by build_boundary

INF = math.inf
BLOCK = 1 << 15   # columns looked up at once by build_boundary and _coboundary

SVG_WIDTH = 900   # pixels
_SVG_COLORS = ("#1f6f8b", "#b55439", "#3d7a3d", "#7a4f9d", "#946b00", "#555555")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Z/2 boundary columns in filtration order, column-compressed.

    Column j occupies ``col_rows[col_ptr[j]:col_ptr[j+1]]``, sorted ascending;
    a d-simplex column holds its d+1 facet positions, a vertex column is empty.
    ``dims`` and ``values`` are the filtration's own arrays; nothing mutates them.
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
    matrix = BoundaryMatrix(col_ptr, col_rows, dims, filtration.values)
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


@dataclass(frozen=True, eq=False)
class Pairing:
    """Reduction outcome over the filtration's rows.

    ``pairs`` is a (k, 2) int64 array of (birth, death) rows sorted by birth,
    ``essential`` the ascending int64 rows that are in no pair, and ``size``
    the number of simplices. Compare pairings field by field with
    ``np.array_equal``.
    """

    pairs: np.ndarray
    essential: np.ndarray
    size: int


def reduce_boundary(matrix: BoundaryMatrix) -> Pairing:
    """The persistence pairing of a boundary matrix over Z/2.

    It is the pairing of the naive left-to-right reduction of the boundary
    columns (``_reduce_columns``, the reference), computed from the
    coboundary (de Silva, Morozov & Vejdemo-Johansson 2011): for
    d = 0 .. top-1 the coboundary columns of the d-simplices, youngest
    first, each pivoting on its oldest cofacet (``_pair_degree``). Apparent
    pairs are registered in one vectorized pass before any column addition,
    and a d-simplex that killed a class in degree d-1 is skipped (clearing),
    so top-dimension simplices are only read as cofacets.
    """
    m = len(matrix)
    dims = matrix.dims
    top = int(dims.max()) if m else 0
    rank = np.empty(m, dtype=np.int32)  # a simplex's position within its dimension
    for d in range(top + 1):
        rows = np.flatnonzero(dims == d)
        rank[rows] = np.arange(len(rows), dtype=np.int32)
    killed = np.zeros(m, dtype=bool)
    pairs = np.concatenate([_pair_degree(matrix, d, rank, killed)
                            for d in range(max(top, 1))])
    pairs = pairs[np.argsort(pairs[:, 0])]
    return Pairing(pairs, np.flatnonzero(~killed), m)


def _pair_degree(matrix: BoundaryMatrix, d: int, rank: np.ndarray,
                 killed: np.ndarray) -> np.ndarray:
    """Pairs of d-simplices with (d+1)-simplices by coboundary reduction.

    Columns are the d-simplices not yet killed, youngest first; a column's
    pivot is its oldest cofacet. Apparent pairs (sigma's oldest cofacet tau
    has sigma as its youngest facet) are registered in one pass before any
    column addition. That is safe: no column younger than sigma has an entry
    in row tau, so no sum of them reaches pivot tau. The working column is a
    sorted int array, so its pivot is its first entry.
    """
    sig_rows = np.flatnonzero(matrix.dims == d)
    tau_rows = np.flatnonzero(matrix.dims == d + 1)
    ptr, cob = _coboundary(matrix, d, len(sig_rows), tau_rows, rank)
    col_ptr, col_rows = matrix.col_ptr, matrix.col_rows

    has = np.flatnonzero(ptr[1:] > ptr[:-1])
    oldest = cob[ptr[has]]
    youngest = rank[col_rows[col_ptr[tau_rows[oldest] + 1] - 1]]
    apparent = youngest == has
    owner = np.full(len(tau_rows), -1, dtype=np.int32)  # pivot -> column rank
    owner[oldest[apparent]] = has[apparent]
    # cleared columns (killed in degree d-1) would reduce to zero
    todo = has[~apparent & ~killed[sig_rows[has]]]

    reduced: dict[int, np.ndarray] = {}  # the columns that took an addition
    found_b, found_d = [], []
    for s in todo[::-1].tolist():
        work = cob[ptr[s]:ptr[s + 1]]
        added = False
        while len(work):
            pivot = int(work[0])
            o = int(owner[pivot])
            if o < 0:
                owner[pivot] = s
                if added:
                    reduced[s] = work
                found_b.append(s)
                found_d.append(pivot)
                break
            other = reduced.get(o)
            if other is None:
                other = cob[ptr[o]:ptr[o + 1]]
            work = np.setxor1d(work, other, assume_unique=True)
            added = True
    births = sig_rows[np.concatenate([has[apparent], np.array(found_b, dtype=np.int64)])]
    deaths = tau_rows[np.concatenate([oldest[apparent], np.array(found_d, dtype=np.int64)])]
    killed[births] = True
    killed[deaths] = True
    return np.column_stack([births, deaths])


def _coboundary(matrix: BoundaryMatrix, d: int, count: int, tau_rows: np.ndarray,
                rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cofacets of the d-simplices, by rank within their dimensions.

    Returns (ptr, cob): the cofacet ranks of the d-simplex of rank s are
    ``cob[ptr[s]:ptr[s+1]]``, ascending. A counting sort over BLOCK cofacet
    columns at a time keeps the temporaries small; ranks are int32.
    """
    col_ptr, col_rows = matrix.col_ptr, matrix.col_rows
    slots = np.arange(d + 2)

    def facets(lo: int) -> np.ndarray:
        return rank[col_rows[col_ptr[tau_rows[lo:lo + BLOCK], None] + slots]].ravel()

    blocks = range(0, len(tau_rows), BLOCK)
    counts = np.zeros(count, dtype=np.int64)
    for lo in blocks:
        counts += np.bincount(facets(lo), minlength=count)
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    cob = np.empty(int(ptr[-1]), dtype=np.int32)
    fill = ptr[:-1].copy()
    for lo in blocks:
        sig = facets(lo)
        order = np.argsort(sig, kind="stable")
        sig = sig[order]
        # an entry's place among this block's entries of the same simplex
        place = np.arange(len(sig)) - np.searchsorted(sig, sig)
        cob[fill[sig] + place] = (order // (d + 2) + lo).astype(np.int32)
        fill += np.bincount(sig, minlength=count)
    return ptr, cob


def _reduce_columns(matrix: BoundaryMatrix) -> Pairing:
    """Left-to-right reduction of every boundary column: the reference."""
    m = len(matrix)
    col_ptr, col_rows = matrix.col_ptr, matrix.col_rows
    pairs: list[tuple[int, int]] = []
    killed = bytearray(m)
    low_inv: dict[int, tuple[int, ...]] = {}
    for j in range(m):
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
    pairs.sort()
    return Pairing(np.array(pairs, dtype=np.int64).reshape(-1, 2),
                   np.array([j for j in range(m) if not killed[j]], dtype=np.int64), m)


class Barcode:
    """Intervals per homological degree, sorted by (birth, death)."""

    def __init__(self, intervals: dict[int, list[tuple[float, float]]]):
        self._intervals = {
            int(d): sorted((float(b), float(e)) for b, e in bars)
            for d, bars in intervals.items() if bars
        }
        for d, bars in self._intervals.items():
            for b, e in bars:
                if not (math.isfinite(b) and b <= e):
                    raise ValueError(f"degree {d} interval ({b}, {e}) needs a finite "
                                     f"birth at most its death")

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
    """Intervals of the pairs of positive length and of the essential rows,
    in degrees 0..max_dim."""
    if max_dim is None:
        max_dim = filtration.max_dim
    values, dims = filtration.values, filtration.dims
    births, deaths = pairing.pairs[:, 0], pairing.pairs[:, 1]
    finite = values[births] != values[deaths]
    starts = np.concatenate([births[finite], pairing.essential])
    ends = np.concatenate([values[deaths[finite]], np.full(len(pairing.essential), INF)])
    keep = dims[starts] <= max_dim
    starts, ends = starts[keep], ends[keep]
    degrees = dims[starts]
    return Barcode({
        d: list(zip(values[starts[degrees == d]].tolist(), ends[degrees == d].tolist()))
        for d in np.unique(degrees).tolist()
    })


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


def write_barcode_svg(path, barcode: Barcode) -> None:
    """One panel per degree, horizontal bars along the shared r-axis."""
    degrees = barcode.degrees()
    finite = [e for d in degrees for _, e in barcode.intervals(d) if e != INF]
    births = [b for d in degrees for b, _ in barcode.intervals(d)]
    r_hi = max(finite + births + [1.0]) * 1.05 or 1.0
    left, right, bar_h, gap, panel_pad = 60.0, SVG_WIDTH - 20.0, 6.0, 4.0, 28.0

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
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
            f'height="{height:.0f}" viewBox="0 0 {SVG_WIDTH} {height:.0f}">\n'
            f'<rect width="{SVG_WIDTH}" height="{height:.0f}" fill="white"/>\n'
            f'<line x1="{left}" y1="{axis_y:.1f}" x2="{right}" y2="{axis_y:.1f}" '
            f'stroke="#333"/>\n{ticks}\n{body}\n</svg>\n'
        )
