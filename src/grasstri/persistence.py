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

from dataclasses import dataclass

import numpy as np

from .complexes import FacetIndex, Filtration, MissingFace  # MissingFace: raised by build_boundary

INF = np.inf
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
    """Arrays ``dims`` (homology degree), ``births`` and ``deaths`` (inf if essential),
    sorted by (degree, birth, death); from {degree: [(birth, death)]} or ``from_arrays``."""

    def __init__(self, intervals: dict[int, list[tuple[float, float]]]):
        rows = [(int(d), b, e) for d, bars in intervals.items() for b, e in bars]
        self._store(*np.array(rows, dtype=float).reshape(-1, 3).T)

    @classmethod
    def from_arrays(cls, dims, births, deaths) -> Barcode:
        barcode = cls.__new__(cls)
        barcode._store(dims, births, deaths)
        return barcode

    def _store(self, dims, births, deaths) -> None:
        dims = np.asarray(dims, dtype=np.int64)
        births, deaths = np.asarray(births, dtype=float), np.asarray(deaths, dtype=float)
        order = np.lexsort((deaths, births, dims))
        self.dims, self.births, self.deaths = dims[order], births[order], deaths[order]
        bad = ~(np.isfinite(self.births) & (self.births <= self.deaths)) | (self.dims < 0)
        if bad.any():
            d, b, e = (column[bad][0] for column in (self.dims, self.births, self.deaths))
            raise ValueError(f"degree {d} interval ({b}, {e}) needs a finite birth at most "
                             f"its death and a degree of at least 0")

    def degrees(self) -> list[int]:
        return np.unique(self.dims).tolist()

    def intervals(self, degree: int) -> list[tuple[float, float]]:
        mine = self.dims == degree
        return list(zip(self.births[mine].tolist(), self.deaths[mine].tolist()))

    @property
    def max_degree(self) -> int:
        return int(self.dims[-1]) if len(self.dims) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return (np.array_equal(self.dims, other.dims) and np.array_equal(self.births, other.births)
                and np.array_equal(self.deaths, other.deaths))

    def __repr__(self) -> str:
        parts = [f"H{d}:{np.count_nonzero(self.dims == d)}" for d in self.degrees()]
        return f"Barcode({', '.join(parts)})"


def pairing_to_barcode(pairing: Pairing, filtration: Filtration,
                       max_dim: int | None = None) -> Barcode:
    """Intervals of the pairs of positive length and of the essential rows,
    in degrees 0..max_dim."""
    if max_dim is None:
        max_dim = filtration.max_dim
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    values, dims = filtration.values, filtration.dims
    births, deaths = pairing.pairs[:, 0], pairing.pairs[:, 1]
    finite = values[births] != values[deaths]
    starts = np.concatenate([births[finite], pairing.essential])
    ends = np.concatenate([values[deaths[finite]], np.full(len(pairing.essential), INF)])
    keep = dims[starts] <= max_dim
    return Barcode.from_arrays(dims[starts[keep]], values[starts[keep]], ends[keep])


def barcodes(filtration: Filtration, max_dim: int | None = None) -> Barcode:
    """Persistent homology of the filtration in degrees 0..max_dim."""
    if max_dim is not None and max_dim < 0:  # checked before the reduction, too
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    pairing = reduce_boundary(build_boundary(filtration))
    return pairing_to_barcode(pairing, filtration, max_dim)


def betti_profile(barcode: Barcode, points, top_dim: int) -> np.ndarray:
    """Betti numbers in degrees 0..top_dim, one row per parameter r of ``points``.
    A bar counts at r when birth <= r < death; every bar dead by r was born by
    r, so a degree's number is its births <= r minus its deaths <= r."""
    profile = np.empty((len(points), top_dim + 1), dtype=np.int64)
    for d in range(top_dim + 1):
        mine = barcode.dims == d  # its births stay sorted
        profile[:, d] = (np.searchsorted(barcode.births[mine], points, side="right")
                         - np.searchsorted(np.sort(barcode.deaths[mine]), points, side="right"))
    return profile


def betti_at(barcode: Barcode, r: float, top_dim: int | None = None) -> tuple[int, ...]:
    """Betti numbers at parameter r: intervals with birth <= r < death."""
    top = barcode.max_degree if top_dim is None else top_dim
    return tuple(betti_profile(barcode, [r], top)[0].tolist())


def write_barcode(path, barcode: Barcode) -> None:
    """CSV rows ``degree,birth,death``; ``%.17g`` writes an essential bar's death as inf."""
    rows = zip(barcode.dims.tolist(), barcode.births.tolist(), barcode.deaths.tolist())
    with open(path, "w") as fh:
        fh.write("degree,birth,death\n")
        fh.write("".join(map("%d,%.17g,%.17g\n".__mod__, rows)))


def read_barcode(path) -> Barcode:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "degree,birth,death":
            raise ValueError(f"unexpected barcode header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return Barcode.from_arrays(*np.array(rows, dtype=str).reshape(len(rows), 3).T)


def write_barcode_svg(path, barcode: Barcode) -> None:
    """One panel per degree, horizontal bars along the shared r-axis."""
    ends = np.concatenate([barcode.births, barcode.deaths[barcode.deaths != INF]])
    r_hi = float(np.max(ends, initial=1.0)) * 1.05
    left, right, bar_h, gap, panel_pad = 60.0, SVG_WIDTH - 20.0, 6.0, 4.0, 28.0

    def x_of(r: float) -> float:
        return left + (right - left) * (r / r_hi)

    rows = []
    y = 10.0
    for d in barcode.degrees():
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
