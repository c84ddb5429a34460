"""Persistent homology over Z/2 by sparse matrix reduction.

The boundary matrix is stored column-compressed: one sorted int32 row-index
array per simplex, concatenated. The pairing is computed by cohomology: for
each d from 0 up, the coboundary of the d-simplices alone is built from the
(d+1)-columns, its columns are reduced youngest first, and it is freed
before the next degree. Apparent pairs are registered before any column
addition, and d-simplices that killed a class in degree d-1 are skipped
(clearing), so the top dimension is never reduced. The pairs are read off
one row-indexed ``owner`` array at the end. The pairing is identical to the
naive left-to-right reduction of the boundary matrix, the tests' reference
(``reference_reduce_columns`` in ``tests/test_acceptance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .complexes import FacetIndex, Filtration

INF = np.inf

SVG_WIDTH = 900   # pixels
_SVG_COLORS = ("#1f6f8b", "#b55439", "#3d7a3d", "#7a4f9d", "#946b00", "#555555")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Z/2 boundary columns in filtration order, column-compressed.

    Column j occupies ``col_rows[col_ptr[j]:col_ptr[j+1]]``, sorted ascending;
    a d-simplex column holds its d+1 facet positions, a vertex column is empty.
    Rows are int32, like the reduction's ``owner`` and coboundary rows.
    ``dims`` and ``values`` are the filtration's own arrays; nothing mutates them.
    """

    col_ptr: np.ndarray
    col_rows: np.ndarray
    dims: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.col_ptr) - 1


def build_boundary(filtration: Filtration) -> BoundaryMatrix:
    """Boundary columns, each sorted ascending: the face check. The matrix is
    allocated, then blocks of ``BLOCK_BYTES // (128 (d + 1))`` d-simplices look
    up their facets in one ``FacetIndex`` and fill their columns, in order on
    the calling thread; the first failing block raises its ValueError."""
    dims = filtration.dims
    col_ptr = np.zeros(len(filtration) + 1, dtype=np.int64)
    np.cumsum(np.where(dims > 0, dims + 1, 0), out=col_ptr[1:])
    col_rows = np.empty(int(col_ptr[-1]), dtype=np.int32)
    index = FacetIndex(filtration)
    for d in range(1, filtration.max_dim + 1):
        cols, step = np.flatnonzero(dims == d), max(1, linalg.BLOCK_BYTES // (128 * (d + 1)))
        for lo in range(0, len(cols), step):
            block = cols[lo:lo + step]
            col_rows[col_ptr[block, None] + np.arange(d + 1)] = index.facet_rows(d, block)
    return BoundaryMatrix(col_ptr, col_rows, dims, filtration.values)


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
    columns (the tests' ``reference_reduce_columns``), computed from the
    coboundary (de Silva, Morozov & Vejdemo-Johansson 2011): for each degree
    d = 0 .. top-1, ``_coboundary`` builds the coboundary of the d-simplices
    alone and ``_pair_degree`` pairs them into ``owner``, which maps a death
    row to its birth row; the coboundary is freed before the next degree.
    """
    m = len(matrix)
    owner = np.full(m, -1, dtype=np.int32)
    rank = np.empty(m, dtype=np.int32)  # a d-simplex's place among the d-simplices
    for d in range(int(matrix.dims.max()) if m else 0):
        sig = np.flatnonzero(matrix.dims == d)
        rank[sig] = np.arange(len(sig))
        _pair_degree(matrix, sig, rank, *_coboundary(matrix, d, rank, len(sig)), owner)
    deaths = np.flatnonzero(owner >= 0)
    owner[owner[deaths]] = deaths  # now every paired row holds its partner
    births = np.flatnonzero(owner > np.arange(m, dtype=np.int32))  # its partner is younger
    return Pairing(np.column_stack([births, owner[births]]), np.flatnonzero(owner < 0), m)


def _coboundary(matrix: BoundaryMatrix, d: int, rank: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coboundary of the n d-simplices: rank i has the cofacet rows
    ``cob[ptr[i]:ptr[i+1]]``, ascending. A counting sort of the (d+1)-columns'
    entries in blocks of columns, 64 bytes of temporaries an entry: one pass
    counts each rank's cofacets, a second places them."""
    tau = np.flatnonzero(matrix.dims == d + 1).astype(np.int32)
    block = max(1, linalg.BLOCK_BYTES // (64 * (d + 2)))
    at = np.arange(d + 2)[:, None]  # a (d+1)-column's entries, one row each

    def ranks(lo):  # (d+2, block): the ranks of the facets of a block's columns
        return np.take(rank, np.take(matrix.col_rows, matrix.col_ptr[tau[lo:lo + block]] + at))

    # ptr[i+1] starts at rank i's first slot and ends past its last one
    ptr = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, len(tau), block):
        ptr[2:] += np.bincount(ranks(lo).ravel(), minlength=n)[:-1]
    np.cumsum(ptr, out=ptr)
    end, cob = ptr[1:], np.empty(len(tau) * (d + 2), dtype=np.int32)
    dtype = np.int32 if n * block < 2**31 else np.int64  # so rank * block fits
    for lo in range(0, len(tau), block):
        # one (rank, column in block) key per entry, sorted: each rank's columns ascend
        key = np.multiply(ranks(lo), block, dtype=dtype)
        key += np.arange(key.shape[1], dtype=dtype)
        key = key.ravel()
        key.sort()
        runs = key // block
        key -= runs * block
        starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]])
        counts = np.diff(starts, append=len(key))
        runs = runs[starts]
        dest = np.repeat(end[runs] - starts, counts)
        dest += np.arange(len(dest))
        cob[dest] = np.take(tau[lo:], key)
        end[runs] += counts
    return ptr, cob


def _pair_degree(matrix: BoundaryMatrix, sig: np.ndarray, rank: np.ndarray, ptr: np.ndarray,
                 cob: np.ndarray, owner: np.ndarray) -> None:
    """Pair the d-simplices ``sig`` with (d+1)-simplices by coboundary reduction.

    Columns are the d-simplices, youngest first; a column's pivot is its
    oldest cofacet, and ``owner[pivot]`` becomes the column's row. Apparent
    pairs (sigma's oldest cofacet tau has sigma as its youngest facet) are
    registered, a block of ranks at a time, before any column addition. That
    is safe: no column younger than sigma has an entry in row tau, so no sum
    of them reaches pivot tau. A d-simplex that killed a class in degree d-1 would
    reduce to zero and is skipped (clearing). The working column is a
    sorted int array, so its pivot is its first entry. Columns are read by
    rank: ``sig[i]`` has rank i and the cofacets ``cob[ptr[i]:ptr[i+1]]``.
    """
    todo: list[int] = []
    step = max(1, linalg.BLOCK_BYTES // 64)  # ranks a block, 64 bytes of temporaries each
    for lo in range(0, len(sig), step):
        i = lo + np.flatnonzero(np.diff(ptr[lo:lo + step + 1]))  # ranks with cofacets
        oldest, rows = cob[ptr[i]], sig[i]
        apparent = matrix.col_rows[matrix.col_ptr[oldest + 1] - 1] == rows
        owner[oldest[apparent]] = rows[apparent]
        todo += i[~apparent & (owner[rows] < 0)].tolist()

    reduced: dict[int, np.ndarray] = {}  # each paired column as reduced, by rank
    for i in reversed(todo):
        work = cob[ptr[i]:ptr[i + 1]]
        while len(work):
            pivot = int(work[0])
            o = int(owner[pivot])
            if o < 0:
                owner[pivot] = sig[i]
                reduced[i] = work
                break
            o = int(rank[o])
            other = reduced[o] if o in reduced else cob[ptr[o]:ptr[o + 1]]
            work = np.setxor1d(work, other, assume_unique=True)


class Barcode:
    """Arrays ``dims`` (homology degree), ``births`` and ``deaths`` (inf if essential),
    sorted by (degree, birth, death)."""

    def __init__(self, dims, births, deaths):
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return (np.array_equal(self.dims, other.dims) and np.array_equal(self.births, other.births)
                and np.array_equal(self.deaths, other.deaths))

    def __repr__(self) -> str:
        parts = [f"H{d}:{np.count_nonzero(self.dims == d)}" for d in self.degrees()]
        return f"Barcode({', '.join(parts)})"


def barcodes(filtration: Filtration, max_dim: int | None = None) -> Barcode:
    """Persistent homology of the filtration in degrees 0..max_dim: the
    intervals of the pairs of positive length and of the essential rows. The
    default ``max_dim`` is ``filtration.max_dim``, whose cycles no coface can
    kill; ``persist`` defaults to the top dimension - 1 and refuses more."""
    max_dim = filtration.max_dim if max_dim is None else max_dim
    if max_dim < 0:  # checked before the reduction
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    pairing = reduce_boundary(build_boundary(filtration))
    values, dims = filtration.values, filtration.dims
    births, deaths = pairing.pairs[:, 0], pairing.pairs[:, 1]
    finite = values[births] != values[deaths]
    starts = np.concatenate([births[finite], pairing.essential])
    ends = np.concatenate([values[deaths[finite]], np.full(len(pairing.essential), INF)])
    keep = dims[starts] <= max_dim
    return Barcode(dims[starts[keep]], values[starts[keep]], ends[keep])


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


def write_barcode(path, barcode: Barcode) -> None:
    """CSV rows ``degree,birth,death``; ``%.17g`` writes an essential bar's death as inf."""
    rows = zip(barcode.dims.tolist(), barcode.births.tolist(), barcode.deaths.tolist())
    with open(path, "w") as fh:
        fh.write("degree,birth,death\n")
        fh.write("".join(map("%d,%.17g,%.17g\n".__mod__, rows)))


def _ascii(text: str) -> str:
    """``text`` if ASCII without ``_``; ``int()`` and ``float()`` read other digits, and ``_``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} has a character not ASCII, or '_'")
    return text


def read_barcode(path) -> Barcode:
    """Rows of ``_ascii`` text that ``int()`` and ``float()`` read; errors name PATH:LINE."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "degree,birth,death":
            raise ValueError(f"unexpected barcode header: {header!r}")
        for lineno, line in enumerate(fh, 2):
            try:
                if _ascii(line.rstrip("\n")).strip():
                    degree, birth, death = line.strip().split(",")
                    rows.append((int(degree), float(birth), float(death)))
            except ValueError as exc:  # also a row without three fields
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return Barcode(*np.array(rows, dtype=object).reshape(-1, 3).T)


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
