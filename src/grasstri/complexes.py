"""Filtered simplicial complexes on point clouds.

Both builders produce the same Filtration structure: parallel arrays of
filtration values, dimensions, and vertex tuples, canonically ordered by
(value, dimension, lexicographic vertices). Clique growth is shared: a
Vietoris-Rips complex is the flag complex of the distance-threshold graph,
and the witness complex is the flag complex of the witnessed-edge graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import pairwise_distances  # a name here too: perfbench wraps it

DEFAULT_MAX_SIMPLICES = 5_000_000  # the builders', the pipeline's and the CLI's simplex cap


class ResourceLimit(RuntimeError):
    """Simplex count exceeded the configured cap."""


class Filtration:
    """Simplices ordered by (value, dim, lexicographic vertices), one per row.

    Stored as parallel arrays, given already in that order: ``values`` (float), ``dims``
    (int32), and ``verts``, an (m, width) int32 matrix padded with -1 past each simplex's
    vertex count. The order puts every face before its cofaces, so each prefix is a complex.
    Only the constructor narrows to int32: an array of another type may hold only -1 and
    integers in [0, B), B = 2**31 for dimensions and min(vertex_count, 2**31) for labels; a
    ValueError names its first other entry.
    """

    __slots__ = ("values", "dims", "verts", "vertex_count")

    def __init__(self, values: np.ndarray, dims: np.ndarray, verts: np.ndarray,
                 vertex_count: int):
        self.values, self.vertex_count = np.ascontiguousarray(values, float), int(vertex_count)
        if self.vertex_count < 0:
            raise ValueError(f"vertex_count {self.vertex_count} is negative")
        for name, what, a, top in (("dims", "simplex dimension", dims, 2**31),
                                   ("verts", "vertex label", verts, min(self.vertex_count, 2**31))):
            if (a := np.asarray(a)).dtype != np.int32:
                inside = (a >= -1) & (a < top)  # nan is outside
                if len(bad := np.flatnonzero(~inside | (np.where(inside, a, 0) % 1 != 0))):
                    fault = "is not an integer" if inside.flat[bad[0]] else f"outside [0, {top})"
                    raise ValueError(f"{what} {a.flat[bad[0]]} {fault}")
            setattr(self, name, np.ascontiguousarray(a, np.int32))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def max_dim(self) -> int:
        return int(self.dims.max()) if len(self.dims) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        return self.vertex_count == other.vertex_count and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("values", "dims", "verts"))

    def validate(self) -> None:
        """Values are finite, vertices strictly increase, labels lie in
        [0, vertex_count), and adjacent rows strictly increase by
        (value, dim, vertices). Each test runs a column at a time over blocks
        of ``BLOCK_BYTES // 16`` rows, each block from the last row of the one
        before; the first bad row of the first failing test is reported. Faces
        are checked by ``persistence.build_boundary``, which ``barcodes`` runs."""
        width = self.verts.shape[1]
        step = max(1, linalg.BLOCK_BYTES // 16)

        def first_bad(test):
            for lo in range(0, len(self), step):
                at = slice(max(lo - 1, 0), lo + step)
                bad = np.flatnonzero(~test(self.values[at], self.dims[at], self.verts[at]))
                if len(bad):
                    return at.start + int(bad[0])

        def labelled(values, dims, verts):
            ok = (dims >= 0) & (dims < width)
            for p, column in enumerate(verts.T):
                ok &= ((column >= 0) & (column < self.vertex_count)) == (dims >= p)
            return ok

        def rising(values, dims, verts):
            ok = np.ones(len(dims), bool)
            for p in range(1, width):
                ok &= (verts[:, p] > verts[:, p - 1]) | (dims < p)
            return ok

        def ordered(values, dims, verts):  # "row i-1 < row i", folded from its last key
            less = False
            for key in [*verts.T[::-1], dims, values]:
                less = (key[:-1] < key[1:]) | ((key[:-1] == key[1:]) & less)
            return np.r_[True, less]

        if (i := first_bad(lambda values, dims, verts: np.isfinite(values))) is not None:
            raise ValueError(f"filtration value {self.values[i]} at position {i} is not finite")
        if first_bad(labelled) is not None:
            raise ValueError(f"each simplex needs 1 to {width} vertex labels in "
                             f"[0, {self.vertex_count}), padded with -1")
        if (i := first_bad(rising)) is not None:
            raise ValueError("simplex vertices must strictly increase: "
                             f"{tuple(self.verts[i, :self.dims[i] + 1].tolist())}")
        if (i := first_bad(ordered)) is not None:
            raise ValueError(f"simplices out of order at position {i}")


def _subset_keys(binom, n: int, j: int, count) -> np.ndarray:
    """Lexicographic ranks of j-subsets of n labels, C(n, j) - 1 - sum_i C(c_i, j - i),
    with ``count(i)`` the counts c_i of labels above member i, one member at a time,
    and ``binom[j][c]`` = C(c, j). No partial sum leaves [0, C(n, j))."""
    keys = math.comb(n, j) - 1 - np.take(binom[j], count(0))
    for i in range(1, j):
        keys -= np.take(binom[j - i], count(i))
    return keys


def _label_slots(verts: np.ndarray):
    """Table slots of the labels of ``verts``, padding -1 kept, and the label of each
    slot: the labels themselves while the largest is at most ``verts.size``, else their
    ranks among those in use, so that a table indexed by slot stays within the matrix."""
    if verts.max(initial=0) <= verts.size:
        return verts, np.arange(verts.max(initial=-1) + 1)
    used, ranks = np.unique(verts, return_inverse=True)
    return (ranks.reshape(verts.shape) - (used[0] < 0)).astype(np.int32), used[used >= 0]


class FacetIndex:
    """The simplices below a filtration's top dimension, keyed to find facets.

    A k-simplex's key is its ``_subset_keys`` rank among n slots: n is the largest
    ``_label_slots`` slot + 1, and a vertex counts c = n - 1 - slot slots above it. Where
    C(n, k + 1) is at most the (k + 1)-simplices' boundary entries, ``rows[k]`` is an
    int32 table of the k-simplices' rows by key, -1 where none, and ``keys[k]`` is None.
    Elsewhere ``keys[k]`` holds their sorted keys, then C(n, k + 1), and ``rows[k]`` their
    rows, then -1; lexicographic keys follow the tie order, so nearby rows search nearby
    keys. Keys are int64 while every C(n, j), j <= top dimension, is below 2**63, else
    Python ints. Each k-simplex must find its own row: one listed twice raises ValueError.
    """

    def __init__(self, filtration: Filtration):
        self.verts, self.slots = filtration.verts, _label_slots(filtration.verts)[0]
        self.n, top = int(self.slots.max(initial=-1)) + 1, filtration.max_dim
        wide = max(math.comb(self.n, j) for j in range(top + 1)) >= 2**63
        self.binom = [np.ones(self.n, dtype=object if wide else np.int64)]  # binom[j][c] = C(c, j)
        for j in range(1, top + 1):
            self.binom.append(np.r_[0, np.cumsum(self.binom[-1][:-1])])
        self.keys, self.rows = [], []
        for k in range(top):
            rows_k = np.flatnonzero(filtration.dims == k)
            keys = _subset_keys(self.binom, self.n, k + 1,
                                lambda i: self.n - 1 - self.slots[rows_k, i])
            size, cofaces = math.comb(self.n, k + 1), np.count_nonzero(filtration.dims == k + 1)
            if size <= (k + 2) * cofaces:  # a table no larger than the boundary entries it fills
                self.keys.append(None)
                self.rows.append(np.full(size, -1, dtype=np.int32))
                self.rows[-1][keys.astype(np.int64, copy=False)] = rows_k
                twice = np.count_nonzero(self.rows[-1] >= 0) < len(rows_k)
            else:
                order = np.argsort(keys)
                self.keys.append(np.r_[np.take(keys, order), size])
                self.rows.append(np.r_[np.take(rows_k, order), -1])
                twice = (self.keys[-1][1:] == self.keys[-1][:-1]).any()
            if twice:  # name the first row whose key finds another row
                bad = np.flatnonzero((found := self.find(k, keys)) != rows_k)[0]
                i, j = sorted((int(found[bad]), int(rows_k[bad])))
                raise ValueError(f"simplex {tuple(self.verts[j, :k + 1].tolist())} is listed "
                                 f"twice, at positions {i} and {j}")

    def find(self, k: int, keys: np.ndarray) -> np.ndarray:
        """The rows of the k-simplices with these keys, in their shape, -1 where none."""
        if self.keys[k] is None:  # a dense degree: gather from its table
            return np.take(self.rows[k], keys.astype(np.int64, copy=False))
        at = np.searchsorted(self.keys[k], keys)
        return np.where(self.keys[k][at] == keys, self.rows[k][at], -1)

    def facet_rows(self, d: int, cols: np.ndarray) -> np.ndarray:
        """Filtration rows of the facets of the d-simplices at rows ``cols``, d >= 1,
        row i those of the i-th, ascending. Raises ValueError when a face is
        absent or listed at or after its coface."""
        c = self.n - 1 - np.take(self.slots, cols, axis=0)[:, :d + 1].T
        # row p: the key of the facet without vertex p, that is row p + 1 with vertex
        # p + 1 in place of p, subtracted first so that no partial sum passes C(n, d)
        keys = np.empty((d + 1, len(cols)), dtype=self.binom[0].dtype)
        keys[d] = _subset_keys(self.binom, self.n, d, c.__getitem__)
        for p in range(d - 1, -1, -1):
            np.subtract(keys[p + 1], np.take(self.binom[d - p], c[p + 1]), out=keys[p])
            keys[p] += np.take(self.binom[d - p], c[p])
        rowmat = np.ascontiguousarray(self.find(d - 1, keys).T)  # -1 if missing; rows sort fast
        bad = np.flatnonzero((rowmat < 0) | (rowmat >= cols[:, None]))
        if len(bad):
            i, p = divmod(int(bad[0]), d + 1)
            simplex = tuple(int(v) for v in self.verts[cols[i], :d + 1])
            where = "missing from" if rowmat[i, p] < 0 else "listed at or after it in"
            raise ValueError(f"face {simplex[:p] + simplex[p + 1:]} of {simplex} "
                             f"is {where} the filtration")
        rowmat.sort(axis=1)
        return rowmat


def _flag_expand(values: np.ndarray, within: np.ndarray, max_dim: int,
                 max_simplices: int) -> "Filtration":
    """Grow the flag complex of an edge-weighted graph up to max_dim.

    ``values`` is the symmetric matrix of edge values and ``within`` the
    boolean matrix of pairs that are edges. A p-simplex is any (p+1)-clique;
    its value is the maximum of its edge values. Each dimension is one pass
    over blocks of ``BLOCK_BYTES // (8 n)`` d-simplices: a simplex's new
    vertices are the columns where the ``within`` rows of all its vertices
    hold, above its last vertex. A block keeps them as int32 (row, vertex)
    pairs once the cap admits them; then the (d+1)-simplices are allocated
    and filled from the pairs. Row-major, they come out lexicographic, as
    ``_canonical`` needs.
    """
    n = values.shape[0]
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if max_simplices < 1:
        raise ValueError("max_simplices must be positive")
    if n > max_simplices:
        raise ResourceLimit(f"simplex count exceeds cap {max_simplices}")
    above, rows, count = np.triu(within, k=1), max(1, linalg.BLOCK_BYTES // (8 * n)), n
    levels = [(np.arange(n, dtype=np.int32)[:, None], np.zeros(n))]  # k-simplices at k
    while len(levels) <= max_dim and len(levels[-1][0]):
        verts, vals, found = *levels[-1], []
        for lo in range(0, len(verts), rows):
            block = verts[lo:lo + rows]
            cand = np.take(above, block[:, -1], axis=0)  # an eighth of the budget
            for c in range(block.shape[1] - 1):
                cand &= np.take(within, block[:, c], axis=0)
            i, v = np.divmod(np.flatnonzero(cand), n)  # 2-d np.nonzero is several times slower
            if (count := count + len(i)) > max_simplices:
                raise ResourceLimit(f"simplex count exceeds cap {max_simplices}")
            found.append(((lo + i).astype(np.int32), v.astype(np.int32)))
        ends = np.cumsum([0, *(len(i) for i, _ in found)]).tolist()
        levels.append((np.empty((ends[-1], verts.shape[1] + 1), np.int32), np.empty(ends[-1])))
        for (i, v), a, b in zip(found, ends, ends[1:]):
            new_verts, new_vals = (x[a:b] for x in levels[-1])
            new_verts[:, :-1], new_verts[:, -1] = np.take(verts, i, axis=0), v
            new_vals[:] = np.take(vals, i)
            for c in range(verts.shape[1]):
                np.maximum(new_vals, values[new_verts[:, c], v], out=new_vals)
    # levels alone holds the rows, freed before the sort
    verts = vals = found = block = new_verts = new_vals = None
    return _canonical(levels, n)


def _canonical(levels: list, vertex_count: int) -> Filtration:
    """The filtration of ``levels``, at position k the k-simplices' vertex rows in
    lexicographic order and their values: one stable sort by value orders them,
    with no vertex compared. Empties ``levels`` before the sort."""
    while len(levels) > 1 and not len(levels[-1][1]):  # an empty top adds no column
        levels.pop()
    sizes = [len(val) for _, val in levels]
    vals = np.concatenate([val for _, val in levels])
    dims = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    padded = np.full((len(vals), len(sizes)), -1, dtype=np.int32)
    for k, lo in enumerate(np.cumsum([0, *sizes[:-1]]).tolist()):
        padded[lo:lo + sizes[k], :k + 1] = levels[k][0]
    levels.clear()
    order = np.argsort(vals, kind="stable")
    # take gathers rows several times faster than indexing
    return Filtration(vals[order], dims[order], np.take(padded, order, axis=0), vertex_count)


def _points(cloud, count: int = 1) -> np.ndarray:
    """The cloud as a float matrix: nonempty, 2-d, finite, with at least
    ``count`` points to choose."""
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty 2-d point cloud")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    if not 1 <= count <= len(pts):
        raise ValueError(f"need 1 <= count <= {len(pts)}, got {count}")
    return pts


def vietoris_rips(cloud, r_max: float, max_dim: int,
                  max_simplices: int = DEFAULT_MAX_SIMPLICES) -> Filtration:
    """Vietoris-Rips filtration: simplices with diameter strictly below r_max.

    Vertices enter at 0 and every other simplex at the largest pairwise
    distance among its vertices, so the complexes at growing parameters nest.
    """
    pts = _points(cloud)
    if not r_max > 0:  # also rejects nan
        raise ValueError("r_max must be positive")
    dist = pairwise_distances(pts)
    return _flag_expand(dist, dist < r_max, max_dim, max_simplices)


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Distinct integer landmark indices into the cloud, as int64, plus their distance table."""

    indices: np.ndarray
    distances: np.ndarray  # shape (len(indices), cloud size)

    def __post_init__(self):
        if (idx := np.asarray(self.indices)).dtype.kind not in "iu":
            raise ValueError(f"landmark indices must be integers, not {idx.dtype}")
        if len(bad := idx[(idx < 0) | (idx >= self.distances.shape[1])]):
            raise ValueError(f"landmark index {bad[0]} outside [0, {self.distances.shape[1]})")
        if (np.diff(np.sort(idx)) == 0).any():  # np.unique would import numpy.ma, 1 MB
            raise ValueError("landmark indices must be distinct")
        if self.distances.shape[0] != len(idx):
            raise ValueError("distance table row count must match landmark count")
        object.__setattr__(self, "indices", idx.astype(np.int64, copy=False))


def maxmin_landmarks(cloud, count: int, rng: np.random.Generator) -> LandmarkSet:
    """Greedy landmark selection maximizing distance to the chosen set.

    The first landmark is drawn uniformly; each later one is the cloud point
    farthest from all landmarks so far, ties going to the smallest index.
    """
    pts = _points(cloud, count)
    nxt = int(rng.integers(len(pts)))
    chosen = np.empty(count, dtype=np.int64)
    table = np.empty((count, len(pts)))
    masked = np.full(len(pts), np.inf)
    for i in range(count):
        chosen[i] = nxt
        table[i] = pairwise_distances(pts[nxt:nxt + 1], pts)[0]
        np.minimum(masked, table[i], out=masked)
        masked[nxt] = -1.0
        nxt = int(np.argmax(masked))
    return LandmarkSet(chosen, table)


def random_landmarks(cloud, count: int, rng: np.random.Generator) -> LandmarkSet:
    """Landmarks drawn uniformly without replacement."""
    pts = _points(cloud, count)
    idx = rng.choice(len(pts), size=count, replace=False)
    return LandmarkSet(idx, pairwise_distances(pts[idx], pts))


LANDMARKS = ("maxmin", "random")  # methods; callers look up <method>_landmarks at call time


def witness_edge_values(landmarks: LandmarkSet, r_max: float = np.inf) -> np.ndarray:
    """Smallest parameter at which each landmark pair acquires a witness:
    exact where it is at most ``r_max`` (by default, everywhere), else above.

    A cloud point x witnesses the pair (a, b) at parameter R when both
    d(x, a) and d(x, b) are at most R plus x's distance to its nearest
    landmark other than a and b. The edge value is the minimum over x of
    max(d(x,a), d(x,b)) minus that excluded minimum, clamped at zero. With
    only two landmarks the excluded minimum is vacuous and the edge value
    is zero.

    With s1 <= s2 the two least landmark distances of x and r1 its nearest,
    the value is the least of (i) max(d_a - s1, d_b - s1) over all x,
    (ii) d_b - s2 over x with r1 = a and (iii) d_a - s2 over x with r1 = b,
    clamped at zero; ties do not matter. Where r1 is not a or b, x's excluded
    minimum is s1 and rounding is monotone, so (i) is max(d_a, d_b) - s1
    exactly. Where r1 = a it is s2, or s3 if b is x's second nearest, where
    x gives s2 - s3 <= 0 and (ii) 0, equal once clamped; (i) is never less.

    Term (i) is taken where r1 is not a or b, and is at most r_max only
    through x with d_a - s1 <= r_max: row a scans only those x of a block
    (all of it once they are over half), so values up to r_max are exact.
    """
    dist = landmarks.distances
    n_l = dist.shape[0]
    if n_l < 2:
        raise ValueError("witness complex needs at least 2 landmarks")
    best = np.full((n_l, n_l), np.inf)  # best[a, b]: (i) for a < b, (ii) for r1 = a
    width = max(1, linalg.BLOCK_BYTES // (8 * n_l))  # distance-table bytes per block
    for lo in range(0, dist.shape[1], width):
        block = dist[:, lo:lo + width]
        s1, cols = block.min(axis=0), np.arange(block.shape[1])
        shifted = block - s1
        near = shifted.argmin(axis=0)
        shifted[near, cols] = np.inf  # (i) skips r1; s2 is least among the tied runners-up
        s2 = np.min(block, axis=0, where=shifted == shifted.min(axis=0), initial=np.inf)
        for a in range(n_l - 1):
            at = np.flatnonzero(shifted[a] <= r_max)
            if not len(at):
                continue
            at = slice(None) if 2 * len(at) > len(cols) else at
            np.minimum(best[a, a + 1:], np.maximum(shifted[a + 1:, at], shifted[a, at]).min(axis=1),
                       out=best[a, a + 1:])
        order = np.argsort(near)
        starts = np.flatnonzero(np.diff(near[order], prepend=-1))
        cells = np.minimum.reduceat(block[:, order] - s2[order], starts, axis=1)
        np.minimum.at(best, near[order[starts]], cells.T)
    np.fill_diagonal(best, 0.0)
    return np.maximum(np.minimum(best, best.T), 0.0)


def witness_filtration(landmarks: LandmarkSet, r_max: float, max_dim: int,
                       max_simplices: int = DEFAULT_MAX_SIMPLICES) -> Filtration:
    """Lazy witness filtration on the landmark vertices.

    Edges carry the witness parameter from ``witness_edge_values`` and enter
    when their value is at most r_max; higher simplices are filled by the
    flag rule with the maximum of their edge values.
    """
    if not r_max >= 0:  # also rejects nan
        raise ValueError("r_max must be nonnegative")
    values = witness_edge_values(landmarks, r_max)
    return _flag_expand(values, values <= r_max, max_dim, max_simplices)


def write_filtration(path, filtration: Filtration) -> None:
    """Text format: header ``dim_max vertex_count``, then ``value v0 ... vk`` lines.

    Values are written with ``%.17g``, so they read back exactly. Each block
    of ``BLOCK_BYTES // 128`` rows formats each run of values with one bit
    pattern once (so ``-0.0`` stays ``-0``) and each ``_label_slots`` slot once,
    as NUL-padded byte strings, gathers them by row and writes all but the NULs.
    """
    values, verts, rows = filtration.values, filtration.verts, max(1, linalg.BLOCK_BYTES // 128)
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (filtration.max_dim, filtration.vertex_count))
        for lo in range(0, len(filtration), rows):
            vals, block = values[lo:lo + rows], verts[lo:lo + rows]
            new = np.r_[True, vals.view(np.int64)[1:] != vals.view(np.int64)[:-1]]
            texts = _float_texts(vals[new])
            slots, labels = _label_slots(block)
            names = np.array([b"", *(b" %d" % v for v in labels.tolist())])
            lines = np.column_stack([a.view(np.uint8).reshape(len(vals), -1) for a in (
                texts[np.cumsum(new) - 1], np.take(names, slots + 1), np.full(len(vals), b"\n"))])
            fh.write(lines[lines != 0])


def _token_chunks(fh, line: int):
    """The lines of binary file ``fh`` from its position on, which starts
    line number ``line``: first their count and bytes, then their tokens.

    A chunk is ``BLOCK_BYTES // 16`` bytes cut after its last line end (a
    missing final one is supplied). Per chunk with tokens, yields its bytes
    as uint8, padded with spaces by its longest token, the number of its
    first line, its token start and end offsets, and the index of the first
    token of each nonblank line. Whitespace is ASCII space, \\t, \\n, \\v,
    \\f and \\r; lines end at \\n.
    """
    start, count, size, last, step = fh.tell(), 0, 0, b"\n", max(1, linalg.BLOCK_BYTES // 16)
    for data in iter(lambda: fh.read(step), b""):
        count, size, last = count + data.count(b"\n"), size + len(data), data[-1:]
    fh.seek(start)
    yield count + (last != b"\n"), size
    rest = b""
    while True:
        data = fh.read(step)
        buf = rest + (data or b"\n")
        cut = buf.rfind(b"\n") + 1
        rest, text = buf[cut:], np.frombuffer(buf, np.uint8, cut)
        edges = np.flatnonzero(np.diff((text == 32) | ((text >= 9) & (text <= 13)),
                                       prepend=True, append=True))
        breaks = np.flatnonzero(text == 10)
        first = np.r_[0, np.searchsorted(edges[::2], breaks)]  # first token after each break
        if len(edges):
            yield (np.concatenate((text, np.full(np.diff(edges)[::2].max(), 32, np.uint8))),
                   line, edges[::2], edges[1::2], first[:-1][np.diff(first) > 0])
        line += len(breaks)
        if not data:
            return


def _floats(text, starts, ends):
    """The tokens as floats, from one bytes-to-float cast of each run of
    equal adjacent tokens; and the index of the first token the cast
    rejects, in an array of at most one item."""
    width = int((ends - starts).max())
    words = np.lib.stride_tricks.sliding_window_view(text, width)[starts]
    words[np.arange(width) >= (ends - starts)[:, None]] = 32  # the cast ignores spaces
    new = np.flatnonzero(np.r_[True, (words[1:] != words[:-1]).any(axis=1)])
    words = words[new].view(f"S{width}").ravel()
    try:
        return np.repeat(words.astype(float), np.diff(new, append=len(starts))), new[:0]
    except ValueError:
        lo, hi = 0, len(words)  # bisect for the first word the cast rejects
        while hi - lo > 1:
            try:
                words[lo:(lo + hi) // 2].astype(float)
                lo = (lo + hi) // 2
            except ValueError:
                hi = (lo + hi) // 2
        return None, new[lo:hi]


_DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + 48).astype(np.uint8)  # b"000".."999"
# 10**k for k in [-4, 20]: the least float at or above it, exact from k = 0 on (5**20 < 2**53)
_TENS = np.array([float(f"1e{k}") for k in range(-4, 21)])


def _float_texts(values) -> np.ndarray:
    """``b"%.17g" % v`` of each value, as S24 strings whose NULs the writers
    drop: the inverse of ``_floats``. For 1e-4 <= |v| < 1e17 it is fixed
    notation with exponent X in [-4, 16] of D = |v| * 10**(16 - X) rounded
    half to even: D's float64 rounding p is an integer and its exact error e
    decides the rounding. Every other value goes through ``%`` alone."""
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)  # not nan
    if not fast.all():
        texts = np.empty(len(x), "S24")
        texts[~fast] = [b"%.17g" % v for v in x[~fast].tolist()]
        texts[fast] = _float_texts(x[fast])
        return texts
    X = np.searchsorted(_TENS[:21], a, side="right") - 5  # 10**X <= a < 10**(X + 1)
    b = _TENS[20 - X]  # a * b = p + e exactly: Dekker's product, with Veltkamp splits
    p, ca, cb = a * b, a * 134217729.0, b * 134217729.0
    ah, bh = ca - (ca - a), cb - (cb - b)
    e = ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)
    d = p.astype(np.int64) + np.floor(e).astype(np.int64)
    e -= np.floor(e)
    d += (e > 0.5) | ((e == 0.5) & (d % 2 == 1))  # no float rounds up to 10**(X + 1)
    del a, b, p, ca, cb, ah, bh, e  # freed before the digit tables
    groups = np.empty((len(x), 6), np.int64)
    for i in range(5, -1, -1):
        groups[:, i], d = d % 1000, d // 1000
    digits = np.take(_DIGITS, groups, axis=0).reshape(len(x), 18)  # b"0" and D's 17 digits
    z = np.flatnonzero(digits[:, -1] == 48)  # strip trailing fraction zeros to NULs
    tail = np.logical_and.accumulate(digits[z, :0:-1] == 48, axis=1)[:, ::-1]
    digits[z, 1:] = np.where(tail & (np.arange(1, 18) > X[z, None] + 1), 0, digits[z, 1:])
    out = np.zeros((len(x), 24), np.uint8)
    out[:, 0] = np.where(x < 0, 45, 0)  # b"-" or NUL
    for k in (np.flatnonzero(np.bincount(X + 4)) - 4).tolist():
        at = np.flatnonzero(X == k)
        if k < 0:  # 0.0...0ddd
            out[at, 1:2 - k], out[at, 2], out[at, 2 - k:19 - k] = 48, 46, digits[at, 1:]
        else:  # ddd.ddd, with no point before nothing
            out[at, 1:k + 2], out[at, k + 3:19] = digits[at, 1:k + 2], digits[at, k + 2:]
            out[at, k + 2] = 46 * digits[at, k + 2:k + 3].any(axis=1)
    return out.view("S24").ravel()


def _labels(text, starts, ends, bound: int) -> np.ndarray:
    """Tokens of ASCII decimal digits as labels, parsed in groups of one
    length; -1 for a token that is not digits or is ``bound`` (at most
    2**31) or more."""
    lens = ends - starts
    labels = np.empty(len(starts), np.int64)
    for width in np.flatnonzero(np.bincount(lens)):
        group = np.flatnonzero(lens == width)
        at, value, bad = starts[group], np.zeros(len(group), np.int64), np.zeros(len(group), bool)
        for k in range(width):
            digit = text[at + k] - 48  # above 9 for a byte that is not a digit
            value = value * 10 + digit  # can wrap only once bad is set
            bad |= (digit > 9) | (value >= bound)
        labels[group] = np.where(bad, -1, value)
    return labels


def _token_error(path, chunk, index, parse=None, message: str = "") -> ValueError:
    """An error about token ``index`` of ``chunk``, prefixed by ``PATH:LINE:``:
    the one ``parse`` raises on the token, or else ``message``."""
    text, line, starts, ends, _ = chunk
    if parse:
        token = text[starts[index]:ends[index]].tobytes().decode(errors="replace")
        try:
            parse(token)
            message = f"cannot parse {token!r}"  # such as a non-ASCII digit float() reads
        except ValueError as exc:
            message = str(exc)
    return ValueError(f"{path}:{line + np.count_nonzero(text[:starts[index]] == 10)}: {message}")


def read_filtration(path) -> Filtration:
    """Read write_filtration's format by chunks of lines (``_token_chunks``)
    into arrays sized by the line count and the header's dim_max. A value is
    a float token; a label is ASCII decimal digits."""
    with open(path, "rb") as fh:
        try:
            dim_max, vertex_count = map(int, fh.readline().split())
            if min(dim_max, vertex_count) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"malformed filtration header in {path}") from None

        def label(token):  # raises for a token _labels rejects
            if (bound := min(vertex_count, 2**31)) > int(token) >= 0:
                raise ValueError(f"{token!r} is not a label of ASCII decimal digits")
            raise ValueError(f"vertex label {int(token)} outside [0, {bound})")

        chunks = _token_chunks(fh, 2)
        rows, size = next(chunks)
        values, dims = np.empty(rows), np.empty(rows, np.int32)
        # a row of k labels takes 2k + 1 bytes or more, so size // 2 + 1
        # columns hold every row; a larger dim_max is wrong anyway
        verts = np.full((rows, min(dim_max, size // 2) + 1), -1, np.int32)
        count = top = 0
        for chunk in chunks:
            text, _, starts, ends, heads = chunk
            sizes = np.diff(heads, append=len(starts))
            row = np.repeat(np.arange(len(heads)), sizes)
            col = np.arange(len(starts)) - heads[row] - 1
            lab = np.flatnonzero(col >= 0)
            vals, bad = _floats(text, starts[heads], ends[heads])
            labels = _labels(text, starts[lab], ends[lab], min(vertex_count, 2**31))
            wrong = np.r_[heads[bad], lab[labels < 0]]
            if len(wrong):
                i = wrong.min()
                raise _token_error(path, chunk, i, float if col[i] < 0 else label)
            fits = col[lab] < verts.shape[1]  # a wider row fails the dim_max check
            verts[count + row[lab[fits]], col[lab[fits]]] = labels[fits]
            values[count:count + len(heads)] = vals
            dims[count:count + len(heads)] = sizes - 2
            count += len(heads)
            top = max(top, int(sizes.max()) - 2)
    filtration = Filtration(values[:count], dims[:count], verts[:count], vertex_count)
    if top <= dim_max:
        filtration.validate()
    if top != dim_max:
        raise ValueError(f"header of {path} gives dim_max {dim_max}, the simplices reach {top}")
    return filtration


def write_landmarks(path, landmarks: LandmarkSet) -> None:
    """One cloud index per line, in selection order."""
    np.savetxt(path, landmarks.indices, fmt="%d")
