"""Schubert-cell combinatorics of G_k(R^n) and point-cloud samplers.

A k-plane is represented by the n-by-n matrix of orthogonal projection onto
it: symmetric, idempotent, trace k. Point clouds live in R^(n^2) by
flattening these matrices row-major.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .complexes import _float_texts, _floats, _token_chunks, _token_error
from .linalg import (PROJECTION_TOL, _dot, _raise_at, gram_schmidt, projection_matrix,
                     random_orthogonal)


@dataclass(frozen=True)
class GrassmannParams:
    """The pair (n, k) naming the manifold of k-planes in R^n."""

    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def dimension(self) -> int:
        return self.k * (self.n - self.k)


def check_projections(params: GrassmannParams, matrices) -> np.ndarray:
    """Check a stack of (..., n, n) matrices as projections onto k-planes.

    Each must be exactly symmetric, idempotent and of trace k, the last two
    to PROJECTION_TOL. Returns the stack as a float array.
    """
    p = np.asarray(matrices, dtype=float)
    n, k = params.n, params.k
    if p.shape[-2:] != (n, n):
        raise ValueError(f"expected {n}x{n} matrices, got shape {p.shape}")
    _raise_at(~np.all(p == np.swapaxes(p, -1, -2), axis=(-2, -1)),
              "projection matrix must be exactly symmetric")
    _raise_at(np.max(np.abs(p @ p - p), axis=(-2, -1)) >= PROJECTION_TOL,
              "matrix is not idempotent")
    _raise_at(np.abs(np.trace(p, axis1=-2, axis2=-1) - k) >= PROJECTION_TOL,
              f"trace must equal {k}")
    return p


def schubert_symbols(params: GrassmannParams) -> list[tuple[int, ...]]:
    """All strictly increasing k-tuples in 1..n, in lexicographic order."""
    return list(itertools.combinations(range(1, params.n + 1), params.k))


def cell_dimension(sigma: tuple[int, ...]) -> int:
    """Dimension of the open cell indexed by the symbol: sum of (sigma_i - i)."""
    _check_symbol(sigma)
    return sum(s - i for i, s in enumerate(sigma, start=1))


def _check_symbol(sigma: tuple[int, ...], n: int | None = None) -> None:
    if len(sigma) == 0:
        raise ValueError("symbol must be nonempty")
    if any(b <= a for a, b in zip(sigma, sigma[1:])) or sigma[0] < 1:
        raise ValueError(f"symbol entries must strictly increase from >= 1, got {sigma}")
    if n is not None and sigma[-1] > n:
        raise ValueError(f"symbol entry {sigma[-1]} exceeds ambient dimension {n}")


@lru_cache(maxsize=None)
def _partitions_in_box(r: int, parts: int, largest: int) -> int:
    """Partitions of r into at most ``parts`` parts, each at most ``largest``."""
    if r == 0:
        return 1
    if r < 0 or parts == 0 or largest == 0:
        return 0
    return (_partitions_in_box(r, parts, largest - 1)
            + _partitions_in_box(r - largest, parts - 1, largest))


def betti_mod2(params: GrassmannParams, top_dim: int | None = None) -> tuple[int, ...]:
    """Mod-2 Betti numbers of G_k(R^n) for degrees 0..top_dim.

    The rank in degree r is the number of r-cells, i.e. the number of
    partitions of r into at most k parts each at most n - k.
    """
    top_dim = params.dimension if top_dim is None else top_dim
    if not (0 <= top_dim <= params.dimension):
        raise ValueError(f"top_dim must lie in [0, {params.dimension}]")
    k, m = params.k, params.n - params.k
    return tuple(_partitions_in_box(r, k, m) for r in range(top_dim + 1))


def sample_uniform(params: GrassmannParams, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample k-planes by orthonormalizing k standard normal vectors.

    Returns the (count, n, n) stack of projection matrices. The resulting
    distribution is the invariant one on G_k(R^n); with probability one
    every draw lands in the top-dimensional Schubert cell.
    """
    if count < 1:
        raise ValueError("count must be positive")
    frames = gram_schmidt(rng.standard_normal((count, params.k, params.n)))
    return check_projections(params, projection_matrix(frames))


def cell_matrix(params: GrassmannParams, sigma: tuple[int, ...],
                rng: np.random.Generator) -> np.ndarray:
    """A random n-by-k column-echelon matrix whose column space lies in e(sigma).

    Column i has a 1 in row sigma_i, zeros below it, and independent standard
    normal entries in the rows above. The column space X then meets R^(sigma_i)
    in dimension exactly i and R^(sigma_i - 1) in dimension i - 1.
    """
    _check_symbol(sigma, params.n)
    if len(sigma) != params.k:
        raise ValueError(f"symbol length {len(sigma)} != k={params.k}")
    b = np.zeros((params.n, params.k))
    for i, s in enumerate(sigma):
        b[:s - 1, i] = rng.standard_normal(s - 1)
        b[s - 1, i] = 1.0
    return b


def sample_biased(params: GrassmannParams, count: int, proportions,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample with prescribed fractions of points per Schubert-cell dimension.

    proportions is either a mapping from cell dimension to fraction or a
    sequence indexed by dimension. Per-dimension counts come from
    largest-remainder rounding of count * fraction, so they always sum to
    ``count`` exactly. Within a dimension each point picks one of that
    dimension's cells uniformly.

    A point of cell e(sigma) starts from the echelon matrix B of
    ``cell_matrix``. B is orthonormalized column by column (which keeps the
    echelon zero pattern, hence the cell membership) and the plane is then
    rotated by a fresh Haar-random orthogonal X, so the cloud is spread over
    the whole manifold rather than pinned to coordinate hyperplanes. Returns
    the (count, n, n) stack of projection matrices.

    X is independent of the cell, so each point is uniform on G_k(R^n)
    whatever the proportions (20,000 points of G_2(R^4): KS distance to
    ``sample_uniform`` 0.006-0.010, 5% critical value 0.0136). They change
    the random stream, hence the files, and the cost (0.34 s against
    0.044 s on a 2-vCPU box), not the distribution.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not hasattr(proportions, "items"):
        proportions = {d: float(f) for d, f in enumerate(proportions)}
    cells_by_dim: dict[int, list[tuple[int, ...]]] = {}
    for sym in schubert_symbols(params):
        cells_by_dim.setdefault(cell_dimension(sym), []).append(sym)

    for dim, frac in proportions.items():
        if np.isnan(frac):  # it would pass every check below
            raise ValueError(f"fraction for dimension {dim} is not a number")
        if frac < 0:
            raise ValueError(f"negative fraction for dimension {dim}")
        if frac > 0 and dim not in cells_by_dim:
            raise ValueError(f"no cell of dimension {dim} in G_{params.k}(R^{params.n})")
    total = sum(proportions.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {total}, expected 1")

    counts = _largest_remainder(count, proportions)
    n, k = params.n, params.k
    cells, normals = np.empty((count, n, k)), np.empty((count, n, n))
    # per point: the cell index, the echelon entries, then the rotation's normals
    dims = (dim for dim in sorted(counts) for _ in range(counts[dim]))
    for i, dim in enumerate(dims):
        symbols = cells_by_dim[dim]
        sigma = symbols[rng.integers(len(symbols))] if len(symbols) > 1 else symbols[0]
        cells[i] = cell_matrix(params, sigma, rng)
        normals[i] = rng.standard_normal((n, n))
    frames = gram_schmidt(np.swapaxes(cells, 1, 2))
    rotated = np.matmul(random_orthogonal(normals), frames)
    return check_projections(params, projection_matrix(rotated))


def _largest_remainder(count: int, proportions: dict[int, float]) -> dict[int, int]:
    quotas = {d: count * f for d, f in proportions.items() if f > 0}
    counts = {d: int(np.floor(q)) for d, q in quotas.items()}
    leftover = count - sum(counts.values())
    for d in sorted(quotas, key=lambda d: (counts[d] - quotas[d], d))[:leftover]:
        counts[d] += 1
    return counts


def _check_unit(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected vectors in R^3, got shape {v.shape}")
    _raise_at(np.abs(np.sqrt(_dot(v, v)) - 1.0) >= 1e-10, "input must be a unit vector")
    return v


def rp2_embed_r4(p) -> np.ndarray:
    """Image of unit vectors (..., 3) under (x,y,z) -> (xy, xz, y^2 - z^2, 2yz).

    Antipodal points map to the same image, so this descends to an embedding
    of the projective plane into R^4.
    """
    x, y, z = np.moveaxis(_check_unit(p), -1, 0)
    return np.stack([x * y, x * z, y * y - z * z, 2.0 * y * z], axis=-1)


def rp2_embed_r5(p) -> np.ndarray:
    """Isometric embedding of the projective plane into R^5, on (..., 3) unit vectors.

    (x,y,z) -> (yz, xz, xy, (x^2 - y^2)/2, (x^2 + y^2 - 2z^2)/(2*sqrt(3))).
    The image lies on a sphere of radius 1/sqrt(3).
    """
    x, y, z = np.moveaxis(_check_unit(p), -1, 0)
    return np.stack([
        y * z,
        x * z,
        x * y,
        0.5 * (x * x - y * y),
        (x * x + y * y - 2.0 * z * z) / (2.0 * np.sqrt(3.0)),
    ], axis=-1)


def sample_sphere(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors in R^3 (normalized standard normal draws), (count, 3)."""
    if count < 1:
        raise ValueError("count must be positive")
    v = rng.standard_normal((count, 3))
    norm = np.sqrt(_dot(v, v))
    # a draw this short has probability zero
    _raise_at(norm <= 1e-12, "normal draw too close to zero")
    return v / norm


def sample_so3(count: int, rng: np.random.Generator) -> np.ndarray:
    """Random rotation matrices, flattened row-major into R^9, (count, 9).

    Haar-orthogonal draws with the last column negated whenever the
    determinant comes out -1, which lands every point in SO(3).
    """
    if count < 1:
        raise ValueError("count must be positive")
    q = random_orthogonal(rng.standard_normal((count, 3, 3)))
    flip = np.linalg.det(q) < 0
    q[flip, :, 2] = -q[flip, :, 2]
    return q.reshape(count, 9)


def write_cloud(path, points) -> None:
    """Write one point per line as ``np.savetxt(path, points, fmt="%.17g")``
    does. Per block of rows, a column bit for bit equal to an earlier one (a
    flattened projection is symmetric) is formatted once (``_float_texts``),
    and the block's gathered bytes are written but their NULs."""
    pts = np.atleast_2d(np.asarray(points, dtype=float).T).T  # 1-d: one value a line
    _, width = pts.shape  # ValueError past 2-d, as in savetxt
    rows = max(1, linalg.BLOCK_BYTES // (256 * max(1, width)))  # temporary bytes a value
    with open(path, "wb") as fh:
        for lo in range(0, len(pts), rows):
            block, seen = pts[lo:lo + rows], {}  # column bytes (-0.0 is not 0.0) -> first column
            keep, slot = np.unique(np.array([seen.setdefault(col.tobytes(), j)
                                             for j, col in enumerate(block.T)], np.intp),
                                   return_inverse=True)
            lines = np.zeros((len(block), width + 1, 25), np.uint8)
            lines[:, 1:, 0], lines[:, -1, 0] = 32, 10  # spaces between values, \n last
            lines[:, :-1, 1:] = _float_texts(block[:, keep]).view(np.uint8).reshape(
                len(block), -1, 24)[:, slot]
            fh.write(lines[lines != 0])


def read_cloud(path) -> np.ndarray:
    """Read a point cloud, one point of whitespace-separated coordinates per
    line, by chunks of lines (``complexes._token_chunks``); returns an (N, m)
    array."""
    with open(path, "rb") as fh:
        chunks = _token_chunks(fh, 1)
        rows, cloud, count = next(chunks)[0], np.empty((0, 0)), 0
        for chunk in chunks:
            text, _, starts, ends, heads = chunk
            sizes = np.diff(heads, append=len(starts))
            cloud = cloud if count else np.empty((rows, sizes[0]))
            values, bad = _floats(text, starts, ends)
            wrong = np.r_[bad, heads[sizes != cloud.shape[1]]]
            if len(wrong) and wrong.min() in bad:
                raise _token_error(path, chunk, wrong.min(), float)
            if len(wrong):
                raise _token_error(path, chunk, wrong.min(), message=(
                    f"ragged point cloud, {cloud.shape[1]} coordinates on its first line"))
            cloud[count:count + len(heads)] = values.reshape(len(heads), -1)
            count += len(heads)
    cloud = cloud[:count]
    bad = np.flatnonzero(~np.isfinite(cloud).all(axis=1))
    if len(bad):
        raise ValueError(f"non-finite coordinate in point {int(bad[0])} of {path}")
    return cloud
