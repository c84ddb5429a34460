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

from .linalg import (
    PROJECTION_TOL,
    Frame,
    LinearDependence,
    gram_schmidt,
    projection_matrix,
    random_orthogonal,
)

SAMPLE_RETRIES = 100


class InvalidProportions(ValueError):
    """Cell-dimension proportions do not describe a probability split."""


class NotUnit(ValueError):
    """Input point is not on the unit sphere."""


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


@dataclass(frozen=True)
class ProjectionPoint:
    """A sampled k-plane, stored as its projection matrix."""

    params: GrassmannParams
    matrix: np.ndarray

    def __post_init__(self):
        p = self.matrix
        n, k = self.params.n, self.params.k
        if p.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {p.shape}")
        if not np.array_equal(p, p.T):
            raise ValueError("projection matrix must be exactly symmetric")
        if np.max(np.abs(p @ p - p)) >= PROJECTION_TOL:
            raise ValueError("matrix is not idempotent")
        if abs(np.trace(p) - k) >= PROJECTION_TOL:
            raise ValueError(f"trace must equal {k}")

    @property
    def vector(self) -> np.ndarray:
        """The point in R^(n^2): the matrix flattened row-major."""
        return self.matrix.reshape(-1)


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
    if top_dim is None:
        top_dim = params.dimension
    if not (0 <= top_dim <= params.dimension):
        raise ValueError(f"top_dim must lie in [0, {params.dimension}]")
    k, m = params.k, params.n - params.k
    return tuple(_partitions_in_box(r, k, m) for r in range(top_dim + 1))


def sample_uniform(params: GrassmannParams, count: int,
                   rng: np.random.Generator) -> list[ProjectionPoint]:
    """Sample k-planes by orthonormalizing k standard normal vectors.

    The resulting distribution is the invariant one on G_k(R^n); with
    probability one every draw lands in the top-dimensional Schubert cell.
    """
    if count < 1:
        raise ValueError("count must be positive")
    points = []
    for _ in range(count):
        frame = _random_frame(params, rng)
        points.append(ProjectionPoint(params, projection_matrix(frame)))
    return points


def _random_frame(params: GrassmannParams, rng: np.random.Generator) -> Frame:
    for _ in range(SAMPLE_RETRIES):
        try:
            return gram_schmidt(rng.standard_normal((params.k, params.n)))
        except LinearDependence:
            continue
    raise LinearDependence(f"no independent draw in {SAMPLE_RETRIES} attempts")


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


def sample_cell(params: GrassmannParams, sigma: tuple[int, ...],
                rng: np.random.Generator) -> ProjectionPoint:
    """One point of e(sigma), conjugated by a Haar-random orthogonal matrix.

    The echelon representative B is orthonormalized column by column (which
    keeps the echelon zero pattern, hence the cell membership) and the plane
    is then rotated by a fresh orthogonal X so the cloud is spread over the
    whole manifold rather than pinned to coordinate hyperplanes.
    """
    b = cell_matrix(params, sigma, rng)
    frame = gram_schmidt(b.T)
    x = random_orthogonal(params.n, rng)
    rotated = x @ frame.matrix
    p = rotated @ rotated.T
    return ProjectionPoint(params, (p + p.T) / 2.0)


def sample_biased(params: GrassmannParams, count: int, proportions,
                  rng: np.random.Generator) -> list[ProjectionPoint]:
    """Sample with prescribed fractions of points per Schubert-cell dimension.

    proportions is either a mapping from cell dimension to fraction or a
    sequence indexed by dimension. Per-dimension counts come from
    largest-remainder rounding of count * fraction, so they always sum to
    ``count`` exactly. Within a dimension each point picks one of that
    dimension's cells uniformly.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not hasattr(proportions, "items"):
        proportions = {d: float(f) for d, f in enumerate(proportions)}
    cells_by_dim: dict[int, list[tuple[int, ...]]] = {}
    for sym in schubert_symbols(params):
        cells_by_dim.setdefault(cell_dimension(sym), []).append(sym)

    for dim, frac in proportions.items():
        if frac < 0:
            raise InvalidProportions(f"negative fraction for dimension {dim}")
        if frac > 0 and dim not in cells_by_dim:
            raise InvalidProportions(f"no cell of dimension {dim} in G_{params.k}(R^{params.n})")
    total = sum(proportions.values())
    if abs(total - 1.0) > 1e-9:
        raise InvalidProportions(f"fractions sum to {total}, expected 1")

    counts = _largest_remainder(count, proportions)
    points = []
    for dim in sorted(counts):
        cells = cells_by_dim[dim]
        for _ in range(counts[dim]):
            sigma = cells[rng.integers(len(cells))] if len(cells) > 1 else cells[0]
            points.append(sample_cell(params, sigma, rng))
    return points


def _largest_remainder(count: int, proportions: dict[int, float]) -> dict[int, int]:
    quotas = {d: count * f for d, f in proportions.items() if f > 0}
    counts = {d: int(np.floor(q)) for d, q in quotas.items()}
    leftover = count - sum(counts.values())
    for d in sorted(quotas, key=lambda d: (counts[d] - quotas[d], d))[:leftover]:
        counts[d] += 1
    return counts


def _check_unit(p: np.ndarray) -> np.ndarray:
    v = np.asarray(p, dtype=float).ravel()
    if v.shape != (3,):
        raise ValueError(f"expected a vector in R^3, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) >= 1e-10:
        raise NotUnit("input must be a unit vector")
    return v


def rp2_embed_r4(p) -> np.ndarray:
    """Image of a unit vector under (x,y,z) -> (xy, xz, y^2 - z^2, 2yz).

    Antipodal points map to the same image, so this descends to an embedding
    of the projective plane into R^4.
    """
    x, y, z = _check_unit(p)
    return np.array([x * y, x * z, y * y - z * z, 2.0 * y * z])


def rp2_embed_r5(p) -> np.ndarray:
    """Isometric embedding of the projective plane into R^5.

    (x,y,z) -> (yz, xz, xy, (x^2 - y^2)/2, (x^2 + y^2 - 2z^2)/(2*sqrt(3))).
    The image lies on a sphere of radius 1/sqrt(3).
    """
    x, y, z = _check_unit(p)
    return np.array([
        y * z,
        x * z,
        x * y,
        0.5 * (x * x - y * y),
        (x * x + y * y - 2.0 * z * z) / (2.0 * np.sqrt(3.0)),
    ])


def sample_sphere(count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform unit vectors in R^3 (normalized standard normal draws)."""
    if count < 1:
        raise ValueError("count must be positive")
    out = []
    while len(out) < count:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            out.append(v / norm)
    return out


def sample_so3(count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random rotation matrices, flattened row-major into R^9.

    Haar-orthogonal draws with the last column negated whenever the
    determinant comes out -1, which lands every point in SO(3).
    """
    if count < 1:
        raise ValueError("count must be positive")
    points = []
    for _ in range(count):
        q = random_orthogonal(3, rng)
        if np.linalg.det(q) < 0:
            q = q.copy()
            q[:, 2] = -q[:, 2]
        points.append(q.reshape(-1))
    return points


def write_cloud(path, points) -> None:
    """Write one point per line, coordinates as 17-significant-digit floats."""
    arr = np.asarray(points, dtype=float)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_cloud(path) -> np.ndarray:
    """Read a whitespace-separated point cloud; returns an (N, m) array."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split()])
    if not rows:
        return np.empty((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged point cloud in {path}")
    cloud = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(cloud).all(axis=1))
    if len(bad):
        raise ValueError(f"non-finite coordinate in point {int(bad[0])} of {path}")
    return cloud
