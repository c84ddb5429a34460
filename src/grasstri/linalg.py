"""Dense real linear algebra for the manifold samplers.

Every function takes stacks of vectors or matrices with leading batch axes
and is deterministic given its inputs; the samplers in ``grassmann`` make the
random draws.
"""

from __future__ import annotations

import numpy as np

# Orthonormality of frames and orthogonal matrices is enforced to this
# absolute tolerance; idempotency and trace of projections to the looser one.
# Chosen for float64 with ambient dimension up to ~32.
ORTHONORMAL_TOL = 1e-10
PROJECTION_TOL = 1e-9
DEPENDENCE_TOL = 1e-12  # gram_schmidt's least residual norm, relative to the vector's
DISTANCE_BYTES = 2**22  # difference-array bytes per block of pairwise_distances


class LinearDependence(ValueError):
    """Input vectors are (numerically) linearly dependent."""


class DimensionMismatch(ValueError):
    """Operands do not have matching dimensions."""


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (..., n) stacks, shape (..., 1).

    Each item goes through the same vector-vector product as ``a_i @ b_i``
    with the items' own strides, so batched and one-at-a-time results agree
    bit for bit.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def _raise_at(bad: np.ndarray, error: type, message: str) -> None:
    """Raise ``error`` naming the first flat index where ``bad`` holds."""
    hits = np.flatnonzero(bad)
    if len(hits):
        raise error(f"{message} (item {int(hits[0])})")


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormalize stacks of k vectors in R^n: (..., k, n) -> (..., n, k).

    Uses the modified Gram-Schmidt recursion with one re-orthogonalization
    pass per vector, which keeps the result orthonormal to ORTHONORMAL_TOL
    even for nearly dependent inputs; the whole batch is checked against
    that tolerance once. Raises LinearDependence when a residual's norm
    falls below DEPENDENCE_TOL times the vector's norm.
    """
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim < 2 or not 1 <= vecs.shape[-2] <= vecs.shape[-1]:
        raise DimensionMismatch(f"expected stacks of 1 to n vectors in R^n, got {vecs.shape}")
    *batch, k, n = vecs.shape
    cols = np.zeros((*batch, n, k))
    for i in range(k):
        v = vecs[..., i, :].copy()
        scale = np.sqrt(_dot(v, v))
        # two projection sweeps: the second mops up rounding left by the first
        for _ in range(2):
            for j in range(i):
                v -= _dot(cols[..., j], v) * cols[..., j]
        norm = np.sqrt(_dot(v, v))
        _raise_at(norm <= DEPENDENCE_TOL * scale, LinearDependence,
                  f"vector {i} is zero or dependent on its predecessors")
        cols[..., i] = v / norm
    gram = np.matmul(np.swapaxes(cols, -1, -2), cols)
    _raise_at(np.max(np.abs(gram - np.eye(k)), axis=(-2, -1)) >= ORTHONORMAL_TOL,
              LinearDependence, "frame columns are not orthonormal")
    return cols


def random_orthogonal(normals) -> np.ndarray:
    """Haar-distributed orthogonal matrices from standard normal draws (..., n, n).

    QR of each normal matrix, with column signs fixed so that the triangular
    factor has positive diagonal; this removes the sign ambiguity that would
    otherwise bias the draw. The caller draws ``normals``, so it decides the
    draw order.
    """
    a = np.asarray(normals, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, got {a.shape}")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    # a zero pivot has probability zero for Gaussian draws
    _raise_at(np.any(diag == 0.0, axis=-1), LinearDependence, "singular normal draw")
    return q * np.sign(diag)[..., None, :]


def projection_matrix(frames) -> np.ndarray:
    """Orthogonal projections onto the spans of (..., n, k) frames, as (..., n, n).

    The result is symmetric by construction, idempotent, and has trace equal
    to the frame's column count.
    """
    m = np.asarray(frames, dtype=float)
    p = np.matmul(m, np.swapaxes(m, -1, -2))
    return (p + np.swapaxes(p, -1, -2)) / 2.0


def pairwise_distances(points: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """All Euclidean distances between rows of ``points`` and rows of ``others``.

    Row-chunked so that a block's difference array stays within DISTANCE_BYTES.
    """
    a = np.asarray(points, dtype=float)
    b = a if others is None else np.asarray(others, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionMismatch("point arrays must be 2-d with equal width")
    out = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, DISTANCE_BYTES // max(1, 8 * b.size))
    for i in range(0, a.shape[0], rows):
        diff = a[i:i + rows, None, :] - b[None, :, :]
        out[i:i + rows] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out
