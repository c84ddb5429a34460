import numpy as np
import pytest

from grasstri import linalg


def test_gram_schmidt_orthonormal_and_spanning():
    rng = np.random.default_rng(0)
    for trial in range(20):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k, k + 8))
        vecs = rng.standard_normal((k, n))
        frame = linalg.gram_schmidt(vecs)
        assert frame.shape == (n, k)
        gram = frame.T @ frame
        assert np.max(np.abs(gram - np.eye(k))) < 1e-12
        # each input vector must lie in the span of the output columns
        coeffs = frame.T @ vecs.T
        recon = frame @ coeffs
        assert np.max(np.abs(recon - vecs.T)) < 1e-9 * max(1.0, np.max(np.abs(vecs)))


def test_gram_schmidt_rejects_dependent_input():
    with pytest.raises(linalg.LinearDependence):
        linalg.gram_schmidt([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(linalg.LinearDependence):
        linalg.gram_schmidt([[0.0, 0.0]])
    with pytest.raises(linalg.DimensionMismatch):
        linalg.gram_schmidt([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_gram_schmidt_handles_nearly_dependent_vectors():
    base = np.array([1.0, 0.0, 0.0])
    nearly = base + 1e-7 * np.array([0.0, 1.0, 0.0])
    frame = linalg.gram_schmidt([base, nearly])
    gram = frame.T @ frame
    assert np.max(np.abs(gram - np.eye(2))) < linalg.ORTHONORMAL_TOL


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 9):
        q = linalg.random_orthogonal(rng.standard_normal((n, n)))
        assert q.shape == (n, n)
        assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-12
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12


def test_random_orthogonal_determinism():
    a = linalg.random_orthogonal(np.random.default_rng(7).standard_normal((4, 4)))
    b = linalg.random_orthogonal(np.random.default_rng(7).standard_normal((4, 4)))
    assert np.array_equal(a, b)


def test_random_orthogonal_sign_balance():
    # with the sign fix the determinant should be close to a fair coin
    rng = np.random.default_rng(2)
    dets = np.linalg.det(linalg.random_orthogonal(rng.standard_normal((400, 3, 3))))
    negative = np.count_nonzero(dets < 0)
    assert 120 < negative < 280


def test_random_orthogonal_rotation_invariance():
    # Haar: the first column is uniform on the sphere, so its first
    # coordinate has mean 0 and variance 1/n
    rng = np.random.default_rng(3)
    n = 4
    samples = linalg.random_orthogonal(rng.standard_normal((2000, n, n)))[:, 0, 0]
    assert abs(np.mean(samples)) < 0.05
    assert abs(np.var(samples) - 1.0 / n) < 0.03


def test_projection_matrix_properties():
    rng = np.random.default_rng(4)
    for trial in range(10):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, k + 5))
        frame = linalg.gram_schmidt(rng.standard_normal((k, n)))
        p = linalg.projection_matrix(frame)
        assert np.array_equal(p, p.T)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - k) < 1e-12
        # fixes every frame column, kills the orthogonal complement
        assert np.max(np.abs(p @ frame - frame)) < 1e-12


def test_pairwise_distances_against_direct_loop(monkeypatch):
    rng = np.random.default_rng(6)
    a = rng.standard_normal((17, 4))
    b = rng.standard_normal((9, 4))
    # a row of the difference array against b is 9 * 4 * 8 bytes: 5 rows a block
    monkeypatch.setattr(linalg, "DISTANCE_BYTES", 5 * 9 * 4 * 8)
    got = linalg.pairwise_distances(a, b)
    for i in range(17):
        for j in range(9):
            assert got[i, j] == pytest.approx(np.linalg.norm(a[i] - b[j]), abs=1e-12)
    monkeypatch.setattr(linalg, "DISTANCE_BYTES", 4 * 17 * 4 * 8)
    square = linalg.pairwise_distances(a)
    assert square.shape == (17, 17)
    assert np.allclose(square, square.T)
    assert np.all(np.diag(square) == 0.0)


def test_pairwise_distances_chunk_boundaries(monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 3))
    row_bytes = 10 * 3 * 8
    monkeypatch.setattr(linalg, "DISTANCE_BYTES", 1000 * row_bytes)
    full = linalg.pairwise_distances(a)
    # below one row still takes a row; then 1, 3 and all 10 rows a block
    for budget in (1, row_bytes, 3 * row_bytes + 7, 10 * row_bytes):
        monkeypatch.setattr(linalg, "DISTANCE_BYTES", budget)
        assert np.array_equal(linalg.pairwise_distances(a), full)


def test_pairwise_distances_rejects_mismatched_width():
    with pytest.raises(linalg.DimensionMismatch):
        linalg.pairwise_distances(np.ones((2, 3)), np.ones((2, 4)))
