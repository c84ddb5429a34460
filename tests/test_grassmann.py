import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grasstri import complexes, grassmann, linalg
from grasstri.grassmann import GrassmannParams


def q_binomial_coefficients(n, k):
    """Coefficient list of the Gaussian binomial [n choose k]_q.

    Built from the recurrence [n,k] = [n-1,k-1] + q^k [n-1,k], which is
    independent of the product route used by the library.
    """
    table = {(0, 0): [1]}
    for m in range(1, n + 1):
        for j in range(0, min(m, k) + 1):
            left = table.get((m - 1, j - 1), [0])
            right = table.get((m - 1, j), [0])
            shifted = [0] * j + right
            width = max(len(left), len(shifted))
            table[(m, j)] = [
                (left[i] if i < len(left) else 0) + (shifted[i] if i < len(shifted) else 0)
                for i in range(width)
            ]
    coeffs = table[(n, k)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_params_validation():
    GrassmannParams(4, 2)
    GrassmannParams(1, 1)
    with pytest.raises(ValueError):
        GrassmannParams(3, 0)
    with pytest.raises(ValueError):
        GrassmannParams(3, 4)
    assert GrassmannParams(4, 2).dimension == 4
    assert GrassmannParams(7, 3).dimension == 12


def test_schubert_symbols_enumeration():
    params = GrassmannParams(4, 2)
    symbols = grassmann.schubert_symbols(params)
    assert symbols == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n in range(1, 8):
        for k in range(1, n + 1):
            syms = grassmann.schubert_symbols(GrassmannParams(n, k))
            assert len(syms) == math.comb(n, k)
            assert len(set(syms)) == len(syms)
            for sigma in syms:
                assert all(1 <= a for a in sigma) and sigma[-1] <= n
                assert all(a < b for a, b in zip(sigma, sigma[1:]))


def test_cell_dimension_values():
    assert grassmann.cell_dimension((1, 2)) == 0
    assert grassmann.cell_dimension((1, 3)) == 1
    assert grassmann.cell_dimension((2, 3)) == 2
    assert grassmann.cell_dimension((1, 4)) == 2
    assert grassmann.cell_dimension((2, 4)) == 3
    assert grassmann.cell_dimension((3, 4)) == 4
    with pytest.raises(ValueError):
        grassmann.cell_dimension((2, 2))
    with pytest.raises(ValueError):
        grassmann.cell_dimension((0, 1))
    with pytest.raises(ValueError):
        grassmann.cell_dimension(())


def test_cell_dimensions_partition_the_cw_structure():
    # over all symbols, the count in each dimension matches the Betti number
    for n in range(1, 8):
        for k in range(1, n + 1):
            params = GrassmannParams(n, k)
            counts = [0] * (params.dimension + 1)
            for sigma in grassmann.schubert_symbols(params):
                counts[grassmann.cell_dimension(sigma)] += 1
            assert tuple(counts) == grassmann.betti_mod2(params)


def test_betti_mod2_reference_table():
    assert grassmann.betti_mod2(GrassmannParams(4, 2)) == (1, 1, 2, 1, 1)
    assert grassmann.betti_mod2(GrassmannParams(3, 1)) == (1, 1, 1)
    assert grassmann.betti_mod2(GrassmannParams(4, 1)) == (1, 1, 1, 1)
    assert grassmann.betti_mod2(GrassmannParams(5, 2)) == (1, 1, 2, 2, 2, 1, 1)


def test_betti_mod2_against_gaussian_binomial():
    for n in range(1, 10):
        for k in range(1, n + 1):
            params = GrassmannParams(n, k)
            got = grassmann.betti_mod2(params)
            expected = q_binomial_coefficients(n, k)
            assert list(got) == expected


def test_betti_mod2_duality_and_total():
    for n in range(1, 13):
        for k in range(1, n + 1):
            b = grassmann.betti_mod2(GrassmannParams(n, k))
            assert sum(b) == math.comb(n, k)
            assert b == grassmann.betti_mod2(GrassmannParams(n, n - k)) if k < n else True
            assert b == tuple(reversed(b))


def test_betti_mod2_of_large_grassmannians():
    # one coefficient at a time up to top_dim, with no recursion as deep as n - k
    assert grassmann.betti_mod2(GrassmannParams(497, 1), 2) == (1, 1, 1)
    assert grassmann.betti_mod2(GrassmannParams(3000, 1500), 5) == (1, 1, 2, 3, 5, 7)


def test_betti_mod2_top_dim_argument():
    params = GrassmannParams(4, 2)
    assert grassmann.betti_mod2(params, 2) == (1, 1, 2)
    assert grassmann.betti_mod2(params, 0) == (1,)
    with pytest.raises(ValueError):
        grassmann.betti_mod2(params, 5)
    with pytest.raises(ValueError):
        grassmann.betti_mod2(params, -1)


def check_projection(p, params):
    assert np.array_equal(p, p.T)
    assert np.max(np.abs(p @ p - p)) < 1e-9
    assert abs(np.trace(p) - params.k) < 1e-9


def test_sample_uniform_invariants():
    params = GrassmannParams(4, 2)
    points = grassmann.sample_uniform(params, 40, np.random.default_rng(0))
    assert points.shape == (40, 4, 4)
    for p in points:
        check_projection(p, params)


def test_sample_uniform_determinism():
    params = GrassmannParams(3, 1)
    a = grassmann.sample_uniform(params, 5, np.random.default_rng(3))
    b = grassmann.sample_uniform(params, 5, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_projection_point_validation():
    params = GrassmannParams(2, 1)
    good = np.array([[1.0, 0.0], [0.0, 0.0]])
    grassmann.check_projections(params, good)
    grassmann.check_projections(params, [good, good[::-1, ::-1]])
    for bad in (np.array([[1.0, 0.1], [0.0, 0.0]]), np.eye(2),
                np.array([[0.5, 0.5], [0.5, 0.5]]) * 2, np.zeros((3, 3))):
        with pytest.raises(ValueError):
            grassmann.check_projections(params, bad)
        if bad.shape == good.shape:
            # one bad matrix fails the whole stack, and is named by its index
            with pytest.raises(ValueError, match="item 1"):
                grassmann.check_projections(params, [good, bad])


def intersection_dim(basis, j, n):
    """dim of (column span of basis) meet (span of first j coordinates)."""
    if j == 0:
        return 0
    coords = np.eye(n)[:, :j]
    k = basis.shape[1]
    stacked = np.hstack([basis, coords])
    return k + j - np.linalg.matrix_rank(stacked, tol=1e-8)


def test_cell_matrix_echelon_and_intersections():
    rng = np.random.default_rng(1)
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 1)):
        params = GrassmannParams(n, k)
        for sigma in grassmann.schubert_symbols(params):
            b = grassmann.cell_matrix(params, sigma, rng)
            assert b.shape == (n, k)
            for i, s in enumerate(sigma):
                assert b[s - 1, i] == 1.0
                assert np.all(b[s:, i] == 0.0)
            # Schubert cell membership: the span meets the first sigma_i
            # coordinates in dimension exactly i, one less at sigma_i - 1
            for i, s in enumerate(sigma, start=1):
                assert intersection_dim(b, s, n) == i
                assert intersection_dim(b, s - 1, n) == i - 1


def test_cell_matrix_rejects_bad_symbols():
    params = GrassmannParams(4, 2)
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        grassmann.cell_matrix(params, (2, 5), rng)
    with pytest.raises(ValueError):
        grassmann.cell_matrix(params, (3, 2), rng)
    with pytest.raises(ValueError):
        grassmann.cell_matrix(params, (1, 2, 3), rng)


def test_sample_cell_is_valid_projection():
    params = GrassmannParams(4, 2)
    rng = np.random.default_rng(3)
    for dim in range(params.dimension + 1):
        for p in grassmann.sample_biased(params, 6, [0.0] * dim + [1.0], rng):
            check_projection(p, params)


def test_largest_remainder_rounding():
    counts = grassmann._largest_remainder(200, {1: 0.05, 2: 0.30, 3: 0.25, 4: 0.40})
    assert counts == {1: 10, 2: 60, 3: 50, 4: 80}
    counts = grassmann._largest_remainder(7, {0: 0.5, 1: 0.5})
    assert sum(counts.values()) == 7
    counts = grassmann._largest_remainder(10, {0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    assert sum(counts.values()) == 10
    assert sorted(counts.values()) == [3, 3, 4]


def test_sample_biased_counts_and_validity():
    params = GrassmannParams(4, 2)
    rng = np.random.default_rng(4)
    points = grassmann.sample_biased(params, 60, (0.0, 0.05, 0.30, 0.25, 0.40), rng)
    assert points.shape == (60, 4, 4)
    for p in points:
        check_projection(p, params)


def test_sample_biased_rejects_bad_proportions():
    params = GrassmannParams(4, 2)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=r"^fractions sum to 0\.9, expected 1$"):
        grassmann.sample_biased(params, 10, (0.5, 0.4), rng)
    with pytest.raises(ValueError, match="^negative fraction for dimension 0$"):
        grassmann.sample_biased(params, 10, (-0.1, 1.1), rng)
    with pytest.raises(ValueError, match=r"^no cell of dimension 5 in G_2\(R\^4\)$"):
        # dimension 5 does not exist on G_2(R^4)
        grassmann.sample_biased(params, 10, (0.0, 0.0, 0.0, 0.0, 0.5, 0.5), rng)
    # nan fails every comparison, so the sign and sum checks alone let it through
    for proportions, dim in (((0.5, math.nan, 0.5), 1), ((math.nan,), 0),
                             ((1.0, 0.0, 0.0, 0.0, math.nan), 4)):
        with pytest.raises(ValueError, match=f"^fraction for dimension {dim} is not a number$"):
            grassmann.sample_biased(params, 10, proportions, rng)
    with pytest.raises(TypeError):  # not {0: 1.0}, its keys read as fractions
        grassmann.sample_biased(params, 10, {1: 1.0}, rng)


def test_rp2_embed_r4_formula_and_antipodal():
    rng = np.random.default_rng(6)
    p = rng.standard_normal((20, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    x, y, z = p.T
    image = grassmann.rp2_embed_r4(p)
    assert np.allclose(image, np.stack([x * y, x * z, y * y - z * z, 2 * y * z], axis=1))
    assert np.allclose(image, grassmann.rp2_embed_r4(-p))
    assert np.array_equal(grassmann.rp2_embed_r4(p[3]), image[3])


def test_rp2_embed_r5_sphere_and_chordal_metric():
    rng = np.random.default_rng(7)
    inv_sqrt3 = 1.0 / np.sqrt(3.0)
    p = rng.standard_normal((20, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    q = rng.standard_normal((20, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    fp = grassmann.rp2_embed_r5(p)
    fq = grassmann.rp2_embed_r5(q)
    assert np.allclose(np.linalg.norm(fp, axis=1), inv_sqrt3, rtol=0, atol=1e-12)
    assert np.allclose(fp, grassmann.rp2_embed_r5(-p))
    assert np.array_equal(grassmann.rp2_embed_r5(p[3]), fp[3])
    # squared chordal distance depends only on the angle between lines
    expected = 1.0 - np.sum(p * q, axis=1) ** 2
    assert np.allclose(np.sum((fp - fq) ** 2, axis=1), expected, rtol=0, atol=1e-10)


def test_embeddings_reject_bad_input():
    with pytest.raises(ValueError, match=r"^input must be a unit vector \(item 0\)$"):
        grassmann.rp2_embed_r4([1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match=r"^input must be a unit vector \(item 0\)$"):
        grassmann.rp2_embed_r5([0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        grassmann.rp2_embed_r4([1.0, 0.0])
    with pytest.raises(ValueError, match=r"^input must be a unit vector \(item 1\)$"):
        grassmann.rp2_embed_r4([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])


def test_sample_sphere_unit_norms():
    points = grassmann.sample_sphere(50, np.random.default_rng(8))
    assert points.shape == (50, 3)
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0, rtol=0, atol=1e-12)
    again = grassmann.sample_sphere(50, np.random.default_rng(8))
    assert np.array_equal(points, again)


def test_sample_so3_rotations():
    points = grassmann.sample_so3(40, np.random.default_rng(9))
    assert points.shape == (40, 9)
    for v in points:
        q = v.reshape(3, 3)
        assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
    # the diameter of SO(3) in this metric is 2*sqrt(2)
    for i in range(0, 40, 7):
        dists = np.linalg.norm(points - points[i], axis=1)
        assert np.max(dists) <= 2.0 * np.sqrt(2.0) + 1e-9


def test_batches_equal_single_draws():
    # one batched call gives, bit for bit, what N calls of size 1 give:
    # the draw order and the per-item arithmetic do not depend on the batch
    params = GrassmannParams(5, 2)
    samplers = (lambda c, rng: grassmann.sample_uniform(params, c, rng),
                grassmann.sample_sphere, grassmann.sample_so3)
    for sample in samplers:
        batch = sample(30, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        assert np.array_equal(batch, np.concatenate([sample(1, rng) for _ in range(30)]))
    rng = np.random.default_rng(13)
    vectors = rng.standard_normal((30, 2, 5))
    normals = rng.standard_normal((30, 5, 5))
    frames = linalg.gram_schmidt(vectors)
    assert np.array_equal(frames, [linalg.gram_schmidt(v) for v in vectors])
    assert np.array_equal(linalg.random_orthogonal(normals),
                          [linalg.random_orthogonal(a) for a in normals])
    assert np.array_equal(linalg.projection_matrix(frames),
                          [linalg.projection_matrix(f) for f in frames])


def test_samplers_reject_nonpositive_count():
    params = GrassmannParams(3, 1)
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        grassmann.sample_uniform(params, 0, rng)
    with pytest.raises(ValueError):
        grassmann.sample_biased(params, 0, (1.0,), rng)
    with pytest.raises(ValueError):
        grassmann.sample_sphere(0, rng)
    with pytest.raises(ValueError):
        grassmann.sample_so3(-1, rng)


def test_cloud_round_trip(shared_dir):
    rng = np.random.default_rng(11)
    cloud = rng.standard_normal((13, 5))
    path = shared_dir / "cloud.txt"
    grassmann.write_cloud(path, cloud)
    back = grassmann.read_cloud(path)
    assert np.array_equal(back, cloud)


def test_write_cloud_matches_savetxt(shared_dir, monkeypatch):
    rng = np.random.default_rng(12)
    sampled = grassmann.sample_uniform(GrassmannParams(5, 2), 40, rng).reshape(40, -1)
    partial = rng.standard_normal((9, 4))
    partial[:-1, 3] = partial[:-1, 1]  # columns 1 and 3 differ in the last row only
    signed = np.zeros((6, 3))
    signed[[1, 4], 2] = -0.0  # bit patterns differ from column 0's zeros
    special = np.array([[np.inf, np.nan, -np.inf, np.inf], [1e-300, np.nan, -1e300, 1e-300]])
    clouds = [sampled, partial, signed, special, sampled[:, :1], sampled[:1],
              sampled[:, 3], np.empty((0, 3)), np.empty((3, 0))]

    def check():
        for i, cloud in enumerate(clouds):
            ours, ref = shared_dir / f"{i}.txt", shared_dir / f"{i}.ref"
            for path in (ours, ref):
                path.unlink(missing_ok=True)  # ext4 flushes a file written over when it is closed
            grassmann.write_cloud(ours, cloud)
            np.savetxt(ref, cloud, fmt="%.17g")
            assert ours.read_bytes() == ref.read_bytes()

    check()
    # one row a block, then three rows a block for the 25-column clouds
    for budget in (1, 3 * 256 * 25):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
        check()
    with pytest.raises(ValueError):  # savetxt takes 1-d and 2-d arrays only
        grassmann.write_cloud(shared_dir / "stack.txt", np.zeros((2, 2, 2)))


def write_cloud_peak(path, cloud, monkeypatch):
    """tracemalloc's peak while ``write_cloud`` writes 64-row blocks."""
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 256 * cloud.shape[1] * 64)
    grassmann.write_cloud(path, cloud)  # keeps one-time imports and caches out of the trace
    tracemalloc.start()
    try:
        grassmann.write_cloud(path, cloud)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_cloud_memory_is_bounded(shared_dir, monkeypatch):
    path = shared_dir / "cloud.txt"
    peak = write_cloud_peak(path, np.random.default_rng(13).standard_normal((4000, 25)),
                            monkeypatch)
    # a block's temporaries take about 256 bytes a value (220-230 here), and
    # a whole-file join would hold at least the file's text at once
    assert peak < 1.1 * linalg.BLOCK_BYTES
    assert peak < path.stat().st_size / 4


def test_write_cloud_memory_is_bounded_below_1e4(shared_dir, monkeypatch):
    # values below 1e-4 skip the array path and go through % alone
    cloud = np.random.default_rng(13).standard_normal((4000, 25)) * 1e-6
    path, reference = shared_dir / "cloud.txt", shared_dir / "cloud.ref"
    assert write_cloud_peak(path, cloud, monkeypatch) < 1.1 * linalg.BLOCK_BYTES
    np.savetxt(reference, cloud, fmt="%.17g")
    assert path.read_bytes() == reference.read_bytes()


def test_read_cloud_edge_cases(shared_dir):
    path = shared_dir / "empty.txt"
    path.write_text("")
    assert grassmann.read_cloud(path).shape == (0, 0)
    ragged = shared_dir / "ragged.txt"
    ragged.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError):
        grassmann.read_cloud(ragged)


def test_read_cloud_locates_bad_lines(shared_dir, monkeypatch):
    path = shared_dir / "cloud.txt"
    path.write_bytes(b"\n 1\t2 \r\n\n3\v4\f\n5 6")
    bad = shared_dir / "bad.txt"
    for read_bytes in (1, 5, linalg.BLOCK_BYTES // 16):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 16 * read_bytes)  # read_bytes-byte chunks
        assert np.array_equal(grassmann.read_cloud(path), [[1, 2], [3, 4], [5, 6]])
        for text, message in [
                ("1 2\n3 4\n0.3 x\n", "3: could not convert string to float: 'x'"),
                ("1 2\n\n3 4 5\n", "3: ragged point cloud, 2 coordinates on its first line"),
                ("1 2\n3\n4 y\n", "2: ragged point cloud"),
                ("1 2\n3 4\n5 0x1p3\n", "3: could not convert string to float: '0x1p3'")]:
            bad.unlink(missing_ok=True)  # ext4 flushes a file written over when it is closed
            bad.write_text(text)
            with pytest.raises(ValueError, match=re.escape(f"{bad}:{message}")):
                grassmann.read_cloud(bad)
    path = shared_dir / "nan.txt"
    path.write_text("0 0\n1 nan\n")
    with pytest.raises(ValueError, match="non-finite coordinate in point 1"):
        grassmann.read_cloud(path)


# bit patterns: any, positive subnormal, negative subnormal
BIT_PATTERNS = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**52 - 1),
                         st.integers(2**63, 2**63 + 2**52 - 1))


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(BIT_PATTERNS, min_size=1, max_size=300),
       read_bytes=st.sampled_from([7, 64, linalg.BLOCK_BYTES // 16]))
@example(bits=[0, 2**63, 1, 2**63 + 1, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
               0x000FFFFFFFFFFFFF, 0x0010000000000000], read_bytes=64)
def test_float_tokens_parse_as_float_does(tmp_path_factory, bits, read_bytes):
    values = np.array(bits, dtype=np.uint64).view(float)
    tokens = [t for v in values[np.isfinite(values)].tolist() for t in ("%.17g" % v, repr(v))]
    assume(tokens)
    expected = np.array([float(t) for t in tokens])
    cast = np.array([t.encode() for t in tokens]).astype(float)
    assert cast.view(np.int64).tolist() == expected.view(np.int64).tolist()
    path = tmp_path_factory.getbasetemp() / "float_tokens.txt"  # not a directory an example
    path.unlink(missing_ok=True)  # ext4 flushes a file written over when it is closed
    path.write_text("\n".join(tokens) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BLOCK_BYTES", 16 * read_bytes)
        cloud = grassmann.read_cloud(path)
    assert cloud[:, 0].view(np.int64).tolist() == expected.view(np.int64).tolist()


def assert_formats_as_percent(values):
    """complexes._float_texts gives b"%.17g" % v once its NULs are dropped."""
    values = np.asarray(values, dtype=float)
    texts = complexes._float_texts(values)
    assert texts.dtype == "S24" and texts.shape == values.shape
    got = [t.replace(b"\0", b"") for t in texts.tolist()]
    assert got == [b"%.17g" % v for v in values.tolist()]


def array_path(values):
    """Which values _float_texts formats as arrays: the rest take %."""
    return (np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)


FORMAT_PINS = np.array(
    [0.0, -0.0, 5e-324, 2**-25, 0.1, 0.5, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
     9.9999999999999995e-07, 1e16, 99999999999999999.0, np.inf, -np.inf, np.nan]
    + [v for p in (float(f"1e{k}") for k in range(-5, 18))
       for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))])


def test_float_texts_pinned_values():
    assert_formats_as_percent(np.r_[FORMAT_PINS, -FORMAT_PINS])
    # ties at 17 digits go to even, 99999999999999999.0 is 1e17, and -1e16
    # has exponent 16, so no fraction digits
    ties = [2**-25, 1234567890123456.25, 1234567890123456.75, 99999999999999999.0, -1e16]
    assert [t.replace(b"\0", b"") for t in complexes._float_texts(ties).tolist()] == [
        b"2.9802322387695312e-08", b"1234567890123456.2", b"1234567890123456.8", b"1e+17",
        b"-10000000000000000"]
    path = array_path(FORMAT_PINS)
    assert path.sum() > 40 and (~path).sum() > 10


def test_float_texts_bulk():
    rng = np.random.default_rng(14)
    uniform = rng.uniform(-1, 1, 10**6)
    # trailing zeros, bare points, and from 10**15 on ties at 17 digits
    eighths = np.r_[np.arange(-2 * 10**5, 2 * 10**5), 8 * 10**15 + np.arange(10**5)] / 8
    for values in (uniform, eighths):
        assert_formats_as_percent(values)
        assert array_path(values).any() and not array_path(values).all()


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(1e-5, 1e18), st.floats(-1e18, -1e-5),
    BIT_PATTERNS.map(lambda b: float(np.array(b, dtype=np.uint64).view(float)))),
    min_size=1, max_size=300))
def test_float_texts_match_percent_formatting(values):
    assert_formats_as_percent(values)
