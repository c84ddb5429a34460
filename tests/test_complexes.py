import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasstri import complexes, linalg, persistence
from grasstri.complexes import Filtration, LandmarkSet
from simplices import Simplex, from_simplices, simplex, simplices
from test_acceptance import reference_reduce_columns


def brute_force_rips(cloud, r_max, max_dim):
    """All subsets of diameter < r_max, values by brute-force diameter."""
    pts = np.asarray(cloud, dtype=float)
    n = len(pts)
    out = {}
    for size in range(1, max_dim + 2):
        for combo in itertools.combinations(range(n), size):
            diam = 0.0
            for a, b in itertools.combinations(combo, 2):
                diam = max(diam, float(np.linalg.norm(pts[a] - pts[b])))
            if diam < r_max:
                out[combo] = diam
    return out


def filtration_as_dict(filtration):
    return {s.vertices: s.value for s in simplices(filtration)}


def brute_force_cliques(values, within, max_dim):
    """Every clique of at most max_dim + 1 vertices, valued by its largest edge."""
    out = {}
    for size in range(1, max_dim + 2):
        for combo in itertools.combinations(range(len(values)), size):
            pairs = list(itertools.combinations(combo, 2))
            if all(within[a, b] for a, b in pairs):
                out[combo] = max((float(values[a, b]) for a, b in pairs), default=0.0)
    return out


@pytest.mark.parametrize("max_dim, block_rows", [
    pytest.param(d, rows, id=f"{d}{tag}") for rows, tag in
    ((2, ""), (1, "-1-row-blocks"), (None, "-default-blocks")) for d in range(5)])
def test_flag_expand_matches_brute_force_cliques(monkeypatch, max_dim, block_rows):
    rng = np.random.default_rng(40 + max_dim)
    for trial in range(15):
        n = int(rng.integers(1, 11))
        # a coarse grid of values, so that ties and zeros are common
        values = rng.integers(0, 4, (n, n)) / 2.0
        values = np.maximum(values, values.T)
        np.fill_diagonal(values, 0.0)
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.3, 1.0), k=1)
        within = upper | upper.T
        np.fill_diagonal(within, trial % 2 == 0)
        # 1- and 2-row blocks grow most dimensions in several blocks, some of
        # which find no coface; None keeps the default budget
        if block_rows:
            monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * n * block_rows)
        f = complexes._flag_expand(values, within, max_dim, complexes.DEFAULT_MAX_SIMPLICES)
        f.validate()
        expected = brute_force_cliques(values, within, max_dim)
        assert filtration_as_dict(f) == expected
        assert f.verts.shape[1] == max(len(c) for c in expected)


def binomial_tables(n, top, dtype=np.int64):
    """``tables[j][c]`` = C(c, j) for c < n and j <= top."""
    return [np.array([math.comb(c, j) for c in range(n)], dtype=dtype) for j in range(top + 1)]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_subset_keys_rank_subsets_lexicographically(dtype):
    for n in range(1, 11):
        binom = binomial_tables(n, 5, dtype)
        for j in range(1, min(n, 5) + 1):
            subsets = np.array(list(itertools.combinations(range(n), j)))
            keys = complexes._subset_keys(binom, n, j, (n - 1 - subsets.T).__getitem__)
            assert keys.dtype == dtype
            assert keys.tolist() == list(range(math.comb(n, j)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), tops=st.integers(0, 6), repeats=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_keyed_minima_through_the_canonical_tail(n, tops, repeats, seed):
    # a face-closed complex that need not be a flag complex, given as rows in
    # any order with repeats: keyed per dimension, each simplex's least value
    # taken by reduceat, and ordered by the tail, it is the filtration of the
    # per-simplex minima
    rng, top_dim = np.random.default_rng(seed), 4
    closed = {(v,) for v in range(n)}
    for _ in range(tops):
        top = rng.choice(n, int(rng.integers(1, min(n, top_dim + 1) + 1)), replace=False)
        closed |= {c for k in range(2, len(top) + 1)
                   for c in itertools.combinations(sorted(top.tolist()), k)}
    least = {}
    for s in sorted(closed, key=len):  # values from a few levels, ties at 0 in every dimension
        own = float(rng.choice([0.0, 0.5, 1.0])) if len(s) > 1 else 0.0
        least[s] = max([own, *(least[f] for f in itertools.combinations(s, len(s) - 1) if f)])
    rows = [(s, v + float(rng.choice([0.0, 0.5, 1.0])) * (i > 0))
            for s, v in least.items() for i in range(int(rng.integers(1, repeats + 1)))]
    random.Random(seed).shuffle(rows)
    binom, levels = binomial_tables(n, top_dim + 1), []
    for k in range(top_dim + 1):
        verts = np.array([s for s, _ in rows if len(s) == k + 1], np.int32).reshape(-1, k + 1)
        vals = np.array([v for s, v in rows if len(s) == k + 1])
        keys = complexes._subset_keys(binom, n, k + 1, (n - 1 - verts.T).__getitem__)
        order = np.argsort(keys)
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        levels.append((verts[order[starts]], np.minimum.reduceat(vals[order], starts)))
    f = complexes._canonical(levels, n)
    assert not levels
    assert f == from_simplices([Simplex(s, v) for s, v in least.items()], n)
    matrix = persistence.build_boundary(f)
    pairing, naive = persistence.reduce_boundary(matrix), reference_reduce_columns(matrix)
    assert np.array_equal(pairing.pairs, naive.pairs)
    assert np.array_equal(pairing.essential, naive.essential)


def test_two_points_single_edge():
    f = complexes.vietoris_rips(np.array([[0.0], [1.0]]), 2.0, 1)
    assert filtration_as_dict(f) == {(0,): 0.0, (1,): 0.0, (0, 1): 1.0}
    assert f.vertex_count == 2
    f.validate()


def test_equilateral_triangle():
    side = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    f = complexes.vietoris_rips(side, 2.0, 2)
    got = filtration_as_dict(f)
    assert got[(0, 1, 2)] == pytest.approx(1.0)
    assert sum(1 for v in got if len(v) == 2) == 3
    for edge in ((0, 1), (0, 2), (1, 2)):
        assert got[edge] == pytest.approx(1.0)


def test_r_max_below_separation_gives_vertices_only():
    cloud = np.array([[0.0], [5.0], [9.0]])
    f = complexes.vietoris_rips(cloud, 1.0, 3)
    assert filtration_as_dict(f) == {(0,): 0.0, (1,): 0.0, (2,): 0.0}


def test_rips_threshold_is_strict():
    cloud = np.array([[0.0], [1.0]])
    f = complexes.vietoris_rips(cloud, 1.0, 1)
    assert (0, 1) not in filtration_as_dict(f)
    f = complexes.vietoris_rips(cloud, 1.0 + 1e-12, 1)
    assert (0, 1) in filtration_as_dict(f)


def test_rips_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(15):
        n = int(rng.integers(3, 12))
        dim = int(rng.integers(1, 4))
        cloud = rng.standard_normal((n, 3))
        r_max = float(rng.uniform(0.5, 3.0))
        f = complexes.vietoris_rips(cloud, r_max, dim)
        f.validate()
        expected = brute_force_rips(cloud, r_max, dim)
        got = filtration_as_dict(f)
        assert set(got) == set(expected)
        for simplex, value in expected.items():
            assert got[simplex] == pytest.approx(value, abs=1e-12)


def test_rips_complete_complex_count():
    rng = np.random.default_rng(1)
    cloud = rng.standard_normal((7, 2)) * 0.01
    for d in range(4):
        f = complexes.vietoris_rips(cloud, 10.0, d)
        assert len(f) == sum(math.comb(7, i) for i in range(1, d + 2))


def test_rips_canonical_order():
    rng = np.random.default_rng(2)
    cloud = rng.standard_normal((9, 3))
    # points repeated three times, and witness edges clamped to 0, tie
    # vertices, edges and triangles at one value: the dimension orders them
    tripled = np.repeat(rng.standard_normal((4, 2)), 3, axis=0)
    witnesses = rng.standard_normal((200, 2))
    landmarks = complexes.maxmin_landmarks(witnesses, 10, rng)
    builds = [complexes.vietoris_rips(cloud, 2.5, 3), complexes.vietoris_rips(tripled, 1.5, 3),
              complexes.witness_filtration(landmarks, 0.5, 3)]
    for f in builds:
        keys = [(s.value, s.dim, s.vertices) for s in simplices(f)]
        assert keys == sorted(keys)
        f.validate()
        persistence.build_boundary(f)
    for f in builds[1:]:
        assert {0, 1, 2} <= set(f.dims[f.values == 0.0].tolist())


def test_rips_rejects_bad_input():
    with pytest.raises(ValueError, match="^need a nonempty 2-d point cloud$"):
        complexes.vietoris_rips(np.empty((0, 3)), 1.0, 1)
    with pytest.raises(ValueError):
        complexes.vietoris_rips(np.ones((2, 2)), 0.0, 1)
    with pytest.raises(ValueError):
        complexes.vietoris_rips(np.ones((2, 2)), 1.0, -1)
    with pytest.raises(ValueError, match="r_max"):
        complexes.vietoris_rips(np.ones((2, 2)), math.nan, 1)
    assert len(complexes.vietoris_rips(np.ones((2, 2)), math.inf, 1)) == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda cloud: complexes.vietoris_rips(cloud, 1.0, 1),
    lambda cloud: complexes.maxmin_landmarks(cloud, 3, np.random.default_rng(0)),
    lambda cloud: complexes.random_landmarks(cloud, 3, np.random.default_rng(0)),
], ids=["vietoris_rips", "maxmin_landmarks", "random_landmarks"])
def test_non_finite_cloud_rejected(build, bad):
    cloud = np.random.default_rng(0).standard_normal((6, 3))
    cloud[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        build(cloud)


def test_rips_simplex_cap():
    rng = np.random.default_rng(3)
    cloud = rng.standard_normal((10, 2)) * 0.01
    with pytest.raises(complexes.ResourceLimit):
        complexes.vietoris_rips(cloud, 1.0, 3, max_simplices=50)
    with pytest.raises(complexes.ResourceLimit):
        complexes.vietoris_rips(cloud, 1.0, 0, max_simplices=9)
    # the cap is exceeded by the last simplex; a cap equal to the count passes
    full = complexes.vietoris_rips(cloud, 1.0, 3)
    with pytest.raises(complexes.ResourceLimit):
        complexes.vietoris_rips(cloud, 1.0, 3, max_simplices=len(full) - 1)
    again = complexes.vietoris_rips(cloud, 1.0, 3, max_simplices=len(full))
    assert again == full


def test_filtration_from_simplices_sorts_canonically():
    f = from_simplices(
        [Simplex((0, 1), 2.0), Simplex((0,), 0.0), Simplex((1,), 0.0),
         Simplex((2,), 1.0), Simplex((1, 2), 2.0)],
        vertex_count=3)
    assert [s.vertices for s in simplices(f)] == [(0,), (1,), (2,), (0, 1), (1, 2)]
    f.validate()
    with pytest.raises(ValueError):
        from_simplices([Simplex((1, 0), 1.0)], vertex_count=2)
    # labels beyond int32, also ones that would wrap to 0 when narrowed
    for label in (99999999999, 2**32, np.int64(2**32), 10**30):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            from_simplices([Simplex((label,), 0.0)], vertex_count=1)


@pytest.mark.parametrize("label, message", [
    (-1, "each simplex needs 1 to 1 vertex labels in [0, 3), padded with -1"),
    (3, "vertex label 3 outside [0, 3)"),
    (2**31, "vertex label 2147483648 outside [0, 3)"),
    (2**32 + 1, "vertex label 4294967297 outside [0, 3)"),
    (1.5, "vertex label 1.5 is not an integer"),
    (10**30, f"vertex label {10**30} outside [0, 3)"),
], ids=["minus-one", "vertex-count", "2**31", "2**32+1", "fraction", "10**30"])
def test_from_simplices_refuses_labels_int32_would_change(label, message):
    with pytest.raises(ValueError) as err:
        from_simplices([Simplex((0,), 0.0), Simplex((label,), 0.0)], vertex_count=3)
    assert str(err.value) == message


def test_constructor_narrows_no_label_or_dimension_silently():
    # each of these once narrowed to a filtration that validate() passed
    with pytest.raises(ValueError, match=r"^vertex label 4294967297 outside \[0, 3\)$"):
        Filtration([0, 0, 0.5], [0, 0, 1],
                   np.array([[0, -1], [2**32 + 1, -1], [0, 2**32 + 1]]), 3)
    with pytest.raises(ValueError,
                       match=r"^simplex dimension 4294967296 outside \[0, 2147483648\)$"):
        Filtration([0, 0], np.array([0, 2**32]), [[0], [1]], 3)
    with pytest.raises(ValueError, match=r"^simplex dimension 4294967296 outside"):
        Filtration([0, 0], [0, 2**32], [[0], [1]], 3)  # a list: once an OverflowError
    with pytest.raises(ValueError, match=r"^vertex label 1\.5 is not an integer$"):
        Filtration([0, 0], [0, 0], [[0.0], [1.5]], 3)
    # int32 arrays are taken as they are, for validate() to judge
    f = Filtration([0.0], np.array([0], np.int32), np.array([[7]], np.int32), 3)
    assert f.verts.tolist() == [[7]]
    with pytest.raises(ValueError, match="vertex labels in"):
        f.validate()


def test_validate_refuses_a_dimension_past_the_vertex_columns():
    f = Filtration([0.0], [2], [[0]], 3)
    with pytest.raises(ValueError, match=r"^each simplex needs 1 to 1 vertex labels in \[0, 3\)"):
        f.validate()


def test_constructor_refuses_a_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^vertex_count -5 is negative$"):
        Filtration(np.zeros(0), np.zeros(0, np.int32), np.zeros((0, 1), np.int32), -5)


def gate_entries(kind):
    """Entries of one array kind: int64, float64 (some not integers) or Python ints
    in an object array (some past int64)."""
    ints = st.one_of(st.integers(-2, 9), st.sampled_from(
        [2**31 - 1, 2**31, 2**32, 2**32 + 1, -2**31, -2**31 - 1, 2**63 - 1, -2**63]))
    if kind == "float64":
        return st.one_of(ints.map(float), st.sampled_from([0.5, 1.5, -0.5, 2.25, 1e300]))
    return ints if kind == "int64" else st.one_of(ints, st.integers(-2**80, 2**80))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kinds=st.tuples(*[st.sampled_from(["int64", "float64", "object"])] * 2),
       m=st.integers(1, 5), vertex_count=st.sampled_from([4, 2**31 - 1, 2**40]))
def test_constructor_keeps_every_entry_or_refuses(data, kinds, m, vertex_count):
    arrays = [np.array(data.draw(st.lists(gate_entries(kind), min_size=size, max_size=size)),
                       dtype=kind) for kind, size in zip(kinds, (m, m))]
    dims, verts = arrays[0], arrays[1].reshape(m, 1)
    bound = min(vertex_count, 2**31)

    def first_bad(a, top):
        bad = [x for x in a.ravel().tolist() if x != -1 and not (x == int(x) and 0 <= x < top)]
        return bad[0] if bad else None

    bad_dim, bad_label = first_bad(dims, 2**31), first_bad(verts, bound)
    try:
        f = Filtration(np.zeros(m), dims, verts, vertex_count)
    except ValueError as err:
        what, named = ("simplex dimension", bad_dim) if bad_dim is not None else (
            "vertex label", bad_label)
        assert named is not None, err
        assert str(err).startswith(f"{what} {named}"), err
        return
    assert bad_dim is None and bad_label is None
    assert f.dims.dtype == f.verts.dtype == np.int32
    assert f.dims.tolist() == dims.tolist() and f.verts.tolist() == verts.tolist()


def test_filtration_validate_catches_violations():
    bad = from_simplices(
        [Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 1.0),
         Simplex((2,), 2.0)],
        vertex_count=3)
    bad.validate()
    missing = Filtration(
        np.array([0.0, 1.0]), np.array([0, 1]),
        np.array([[0, -1], [0, 1]]), vertex_count=2)
    with pytest.raises(ValueError, match=r"^face \(1,\) of \(0, 1\) is missing from"):
        persistence.build_boundary(missing)


class FirstDraw:
    """A generator stand-in whose ``integers`` draws ``index``: maxmin's first landmark."""

    def __init__(self, index: int):
        self.index = index

    def integers(self, high: int) -> int:
        return self.index


def test_maxmin_line_example():
    cloud = np.array([[0.0], [1.0], [10.0]])
    lm = complexes.maxmin_landmarks(cloud, 3, FirstDraw(0))
    assert lm.indices.tolist() == [0, 2, 1]
    assert lm.distances.shape == (3, 3)
    assert lm.distances[0].tolist() == [0.0, 1.0, 10.0]


def test_maxmin_count_edge_cases():
    cloud = np.array([[0.0], [1.0], [10.0]])
    one = complexes.maxmin_landmarks(cloud, 1, FirstDraw(2))
    assert one.indices.tolist() == [2]
    full = complexes.maxmin_landmarks(cloud, 3, np.random.default_rng(1))
    assert sorted(full.indices.tolist()) == [0, 1, 2]
    with pytest.raises(ValueError, match="^need 1 <= count <= 3, got 4$"):
        complexes.maxmin_landmarks(cloud, 4, np.random.default_rng(1))
    with pytest.raises(ValueError, match="^need 1 <= count <= 3, got 0$"):
        complexes.maxmin_landmarks(cloud, 0, np.random.default_rng(1))


def test_maxmin_greedy_property():
    # each landmark past the first maximizes the distance to the chosen set
    rng = np.random.default_rng(4)
    cloud = rng.standard_normal((40, 3))
    lm = complexes.maxmin_landmarks(cloud, 10, rng)
    dist = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
    for step in range(1, 10):
        chosen = lm.indices[:step]
        mindist = dist[:, chosen].min(axis=1)
        mindist[chosen] = -1.0
        best = np.max(mindist)
        assert mindist[lm.indices[step]] == pytest.approx(best)


def test_maxmin_permutation_equivariance():
    rng = np.random.default_rng(5)
    cloud = rng.standard_normal((25, 4))
    perm = rng.permutation(25)
    shuffled = cloud[perm]
    base = complexes.maxmin_landmarks(cloud, 8, FirstDraw(3))
    where = np.argsort(perm)
    moved = complexes.maxmin_landmarks(shuffled, 8, FirstDraw(int(where[3])))
    assert [int(perm[i]) for i in moved.indices] == base.indices.tolist()


def test_random_landmarks():
    rng = np.random.default_rng(6)
    cloud = rng.standard_normal((30, 2))
    lm = complexes.random_landmarks(cloud, 12, np.random.default_rng(7))
    assert len(lm.indices) == 12
    assert len(set(lm.indices.tolist())) == 12
    for row, idx in zip(lm.distances, lm.indices):
        assert row[idx] == 0.0


def test_landmark_set_validation():
    with pytest.raises(ValueError):
        LandmarkSet(np.array([0, 0]), np.zeros((2, 5)))
    with pytest.raises(ValueError):
        LandmarkSet(np.array([0, 1]), np.zeros((3, 5)))


def test_landmark_set_refuses_non_integer_indices():
    # refused, not truncated: [0.5, 1.7] would index points 0 and 1
    for indices in (np.array([0.5, 1.7]), np.array([0.0, 1.0]), np.array([True, False])):
        with pytest.raises(ValueError, match=f"^landmark indices must be integers, "
                                             f"not {indices.dtype}$"):
            LandmarkSet(indices, np.zeros((2, 3)))
    kept = LandmarkSet(np.array([2, 0], dtype=np.uint8), np.zeros((2, 3))).indices
    assert kept.dtype == np.int64 and kept.tolist() == [2, 0]


def test_landmark_set_refuses_indices_outside_the_cloud():
    # -1 would index the last point, and uint64 2**63 would wrap to -2**63 as int64
    for indices, bad in ((np.array([-1, 2]), -1), (np.array([0, 3]), 3),
                         (np.array([0, 2**63], dtype=np.uint64), 2**63)):
        with pytest.raises(ValueError, match=rf"^landmark index {bad} outside \[0, 3\)$"):
            LandmarkSet(indices, np.zeros((2, 3)))
    kept = LandmarkSet(np.array([2, 0]), np.zeros((2, 3)))
    # compared by identity, as arrays give no single truth value
    assert kept == kept and kept != LandmarkSet(np.array([2, 0]), np.zeros((2, 3)))


def brute_force_witness_value(dist, a, b):
    """Direct evaluation: min over witnesses of reach minus excluded minimum."""
    n_l, n_x = dist.shape
    best = np.inf
    for x in range(n_x):
        reach = max(dist[a, x], dist[b, x])
        others = [dist[l, x] for l in range(n_l) if l not in (a, b)]
        excl = min(others) if others else np.inf
        if excl == np.inf:
            return 0.0
        best = min(best, reach - excl)
    return max(0.0, best)


def test_witness_line_example():
    cloud = np.array([[0.0], [1.0], [2.0]])
    lm = LandmarkSet(np.array([0, 1, 2]),
                     np.abs(cloud - cloud.T))
    values = complexes.witness_edge_values(lm)
    assert values[0, 1] == 0.0
    assert values[1, 2] == 0.0
    assert values[0, 2] == 1.0
    f = complexes.witness_filtration(lm, 2.0, 2)
    got = filtration_as_dict(f)
    assert got[(0, 1, 2)] == 1.0


def test_witness_two_landmarks_edge_at_zero():
    cloud = np.array([[0.0], [3.0], [7.0]])
    lm = complexes.maxmin_landmarks(cloud, 2, FirstDraw(0))
    f = complexes.witness_filtration(lm, 0.0, 1)
    got = filtration_as_dict(f)
    assert got[(0, 1)] == 0.0


def test_witness_values_match_brute_force():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(3, min(n, 8) + 1))
        cloud = rng.standard_normal((n, 3))
        lm = complexes.random_landmarks(cloud, k, rng)
        values = complexes.witness_edge_values(lm)
        for a in range(k):
            assert values[a, a] == 0.0
            for b in range(a + 1, k):
                expected = brute_force_witness_value(lm.distances, a, b)
                assert values[a, b] == expected
                assert values[b, a] == values[a, b]


def reference_witness_edge_values(landmarks):
    """One pass over the witnesses per landmark pair: the values that
    witness_edge_values must reproduce exactly."""
    dist = landmarks.distances
    n_l = dist.shape[0]
    values = np.zeros((n_l, n_l))
    if n_l == 2:
        return values
    order = np.argsort(dist, axis=0, kind="stable")
    r1, r2 = order[0], order[1]
    cols = np.arange(dist.shape[1])
    s1, s2, s3 = dist[r1, cols], dist[r2, cols], dist[order[2], cols]
    for a in range(n_l):
        da = dist[a]
        for b in range(a + 1, n_l):
            reach = np.maximum(da, dist[b])
            excl = np.where((r1 != a) & (r1 != b), s1,
                            np.where((r2 != a) & (r2 != b), s2, s3))
            val = max(0.0, float(np.min(reach - excl)))
            values[a, b] = values[b, a] = val
    return values


@settings(max_examples=80, deadline=None)
@given(count=st.integers(2, 12), extra=st.integers(0, 25), dim=st.integers(1, 3),
       decimals=st.sampled_from([None, 0, 1]), columns=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(count=3, extra=6, dim=1, decimals=0, columns=2, seed=0)
def test_witness_edge_values_match_reference(count, extra, dim, decimals, columns, seed):
    # rounded clouds repeat distances, so the nearest three tie
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(-2.0, 2.0, (count + extra, dim))
    if decimals is not None:
        cloud = np.round(cloud, decimals)
    landmarks = complexes.random_landmarks(cloud, count, rng)
    expected = reference_witness_edge_values(landmarks)
    assert np.array_equal(complexes.witness_edge_values(landmarks), expected)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BLOCK_BYTES", 8 * count * columns)
        assert np.array_equal(complexes.witness_edge_values(landmarks), expected)


@settings(max_examples=80, deadline=None)
@given(count=st.integers(2, 12), extra=st.integers(0, 40), dim=st.integers(1, 3),
       decimals=st.sampled_from([None, 0, 1]), columns=st.integers(1, 4),
       cut=st.sampled_from(["zero", "quantile", "inf"]), q=st.floats(0.0, 1.0),
       max_dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(count=4, extra=12, dim=1, decimals=0, columns=3, cut="quantile", q=0.3,
         max_dim=2, seed=0)
def test_witness_edge_values_below_r_max(count, extra, dim, decimals, columns, cut, q,
                                          max_dim, seed):
    # entries at most r_max are exact and the rest lie above it, also with
    # tied nearest distances and with blocks a few witnesses wide, where a
    # landmark row can find no witness of a block within reach, or only some
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(-2.0, 2.0, (count + extra, dim))
    if decimals is not None:
        cloud = np.round(cloud, decimals)
    landmarks = complexes.random_landmarks(cloud, count, rng)
    expected = reference_witness_edge_values(landmarks)
    r_max = {"zero": 0.0, "inf": np.inf,
             "quantile": float(np.quantile(expected, q, method="nearest"))}[cut]
    within = expected <= r_max
    flag = complexes._flag_expand(expected, within, max_dim, complexes.DEFAULT_MAX_SIMPLICES)
    for budget in (linalg.BLOCK_BYTES, 8 * count * columns):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "BLOCK_BYTES", budget)
            values = complexes.witness_edge_values(landmarks, r_max)
            filtration = complexes.witness_filtration(landmarks, r_max, max_dim)
        assert np.array_equal(values <= r_max, within)
        assert np.array_equal(values[within], expected[within])
        assert np.all(values[~within] > r_max)
        assert filtration == flag


def test_witness_edge_values_second_nearest_one_ulp_apart():
    # witness 0 has s1 = 0.5 + 2**-53; its distances 1.75 + 2**-52 and 1.75
    # to landmarks 1 and 2 both shift to 1.25, so s2 must come from the
    # unshifted distances: edge (0, 1) is 2**-52, and stays out at r_max = 0
    cloud = np.array([[0.0], [-(0.5 + 2**-53)], [1.75 + 2**-52], [1.75], [1.8]])
    idx = np.arange(1, 5)
    landmarks = LandmarkSet(idx, linalg.pairwise_distances(cloud[idx], cloud))
    expected = reference_witness_edge_values(landmarks)
    assert expected[0, 1] == 2**-52
    for budget in (linalg.BLOCK_BYTES, 8 * len(idx)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "BLOCK_BYTES", budget)
            assert np.array_equal(complexes.witness_edge_values(landmarks), expected)
            assert np.array_equal(complexes.witness_edge_values(landmarks, 0.0), expected)
            filtration = complexes.witness_filtration(landmarks, 0.0, 2)
        assert filtration == complexes._flag_expand(expected, expected <= 0.0, 2,
                                                    complexes.DEFAULT_MAX_SIMPLICES)


def test_witness_membership_grid():
    # filtration membership at any parameter equals the defining inequality:
    # some witness x has both endpoint distances at most R plus the smallest
    # distance from x to a landmark other than the endpoints
    rng = np.random.default_rng(9)
    for trial in range(6):
        n = int(rng.integers(8, 30))
        k = int(rng.integers(3, 8))
        cloud = rng.standard_normal((n, 2))
        lm = complexes.maxmin_landmarks(cloud, k, rng)
        f = complexes.witness_filtration(lm, np.inf, 1)
        got = filtration_as_dict(f)
        dist = lm.distances
        grid = sorted({v for v in got.values()} | {0.0, 0.01, 0.1, 0.5, 1.0})
        for r in grid:
            for a in range(k):
                for b in range(a + 1, k):
                    member = (a, b) in got and got[(a, b)] <= r
                    witnessed = False
                    for x in range(n):
                        others = [dist[l, x] for l in range(k) if l not in (a, b)]
                        if max(dist[a, x], dist[b, x]) <= r + min(others) + 1e-12:
                            witnessed = True
                            break
                    assert member == witnessed


def test_witness_r_max_is_inclusive():
    cloud = np.array([[0.0], [1.0], [2.0]])
    lm = LandmarkSet(np.array([0, 1, 2]), np.abs(cloud - cloud.T))
    f = complexes.witness_filtration(lm, 1.0, 2)
    got = filtration_as_dict(f)
    assert got[(0, 2)] == 1.0
    f0 = complexes.witness_filtration(lm, 0.0, 2)
    got0 = filtration_as_dict(f0)
    assert (0, 2) not in got0
    assert (0, 1) in got0 and (1, 2) in got0


def test_witness_r_zero_two_smallest_rule():
    # at R=0 an edge exists exactly when some witness's two nearest
    # landmarks are the edge's endpoints
    rng = np.random.default_rng(10)
    for trial in range(8):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(3, 7))
        cloud = rng.standard_normal((n, 3))
        lm = complexes.random_landmarks(cloud, k, rng)
        f = complexes.witness_filtration(lm, 0.0, 1)
        got = set(filtration_as_dict(f))
        dist = lm.distances
        expected = set()
        for x in range(n):
            order = np.argsort(dist[:, x], kind="stable")
            a, b = int(order[0]), int(order[1])
            # ties beyond the second slot can admit more pairs; this check
            # only requires the strict two-smallest pairs to be present
            if dist[order[1], x] < dist[order[2], x] if k > 2 else True:
                expected.add((min(a, b), max(a, b)))
        for pair in expected:
            assert pair in got


def test_witness_rejects_bad_input():
    cloud = np.array([[0.0], [1.0]])
    lm = LandmarkSet(np.array([0]), np.abs(cloud[:1] - cloud.T))
    with pytest.raises(ValueError, match="^witness complex needs at least 2 landmarks$"):
        complexes.witness_filtration(lm, 1.0, 1)
    two = LandmarkSet(np.array([0, 1]), np.abs(cloud - cloud.T))
    with pytest.raises(ValueError):
        complexes.witness_filtration(two, -1.0, 1)
    with pytest.raises(ValueError, match="r_max"):
        complexes.witness_filtration(two, math.nan, 1)
    assert len(complexes.witness_filtration(two, math.inf, 1)) == 3


def test_witness_simplex_cap():
    rng = np.random.default_rng(13)
    cloud = rng.standard_normal((30, 2))
    lm = complexes.maxmin_landmarks(cloud, 8, rng)
    full = complexes.witness_filtration(lm, 1.0, 3)
    assert full.max_dim == 3
    with pytest.raises(complexes.ResourceLimit):
        complexes.witness_filtration(lm, 1.0, 3, max_simplices=len(full) - 1)
    again = complexes.witness_filtration(lm, 1.0, 3, max_simplices=len(full))
    assert again == full


@pytest.mark.parametrize("kind", ["rips", "witness"])
def test_builders_cap_at_the_default(kind):
    # every pair of 120 points is an edge: 288,100 simplices up to dimension
    # 2, and C(120, 4) = 8,214,570 tetrahedra on top, past the default cap
    cloud = np.random.default_rng(5).standard_normal((120, 3))
    landmarks = complexes.maxmin_landmarks(cloud, 120, np.random.default_rng(0))

    def build(max_dim):
        if kind == "rips":
            return complexes.vietoris_rips(cloud, np.inf, max_dim)
        return complexes.witness_filtration(landmarks, np.inf, max_dim)

    assert len(build(2)) == 120 + math.comb(120, 2) + math.comb(120, 3)
    cap = complexes.DEFAULT_MAX_SIMPLICES
    with pytest.raises(complexes.ResourceLimit, match=f"exceeds cap {cap}$"):
        build(3)


def test_cap_bounds_the_expansion_memory(monkeypatch):
    # the complete graph on 40 vertices: 102,090 simplices in dimensions 0-3,
    # and the cap is crossed inside its C(40, 5) = 658,008 four-simplices
    values = np.random.default_rng(6).random((40, 40))
    values = np.maximum(values, values.T)
    np.fill_diagonal(values, 0.0)
    within = np.ones((40, 40), dtype=bool)
    cap = 110_000
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 2**16)
    assert len(complexes._flag_expand(values, within, 3, cap)) == 102_090
    tracemalloc.start()
    try:
        with pytest.raises(complexes.ResourceLimit, match=f"exceeds cap {cap}$"):
            complexes._flag_expand(values, within, 4, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole four-simplex level, rows and values, would take about 18 MB
    assert peak < 64 * cap + 4 * linalg.BLOCK_BYTES


def test_witness_filtration_nesting():
    rng = np.random.default_rng(11)
    cloud = rng.standard_normal((20, 2))
    lm = complexes.maxmin_landmarks(cloud, 6, rng)
    small = filtration_as_dict(complexes.witness_filtration(lm, 0.1, 2))
    large = filtration_as_dict(complexes.witness_filtration(lm, 0.5, 2))
    assert set(small) <= set(large)
    for simplex, value in small.items():
        assert large[simplex] == value


def test_filtration_round_trip(shared_dir):
    rng = np.random.default_rng(12)
    cloud = rng.standard_normal((10, 3))
    f = complexes.vietoris_rips(cloud, 2.0, 2)
    path = shared_dir / "filtration.txt"
    complexes.write_filtration(path, f)
    back = complexes.read_filtration(path)
    assert back == f
    assert back.vertex_count == f.vertex_count
    assert back.max_dim == f.max_dim
    assert f != 1


def test_filtration_file_format(shared_dir):
    f = from_simplices(
        [Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 0.25)],
        vertex_count=2)
    path = shared_dir / "f.txt"
    complexes.write_filtration(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "1 2"
    assert lines[1] == "0 0"
    assert lines[3] == "0.25 0 1"
    bad = shared_dir / "bad.txt"
    bad.write_text("1\n")
    with pytest.raises(ValueError):
        complexes.read_filtration(bad)


def reference_write_filtration(path, filtration):
    """One f-string per row: the file write_filtration must reproduce byte for byte."""
    with open(path, "w") as fh:
        fh.write(f"{filtration.max_dim} {filtration.vertex_count}\n")
        for i in range(len(filtration)):
            d = int(filtration.dims[i])
            vs = " ".join(str(int(v)) for v in filtration.verts[i, :d + 1])
            fh.write(f"{filtration.values[i]:.17g} {vs}\n")


def assert_writes_reference(filtration, directory, rows=3):
    """write_filtration with blocks of ``rows`` rows (3 by default, which
    split dimensions and mix them; 128 budget bytes a row) gives the
    reference writer's bytes."""
    ours, ref = directory / "block.txt", directory / "reference.txt"
    for path in (ours, ref):
        path.unlink(missing_ok=True)  # ext4 flushes a file written over when it is closed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BLOCK_BYTES", 128 * rows)
        complexes.write_filtration(ours, filtration)
    reference_write_filtration(ref, filtration)
    assert ours.read_bytes() == ref.read_bytes()
    return ours


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["rips", "witness"]), points=st.integers(1, 9),
       max_dim=st.integers(0, 4), r_max=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
def test_write_filtration_matches_reference(tmp_path_factory, kind, points, max_dim,
                                            r_max, seed):
    rng = np.random.default_rng(seed)
    if kind == "rips":
        f = complexes.vietoris_rips(rng.standard_normal((points, 3)), r_max, max_dim)
    else:
        cloud = rng.standard_normal((4 * points + 4, 3))
        landmarks = complexes.maxmin_landmarks(cloud, points + 1, rng)
        f = complexes.witness_filtration(landmarks, r_max, max_dim)
    assert_writes_reference(f, tmp_path_factory.getbasetemp())  # not a directory an example


def test_write_filtration_edge_cases(shared_dir):
    top = 2**31 - 1
    f = from_simplices(
        [Simplex((v,), 0.0) for v in (0, 7, top - 1, top)]
        + [Simplex((0, 7), 5e-324), Simplex((0, top), 1e-300), Simplex((7, top), 0.1),
           Simplex((0, 7, top), 1 / 3), Simplex((top - 1, top), 1.0),
           Simplex((0, top - 1), 1e300)],
        vertex_count=2**31)
    path = assert_writes_reference(f, shared_dir)
    assert complexes.read_filtration(path) == f
    assert path.read_text().splitlines()[5:] == [
        "4.9406564584124654e-324 0 7", "1e-300 0 2147483647",
        "0.10000000000000001 7 2147483647", "0.33333333333333331 0 7 2147483647",
        "1 2147483646 2147483647", "1.0000000000000001e+300 0 2147483646"]

    empty = assert_writes_reference(from_simplices([], vertex_count=3), shared_dir)
    assert empty.read_text() == "0 3\n"
    vertices = from_simplices([Simplex((v,), 0.0) for v in range(7)], vertex_count=9)
    path = assert_writes_reference(vertices, shared_dir)
    assert path.read_text() == "0 9\n" + "".join(f"0 {v}\n" for v in range(7))

    # -0.0 and 0.0 compare equal, so they share a block and interleave in
    # it; each keeps its own text
    signed = from_simplices(
        [Simplex((0,), -0.0), Simplex((1,), 0.0), Simplex((2,), -0.0), Simplex((0, 1), -0.0),
         Simplex((0, 2), 0.0), Simplex((1, 2), 0.5)], vertex_count=3)
    path = assert_writes_reference(signed, shared_dir)
    assert path.read_text().splitlines()[1:] == ["-0 0", "0 1", "-0 2", "-0 0 1", "0 0 2",
                                                 "0.5 1 2"]
    assert complexes.read_filtration(path).values.tobytes() == signed.values.tobytes()
    # one distinct value in a block, and blocks of one and of three rows
    for rows in (1, 3, linalg.BLOCK_BYTES // 128):
        for f in (signed, vertices):
            assert_writes_reference(f, shared_dir, rows)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("past", [0, 1], ids=["at-size", "past-size"])
def test_write_filtration_at_the_label_rule_edge(shared_dir, rows, past):
    # a block of `rows` rows of width 2 has 2 * rows entries: labels up to that
    # many index the label texts directly, and one past it they are ranked
    top = 2 * rows + past
    f = from_simplices([Simplex((0,), 0.0), Simplex((top,), 0.0),
                        Simplex((0, top), 1.0)], vertex_count=top + 1)
    block = f.verts[-rows:]
    assert block.max() == block.size + past
    slots, labels = complexes._label_slots(block)
    assert (slots is block) == (not past)
    assert labels.tolist() == (list(range(top + 1)) if not past else [0, top])
    assert_writes_reference(f, shared_dir, rows)


def test_write_filtration_memory_is_bounded(shared_dir, monkeypatch):
    f = complexes.vietoris_rips(np.random.default_rng(3).standard_normal((40, 3)), 2.2, 4)
    assert 15_000 < len(f) < 30_000
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 128 * 64)  # 64-row blocks
    path = shared_dir / "filtration.txt"
    complexes.write_filtration(path, f)  # keeps one-time imports and caches out of the trace
    tracemalloc.start()
    try:
        complexes.write_filtration(path, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-file join would hold at least the file's text at once
    assert peak < path.stat().st_size / 4


def reference_read_filtration(path):
    """Token by token, one line at a time: the Filtration read_filtration
    must return for every file it accepts."""
    with open(path) as fh:
        try:
            dim_max, vertex_count = map(int, fh.readline().split())
        except ValueError:
            raise ValueError(f"malformed filtration header in {path}") from None
        values, sizes, labels = [], [], []
        for lineno, line in enumerate(fh, 2):
            toks = line.split()
            if toks:
                try:
                    values.append(float(toks[0]))
                    sizes.append(len(toks) - 1)
                    labels.extend(map(int, toks[1:]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    verts = np.full((len(sizes), max(sizes, default=1)), -1, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    for i, (start, size) in enumerate(zip(starts, sizes)):
        verts[i, :size] = labels[start:start + size]
    filtration = Filtration(values, np.array(sizes, dtype=np.int64) - 1, verts, vertex_count)
    filtration.validate()
    if filtration.max_dim != dim_max:
        raise ValueError(f"header of {path} gives dim_max {dim_max}, "
                         f"the simplices reach {filtration.max_dim}")
    return filtration


def random_filtration(kind, points, max_dim, r_max, seed):
    rng = np.random.default_rng(seed)
    if kind == "rips":
        return complexes.vietoris_rips(rng.standard_normal((points, 3)), r_max, max_dim)
    cloud = rng.standard_normal((4 * points + 4, 3))
    landmarks = complexes.maxmin_landmarks(cloud, points + 1, rng)
    return complexes.witness_filtration(landmarks, r_max, max_dim)


def respace(text: str, rng) -> bytes:
    """The file ``text`` with other whitespace: tokens split by runs of
    spaces, tabs, vertical tabs and form feeds, lines ended by LF or CRLF,
    blank lines after the header, and sometimes no final line end."""
    gaps = [" ", "  ", "\t", " \t ", "\v", "\f "]
    out = []
    for i, line in enumerate(text.splitlines()):
        for _ in range(rng.choice([0, 0, 0, 1, 2]) if i else 0):  # the header comes first
            out.append(rng.choice(["", " ", "\t"]) + rng.choice(["\n", "\r\n"]))
        lead, trail = rng.choice(["", "", " ", "\t"]), rng.choice(["", "", " ", "\f"])
        joined = "".join(tok + rng.choice(gaps) for tok in line.split())[:-1]
        out.append(lead + joined.rstrip() + trail + rng.choice(["\n", "\r\n"]))
    data = "".join(out)
    return (data.rstrip("\r\n") if rng.random() < 0.5 else data).encode()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["rips", "witness"]), points=st.integers(1, 9),
       max_dim=st.integers(0, 4), r_max=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1),
       read_bytes=st.sampled_from([1, 7, 64, linalg.BLOCK_BYTES // 16]))
def test_read_filtration_matches_reference(tmp_path_factory, kind, points, max_dim, r_max,
                                           seed, read_bytes):
    f = random_filtration(kind, points, max_dim, r_max, seed)
    directory = tmp_path_factory.getbasetemp()  # one pair of files, not a directory an example
    plain, spaced = directory / "plain.txt", directory / "spaced.txt"
    for path in (plain, spaced):
        path.unlink(missing_ok=True)  # ext4 flushes a file written over when it is closed
    complexes.write_filtration(plain, f)
    spaced.write_bytes(respace(plain.read_text(), random.Random(seed)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BLOCK_BYTES", 16 * read_bytes)  # read_bytes-byte chunks
        for path in (plain, spaced):
            back = complexes.read_filtration(path)
            assert back == reference_read_filtration(path) == f
            assert back.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("read_bytes", [1, 7, 64, linalg.BLOCK_BYTES // 16])
@pytest.mark.parametrize("line, message", [
    ("abc 198", "could not convert string to float: 'abc'"),
    ("0 x", "invalid literal for int() with base 10: 'x'"),
    ("0 +1", "'+1' is not a label of ASCII decimal digits"),
    ("0 1_0", "'1_0' is not a label of ASCII decimal digits"),
    ("0 -1", "vertex label -1 outside [0, 300)"),
    ("0 00099999999999", "vertex label 99999999999 outside [0, 300)"),
    ("0 300", "vertex label 300 outside [0, 300)"),
    ("0 2147483647", "vertex label 2147483647 outside [0, 300)"),
    ("0\t197 \t1.5\r", "invalid literal for int() with base 10: '1.5'"),
], ids=["value", "label-letter", "label-plus", "label-underscore", "label-minus",
        "label-above-int32", "label-count", "label-above-count", "label-float"])
def test_read_filtration_locates_bad_token_after_chunk_boundary(shared_dir, read_bytes, line,
                                                                message):
    vertices = from_simplices([Simplex((v,), 0.0) for v in range(300)], 300)
    path = shared_dir / "f.txt"
    complexes.write_filtration(path, vertices)
    lines = path.read_text().splitlines(keepends=True)
    lines[199] = line + "\n"  # file line 200, past the first chunk at 64 bytes or less
    lines[250] = "0 y\n"  # a later bad line is not the one reported
    path.write_text("".join(lines))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "BLOCK_BYTES", 16 * read_bytes)  # read_bytes-byte chunks
        with pytest.raises(ValueError) as exc:
            complexes.read_filtration(path)
    assert str(exc.value) == f"{path}:200: {message}"


def test_read_filtration_reports_first_bad_token_of_a_chunk(shared_dir):
    path = shared_dir / "f.txt"
    path.write_text("1 3\n0 0\n0 1\n0 2\n0.5 0 z\nq 1\n")
    with pytest.raises(ValueError, match=f"^{path}:5: invalid literal"):
        complexes.read_filtration(path)
    path.write_text("1 3\n0 0\n0 1\n0 2\nq 0 z\n")  # the value comes before the label
    with pytest.raises(ValueError, match=f"^{path}:5: could not convert"):
        complexes.read_filtration(path)


def test_read_filtration_whitespace_and_label_syntax(shared_dir):
    path = shared_dir / "f.txt"
    path.write_bytes(b"1  3\r\n\n \t0\v0\f\r\n0 0001\n\n0\t00000000002\n0.5 0 1")
    assert complexes.read_filtration(path) == from_simplices(
        [Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((2,), 0.0), Simplex((0, 1), 0.5)], 3)
    path.write_bytes(b"1 3\n0 0\n0 1\n0 2\n0.5 0 1 2\n")
    with pytest.raises(ValueError, match="gives dim_max 1, the simplices reach 2"):
        complexes.read_filtration(path)
    path.write_bytes(b"100000000000 3\n0 0\n")  # verts stay bounded by the file's size
    with pytest.raises(ValueError, match="gives dim_max 100000000000, the simplices reach 0"):
        complexes.read_filtration(path)


def test_read_filtration_memory_is_bounded(shared_dir, monkeypatch):
    f = complexes.vietoris_rips(np.random.default_rng(3).standard_normal((45, 3)), 2.4, 4)
    assert 40_000 < len(f) < 60_000
    path = shared_dir / "filtration.txt"
    complexes.write_filtration(path, f)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 2**20)  # 64 KiB chunks
    complexes.read_filtration(path)  # keeps one-time imports and caches out of the trace
    tracemalloc.start()
    try:
        back = complexes.read_filtration(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = back.values.nbytes + back.dims.nbytes + back.verts.nbytes
    # the output, the order check's masks (less than the output again) and
    # the token arrays of a chunk; the 1.5 MB file read as one chunk peaks
    # at about 30 MB
    assert peak < 2 * output + linalg.BLOCK_BYTES


def check_order_message(f):
    try:
        f.validate()
    except ValueError as exc:
        return str(exc)


def test_check_order_reports_the_first_fault_whatever_the_blocks():
    f = complexes.vietoris_rips(np.random.default_rng(4).standard_normal((12, 3)), 2.0, 3)
    width, m = f.verts.shape[1], len(f)
    last = int(np.flatnonzero(f.dims == 3)[-1])
    assert m > 50 and last > 40

    def broken(row, value=None, label=None, column=0, swap=False, base=f):
        values, dims, verts = base.values.copy(), base.dims.copy(), base.verts.copy()
        if value is not None:
            values[row] = value
        if label is not None:
            verts[row, column] = label
        if swap:  # rows row-1 and row trade places
            for a in (values, dims, verts):
                a[[row - 1, row]] = a[[row, row - 1]]
        return Filtration(values, dims, verts, f.vertex_count)

    repeated = broken(last, label=f.verts[last, 1], column=2)
    cases = [
        (broken(m - 1, value=np.nan), f"filtration value nan at position {m - 1} is not finite"),
        (broken(last, label=-1), f"each simplex needs 1 to {width} vertex labels"),
        (repeated, f"simplex vertices must strictly increase: {simplex(repeated, last).vertices}"),
        (broken(last, swap=True), f"simplices out of order at position {last}"),
        (broken(m - 1, swap=True), f"simplices out of order at position {m - 1}"),
        # a fault of higher precedence wins though it comes later
        (broken(m - 1, value=np.inf, swap=True), f"filtration value inf at position {m - 2}"),
        (broken(m - 1, label=f.vertex_count, base=broken(3, swap=True)),
         f"each simplex needs 1 to {width} vertex labels"),
    ]
    for rows in (1, 2, 3, last, None):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:  # rows a block, 16 bytes a row
                mp.setattr(linalg, "BLOCK_BYTES", 16 * rows)
            assert check_order_message(f) is None, rows
            for bad, message in cases:
                assert check_order_message(bad).startswith(message), (rows, message)


def test_check_order_memory_is_bounded(monkeypatch):
    f = complexes.vietoris_rips(np.random.default_rng(3).standard_normal((45, 3)), 2.4, 4)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 2**14)
    f.validate()  # keeps one-time imports and caches out of the trace
    tracemalloc.start()
    try:
        f.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (rows, width) bool mask of the whole filtration takes 14 times the budget
    assert peak < linalg.BLOCK_BYTES < f.verts.size / 14


def test_landmarks_round_trip(shared_dir):
    rng = np.random.default_rng(13)
    cloud = rng.standard_normal((15, 2))
    lm = complexes.maxmin_landmarks(cloud, 5, rng)
    path = shared_dir / "landmarks.txt"
    complexes.write_landmarks(path, lm)
    assert path.read_text() == "".join(f"{i}\n" for i in lm.indices)
