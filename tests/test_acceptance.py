"""End-to-end checks: one test per headline behavior of the package.

The manifold experiments are stochastic; their seeds and build radii are
pinned so every run reproduces the same filtrations exactly. The heavy
fixtures (hundreds of sampled points, millions of simplices) are module
scoped and shared between the window tests and the Euler identity test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from grasstri import analysis, complexes, grassmann, linalg, persistence
from grasstri.persistence import INF
from simplices import Simplex, betti_at, from_simplices, simplex

RP2_R4_SEEDS = (0, 2, 3, 5, 8)
RP2_R4_RMAX = 0.95
RP2_R5_SEED = 0
RP2_R5_RMAX = 0.9
RP3_SEED = 11
RP3_RMAX = 2.3
WITNESS_SEEDS = (0, 1, 2, 3, 4)
WITNESS_RMAX = 0.3


# ---------------------------------------------------------------------------
# independent oracles


def gf2_rank_profile(filtration, top_dim):
    """Betti numbers at every distinct filtration value by GF(2) rank counting.

    Builds boundary columns from the vertex tuples alone and accumulates an
    online column echelon basis per dimension, so the computation shares no
    code with the library's reduction.
    """
    position = {}
    pivots = {}
    ranks = {}
    counts = {}
    profile = []
    values = filtration.values
    m = len(filtration)
    i = 0
    while i < m:
        r = float(values[i])
        j = i
        while j < m and float(values[j]) == r:
            s = simplex(filtration, j)
            position[s.vertices] = j
            counts[s.dim] = counts.get(s.dim, 0) + 1
            if s.dim >= 1:
                mask = 0
                for p in range(len(s.vertices)):
                    facet = s.vertices[:p] + s.vertices[p + 1:]
                    mask ^= 1 << position[facet]
                piv = pivots.setdefault(s.dim, {})
                while mask:
                    low = mask.bit_length() - 1
                    if low in piv:
                        mask ^= piv[low]
                    else:
                        piv[low] = mask
                        ranks[s.dim] = ranks.get(s.dim, 0) + 1
                        break
            j += 1
        profile.append((r, tuple(
            counts.get(d, 0) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(top_dim + 1))))
        i = j
    return profile


def reference_reduce_columns(matrix):
    """Left-to-right reduction of every boundary column: the pairing
    ``persistence.reduce_boundary`` must equal."""
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
    return persistence.Pairing(
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        np.array([j for j in range(m) if not killed[j]], dtype=np.int64), m)


def brute_witness_values(landmarks, max_dim):
    """Witness simplex values by direct evaluation of the defining inequality.

    A cloud point x witnesses the edge {a, b} at parameter r when both its
    distances to a and b stay within r of its distance to the nearest other
    landmark; the edge value is the smallest such r over all x, clamped at
    zero, and higher simplices take the largest value among their edges.
    Works from the landmark distance table so the comparison with the
    library is exact, with no rounding slack.
    """
    dist = np.asarray(landmarks.distances)
    count, cloud_size = dist.shape
    values = {}
    for a, b in itertools.combinations(range(count), 2):
        best = math.inf
        for x in range(cloud_size):
            da = float(dist[a, x])
            db = float(dist[b, x])
            if count > 2:
                other = min(float(dist[c, x])
                            for c in range(count) if c not in (a, b))
            else:
                other = math.inf
            best = min(best, max(da, db) - other)
        values[(a, b)] = max(0.0, best)
    for size in range(3, max_dim + 2):
        for simplex in itertools.combinations(range(count), size):
            values[simplex] = max(values[pair]
                                  for pair in itertools.combinations(simplex, 2))
    for v in range(count):
        values[(v,)] = 0.0
    return values


def assert_euler_identity(filtration, barcode):
    """Alternating simplex counts equal alternating Betti numbers at every
    distinct filtration value, as exact integers."""
    values = np.asarray(filtration.values)
    dims = np.asarray(filtration.dims)
    crit = np.unique(values)
    chi = np.zeros(len(crit), dtype=np.int64)
    alt = np.zeros(len(crit), dtype=np.int64)
    for d in range(int(filtration.max_dim) + 1):
        sign = 1 if d % 2 == 0 else -1
        chi += sign * np.searchsorted(np.sort(values[dims == d]), crit,
                                      side="right")
        bars = barcode.intervals(d)
        births = np.sort(np.array([b for b, _ in bars], dtype=float))
        deaths = np.sort(np.array([e for _, e in bars if e != INF],
                                  dtype=float))
        alive = (np.searchsorted(births, crit, side="right")
                 - np.searchsorted(deaths, crit, side="right"))
        alt += sign * alive
    assert np.array_equal(chi, alt)


# ---------------------------------------------------------------------------
# shared experiment fixtures


def random_vr_instance(rng):
    n = int(rng.integers(6, 16))
    cloud = rng.uniform(-1.0, 1.0, (n, 3))
    r_max = float(rng.uniform(0.7, 1.8))
    return complexes.vietoris_rips(cloud, r_max, 2)


@pytest.fixture(scope="module")
def small_vr_filtrations():
    rng = np.random.default_rng(2024)
    return [random_vr_instance(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def rp2_r4_runs():
    runs = []
    for seed in RP2_R4_SEEDS:
        cloud = analysis.sample_space("rp2-r4", 200, np.random.default_rng(seed))
        filtration = complexes.vietoris_rips(cloud, RP2_R4_RMAX, 3,
                                             max_simplices=8_000_000)
        barcode = persistence.barcodes(filtration)
        runs.append((seed, filtration, barcode))
    return runs


@pytest.fixture(scope="module")
def rp2_r5_run():
    cloud = analysis.sample_space("rp2-r5", 100,
                                  np.random.default_rng(RP2_R5_SEED))
    filtration = complexes.vietoris_rips(cloud, RP2_R5_RMAX, 3,
                                         max_simplices=8_000_000)
    return filtration, persistence.barcodes(filtration)


# ---------------------------------------------------------------------------
# acceptance tests


def test_schubert_betti_tables():
    start = time.time()
    for n in range(1, 13):
        for k in range(1, n + 1):
            params = grassmann.GrassmannParams(n, k)
            profile = grassmann.betti_mod2(params)
            assert sum(profile) == math.comb(n, k)
            if k < n:
                dual = grassmann.betti_mod2(grassmann.GrassmannParams(n, n - k))
                assert profile == dual
            else:
                # full-rank planes form a point, self-dual by convention
                assert profile == (1,)
    assert grassmann.betti_mod2(grassmann.GrassmannParams(4, 2)) == \
        (1, 1, 2, 1, 1)
    assert time.time() - start < 1.0


def test_tetrahedron_barcode():
    simplices = [Simplex((v,), 0.0) for v in range(4)]
    simplices += [Simplex(e, 1.0)
                  for e in itertools.combinations(range(4), 2)]
    for stage, tri in zip((2.0, 3.0, 4.0, 5.0),
                          itertools.combinations(range(4), 3)):
        simplices.append(Simplex(tri, stage))
    filtration = from_simplices(simplices, vertex_count=4)
    barcode = persistence.barcodes(filtration)
    assert barcode.intervals(0) == [(0.0, 1.0)] * 3 + [(0.0, INF)]
    assert barcode.intervals(1) == [(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]
    assert barcode.intervals(2) == [(5.0, INF)]
    assert betti_at(barcode, 0.5, 2) == (4, 0, 0)
    assert betti_at(barcode, 1.5, 2) == (1, 3, 0)
    assert betti_at(barcode, 5.0, 2) == (1, 0, 1)


def test_reduction_agreement(small_vr_filtrations):
    start = time.time()
    for filtration in small_vr_filtrations:
        matrix = persistence.build_boundary(filtration)
        optimized = persistence.reduce_boundary(matrix)
        naive = reference_reduce_columns(matrix)
        assert np.array_equal(optimized.pairs, naive.pairs)
        assert np.array_equal(optimized.essential, naive.essential)
        barcode = persistence.barcodes(filtration)
        for r, expected in gf2_rank_profile(filtration, 2):
            assert betti_at(barcode, r, 2) == expected
    assert time.time() - start < 30.0


def test_sampler_invariants():
    start = time.time()
    params = grassmann.GrassmannParams(4, 2)
    rng = np.random.default_rng(42)
    uniform = grassmann.sample_uniform(params, 1000, rng)
    biased = grassmann.sample_biased(params, 1000,
                                     (0.0, 0.05, 0.30, 0.25, 0.40), rng)
    for p in np.concatenate([uniform, biased]):
        assert np.array_equal(p, p.T)
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert abs(np.trace(p) - 2.0) < 1e-9

    # cell samples before conjugation: the plane must meet the first
    # sigma_i coordinates in dimension exactly i, one less at sigma_i - 1
    eye = np.eye(4)
    for sigma in grassmann.schubert_symbols(params):
        for _ in range(40):
            b = grassmann.cell_matrix(params, sigma, rng)
            frame = linalg.gram_schmidt(b.T)
            for i, s in enumerate(sigma, start=1):
                for j, expected in ((s, i), (s - 1, i - 1)):
                    if j == 0:
                        assert expected == 0
                        continue
                    stacked = np.hstack([frame, eye[:, :j]])
                    rank = np.linalg.matrix_rank(stacked, tol=1e-8)
                    assert 2 + j - rank == expected
    assert time.time() - start < 10.0


def window_intersects(window, lo, hi):
    a, b = window
    return max(a, lo) < min(b, hi)


def test_rp2_r4_window(rp2_r4_runs):
    for seed, filtration, barcode in rp2_r4_runs:
        report = analysis.matching_windows(barcode, (1, 1, 1), 2)
        qualifying = [
            (a, b) for a, b in report.windows
            if b - a >= 0.05 and window_intersects((a, b), 0.5, 1.1)
        ]
        assert qualifying, (
            f"seed {seed}: no window of width >= 0.05 meeting [0.5, 1.1]; "
            f"windows {report.windows}"
        )


def test_rp2_r5_window(rp2_r5_run):
    filtration, barcode = rp2_r5_run
    report = analysis.matching_windows(barcode, (1, 1, 1), 2)
    qualifying = [w for w in report.windows if window_intersects(w, 0.5, 1.0)]
    assert qualifying, f"no window meeting [0.5, 1.0]; windows {report.windows}"


def test_rp3_window():
    cloud = analysis.sample_space("rp3", 200, np.random.default_rng(RP3_SEED))
    filtration = complexes.vietoris_rips(cloud, RP3_RMAX, 4,
                                         max_simplices=8_000_000)
    barcode = persistence.barcodes(filtration, 3)
    report = analysis.matching_windows(barcode, (1, 1, 1, 1), 3)
    qualifying = [w for w in report.windows if window_intersects(w, 1.8, 2.7)]
    assert qualifying, f"no window meeting [1.8, 2.7]; windows {report.windows}"


def test_grassmann_witness_window():
    target = (1, 1, 2, 1, 1)
    outcomes = []
    hits = 0
    for seed in WITNESS_SEEDS:
        cloud = analysis.sample_space("grassmann-4-2", 5000,
                                      np.random.default_rng(seed),
                                      (0.0, 0.05, 0.30, 0.25, 0.40))
        landmarks = complexes.maxmin_landmarks(cloud, 100,
                                               np.random.default_rng(seed + 1))
        filtration = complexes.witness_filtration(landmarks,
                                                  WITNESS_RMAX, 5,
                                                  max_simplices=4_000_000)
        barcode = persistence.barcodes(filtration, 4)
        report = analysis.matching_windows(barcode, target, 4)
        good = []
        for a, b in report.windows:
            count = analysis.simplex_count_at(filtration, a)
            if 0.05 <= a <= 0.3 and 145_011 / 4 <= count <= 145_011 * 4:
                good.append((a, b, count))
        hits += bool(good)
        outcomes.append(
            f"seed {seed}: windows {report.windows} qualifying {good} "
            f"betti@0.15 {betti_at(barcode, 0.15, 4)}"
        )
    assert hits >= 3, (
        "fewer than 3 of 5 trials produced a target-profile window with "
        "lower endpoint in [0.05, 0.3]:\n" + "\n".join(outcomes)
    )


def test_witness_membership_formula():
    start = time.time()
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(10, 31))
        dim = int(rng.integers(2, 4))
        cloud = rng.uniform(-1.0, 1.0, (n, dim))
        count = int(rng.integers(3, 9))
        landmarks = complexes.random_landmarks(cloud, count, rng)
        r_max = float(rng.uniform(0.3, 1.2))
        filtration = complexes.witness_filtration(landmarks, r_max, 3)
        expected = brute_witness_values(landmarks, 3)

        built = {}
        for i in range(len(filtration)):
            s = simplex(filtration, i)
            built[s.vertices] = s.value
        for vertices, value in built.items():
            assert value == expected[vertices]
        critical = sorted({v for v in built.values()})
        for r in critical:
            inside = {v for v, val in built.items() if val <= r}
            direct = {v for v, val in expected.items()
                      if val <= r and val <= r_max}
            assert inside == direct
    assert time.time() - start < 10.0


def test_euler_characteristic_identity(small_vr_filtrations, rp2_r4_runs,
                                       rp2_r5_run):
    for filtration in small_vr_filtrations:
        assert_euler_identity(filtration, persistence.barcodes(filtration))
    for _, filtration, barcode in rp2_r4_runs:
        assert_euler_identity(filtration, barcode)
    filtration, barcode = rp2_r5_run
    assert_euler_identity(filtration, barcode)
