import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasstri import analysis, complexes, persistence
from grasstri.complexes import Filtration, Simplex
from grasstri.persistence import INF
from test_acceptance import gf2_rank_profile


def tetrahedron_filtration():
    """Four vertices, then all edges, then the four triangles one at a time."""
    simplices = [Simplex((v,), 0.0) for v in range(4)]
    simplices += [Simplex(e, 1.0) for e in itertools.combinations(range(4), 2)]
    triangles = list(itertools.combinations(range(4), 3))
    for stage, tri in zip((2.0, 3.0, 4.0, 5.0), triangles):
        simplices.append(Simplex(tri, stage))
    return Filtration.from_simplices(simplices, vertex_count=4)


def gf2_rank(columns):
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


def rank_oracle_betti(filtration, r, top_dim):
    """Betti numbers of the sublevel complex at r by GF(2) rank counting.

    Builds its own boundary columns from the vertex tuples, independent of
    the library's matrix assembly and reduction.
    """
    position = {}
    included = []
    for i in range(len(filtration)):
        s = filtration.simplex(i)
        if s.value <= r:
            position[s.vertices] = len(included)
            included.append(s)
    counts = [0] * (top_dim + 2)
    columns = {d: [] for d in range(1, top_dim + 2)}
    for s in included:
        if s.dim <= top_dim + 1:
            counts[s.dim] += 1
        if 1 <= s.dim <= top_dim + 1:
            mask = 0
            for p in range(len(s.vertices)):
                facet = s.vertices[:p] + s.vertices[p + 1:]
                mask ^= 1 << position[facet]
            columns[s.dim].append(mask)
    ranks = {d: gf2_rank(cols) for d, cols in columns.items()}
    return tuple(
        counts[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(top_dim + 1)
    )


def brute_betti(barcode, r, top_dim):
    """Betti numbers at r by a loop over every bar: the reference for betti_profile."""
    return tuple(sum(1 for b, e in barcode.intervals(d) if b <= r < e)
                 for d in range(top_dim + 1))


def brute_windows(barcode, target, top_dim):
    """Maximal windows by a scan of the pieces between critical values, each
    classified by brute_betti at its left end."""
    ends = {x for d in range(top_dim + 1) for bar in barcode.intervals(d) for x in bar}
    points = sorted(ends - {INF})
    if not points or points[0] > 0.0:
        points.insert(0, 0.0)
    windows = []
    for r, hi in zip(points, points[1:] + [INF]):
        if brute_betti(barcode, r, top_dim) != tuple(target):
            continue
        if windows and windows[-1][1] == r:
            windows[-1] = (windows[-1][0], hi)
        else:
            windows.append((r, hi))
    return tuple(windows)


def test_build_boundary_tetrahedron():
    f = tetrahedron_filtration()
    matrix = persistence.build_boundary(f)
    assert len(matrix) == 14
    for j in range(4):
        assert matrix.column(j).size == 0
    for j in range(4, 10):
        col = matrix.column(j)
        assert col.size == 2
        assert set(col.tolist()) <= set(range(4))
    for j in range(10, 14):
        col = matrix.column(j)
        assert col.size == 3
        assert set(col.tolist()) <= set(range(4, 10))
        # rows must be the positions of exactly the simplex's edges
        tri = f.simplex(j).vertices
        expected = {f.simplex(int(r)).vertices for r in col}
        assert expected == set(itertools.combinations(tri, 2))


def test_build_boundary_rows_sorted_and_below_diagonal():
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((9, 3))
    f = complexes.vietoris_rips(cloud, 2.0, 3)
    matrix = persistence.build_boundary(f)
    for j in range(len(matrix)):
        col = matrix.column(j)
        assert np.all(np.diff(col) > 0)
        assert np.all(col < j)
        d = int(matrix.dims[j])
        assert col.size == (d + 1 if d > 0 else 0)


def test_build_boundary_missing_face():
    bad = Filtration.from_simplices(
        [Simplex((0,), 0.0), Simplex((0, 1), 1.0)], vertex_count=2)
    with pytest.raises(persistence.MissingFace):
        persistence.build_boundary(bad)


def brute_force_facet_rows(filtration):
    """Sorted facet rows of every column, looked up in a dict of vertex tuples."""
    row_of = {s.vertices: i for i, s in enumerate(filtration.simplices())}
    return [sorted(row_of[s.vertices[:p] + s.vertices[p + 1:]] for p in range(s.dim + 1))
            if s.dim else [] for s in filtration.simplices()]


def test_build_boundary_matches_brute_force_facets(monkeypatch):
    # blocks of 5 columns split every dimension's lookup into several
    monkeypatch.setattr(persistence, "BLOCK", 5)
    rng = np.random.default_rng(1)
    cloud = rng.standard_normal((8, 2))
    f = complexes.vietoris_rips(cloud, 2.5, 5)
    assert f.max_dim == 5
    # the same complex with labels spread above 65535: an increasing map
    # keeps the canonical order, so the rows must not change
    spread = np.where(f.verts >= 0, 70_000 + 9_000 * f.verts, -1)
    wide = Filtration(f.values, f.dims, spread, vertex_count=140_000)
    wide.validate()
    for filtration in (f, wide):
        matrix = persistence.build_boundary(filtration)
        columns = [matrix.column(j).tolist() for j in range(len(matrix))]
        assert columns == brute_force_facet_rows(filtration)
    assert np.array_equal(persistence.build_boundary(wide).col_rows,
                          persistence.build_boundary(f).col_rows)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["rips", "witness"]), points=st.integers(2, 9),
       max_dim=st.integers(1, 4), r_max=st.floats(0.3, 3.0),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
def test_facet_index_property(tmp_path_factory, kind, points, max_dim, r_max, seed, pick):
    rng = np.random.default_rng(seed)
    if kind == "rips":
        f = complexes.vietoris_rips(rng.standard_normal((points, 3)), r_max, max_dim)
    else:
        cloud = rng.standard_normal((4 * points, 3))
        landmarks = complexes.maxmin_landmarks(cloud, points, rng)
        f = complexes.witness_filtration(cloud, landmarks, r_max, max_dim)
    f.validate()
    matrix = persistence.build_boundary(f)
    columns = [matrix.column(j).tolist() for j in range(len(matrix))]
    assert columns == brute_force_facet_rows(f)

    with pytest.MonkeyPatch.context() as mp:
        # blocks of 3 cofacet columns build each coboundary in several blocks
        mp.setattr(persistence, "BLOCK", 3)
        optimized = persistence.reduce_boundary(matrix)
    naive = persistence._reduce_columns(matrix)
    assert np.array_equal(optimized.pairs, naive.pairs)
    assert np.array_equal(optimized.essential, naive.essential)
    # Euler identity: the alternating sums of simplex counts and of Betti
    # numbers agree at every value of the filtration
    barcode = persistence.pairing_to_barcode(optimized, f)
    signs = (-1) ** f.dims
    for r in np.unique(f.values):
        betti = persistence.betti_at(barcode, r, f.max_dim)
        assert sum((-1) ** d * b for d, b in enumerate(betti)) == signs[f.values <= r].sum()
    for r, expected in gf2_rank_profile(f, f.max_dim):
        assert persistence.betti_at(barcode, r, f.max_dim) == expected
    # the windows of a profile the filtration attains hold exactly where the
    # pointwise Betti numbers equal it
    distinct = np.unique(f.values)
    target = brute_betti(barcode, float(distinct[pick % len(distinct)]), f.max_dim)
    report = analysis.matching_windows(barcode, target, f.max_dim)
    assert report.windows
    points = [0.0, *report.critical_values]
    probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])] + [points[-1] + 1.0]
    for r in probes:
        inside = any(a <= r < b for a, b in report.windows)
        assert inside == (brute_betti(barcode, r, f.max_dim) == target)

    first = tmp_path_factory.getbasetemp() / "facet_property_1.txt"
    second = tmp_path_factory.getbasetemp() / "facet_property_2.txt"
    complexes.write_filtration(first, f)
    back = complexes.read_filtration(first)
    assert back == f
    complexes.write_filtration(second, back)
    assert first.read_bytes() == second.read_bytes()

    cofaces = np.flatnonzero(f.dims > 0)
    if not len(cofaces):
        return
    j = int(cofaces[pick % len(cofaces)])
    face = int(matrix.column(j)[pick % (int(f.dims[j]) + 1)])
    # the face enters after its coface: the canonical order lists it later
    values = f.values.copy()
    values[face] = f.values[j] + 1.0
    order = np.lexsort((*f.verts.T[::-1], f.dims, values))
    late = Filtration(values[order], f.dims[order], f.verts[order], f.vertex_count)
    with pytest.raises(persistence.MissingFace, match="listed at or after"):
        late.validate()
    with pytest.raises(persistence.MissingFace):
        persistence.build_boundary(late)
    keep = np.arange(len(f)) != face
    gone = Filtration(f.values[keep], f.dims[keep], f.verts[keep], f.vertex_count)
    with pytest.raises(persistence.MissingFace, match="missing from"):
        gone.validate()
    with pytest.raises(persistence.MissingFace):
        persistence.build_boundary(gone)


def flag_closure_differs(f):
    """Whether some clique of the 1-skeleton, up to f.max_dim, is no simplex of f."""
    present = {s.vertices for s in f.simplices()}
    edges = {v for v in present if len(v) == 2}
    labels = sorted({v[0] for v in present if len(v) == 1})
    return any(all(e in edges for e in itertools.combinations(c, 2)) and c not in present
               for k in range(3, f.max_dim + 2) for c in itertools.combinations(labels, k))


def non_flag_complexes():
    """Filtrations that are not flag complexes, plus edge cases of the reducer."""
    def tri(a, b, c):
        return [(a, b), (a, c), (b, c)]

    simplices = [Simplex((v,), 0.0) for v in range(4)]
    simplices += [Simplex(e, 1.0 + i) for i, e in enumerate(itertools.combinations(range(4), 2))]
    simplices += [Simplex(t, 7.0 + i) for i, t in enumerate(itertools.combinations(range(4), 3))]
    yield "hollow tetrahedron", Filtration.from_simplices(simplices, vertex_count=4)

    # a filled triangle, a hollow square whose edges have no cofacets, a lone vertex
    simplices = [Simplex((v,), 0.1 * v) for v in range(8)]
    simplices += [Simplex(e, 1.0) for e in tri(0, 1, 2)] + [Simplex((0, 1, 2), 2.0)]
    simplices += [Simplex(e, 1.5) for e in ((3, 4), (4, 5), (5, 6), (3, 6))]
    yield "no cofacets", Filtration.from_simplices(simplices, vertex_count=8)

    yield "edges only", Filtration.from_simplices(
        [Simplex((v,), 0.0) for v in range(4)] + [Simplex(e, 1.0) for e in tri(0, 1, 2)],
        vertex_count=4)
    yield "vertices only", Filtration.from_simplices(
        [Simplex((v,), 0.5) for v in range(3)], vertex_count=3)

    # degree 0, where the younger of two merging components dies: vertices
    # entering at distinct and tied nonzero values, three components joined
    # late, edges tied with their vertices, an isolated vertex entering last
    entry = [0.4, 0.0, 0.3, 0.1, 0.2, 0.3, 0.3, 0.9]
    simplices = [Simplex((v,), t) for v, t in enumerate(entry)]
    simplices += [Simplex(e, t) for e, t in (((0, 1), 0.5), ((1, 2), 0.5), ((3, 4), 0.2),
                                             ((5, 6), 0.3), ((2, 3), 0.6), ((4, 5), 0.7),
                                             ((0, 6), 0.8), ((0, 2), 0.5))]
    simplices.append(Simplex((0, 1, 2), 0.5))
    yield "components", Filtration.from_simplices(simplices, vertex_count=8)
    graphs = np.random.default_rng(8)
    for trial in range(30):
        n = int(graphs.integers(2, 10))
        entry = graphs.integers(0, 4, n) / 2.0
        simplices = [Simplex((v,), float(t)) for v, t in enumerate(entry)]
        simplices += [Simplex(e, float(max(entry[list(e)]) + graphs.integers(0, 3) / 2.0))
                      for e in itertools.combinations(range(n), 2) if graphs.random() < 0.4]
        yield f"graph {trial}", Filtration.from_simplices(simplices, vertex_count=n)

    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(4, 9))
        f = complexes.vietoris_rips(rng.standard_normal((n, 2)), float(rng.uniform(1.5, 3.0)),
                                    int(rng.integers(2, 5)))
        keep = ~((f.dims == f.max_dim) & (rng.random(len(f)) < 0.5))
        values = f.values
        if trial % 2:
            values = np.floor(values * 2.0) / 2.0  # ties between dimensions and faces
        yield f"rips {trial}", Filtration.from_simplices(
            [s._replace(value=float(v)) for s, v, k in zip(f.simplices(), values, keep) if k],
            vertex_count=n)


def test_optimized_equals_naive_on_non_flag_complexes(monkeypatch):
    # blocks of 2 cofacet columns build each coboundary in several blocks
    monkeypatch.setattr(persistence, "BLOCK", 2)
    non_flag = 0
    for name, f in non_flag_complexes():
        matrix = persistence.build_boundary(f)
        fast = persistence.reduce_boundary(matrix)
        slow = persistence._reduce_columns(matrix)
        assert np.array_equal(fast.pairs, slow.pairs), name
        assert np.array_equal(fast.essential, slow.essential), name
        non_flag += flag_closure_differs(f)
    # most inputs have a clique that is no simplex, which a reducer taking
    # every sigma + {v} for a cofacet would pair
    assert non_flag >= 20


def test_missing_face_is_one_class():
    assert persistence.MissingFace is complexes.MissingFace
    assert issubclass(complexes.MissingFace, ValueError)


def test_tetrahedron_barcode_exact():
    bc = persistence.barcodes(tetrahedron_filtration())
    assert bc.intervals(0) == [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, INF)]
    assert bc.intervals(1) == [(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]
    assert bc.intervals(2) == [(5.0, INF)]
    assert bc.degrees() == [0, 1, 2]


def test_tetrahedron_betti_profiles():
    bc = persistence.barcodes(tetrahedron_filtration())
    assert persistence.betti_at(bc, 0.5) == (4, 0, 0)
    assert persistence.betti_at(bc, 1.0) == (1, 3, 0)
    assert persistence.betti_at(bc, 1.5) == (1, 3, 0)
    assert persistence.betti_at(bc, 2.5) == (1, 2, 0)
    assert persistence.betti_at(bc, 4.5) == (1, 0, 0)
    assert persistence.betti_at(bc, 5.0) == (1, 0, 1)
    assert persistence.betti_at(bc, 100.0) == (1, 0, 1)
    assert persistence.betti_at(bc, -1.0) == (0, 0, 0)


# endpoints on a coarse grid, so that births and deaths tie within and
# across degrees; a death is its birth plus a length, zero and inf included
GRID = st.integers(0, 6).map(lambda k: k / 4)
BARS = st.lists(st.tuples(st.integers(0, 3), GRID, st.one_of(GRID, st.just(INF))),
                max_size=25)


@settings(max_examples=200, deadline=None)
@given(rows=BARS, top_dim=st.integers(0, 4), pick=st.integers(0, 10**6),
       attained=st.booleans())
def test_betti_profile_and_windows_match_brute_force(rows, top_dim, pick, attained):
    intervals = {}
    for d, birth, length in rows:
        intervals.setdefault(d, []).append((birth, birth + length))
    bc = persistence.Barcode(intervals)
    ends = sorted({x for bars in intervals.values() for bar in bars for x in bar})
    # every endpoint, every midpoint between them, below 0, beyond them, inf
    points = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])] + [-1.0, 0.0, 5.0, INF]
    profile = persistence.betti_profile(bc, points, top_dim)
    assert profile.shape == (len(points), top_dim + 1)
    assert [tuple(row) for row in profile.tolist()] == \
        [brute_betti(bc, r, top_dim) for r in points]
    assert persistence.betti_at(bc, points[pick % len(points)], top_dim) == \
        brute_betti(bc, points[pick % len(points)], top_dim)

    if attained:
        target = brute_betti(bc, points[pick % len(points)], top_dim)
    else:
        target = tuple(pick // 3**d % 3 for d in range(top_dim + 1))
    report = analysis.matching_windows(bc, target, top_dim)
    assert report.windows == brute_windows(bc, target, top_dim)
    assert report.critical_values == tuple(sorted(
        {x for d, bars in intervals.items() if d <= top_dim for bar in bars for x in bar} - {INF}))


def test_vertices_only_all_essential():
    f = Filtration.from_simplices(
        [Simplex((v,), float(v)) for v in range(5)], vertex_count=5)
    pairing = persistence.reduce_boundary(persistence.build_boundary(f))
    assert len(pairing.pairs) == 0
    assert np.array_equal(pairing.essential, (0, 1, 2, 3, 4))
    bc = persistence.barcodes(f)
    assert bc.intervals(0) == [(float(v), INF) for v in range(5)]


def test_single_point_barcode():
    f = Filtration.from_simplices([Simplex((0,), 0.0)], vertex_count=1)
    bc = persistence.barcodes(f)
    assert bc.intervals(0) == [(0.0, INF)]


def random_filtration(rng, max_points=8, max_dim=3, limit=40):
    while True:
        n = int(rng.integers(3, max_points + 1))
        cloud = rng.standard_normal((n, 2))
        r_max = float(rng.uniform(0.4, 2.0))
        d = int(rng.integers(1, max_dim + 1))
        f = complexes.vietoris_rips(cloud, r_max, d)
        if len(f) <= limit:
            return f


def test_optimized_equals_naive_pairing():
    rng = np.random.default_rng(2)
    for trial in range(200):
        f = random_filtration(rng)
        matrix = persistence.build_boundary(f)
        fast = persistence.reduce_boundary(matrix)
        slow = persistence._reduce_columns(matrix)
        assert np.array_equal(fast.pairs, slow.pairs)
        assert np.array_equal(fast.essential, slow.essential)


def test_pairing_structure():
    rng = np.random.default_rng(3)
    for trial in range(20):
        f = random_filtration(rng)
        pairing = persistence.reduce_boundary(persistence.build_boundary(f))
        births = [i for i, _ in pairing.pairs]
        deaths = [j for _, j in pairing.pairs]
        touched = births + deaths + list(pairing.essential)
        assert len(set(touched)) == len(touched)
        assert len(touched) == pairing.size == len(f)
        for i, j in pairing.pairs:
            assert i < j
            assert f.values[i] <= f.values[j]
            assert f.dims[j] == f.dims[i] + 1


def test_betti_matches_rank_oracle():
    rng = np.random.default_rng(4)
    for trial in range(40):
        f = random_filtration(rng)
        top = int(f.max_dim)
        bc = persistence.barcodes(f, top)
        for r in sorted(set(f.values.tolist())):
            assert persistence.betti_at(bc, r, top) == rank_oracle_betti(f, r, top)


def test_euler_characteristic_identity():
    rng = np.random.default_rng(5)
    for trial in range(25):
        f = random_filtration(rng)
        top = int(f.max_dim)
        bc = persistence.barcodes(f, top)
        for r in sorted(set(f.values.tolist())):
            betti = persistence.betti_at(bc, r, top)
            chi_h = sum((-1) ** d * b for d, b in enumerate(betti))
            included = f.values <= r
            chi_s = 0
            for d in range(top + 1):
                chi_s += (-1) ** d * int(np.sum(included & (f.dims == d)))
            assert chi_h == chi_s


def test_circle_has_one_prominent_loop():
    angles = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
    cloud = np.column_stack([np.cos(angles), np.sin(angles)])
    f = complexes.vietoris_rips(cloud, 1.5, 1)
    bc = persistence.barcodes(f, 1)
    assert len(bc.intervals(0)) >= 1
    assert sum(1 for _, e in bc.intervals(0) if e == INF) == 1
    # between the one-step and two-step chord lengths the graph is a 20-cycle
    mid = 0.45
    assert persistence.betti_at(bc, mid, 1) == (1, 1)
    assert rank_oracle_betti(f, mid, 1) == (1, 1)
    loops_at_mid = [b for b, e in bc.intervals(1) if b <= mid < e]
    assert len(loops_at_mid) == 1


def test_duplicate_point_keeps_positive_bars():
    # degrees below the top build dimension, where every potential killer
    # simplex is present, are unchanged by a repeated point
    rng = np.random.default_rng(6)
    cloud = rng.standard_normal((12, 2))
    doubled = np.vstack([cloud, cloud[:1]])
    bc_a = persistence.barcodes(complexes.vietoris_rips(cloud, 1.6, 3), 2)
    bc_b = persistence.barcodes(complexes.vietoris_rips(doubled, 1.6, 3), 2)
    for d in (1, 2):
        assert bc_a.intervals(d) == bc_b.intervals(d)


def test_zero_length_intervals_dropped():
    # two vertices joined immediately: the merge has no persistence
    f = Filtration.from_simplices(
        [Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 0.0)],
        vertex_count=2)
    bc = persistence.barcodes(f)
    assert bc.intervals(0) == [(0.0, INF)]
    assert bc.intervals(1) == []


def test_barcode_max_dim_cutoff():
    f = tetrahedron_filtration()
    bc = persistence.barcodes(f, 1)
    assert bc.degrees() == [0, 1]
    assert persistence.betti_at(bc, 5.0, 2) == (1, 0, 0)


def test_barcode_class_validation():
    for bars in ([(2.0, 1.0)], [(INF, INF)], [(-INF, 1.0)], [(math.nan, 1.0)]):
        with pytest.raises(ValueError, match="finite birth at most its death"):
            persistence.Barcode({0: bars})
    bc = persistence.Barcode({1: [(0.5, 2.0), (0.25, 1.0)]})
    assert bc.intervals(1) == [(0.25, 1.0), (0.5, 2.0)]
    assert bc.max_degree == 1


def test_barcode_csv_round_trip(tmp_path):
    bc = persistence.barcodes(tetrahedron_filtration())
    path = tmp_path / "barcode.csv"
    persistence.write_barcode(path, bc)
    lines = path.read_text().splitlines()
    assert lines[0] == "degree,birth,death"
    assert "0,0,inf" in lines
    assert "2,5,inf" in lines
    back = persistence.read_barcode(path)
    assert back == bc


def test_read_barcode_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("birth,death\n")
    with pytest.raises(ValueError):
        persistence.read_barcode(path)


def test_barcode_svg_output(tmp_path):
    bc = persistence.barcodes(tetrahedron_filtration())
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    persistence.write_barcode_svg(path_a, bc)
    persistence.write_barcode_svg(path_b, bc)
    text = path_a.read_text()
    assert text == path_b.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    labels = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert any(t and t.startswith("H0") for t in labels)
    assert any(t and t.startswith("H1") for t in labels)
    assert any(t and t.startswith("H2") for t in labels)
    bars = [el for el in root.iter() if el.tag.endswith("rect")]
    # background plus one rect per interval
    assert len(bars) == 1 + 4 + 3 + 1
    assert "&#8734;" in text
