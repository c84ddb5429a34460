"""Tests for window detection, complex export, and the experiment pipeline."""

import math

import numpy as np
import pytest

from grasstri import analysis, complexes, grassmann, persistence
from simplices import simplex, simplices
from test_persistence import brute_betti, make_barcode

INF = math.inf


def windows_contain(windows, r):
    return any(a <= r < b for a, b in windows)


# ---------------------------------------------------------------------------
# matching_windows


def test_single_window_between_critical_values():
    bc = make_barcode({0: [(0.0, INF), (0.0, 0.5)], 1: [(0.6, 1.2)]})
    report = analysis.matching_windows(bc, (1, 1), 1)
    assert report.windows == ((0.6, 1.2),)
    assert report.target == (1, 1)
    assert report.top_dim == 1
    assert report.critical_values == (0.0, 0.5, 0.6, 1.2)


def test_window_extends_to_infinity():
    bc = make_barcode({0: [(0.0, INF), (0.0, 0.5)], 1: [(0.8, INF)]})
    report = analysis.matching_windows(bc, (1, 1), 1)
    assert report.windows == ((0.8, INF),)


def test_adjacent_matching_pieces_merge():
    # one loop dies exactly where the next is born: the profile is (1, 1)
    # on both sides of 0.5, so the two pieces must fuse into one window
    bc = make_barcode({0: [(0.0, INF)], 1: [(0.2, 0.5), (0.5, 0.9)]})
    report = analysis.matching_windows(bc, (1, 1), 1)
    assert report.windows == ((0.2, 0.9),)


def test_disjoint_windows_stay_separate():
    bc = make_barcode({0: [(0.0, INF)], 1: [(0.2, 0.4), (0.6, 0.8)]})
    report = analysis.matching_windows(bc, (1, 1), 1)
    assert report.windows == ((0.2, 0.4), (0.6, 0.8))


def test_leading_window_starts_at_zero():
    # nothing is born before 0.3, so the profile (0, 0) holds on [0, 0.3)
    bc = make_barcode({0: [(0.3, INF)]})
    report = analysis.matching_windows(bc, (0, 0), 1)
    assert report.windows == ((0.0, 0.3),)


def test_empty_barcode_matches_empty_target_everywhere():
    report = analysis.matching_windows(make_barcode({}), (0,), 0)
    assert report.windows == ((0.0, INF),)
    assert report.critical_values == ()


def test_no_matching_window():
    bc = make_barcode({0: [(0.0, INF)]})
    report = analysis.matching_windows(bc, (5,), 0)
    assert report.windows == ()


def test_target_length_must_match_top_dim():
    bc = make_barcode({0: [(0.0, INF)]})
    with pytest.raises(ValueError):
        analysis.matching_windows(bc, (1, 1), 0)
    with pytest.raises(ValueError):
        analysis.matching_windows(bc, (1,), 1)
    with pytest.raises(ValueError):
        analysis.matching_windows(bc, (), -1)  # no degree to check


def test_higher_degree_bars_ignored_beyond_top_dim():
    bc = make_barcode({0: [(0.0, INF)], 2: [(0.15, 0.85)]})
    report = analysis.matching_windows(bc, (1,), 0)
    assert report.windows == ((0.0, INF),)
    assert report.critical_values == (0.0,)


def test_windows_match_pointwise_betti_on_circle():
    rng = np.random.default_rng(3)
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, 24))
    cloud = np.column_stack([np.cos(angles), np.sin(angles)])
    filtration = complexes.vietoris_rips(cloud, 1.6, 2)
    bc = persistence.barcodes(filtration, 1)
    report = analysis.matching_windows(bc, (1, 1), 1)
    assert report.windows
    # the report partitions the line exactly: check agreement at every
    # critical value and at the midpoint of every piece
    points = [0.0] + list(report.critical_values)
    probes = list(points)
    for a, b in zip(points, points[1:]):
        probes.append((a + b) / 2)
    probes.append(points[-1] + 1.0)
    for r in probes:
        expected = brute_betti(bc, r, 1) == (1, 1)
        assert windows_contain(report.windows, r) == expected


def test_window_report_rejects_overlapping_windows():
    with pytest.raises(ValueError):
        analysis.WindowReport((1,), 0, (0.0,), ((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        analysis.WindowReport((1,), 0, (0.0,), ((1.0, 1.0),))


# ---------------------------------------------------------------------------
# export_complex / simplex_count_at


def triangle_filtration():
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    return complexes.vietoris_rips(cloud, 2.0, 2)


def test_export_prefix_at_each_critical_value():
    filtration = triangle_filtration()
    values = sorted(set(float(v) for v in filtration.values))
    for r in values:
        exported = analysis.export_complex(filtration, r)
        k = analysis.simplex_count_at(filtration, r)
        assert exported == complexes.Filtration(filtration.values[:k], filtration.dims[:k],
                                                filtration.verts[:k], filtration.vertex_count)
        exported.validate()
        assert [s.vertices for s in simplices(exported)] == [
            simplex(filtration, i).vertices
            for i in range(k)
        ]
        present = {s.vertices for s in simplices(exported)}
        for s in simplices(exported):
            for skip in range(len(s.vertices)):
                face = s.vertices[:skip] + s.vertices[skip + 1:]
                if face:
                    assert face in present


def test_export_threshold_is_inclusive():
    filtration = triangle_filtration()
    edge_value = float(np.min(filtration.values[filtration.dims == 1]))
    exported = analysis.export_complex(filtration, edge_value)
    assert (exported.dims == 1).any()
    below = analysis.export_complex(filtration, edge_value - 1e-9)
    assert (below.dims == 0).all()


def test_export_rejects_negative_radius():
    with pytest.raises(ValueError):
        analysis.export_complex(triangle_filtration(), -0.1)


def test_export_and_count_reject_nan_radius():
    filtration = triangle_filtration()
    for at in (analysis.export_complex, analysis.simplex_count_at):
        with pytest.raises(ValueError, match="^r must be nonnegative$"):
            at(filtration, math.nan)
    assert analysis.simplex_count_at(filtration, math.inf) == len(filtration)
    assert analysis.export_complex(filtration, math.inf) == filtration


def test_simplex_count_monotone():
    filtration = triangle_filtration()
    counts = [analysis.simplex_count_at(filtration, r)
              for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert counts == sorted(counts)
    assert counts[0] == 3
    assert counts[-1] == 7


# ---------------------------------------------------------------------------
# parse_space / space_dimension / target_profile


def test_parse_space_fixed_names():
    assert analysis.parse_space("rp2-r4") == ("rp2-r4", ())
    assert analysis.parse_space(" RP3 ") == ("rp3", ())
    assert analysis.parse_space("rp2-R5") == ("rp2-r5", ())


def test_parse_space_grassmann():
    assert analysis.parse_space("grassmann-4-2") == ("grassmann", (4, 2))
    assert analysis.parse_space("g-5-2") == ("grassmann", (5, 2))


def test_parse_space_rejects_unknown():
    # int() alone reads the last two as G_2(R^4) and G_2(R^10)
    for bad in ("torus", "grassmann-4", "grassmann-x-2", "grassmann-2-3", "rp4",
                "grassmann-\u0664-2", "g-1_0-2"):
        with pytest.raises(ValueError):
            analysis.parse_space(bad)


def test_space_dimension():
    assert analysis.space_dimension("rp2-r4") == 2
    assert analysis.space_dimension("rp2-r5") == 2
    assert analysis.space_dimension("rp3") == 3
    assert analysis.space_dimension("grassmann-4-2") == 4
    assert analysis.space_dimension("grassmann-5-2") == 6


def test_target_profiles():
    assert analysis.target_profile("rp2-r4") == (1, 1, 1)
    assert analysis.target_profile("rp2-r5") == (1, 1, 1)
    assert analysis.target_profile("rp3") == (1, 1, 1, 1)
    assert analysis.target_profile("grassmann-4-2") == (1, 1, 2, 1, 1)
    assert analysis.target_profile("grassmann-4-2", 2) == (1, 1, 2)
    assert analysis.target_profile("rp3", 1) == (1, 1)


# ---------------------------------------------------------------------------
# sample_space


def test_sample_space_shapes_and_determinism():
    for space, width in (("rp2-r4", 4), ("rp2-r5", 5), ("rp3", 9),
                         ("grassmann-4-2", 16)):
        cloud = analysis.sample_space(space, 7, np.random.default_rng(5))
        assert cloud.shape == (7, width)
        again = analysis.sample_space(space, 7, np.random.default_rng(5))
        assert np.array_equal(cloud, again)


def test_sample_space_rp3_rows_are_rotations():
    cloud = analysis.sample_space("rp3", 6, np.random.default_rng(1))
    for row in cloud:
        q = row.reshape(3, 3)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
        assert np.linalg.det(q) > 0


def test_sample_space_grassmann_rows_are_projections():
    cloud = analysis.sample_space("grassmann-4-2", 5, np.random.default_rng(2))
    for row in cloud:
        p = row.reshape(4, 4)
        assert np.array_equal(p, p.T)
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert abs(np.trace(p) - 2) < 1e-9


def test_sample_space_biased_uses_proportions():
    rng = np.random.default_rng(9)
    cloud = analysis.sample_space("grassmann-4-2", 8, rng, (0, 0, 1, 0, 0))
    direct = grassmann.sample_biased(grassmann.GrassmannParams(4, 2), 8,
                                     (0, 0, 1, 0, 0),
                                     np.random.default_rng(9))
    assert np.array_equal(cloud, direct.reshape(8, -1))


# ---------------------------------------------------------------------------
# ExperimentConfig


def base_config(**overrides):
    fields = dict(space="rp2-r4", sample_size=20, kind="rips", r_max=1.0,
                  max_dim=1, seed=0, output_dir="out")
    fields.update(overrides)
    return analysis.ExperimentConfig(**fields)


def test_config_accepts_minimal_rips():
    config = base_config()
    assert config.kind == "rips"
    assert config.landmark_method is None


def test_config_witness_defaults_to_maxmin():
    config = base_config(kind="witness", landmark_count=5)
    assert config.landmark_method == "maxmin"


def test_config_rejections():
    with pytest.raises(ValueError):
        base_config(space="klein")
    with pytest.raises(ValueError):
        base_config(sample_size=0)
    with pytest.raises(ValueError):
        base_config(kind="cech")
    with pytest.raises(ValueError):
        base_config(kind="witness")
    with pytest.raises(ValueError):
        base_config(kind="witness", landmark_count=1)
    with pytest.raises(ValueError):
        base_config(kind="witness", landmark_count=5, landmark_method="grid")
    with pytest.raises(ValueError):
        base_config(landmark_count=5)
    with pytest.raises(ValueError):
        base_config(landmark_method="maxmin")
    with pytest.raises(ValueError):
        base_config(proportions=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="landmark_count"):
        base_config(kind="witness", sample_size=20, landmark_count=21)
    with pytest.raises(ValueError, match="max_dim"):
        base_config(max_dim=-1)
    # top_dim is bounded by both max_dim and the space dimension
    for space, max_dim, top_dim, bound in (("rp2-r4", 1, 2, 1), ("rp2-r4", 3, 3, 2),
                                           ("grassmann-4-2", 2, 4, 2), ("rp3", 2, -1, 2)):
        with pytest.raises(ValueError, match=rf"top_dim must lie in \[0, {bound}\]"):
            base_config(space=space, max_dim=max_dim, top_dim=top_dim)
    # the r_max each builder rejects: rips needs r_max > 0, witness r_max >= 0
    for r_max in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="r_max"):
            base_config(r_max=r_max)
    for r_max in (math.nan, -1.0):
        with pytest.raises(ValueError, match="r_max"):
            base_config(kind="witness", landmark_count=5, r_max=r_max)
    assert base_config(kind="witness", landmark_count=5, r_max=0.0).r_max == 0.0
    assert base_config(r_max=math.inf).r_max == math.inf


def test_config_proportions_allowed_for_grassmann():
    config = base_config(space="grassmann-4-2", proportions=(1, 1, 1, 1, 1))
    assert config.proportions == (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# run_pipeline


def test_pipeline_rips_stages_reproducible(tmp_path):
    config = base_config(space="rp2-r4", sample_size=25, r_max=1.1,
                         max_dim=1, seed=4, output_dir=str(tmp_path / "run"))
    result = analysis.run_pipeline(config)

    cloud = grassmann.read_cloud(result.paths["cloud"])
    expected_cloud = analysis.sample_space("rp2-r4", 25,
                                           np.random.default_rng(4))
    assert np.array_equal(cloud, expected_cloud)

    # simplices are built one dimension above the reported degree
    filtration = complexes.read_filtration(result.paths["filtration"])
    direct = complexes.vietoris_rips(cloud, 1.1, 2)
    assert filtration.max_dim == 2
    assert len(filtration) == len(direct)
    assert np.array_equal(filtration.values, direct.values)

    barcode = persistence.read_barcode(result.paths["barcode"])
    assert barcode == persistence.barcodes(direct, 1)
    assert barcode == result.barcode

    assert result.report.target == (1, 1)
    expected = tmp_path / "expected-report.txt"
    analysis.write_window_report(expected, result.report)
    with open(result.paths["report"], "rb") as fh:
        assert fh.read() == expected.read_bytes()
    assert result.landmarks is None

    with open(result.paths["svg"]) as fh:
        svg = fh.read()
    assert svg.startswith("<svg")


def test_pipeline_witness_uses_offset_landmark_seed(tmp_path):
    config = base_config(space="rp2-r4", sample_size=60, kind="witness",
                         landmark_count=12, r_max=0.8, max_dim=1, seed=7,
                         output_dir=str(tmp_path / "wit"))
    result = analysis.run_pipeline(config)

    cloud = grassmann.read_cloud(result.paths["cloud"])
    expected = complexes.maxmin_landmarks(cloud, 12, np.random.default_rng(8))
    with open(result.paths["landmarks"]) as fh:
        assert fh.read() == "".join(f"{i}\n" for i in expected.indices)

    direct = complexes.witness_filtration(expected, 0.8, 2)
    stored = complexes.read_filtration(result.paths["filtration"])
    assert len(stored) == len(direct)
    assert np.array_equal(stored.values, direct.values)
    assert np.array_equal(result.landmarks.indices, expected.indices)


def test_pipeline_top_dim_defaults_to_space_dimension(tmp_path):
    # max_dim 3 on a 2-manifold: the report should stop at degree 2
    config = base_config(space="rp2-r4", sample_size=30, r_max=1.0,
                         max_dim=3, seed=1, output_dir=str(tmp_path / "t"))
    result = analysis.run_pipeline(config)
    assert result.report.top_dim == 2
    assert len(result.report.target) == 3


def test_pipeline_honors_explicit_top_dim(tmp_path):
    config = base_config(space="rp2-r4", sample_size=30, r_max=1.0,
                         max_dim=2, top_dim=1, seed=1,
                         output_dir=str(tmp_path / "t"))
    result = analysis.run_pipeline(config)
    assert result.report.top_dim == 1
    assert result.report.target == (1, 1)


@pytest.mark.parametrize("kind", analysis.COMPLEX_KINDS)
def test_build_complex_calls_complexes_attributes(monkeypatch, kind):
    # a wrapper set on the module, as a tracer sets one, sees the build
    calls = []
    for name in ("vietoris_rips", "witness_filtration", "maxmin_landmarks"):
        def wrapper(*args, _fn=getattr(complexes, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(complexes, name, wrapper)
    cloud = np.random.default_rng(4).standard_normal((20, 3))
    filtration, landmarks = analysis.build_complex(cloud, kind, 1.5, 2, 10**4, 6, "maxmin", 3)
    if kind == "rips":
        assert calls == ["vietoris_rips"] and landmarks is None
        assert filtration == complexes.vietoris_rips(cloud, 1.5, 2)
    else:
        assert calls == ["maxmin_landmarks", "witness_filtration"]
        expected = complexes.maxmin_landmarks(cloud, 6, np.random.default_rng(3))
        assert np.array_equal(landmarks.indices, expected.indices)
        assert filtration == complexes.witness_filtration(expected, 1.5, 2)


def test_build_complex_rejects_unknown_kind_and_method():
    cloud = np.zeros((3, 2))
    with pytest.raises(ValueError, match="unknown complex kind 'full'"):
        analysis.build_complex(cloud, "full", 1.0, 1)
    with pytest.raises(ValueError, match="landmark method 'distance'"):
        analysis.build_complex(cloud, "witness", 1.0, 1, 10, 2, "distance", 0)


def test_pipeline_respects_simplex_cap(tmp_path):
    config = base_config(sample_size=40, r_max=2.0, max_simplices=50,
                         output_dir=str(tmp_path / "cap"))
    with pytest.raises(complexes.ResourceLimit):
        analysis.run_pipeline(config)


# ---------------------------------------------------------------------------
# window report files


def test_window_report_round_trip(tmp_path):
    report = analysis.WindowReport((1, 1, 1), 2, (0.1, 0.2, 0.7),
                                   ((0.2, 0.7), (0.9, INF)))
    path = tmp_path / "report.txt"
    analysis.write_window_report(path, report)
    assert path.read_text() == ("target: 1 1 1\ntop_dim: 2\ncritical_values: 3\n"
                                "windows: 2\nwindow: [0.2, 0.7)\nwindow: [0.9, inf)\n")


def test_window_report_file_layout(tmp_path):
    report = analysis.WindowReport((1,), 0, (0.5,), ((0.5, INF),))
    path = tmp_path / "report.txt"
    analysis.write_window_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "target: 1"
    assert lines[1] == "top_dim: 0"
    assert lines[2] == "critical_values: 1"
    assert lines[3] == "windows: 1"
    assert lines[4] == "window: [0.5, inf)"


def test_format_r():
    assert analysis.format_r(INF) == "inf"
    assert analysis.format_r(0.25) == "0.25"
    assert float(analysis.format_r(1 / 3)) == 1 / 3
