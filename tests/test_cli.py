"""Tests for the command-line interface: every subcommand plus exit codes."""

import re

import numpy as np
import pytest

from grasstri import analysis, cli, complexes, grassmann, persistence


def run(argv):
    return cli.main(argv)


def circle_cloud(count=12, seed=0):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, count))
    return np.column_stack([np.cos(angles), np.sin(angles)])


# ---------------------------------------------------------------------------
# argument errors


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_exits_2(capsys):
    assert run(["sample", "--space", "rp3"]) == 2
    assert "error" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "sample" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_reproducible_cloud(tmp_path, capsys):
    out = tmp_path / "cloud.txt"
    code = run(["sample", "--space", "rp2-r4", "--count", "9",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    cloud = grassmann.read_cloud(out)
    expected = analysis.sample_space("rp2-r4", 9, np.random.default_rng(3))
    assert np.array_equal(cloud, expected)


def test_sample_biased_grassmann(tmp_path):
    out = tmp_path / "cloud.txt"
    code = run(["sample", "--space", "grassmann-4-2", "--count", "6",
                "--seed", "1", "--proportions", "0,0,1,0,0",
                "--out", str(out)])
    assert code == 0
    cloud = grassmann.read_cloud(out)
    expected = analysis.sample_space("grassmann-4-2", 6,
                                     np.random.default_rng(1), (0, 0, 1, 0, 0))
    assert np.array_equal(cloud, expected)


def test_sample_rejects_unknown_space(tmp_path, capsys):
    code = run(["sample", "--space", "mobius", "--count", "3",
                "--seed", "0", "--out", str(tmp_path / "c.txt")])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# betti


def test_betti_prints_profile(capsys):
    assert run(["betti", "--n", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 2 1 1"


def test_betti_top_dim(capsys):
    assert run(["betti", "--n", "4", "--k", "2", "--top-dim", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 2"


def test_betti_rejects_bad_params(capsys):
    assert run(["betti", "--n", "2", "--k", "3"]) == 2


# ---------------------------------------------------------------------------
# rips


def test_rips_matches_library(tmp_path):
    cloud = circle_cloud()
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, cloud)
    out = tmp_path / "filt.txt"
    code = run(["rips", "--cloud", str(cloud_path), "--r-max", "1.0",
                "--max-dim", "2", "--out", str(out)])
    assert code == 0
    stored = complexes.read_filtration(out)
    direct = complexes.vietoris_rips(cloud, 1.0, 2)
    assert len(stored) == len(direct)
    assert np.array_equal(stored.values, direct.values)
    assert all(stored.simplex(i).vertices == direct.simplex(i).vertices
               for i in range(len(direct)))


def test_rips_cap_exits_4(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, circle_cloud(20))
    code = run(["rips", "--cloud", str(cloud_path), "--r-max", "2.5",
                "--max-dim", "3", "--max-simplices", "10",
                "--out", str(tmp_path / "f.txt")])
    assert code == 4
    assert "resource limit" in capsys.readouterr().err


def test_rips_missing_cloud_exits_2(tmp_path, capsys):
    code = run(["rips", "--cloud", str(tmp_path / "absent.txt"),
                "--max-dim", "2", "--out", str(tmp_path / "f.txt")])
    assert code == 2


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_rips_rejects_non_finite_cloud(tmp_path, capsys, token):
    cloud_path = tmp_path / "cloud.txt"
    cloud_path.write_text(f"0 0\n1 0\n0 {token}\n")
    out = tmp_path / "f.txt"
    code = run(["rips", "--cloud", str(cloud_path), "--r-max", "2.0",
                "--max-dim", "1", "--out", str(out)])
    assert code == 2
    assert "non-finite coordinate in point 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rips", "witness", "pipeline", "pipeline-witness"])
def test_nan_r_max_exits_2(tmp_path, capsys, command):
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, analysis.sample_space(
        "rp2-r4", 30, np.random.default_rng(0)))
    out = tmp_path / "f.txt"
    argv = {
        "rips": ["rips", "--cloud", str(cloud_path), "--max-dim", "2", "--out", str(out)],
        "witness": ["witness", "--cloud", str(cloud_path), "--landmark-count", "8",
                    "--seed", "1", "--max-dim", "2", "--out", str(out)],
        "pipeline": ["pipeline", "--space", "rp2-r4", "--points", "30",
                     "--outdir", str(tmp_path / "run")],
        "pipeline-witness": ["pipeline", "--space", "rp2-r4", "--points", "30",
                             "--complex", "witness", "--landmark-count", "8",
                             "--outdir", str(tmp_path / "run")],
    }[command]
    assert run(argv + ["--r-max", "nan"]) == 2
    assert "r_max" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "run" / "filtration.txt").exists()


@pytest.mark.parametrize("complex_kind, r_max", [
    ("rips", "nan"), ("rips", "-1"), ("rips", "0"), ("witness", "nan"), ("witness", "-1")])
def test_pipeline_bad_r_max_writes_nothing(tmp_path, capsys, complex_kind, r_max):
    outdir = tmp_path / "run"
    argv = ["pipeline", "--space", "rp2-r4", "--points", "30", "--complex", complex_kind,
            "--r-max", r_max, "--outdir", str(outdir)]
    if complex_kind == "witness":
        argv += ["--landmark-count", "8"]
    assert run(argv) == 2
    assert "r_max" in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("options, message", [
    (["--space", "grassmann-4-2", "--points", "300", "--complex", "witness",
      "--landmark-count", "30", "--max-dim", "2", "--top-dim", "4"],
     r"top_dim must lie in \[0, 2\]"),
    (["--space", "rp2-r4", "--max-dim", "-1"], "max_dim"),
    (["--space", "rp2-r4", "--max-dim", "1", "--top-dim", "5"], r"top_dim must lie in \[0, 1\]"),
    (["--space", "rp2-r4", "--points", "20", "--complex", "witness",
      "--landmark-count", "50"], "landmark_count"),
], ids=["top-dim-above-max-dim", "negative-max-dim", "top-dim-above-both",
        "landmarks-exceed-points"])
def test_pipeline_bad_options_write_nothing(tmp_path, capsys, options, message):
    outdir = tmp_path / "run"
    assert run(["pipeline", *options, "--outdir", str(outdir)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not outdir.exists() or not any(outdir.iterdir())


# ---------------------------------------------------------------------------
# witness


def test_witness_matches_library(tmp_path):
    cloud = circle_cloud(30, seed=5)
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, cloud)
    filt_path = tmp_path / "filt.txt"
    marks_path = tmp_path / "landmarks.txt"
    code = run(["witness", "--cloud", str(cloud_path),
                "--landmark-count", "8", "--seed", "2",
                "--r-max", "0.6", "--max-dim", "2",
                "--landmarks-out", str(marks_path), "--out", str(filt_path)])
    assert code == 0
    landmarks = complexes.maxmin_landmarks(cloud, 8, np.random.default_rng(2))
    assert tuple(complexes.read_landmarks(marks_path)) == \
        tuple(landmarks.indices)
    stored = complexes.read_filtration(filt_path)
    direct = complexes.witness_filtration(cloud, landmarks, 0.6, 2)
    assert len(stored) == len(direct)
    assert np.array_equal(stored.values, direct.values)


def test_witness_random_method(tmp_path):
    cloud = circle_cloud(20, seed=6)
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, cloud)
    filt_path = tmp_path / "filt.txt"
    code = run(["witness", "--cloud", str(cloud_path),
                "--landmark-count", "5", "--landmark-method", "random",
                "--seed", "3", "--r-max", "0.5", "--max-dim", "1",
                "--out", str(filt_path)])
    assert code == 0
    landmarks = complexes.random_landmarks(cloud, 5, np.random.default_rng(3))
    direct = complexes.witness_filtration(cloud, landmarks, 0.5, 1)
    stored = complexes.read_filtration(filt_path)
    assert len(stored) == len(direct)


# ---------------------------------------------------------------------------
# persist


def test_persist_matches_library(tmp_path):
    cloud = circle_cloud()
    filtration = complexes.vietoris_rips(cloud, 1.2, 2)
    filt_path = tmp_path / "filt.txt"
    complexes.write_filtration(filt_path, filtration)
    csv_path = tmp_path / "barcode.csv"
    svg_path = tmp_path / "barcode.svg"
    code = run(["persist", "--filtration", str(filt_path), "--max-dim", "1",
                "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
    assert code == 0
    stored = persistence.read_barcode(csv_path)
    assert stored == persistence.barcodes(filtration, 1)
    assert svg_path.read_text().startswith("<svg")


@pytest.mark.parametrize("text, message", [
    ("1 2\n0 0\n0 1\n1 1 0\n", "strictly increase"),
    ("0 2\n0 0\n0 2\n", "vertex labels in [0, 2)"),
    ("0 2\n1 0\n0 1\n", "out of order"),
    ("0 1\n0 0\n0 0\n", "out of order"),
    ("0 2\n0 0\n0 1\n0 0 1\n", "dim_max 0"),
    ("1 2\n0.5 0 1\n1 0\n1 1\n", "listed at or after it"),
    ("1 3\n0 0\n0 2\n0.5 0 1\n", "face (1,) of (0, 1) is missing"),
    ("2 3\n0 0\n0 1\n0 2\n1 0 1\n1 0 2\n1 0 1 2\n", "face (1, 2) of (0, 1, 2)"),
    ("0 1\n0 99999999999\n", "vertex label 99999999999 outside [0, 1)"),
    ("0 1\n0 4294967296\n", "vertex label 4294967296 outside [0, 1)"),
    (f"0 1\n0 {10**30}\n", f"vertex label {10**30} outside [0, 1)"),
    ("1 2\n0 0\n0 x\n", "filt.txt:3: invalid literal for int()"),
    ("1 2\n0 0\n0 1\n1.5 1.5\n", "filt.txt:4: invalid literal for int()"),
    ("1 2\nabc 1\n", "filt.txt:2: could not convert string to float"),
    ("1 x\n0 0\n", "malformed filtration header"),
    ("0 1\ninf 0\n", "filtration value inf at position 0 is not finite"),
    ("0 2\n0 0\n-inf 1\n", "filtration value -inf at position 1 is not finite"),
], ids=["unsorted-vertices", "label-range", "row-order", "duplicate-row", "header-dim",
        "edge-before-vertices", "missing-vertex", "missing-edge", "label-above-int32",
        "label-wraps-to-zero", "label-above-int64", "label-not-int", "label-float",
        "value-not-float", "header-not-int", "value-inf", "value-minus-inf"])
def test_persist_rejects_malformed_filtration(tmp_path, capsys, text, message):
    filt_path = tmp_path / "filt.txt"
    filt_path.write_text(text)
    code = run(["persist", "--filtration", str(filt_path),
                "--out-csv", str(tmp_path / "barcode.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_persist_default_max_dim(tmp_path):
    filtration = complexes.vietoris_rips(circle_cloud(6), 2.5, 2)
    filt_path = tmp_path / "filt.txt"
    complexes.write_filtration(filt_path, filtration)
    csv_path = tmp_path / "barcode.csv"
    assert run(["persist", "--filtration", str(filt_path),
                "--out-csv", str(csv_path)]) == 0
    stored = persistence.read_barcode(csv_path)
    assert stored == persistence.barcodes(filtration)


def test_persist_negative_max_dim_writes_nothing(tmp_path, capsys):
    filt_path = tmp_path / "filt.txt"
    complexes.write_filtration(filt_path, complexes.vietoris_rips(circle_cloud(6), 2.5, 2))
    csv_path = tmp_path / "barcode.csv"
    assert run(["persist", "--filtration", str(filt_path), "--max-dim", "-1",
                "--out-csv", str(csv_path), "--out-svg", str(tmp_path / "b.svg")]) == 2
    assert "max_dim must be nonnegative" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["filt.txt"]


# ---------------------------------------------------------------------------
# window


def barcode_file(tmp_path):
    bc = persistence.Barcode({0: [(0.0, float("inf"))], 1: [(0.3, 0.9)]})
    path = tmp_path / "barcode.csv"
    persistence.write_barcode(path, bc)
    return path


def test_window_with_target_match(tmp_path, capsys):
    code = run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--target", "1,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "target: 1 1" in out
    assert "window: [0.3, 0.9)" in out


def test_window_no_match_exits_3(tmp_path, capsys):
    code = run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--target", "2,2"])
    assert code == 3


def test_window_space_target(tmp_path, capsys):
    # rp2-r4 with top-dim 1 truncates the target to (1, 1)
    code = run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--space", "rp2-r4", "--top-dim", "1"])
    assert code == 0
    assert "window: [0.3, 0.9)" in capsys.readouterr().out


def test_window_requires_target_or_space(tmp_path, capsys):
    code = run(["window", "--barcode", str(barcode_file(tmp_path))])
    assert code == 2
    assert "required" in capsys.readouterr().err


def test_window_rejects_bar_born_at_infinity(tmp_path, capsys):
    path = tmp_path / "barcode.csv"
    path.write_text("degree,birth,death\n0,inf,inf\n")
    assert run(["window", "--barcode", str(path), "--target", "0"]) == 2
    assert "degree 0 interval (inf, inf) needs a finite birth" in capsys.readouterr().err


def test_window_rejects_negative_degree(tmp_path, capsys):
    path = tmp_path / "barcode.csv"
    path.write_text("degree,birth,death\n-1,0,1\n0,0,inf\n")
    assert run(["window", "--barcode", str(path), "--target", "1"]) == 2
    err = capsys.readouterr().err
    assert "degree -1 interval (0.0, 1.0) needs" in err
    assert "a degree of at least 0" in err


def test_window_report_file(tmp_path):
    out = tmp_path / "report.txt"
    code = run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--target", "1 1", "--out", str(out)])
    assert code == 0
    parsed = analysis.read_window_report(out)
    assert parsed.windows == ((0.3, 0.9),)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_inline_args(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = run(["pipeline", "--space", "rp2-r4", "--points", "40",
                "--r-max", "1.0", "--max-dim", "1", "--seed", "2",
                "--top-dim", "1", "--outdir", str(outdir)])
    out = capsys.readouterr().out
    assert code in (0, 3)
    assert "simplices:" in out
    for name in ("cloud.txt", "filtration.txt", "barcode.csv",
                 "barcode.svg", "report.txt"):
        assert (outdir / name).exists()


def test_pipeline_matches_direct_run(tmp_path, capsys):
    outdir = tmp_path / "cli"
    code = run(["pipeline", "--space", "rp3", "--points", "25",
                "--r-max", "1.5", "--max-dim", "1", "--top-dim", "1",
                "--seed", "9", "--outdir", str(outdir)])
    config = analysis.ExperimentConfig(
        space="rp3", sample_size=25, kind="rips", r_max=1.5, max_dim=1,
        seed=9, output_dir=str(tmp_path / "lib"), top_dim=1)
    result = analysis.run_pipeline(config)
    assert code == (0 if result.report.windows else 3)
    with open(result.paths["barcode"]) as fh:
        assert (outdir / "barcode.csv").read_text() == fh.read()


def test_pipeline_config_file(tmp_path, capsys):
    outdir = tmp_path / "run"
    config = tmp_path / "exp.cfg"
    config.write_text(
        "# circle of projective points\n"
        "space = rp2-r4\n"
        "sample_size = 30\n"
        "kind = rips\n"
        "r_max = 0.9   # build radius\n"
        "max_dim = 1\n"
        "top_dim = 1\n"
        "seed = 4\n"
        f"output_dir = {outdir}\n")
    code = run(["pipeline", "--config", str(config)])
    assert code in (0, 3)
    assert (outdir / "report.txt").exists()
    parsed = analysis.read_window_report(outdir / "report.txt")
    assert parsed.target == (1, 1)


def test_pipeline_config_defaults_match_flag_defaults(tmp_path, capsys):
    # both front ends leave kind, r_max, max_dim and seed to ExperimentConfig
    config = tmp_path / "exp.cfg"
    config.write_text(f"space = rp2-r4\nsample_size = 12\noutput_dir = {tmp_path / 'cfg'}\n")
    code = run(["pipeline", "--config", str(config)])
    assert run(["pipeline", "--space", "rp2-r4", "--points", "12",
                "--outdir", str(tmp_path / "flags")]) == code
    for name in ("barcode.csv", "report.txt"):
        assert (tmp_path / "cfg" / name).read_bytes() == \
            (tmp_path / "flags" / name).read_bytes()


def test_pipeline_config_missing_sample_size(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("space = rp3\n")
    assert run(["pipeline", "--config", str(config)]) == 2
    assert "missing config key 'sample_size'" in capsys.readouterr().err


def test_pipeline_config_and_space_conflict(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("space = rp3\n")
    code = run(["pipeline", "--config", str(config), "--space", "rp3"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_pipeline_requires_space_or_config(capsys):
    assert run(["pipeline"]) == 2
    assert "required" in capsys.readouterr().err


def test_pipeline_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("space = rp3\nsample_size = 10\nvolume = 11\n")
    assert run(["pipeline", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_pipeline_config_missing_space(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("sample_size = 10\n")
    assert run(["pipeline", "--config", str(config)]) == 2
    assert "space" in capsys.readouterr().err


def test_pipeline_config_malformed_line(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("space rp3\n")
    assert run(["pipeline", "--config", str(config)]) == 2


def test_pipeline_cap_exits_4(tmp_path, capsys):
    code = run(["pipeline", "--space", "rp2-r4", "--points", "50",
                "--r-max", "2.0", "--max-dim", "2", "--seed", "0",
                "--max-simplices", "20", "--outdir", str(tmp_path / "x")])
    assert code == 4
    assert "resource limit" in capsys.readouterr().err
