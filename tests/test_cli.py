"""Tests for the command-line interface: every subcommand plus exit codes."""

import argparse
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from grasstri import analysis, cli, complexes, grassmann, persistence
from simplices import simplex


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


# every option of every subcommand: (required, default, type, choices)
REQUIRED_STR = (True, None, None, None)
OPTIONAL_STR = (False, None, None, None)
OPTIONAL_INT = (False, None, int, None)
BUILD_OPTIONS = {"--cloud": REQUIRED_STR, "--r-max": (False, math.inf, float, None),
                 "--max-dim": (True, None, int, None),
                 "--max-simplices": (False, 5_000_000, int, None), "--out": REQUIRED_STR}
OPTIONS = {
    "sample": {"--space": REQUIRED_STR, "--count": (True, None, int, None),
               "--seed": (True, None, int, None), "--out": REQUIRED_STR,
               "--proportions": (False, None, cli.fractions, None)},
    "betti": {"--n": (True, None, int, None), "--k": (True, None, int, None),
              "--top-dim": OPTIONAL_INT},
    "rips": BUILD_OPTIONS,
    "witness": {**BUILD_OPTIONS, "--landmark-count": (True, None, int, None),
                "--landmark-method": (False, "maxmin", None, ("maxmin", "random")),
                "--seed": (True, None, int, None), "--landmarks-out": OPTIONAL_STR},
    "persist": {"--filtration": REQUIRED_STR, "--max-dim": OPTIONAL_INT,
                "--out-csv": REQUIRED_STR, "--out-svg": OPTIONAL_STR},
    "window": {"--barcode": REQUIRED_STR, "--target": OPTIONAL_STR, "--space": OPTIONAL_STR,
               "--top-dim": OPTIONAL_INT, "--out": OPTIONAL_STR},
    "pipeline": {"--config": OPTIONAL_STR, "--space": OPTIONAL_STR,
                 "--points": (False, 200, int, None),
                 "--complex": (False, "rips", None, ("rips", "witness")),
                 "--r-max": (False, math.inf, float, None), "--max-dim": (False, 2, int, None),
                 "--seed": (False, 0, int, None), "--landmark-count": OPTIONAL_INT,
                 "--landmark-method": (False, None, None, ("maxmin", "random")),
                 "--proportions": (False, None, cli.fractions, None), "--top-dim": OPTIONAL_INT,
                 "--max-simplices": (False, 5_000_000, int, None), "--outdir": OPTIONAL_STR},
}


def test_option_inventory():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    for command, parser in sub.choices.items():
        found = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            choices = None if action.choices is None else tuple(action.choices)
            for option in action.option_strings:
                assert option not in found, f"{command} {option} declared twice"
                found[option] = (action.required, action.default, action.type, choices)
        assert found == OPTIONS[command], command


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


def test_sample_rejects_proportions_off_grassmann(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run(["sample", "--space", "rp3", "--count", "5", "--seed", "0",
                "--out", str(out), "--proportions", "1"]) == 2
    assert "proportions only apply to Grassmann spaces" in capsys.readouterr().err
    assert not out.exists()


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
    assert all(simplex(stored, i).vertices == simplex(direct, i).vertices
               for i in range(len(direct)))


def test_rips_cap_exits_4(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, circle_cloud(20))
    code = run(["rips", "--cloud", str(cloud_path), "--r-max", "2.5",
                "--max-dim", "3", "--max-simplices", "10",
                "--out", str(tmp_path / "f.txt")])
    assert code == 4
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["rips", "witness", "pipeline"])
def test_max_simplices_below_1_writes_nothing(tmp_path, capsys, command, cap):
    cloud_path = tmp_path / "cloud.txt"
    grassmann.write_cloud(cloud_path, circle_cloud(20))
    build = ["--cloud", str(cloud_path), "--max-dim", "2", "--out", str(tmp_path / "f.txt")]
    argv = {
        "rips": ["rips", *build],
        "witness": ["witness", *build, "--landmark-count", "5", "--seed", "0",
                    "--landmarks-out", str(tmp_path / "landmarks.txt")],
        "pipeline": ["pipeline", "--space", "rp2-r4", "--points", "20",
                     "--outdir", str(tmp_path / "run")],
    }[command]
    assert run([*argv, "--max-simplices", cap]) == 2
    assert "max_simplices must be positive" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cloud.txt"]


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


@pytest.mark.parametrize("command", ["rips", "witness"])
def test_malformed_cloud_names_file_and_line(tmp_path, capsys, command):
    cloud_path = tmp_path / "cloud.txt"
    cloud_path.write_text("0.1 0.2\n\n0.3 x\n")
    out = tmp_path / "f.txt"
    argv = {"rips": ["rips", "--r-max", "2.0"],
            "witness": ["witness", "--landmark-count", "2", "--seed", "0"]}
    code = run([*argv[command], "--cloud", str(cloud_path), "--max-dim", "1", "--out", str(out)])
    assert code == 2
    assert f"{cloud_path}:3: could not convert string to float: 'x'" in capsys.readouterr().err
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
    assert marks_path.read_text() == "".join(f"{i}\n" for i in landmarks.indices)
    stored = complexes.read_filtration(filt_path)
    direct = complexes.witness_filtration(landmarks, 0.6, 2)
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
    direct = complexes.witness_filtration(landmarks, 0.5, 1)
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
    ("0 2\n0 0\n0 2\n", "filt.txt:3: vertex label 2 outside [0, 2)"),
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
    ("0 2\n0 0\n0 +1\n", "filt.txt:3: '+1' is not a label of ASCII decimal digits"),
    ("0 2\n0 0\n0 -1\n", "filt.txt:3: vertex label -1 outside [0, 2)"),
    ("0 11\n0 0\n0 1_0\n", "filt.txt:3: '1_0' is not a label of ASCII decimal digits"),
    ("0 1\n0 000002147483648\n", "filt.txt:2: vertex label 2147483648 outside [0, 1)"),
    ("0 2\n0 0\n0 5\n", "filt.txt:3: vertex label 5 outside [0, 2)"),
], ids=["unsorted-vertices", "label-range", "row-order", "duplicate-row", "header-dim",
        "edge-before-vertices", "missing-vertex", "missing-edge", "label-above-int32",
        "label-wraps-to-zero", "label-above-int64", "label-not-int", "label-float",
        "value-not-float", "header-not-int", "value-inf", "value-minus-inf",
        "label-plus-sign", "label-minus-sign", "label-underscore", "label-zero-padded",
        "label-above-count"])
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
    # degree 2 has no 3-simplices to kill its cycles, so the default stops below it
    assert stored == persistence.barcodes(filtration, 1)


def test_persist_rejects_uncertified_degrees(tmp_path, monkeypatch, capsys):
    # a witness filtration up to dimension 3 certifies degrees 0-2 only: its
    # 3-cycles have no 4-simplices to kill them, and read as essential bars
    monkeypatch.chdir(tmp_path)
    assert run(["sample", "--space", "rp3", "--count", "50", "--seed", "0",
                "--out", "cloud.txt"]) == 0
    assert run(["witness", "--cloud", "cloud.txt", "--landmark-count", "10", "--seed", "1",
                "--r-max", "inf", "--max-dim", "3", "--out", "f.txt"]) == 0
    filtration = complexes.read_filtration("f.txt")
    assert filtration.max_dim == 3
    assert np.count_nonzero(persistence.barcodes(filtration).dims == 3) > 0
    Path("vertices.txt").write_text("0 2\n0 0\n0 1\n")
    capsys.readouterr()
    for argv, top, degree in ((["--filtration", "f.txt", "--max-dim", "3"], 3, 3),
                              (["--filtration", "f.txt", "--max-dim", "7"], 3, 7),
                              (["--filtration", "vertices.txt"], 0, 0)):
        assert run(["persist", *argv, "--out-csv", "b.csv", "--out-svg", "b.svg"]) == 2
        assert capsys.readouterr().err == (f"grasstri: error: {argv[1]} ends at dimension "
                                           f"{top}, too low for degree {degree}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.txt", "f.txt",
                                                                "vertices.txt"]
    # the default and the largest accepted degree are one below the top dimension
    for max_dim in ([], ["--max-dim", "2"]):
        assert run(["persist", "--filtration", "f.txt", *max_dim, "--out-csv", "b.csv"]) == 0
        assert persistence.read_barcode("b.csv") == persistence.barcodes(filtration, 2)


def test_persist_largest_label(tmp_path):
    # the facet lookup's label table is sized by the labels in use, not the largest
    filt_path = tmp_path / "filt.txt"
    filt_path.write_text("1 2147483648\n0 0\n0 2147483647\n1 0 2147483647\n")
    csv_path = tmp_path / "barcode.csv"
    assert run(["persist", "--filtration", str(filt_path), "--out-csv", str(csv_path)]) == 0
    assert csv_path.read_text() == "degree,birth,death\n0,0,1\n0,0,inf\n"


def test_persist_empty_filtration(tmp_path):
    filt_path = tmp_path / "filt.txt"
    filt_path.write_text("0 0\n")
    csv_path = tmp_path / "barcode.csv"
    assert run(["persist", "--filtration", str(filt_path),
                "--out-csv", str(csv_path)]) == 0
    assert csv_path.read_text() == "degree,birth,death\n"


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
    bc = persistence.Barcode([0, 1], [0.0, 0.3], [float("inf"), 0.9])
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


def test_window_rejects_empty_target(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--target", ",", "--out", str(out)]) == 2
    assert "top_dim must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_window_rejects_target_with_space(tmp_path, capsys):
    assert run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--target", "1,1", "--space", "rp3"]) == 2
    assert "not allowed with" in capsys.readouterr().err


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


@pytest.mark.parametrize("row, message", [
    ("1,0.5", "not enough values to unpack (expected 3, got 2)"),
    ("1,0.5,0.9,2", "too many values to unpack (expected 3)"),
    ("1.0,0.5,0.9", "invalid literal for int() with base 10: '1.0'"),
    ("1,x,0.9", "could not convert string to float: 'x'"),
    ("1,0.5,x", "could not convert string to float: 'x'"),
    # int() and float() read these as 1, 0.1 and 10; the file rule does not
    ("\u0661,0.5,0.9", "'\u0661,0.5,0.9' has a character not ASCII, or '_'"),
    ("1,0.\u0661,0.9", "'1,0.\u0661,0.9' has a character not ASCII, or '_'"),
    ("1_0,0.5,0.9", "'1_0,0.5,0.9' has a character not ASCII, or '_'"),
    ("1,0.5,1_0", "'1,0.5,1_0' has a character not ASCII, or '_'"),
], ids=["short", "four-fields", "float-degree", "bad-birth", "bad-death",
        "arabic-indic-degree", "arabic-indic-birth", "underscore-degree", "underscore-death"])
def test_window_locates_bad_barcode_row(tmp_path, capsys, row, message):
    path, out = tmp_path / "barcode.csv", tmp_path / "report.txt"
    path.write_text(f"degree,birth,death\n0,0,inf\n\n{row}\n1,0.2,0.4\n")
    assert run(["window", "--barcode", str(path), "--target", "1,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"grasstri: error: {path}:4: {message}\n"
    assert not out.exists()


def test_window_report_file(tmp_path):
    out = tmp_path / "report.txt"
    code = run(["window", "--barcode", str(barcode_file(tmp_path)),
                "--target", "1 1", "--out", str(out)])
    assert code == 0
    assert out.read_text() == ("target: 1 1\ntop_dim: 1\ncritical_values: 3\n"
                               "windows: 1\nwindow: [0.3, 0.9)\n")


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
    assert (outdir / "report.txt").read_text().startswith("target: 1 1\ntop_dim: 1\n")


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


def valid_config(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(f"space = rp2-r4\nsample_size = 12\noutput_dir = {tmp_path / 'cfg'}\n")
    return config


PIPELINE = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices["pipeline"]
EXPERIMENT_FLAGS = [a for a in PIPELINE._actions if a.dest not in ("help", "config")]


def test_pipeline_flags_are_the_experiment_fields():
    # a config key is parsed by the flag whose dest it is
    assert sorted(a.dest for a in EXPERIMENT_FLAGS) == \
        sorted(f.name for f in dataclasses.fields(analysis.ExperimentConfig))


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
@pytest.mark.parametrize("action", EXPERIMENT_FLAGS, ids=lambda a: a.option_strings[0])
def test_pipeline_config_rejects_every_other_flag(tmp_path, monkeypatch, capsys, action, joined):
    monkeypatch.chdir(tmp_path)  # a stray --outdir would land here
    config = valid_config(tmp_path)
    option = action.option_strings[0]
    # the default where there is one (so --seed 0), else a value the flag accepts
    value = str(action.default if action.default is not None
                else action.choices[0] if action.choices else 1)
    flag = [f"{option}={value}"] if joined else [option, value]
    assert run(["pipeline", "--config", str(config), *flag]) == 2
    assert f"--config and {option} are mutually exclusive" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_pipeline_config_names_first_other_flag(tmp_path, capsys):
    config = valid_config(tmp_path)
    assert run(["pipeline", "--config", str(config), "--seed", "5", "--points=99",
                "--outdir", str(tmp_path / "X")]) == 2
    assert "--config and --seed are mutually exclusive" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_pipeline_config_value_parsed_by_its_flag(tmp_path, capsys):
    config = valid_config(tmp_path)
    config.write_text(config.read_text() + "kind = bogus\n")
    assert run(["pipeline", "--config", str(config)]) == 2
    assert "argument --complex: invalid choice: 'bogus'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("line, message", [
    ("seed = x", "seed: argument --seed: invalid int value: 'x'"),
    ("sample_size =", "sample_size: argument --points: invalid int value: ''"),
    ("r_max = wide", "r_max: argument --r-max: invalid float value: 'wide'"),
    ("sample_size = \u0663\u0660", "sample_size: argument --points: invalid int value: "
                                   "'\u0663\u0660'"),
    ("r_max = 1_0", "r_max: argument --r-max: invalid float value: '1_0'"),
    ("proportions = 1,x,1,1,1",
     "proportions: argument --proportions: invalid fractions value: '1,x,1,1,1'"),
    ("proportions = 1,1_0,1,1,1",
     "proportions: argument --proportions: invalid fractions value: '1,1_0,1,1,1'"),
])
def test_pipeline_config_bad_value_names_file_line_and_key(tmp_path, capsys, line, message):
    config = valid_config(tmp_path)
    key = line.split("=")[0].strip()
    # a key may be given only once, so a valid line of the same key becomes a comment
    text = config.read_text().replace(f"\n{key} =", f"\n# {key} =")
    config.write_text(text + "# comment\n" + line + "\n")
    assert run(["pipeline", "--config", str(config)]) == 2
    assert f"grasstri: error: {config}:5: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_pipeline_config_repeated_key_exits_2(tmp_path, capsys):
    config = valid_config(tmp_path)
    config.write_text(config.read_text() + "seed = 1\n# comment\nseed = 2\n")
    assert run(["pipeline", "--config", str(config)]) == 2
    assert capsys.readouterr().err == \
        f"grasstri: error: {config}:6: seed: already given at line 4\n"
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("argv, message", [
    (["sample", "--space", "rp3", "--count", "5", "--seed", "0", "--proportions", "",
      "--out", "{tmp}/c.txt"], "proportions only apply to Grassmann spaces"),
    (["sample", "--space", "grassmann-4-2", "--count", "5", "--seed", "0",
      "--proportions", " , ", "--out", "{tmp}/c.txt"], "fractions sum to 0, expected 1"),
    (["pipeline", "--space", "grassmann-4-2", "--points", "12", "--proportions", "",
      "--outdir", "{tmp}/out"], "proportions need at least one fraction"),
    (["pipeline", "--config", "{tmp}/exp.cfg"], "proportions need at least one fraction"),
], ids=["sample", "sample-grassmann", "pipeline", "config"])
def test_empty_proportions_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    (tmp_path / "exp.cfg").write_text(
        f"space = grassmann-4-2\nsample_size = 12\nproportions =\noutput_dir = {tmp_path}/out\n")
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


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


def test_capped_witness_pipeline_writes_only_the_cloud(tmp_path, capsys):
    # landmarks are written once the complex is built, so a cap leaves none
    outdir = tmp_path / "x"
    assert run(["pipeline", "--space", "rp2-r4", "--points", "60", "--complex", "witness",
                "--landmark-count", "30", "--r-max", "2", "--max-dim", "2",
                "--max-simplices", "50", "--outdir", str(outdir)]) == 4
    assert "resource limit" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["cloud.txt"]


@pytest.mark.parametrize("command", ["rips", "witness", "pipeline"])
def test_simplex_cap_defaults_to_the_library_default(command):
    flags = {"rips": ["--cloud", "c", "--max-dim", "1", "--out", "f"],
             "witness": ["--cloud", "c", "--max-dim", "1", "--out", "f",
                         "--landmark-count", "2", "--seed", "0"],
             "pipeline": ["--space", "rp3"]}[command]
    args = cli.build_parser().parse_args([command, *flags])
    assert args.max_simplices == complexes.DEFAULT_MAX_SIMPLICES == 5_000_000


# ---------------------------------------------------------------------------
# library errors: exit 2 with the library's message, and no output file

LINE_20 = "".join(f"{i} 0\n" for i in range(20))  # 20 distinct points


@pytest.mark.parametrize("argv, inputs, stderr", [
    (["rips", "--cloud", "cloud.txt", "--max-dim", "1", "--out", "f.txt"],
     {"cloud.txt": ""}, "grasstri: error: need a nonempty 2-d point cloud\n"),
    (["witness", "--cloud", "cloud.txt", "--landmark-count", "50", "--seed", "0",
      "--max-dim", "1", "--landmarks-out", "l.txt", "--out", "f.txt"],
     {"cloud.txt": LINE_20}, "grasstri: error: need 1 <= count <= 20, got 50\n"),
    (["witness", "--cloud", "cloud.txt", "--landmark-count", "1", "--seed", "0",
      "--max-dim", "1", "--landmarks-out", "l.txt", "--out", "f.txt"],
     {"cloud.txt": LINE_20}, "grasstri: error: witness complex needs at least 2 landmarks\n"),
    (["persist", "--filtration", "filt.txt", "--out-csv", "b.csv", "--out-svg", "b.svg"],
     {"filt.txt": "1 3\n0 0\n0 1\n0.5 0 2\n"},
     "grasstri: error: face (2,) of (0, 2) is missing from the filtration\n"),
    # U+0661, a digit float() reads and numpy's cast rejects
    (["persist", "--filtration", "filt.txt", "--out-csv", "b.csv"],
     {"filt.txt": "0 1\n\u0661 0\n"}, "grasstri: error: filt.txt:2: cannot parse '\u0661'\n"),
    (["rips", "--cloud", "cloud.txt", "--max-dim", "1", "--out", "f.txt"],
     {"cloud.txt": "\u0661 0\n1 0\n"}, "grasstri: error: cloud.txt:1: cannot parse '\u0661'\n"),
    (["sample", "--space", "grassmann-4-2", "--count", "5", "--seed", "0",
      "--proportions=-1,2", "--out", "c.txt"],
     {}, "grasstri: error: negative fraction for dimension 0\n"),
    (["sample", "--space", "grassmann-4-2", "--count", "5", "--seed", "0",
      "--proportions", "0,0,0,0,0,1", "--out", "c.txt"],
     {}, "grasstri: error: no cell of dimension 5 in G_2(R^4)\n"),
    (["pipeline", "--config", "exp.cfg", "--seed", "0"],
     {"exp.cfg": "space = rp2-r4\nsample_size = 12\noutput_dir = out\n"},
     "grasstri pipeline: error: --config and --seed are mutually exclusive\n"),
    (["pipeline", "--points", "12"], {},
     "grasstri pipeline: error: --space (or --config) is required\n"),
    # numeric flags take ASCII without '_', though int() and float() read more
    (["pipeline", "--space", "rp2-r4", "--points", "\u0663\u0660", "--max-dim", "1"], {},
     "grasstri pipeline: error: argument --points: invalid int value: '\u0663\u0660'\n"),
    (["pipeline", "--space", "rp2-r4", "--points", "30", "--r-max", "1_0", "--max-dim", "1"],
     {}, "grasstri pipeline: error: argument --r-max: invalid float value: '1_0'\n"),
    (["window", "--barcode", "b.csv", "--target", "1,\u0661"],
     {"b.csv": "degree,birth,death\n0,0,inf\n"},
     "grasstri: error: '1,\u0661' has a character not ASCII, or '_'\n"),
    (["sample", "--space", "grassmann-4-2", "--count", "5", "--seed", "0",
      "--proportions", "1,1_0,1,1,1", "--out", "c.txt"],
     {}, "grasstri sample: error: argument --proportions: invalid fractions value: "
         "'1,1_0,1,1,1'\n"),
], ids=["empty-cloud", "count-too-large", "too-few-landmarks", "missing-face",
        "value-arabic-indic-digit", "cloud-arabic-indic-digit",
        "negative-fraction", "no-such-cell", "config-and-flag", "no-space",
        "points-arabic-indic-digit", "r-max-underscore", "target-arabic-indic-digit",
        "proportions-underscore"])
def test_library_error_message_exits_2(tmp_path, monkeypatch, capsys, argv, inputs, stderr):
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert run(argv) == 2
    assert capsys.readouterr().err == stderr
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == sorted(inputs)


@pytest.mark.parametrize("proportions, dim", [("0.5,nan,0.5", 1), ("nan", 0)])
@pytest.mark.parametrize("command", ["sample", "pipeline"])
def test_nan_fraction_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, command,
                                                 proportions, dim):
    monkeypatch.chdir(tmp_path)
    argv = {"sample": ["sample", "--count", "5", "--seed", "0", "--out", "c.txt"],
            "pipeline": ["pipeline", "--points", "12", "--outdir", "out"]}[command]
    assert run([*argv, "--space", "grassmann-4-2", "--proportions", proportions]) == 2
    assert capsys.readouterr().err == \
        f"grasstri: error: fraction for dimension {dim} is not a number\n"
    assert not any(tmp_path.iterdir())
