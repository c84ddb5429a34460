"""The benchmark's workloads: one grasstri experiment each, built from a seed.

A workload's ``run(seed, workdir, stage)`` calls grasstri the way a user
would and returns the paths of the files the experiment wrote and the exit
codes of its command-line stages. ``stage(name, fn, *args)`` must return
``fn(*args)``; the traced run passes one that also records a span. grasstri
only ever sees inputs generated from the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from grasstri import analysis, cli


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int        # vertex count of the built complex
    points: int          # sampled cloud size
    target: tuple        # Betti profile the window detector looks for
    run: Callable        # (seed, workdir, stage) -> (paths, exit_codes)


def _pipeline(config_for):
    def run(seed: int, workdir: str, stage):
        result = stage("analysis.run_pipeline", analysis.run_pipeline, config_for(seed, workdir))
        return result.paths, []
    return run


def _rp2_config(seed: int, workdir: str) -> analysis.ExperimentConfig:
    return analysis.ExperimentConfig(
        space="rp2-r4", sample_size=200, kind="rips", r_max=0.95, max_dim=2,
        seed=seed, output_dir=workdir)


def _g25_config(seed: int, workdir: str) -> analysis.ExperimentConfig:
    return analysis.ExperimentConfig(
        space="grassmann-5-2", sample_size=40_000, kind="witness", r_max=0.1,
        max_dim=1, seed=seed, output_dir=workdir, landmark_count=150)


def _g24_staged(seed: int, workdir: str, stage):
    paths = {name: os.path.join(workdir, fname) for name, fname in (
        ("cloud", "cloud.txt"), ("landmarks", "landmarks.txt"),
        ("filtration", "filtration.txt"), ("barcode", "barcode.csv"),
        ("svg", "barcode.svg"), ("report", "report.txt"))}
    # the landmark seed is the sample seed + 1, as the pipeline command does
    commands = (
        ("sample", ["sample", "--space", "grassmann-4-2", "--count", "5000",
                    "--proportions", "0,0.05,0.30,0.25,0.40", "--seed", str(seed),
                    "--out", paths["cloud"]]),
        ("witness", ["witness", "--cloud", paths["cloud"], "--landmark-count", "100",
                     "--seed", str(seed + 1), "--r-max", "0.3", "--max-dim", "5",
                     "--landmarks-out", paths["landmarks"], "--out", paths["filtration"]]),
        ("persist", ["persist", "--filtration", paths["filtration"], "--max-dim", "4",
                     "--out-csv", paths["barcode"], "--out-svg", paths["svg"]]),
        ("window", ["window", "--barcode", paths["barcode"], "--space", "grassmann-4-2",
                    "--top-dim", "4", "--out", paths["report"]]),
    )
    codes = []
    for name, argv in commands:
        codes.append(stage(f"cli.{name}", cli.main, argv))
        if codes[-1] not in (0, 3):
            break
    return paths, codes


WORKLOADS = {w.name: w for w in (
    Workload("rp2-rips", 200, 200, (1, 1, 1), _pipeline(_rp2_config)),
    Workload("g24-witness-staged", 100, 5000, (1, 1, 2, 1, 1), _g24_staged),
    Workload("g25-witness-wide", 150, 40_000, (1, 1), _pipeline(_g25_config)),
)}
