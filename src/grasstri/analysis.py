"""Matching-window detection and the end-to-end experiment pipeline.

A complex built on manifold samples is an approximate triangulation at
parameter r when its Betti profile equals the manifold's. The Betti profile
is piecewise constant between critical values (births and deaths), so the
matching set is computed exactly: evaluate on each piece and merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import complexes, grassmann, persistence

INF = np.inf

DEFAULT_LANDMARK_METHOD = "maxmin"  # witness landmarks, for pipeline and witness alike
COMPLEX_KINDS = ("rips", "witness")  # ExperimentConfig.kind, pipeline --complex

BettiProfile = tuple[int, ...]


@dataclass(frozen=True)
class WindowReport:
    """Maximal half-open parameter windows where the profile hits the target."""

    target: BettiProfile
    top_dim: int
    critical_values: tuple[float, ...]
    windows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for a, b in self.windows:
            if not a < b:
                raise ValueError(f"window [{a}, {b}) is empty")
        for (_, b), (c, _) in zip(self.windows, self.windows[1:]):
            if not b <= c:
                raise ValueError("windows must be sorted and disjoint")


def matching_windows(barcode: persistence.Barcode, target, top_dim: int) -> WindowReport:
    """Exact window detection from the barcode's critical values.

    The profile is constant on each [c_i, c_{i+1}) between consecutive
    critical values, so evaluating at every c_i (plus 0 when the first
    critical value is positive) classifies each piece; each run of matching
    pieces is one maximal window, the last extending to +inf.
    """
    target = tuple(int(x) for x in target)
    if top_dim < 0:
        raise ValueError("top_dim must be nonnegative")
    if len(target) != top_dim + 1:
        raise ValueError(f"target needs entries for degrees 0..{top_dim}")
    keep = barcode.dims <= top_dim
    ends = np.concatenate([barcode.births[keep], barcode.deaths[keep]])
    critical = np.unique(ends[ends != INF])
    points = critical if len(critical) and critical[0] <= 0.0 else np.append(0.0, critical)
    hit = np.all(persistence.betti_profile(barcode, points, top_dim) == target, axis=1)
    # a run of matching points starts where hit rises and ends where it falls
    steps = np.diff(np.concatenate([[0], hit.astype(np.int8), [0]]))
    bounds = np.append(points, INF)
    windows = zip(bounds[steps == 1].tolist(), bounds[steps == -1].tolist())
    return WindowReport(target, top_dim, tuple(critical.tolist()), tuple(windows))


def export_complex(filtration: complexes.Filtration, r: float) -> complexes.Filtration:
    """The triangulation at parameter r: the prefix of rows with value <= r, sharing the arrays."""
    k = simplex_count_at(filtration, r)
    return complexes.Filtration(filtration.values[:k], filtration.dims[:k],
                                filtration.verts[:k], filtration.vertex_count)


def simplex_count_at(filtration: complexes.Filtration, r: float) -> int:
    if not r >= 0:  # also rejects nan
        raise ValueError("r must be nonnegative")
    return int(np.count_nonzero(filtration.values <= r))


_SPACES = {"rp2-r4": (3, 1), "rp2-r5": (3, 1), "rp3": (4, 1)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a space to sample, a complex to build, and a seed.

    space is ``rp2-r4``, ``rp2-r5``, ``rp3``, or ``grassmann-<n>-<k>``.
    max_dim is the top homology degree reported; the pipeline builds
    simplices one dimension higher so that degree-max_dim cycles coming
    from clique skeletons die at their birth value instead of polluting
    the profile. proportions (biased Grassmann sampling only) lists one
    weight per cell dimension 0..k(n-k). top_dim is the highest degree the
    window detector checks: at most, and by default, the smaller of max_dim
    and the manifold dimension. The pipeline command and config files take
    their defaults from here.
    """

    space: str
    sample_size: int
    kind: str = "rips"  # one of COMPLEX_KINDS
    r_max: float = INF
    max_dim: int = 2
    seed: int = 0
    output_dir: str = "grasstri-out"
    landmark_count: int | None = None
    landmark_method: str | None = None
    proportions: tuple[float, ...] | None = None
    top_dim: int | None = None
    max_simplices: int = complexes.DEFAULT_MAX_SIMPLICES

    def __post_init__(self):
        family, params = parse_space(self.space)
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if self.max_dim < 0:
            raise ValueError("max_dim must be nonnegative")
        if self.max_simplices < 1:
            raise ValueError("max_simplices must be positive")
        bound = min(self.max_dim, params.dimension)
        if self.top_dim is None:
            object.__setattr__(self, "top_dim", bound)
        elif not 0 <= self.top_dim <= bound:
            raise ValueError(f"top_dim must lie in [0, {bound}], the smaller of max_dim "
                             f"and the dimension of {self.space}")
        if self.kind not in COMPLEX_KINDS:
            raise ValueError(f"unknown complex kind {self.kind!r}")
        # the builders' own checks, made here before any file is written
        if self.kind == "witness":
            if not self.r_max >= 0:  # also rejects nan
                raise ValueError("r_max must be nonnegative")
            if self.landmark_count is None or not 2 <= self.landmark_count <= self.sample_size:
                raise ValueError("witness experiments need 2 <= landmark_count <= sample_size")
            method = self.landmark_method or DEFAULT_LANDMARK_METHOD
            if method not in complexes.LANDMARKS:
                raise ValueError(f"unknown landmark method {method!r}")
            object.__setattr__(self, "landmark_method", method)
        else:
            if not self.r_max > 0:  # also rejects nan
                raise ValueError("r_max must be positive")
            if self.landmark_count is not None or self.landmark_method is not None:
                raise ValueError("landmark options only apply to witness experiments")
        if self.proportions is not None and family != "grassmann":
            raise ValueError("proportions only apply to Grassmann spaces")
        if self.proportions is not None and not len(self.proportions):
            raise ValueError("proportions need at least one fraction")


def parse_space(space: str) -> tuple[str, grassmann.GrassmannParams]:
    """The family of a space name and the Grassmannian G_k(R^n) it stands for;
    RP^m is G_1(R^(m+1))."""
    s = space.strip().lower()
    if s in _SPACES:
        return s, grassmann.GrassmannParams(*_SPACES[s])
    parts = s.split("-")
    if len(parts) == 3 and parts[0] in ("grassmann", "g"):
        try:
            n, k = (int(persistence._ascii(part)) for part in parts[1:])
        except ValueError:
            raise ValueError(f"unknown space {space!r}") from None
        return "grassmann", grassmann.GrassmannParams(n, k)
    raise ValueError(f"unknown space {space!r}")


def target_profile(space: str, top_dim: int | None = None) -> BettiProfile:
    """Mod-2 Betti numbers of the space's Grassmannian in degrees 0..top_dim."""
    return grassmann.betti_mod2(parse_space(space)[1], top_dim)


def sample_space(space: str, count: int, rng: np.random.Generator,
                 proportions=None) -> np.ndarray:
    family, params = parse_space(space)
    if proportions is not None and family != "grassmann":
        raise ValueError("proportions only apply to Grassmann spaces")
    if family == "rp2-r4":
        return grassmann.rp2_embed_r4(grassmann.sample_sphere(count, rng))
    if family == "rp2-r5":
        return grassmann.rp2_embed_r5(grassmann.sample_sphere(count, rng))
    if family == "rp3":
        return grassmann.sample_so3(count, rng)
    if proportions is not None:
        return grassmann.sample_biased(params, count, proportions, rng).reshape(count, -1)
    return grassmann.sample_uniform(params, count, rng).reshape(count, -1)


def build_complex(cloud, kind, r_max, max_dim, max_simplices=complexes.DEFAULT_MAX_SIMPLICES,
                  landmark_count=None, landmark_method=DEFAULT_LANDMARK_METHOD, seed=None):
    """(filtration, landmarks or None) of a kind; looks up complexes' functions per call."""
    if kind == "rips":
        return complexes.vietoris_rips(cloud, r_max, max_dim, max_simplices), None
    if kind != "witness" or landmark_method not in complexes.LANDMARKS:
        raise ValueError(f"unknown complex kind {kind!r} or landmark method {landmark_method!r}")
    choose = getattr(complexes, f"{landmark_method}_landmarks")
    landmarks = choose(cloud, landmark_count, np.random.default_rng(seed))
    return complexes.witness_filtration(landmarks, r_max, max_dim, max_simplices), landmarks


@dataclass(frozen=True)
class PipelineResult:
    report: WindowReport
    barcode: persistence.Barcode
    filtration: complexes.Filtration
    landmarks: complexes.LandmarkSet | None
    paths: dict[str, str]


def run_pipeline(config: ExperimentConfig) -> PipelineResult:
    """Sample, build, reduce, and report; every stage boundary hits a file.

    Deterministic for a fixed config: sampling uses the config seed and
    landmark selection uses seed + 1, so the stand-alone stage commands can
    reproduce each file byte for byte.
    """
    out = Path(config.output_dir)
    paths = {name: str(out / fname) for name, fname in (
        ("cloud", "cloud.txt"), ("filtration", "filtration.txt"),
        ("barcode", "barcode.csv"), ("svg", "barcode.svg"),
        ("report", "report.txt"))}

    rng = np.random.default_rng(config.seed)
    cloud = sample_space(config.space, config.sample_size, rng, config.proportions)
    out.mkdir(parents=True, exist_ok=True)  # after sampling: a bad fraction writes nothing
    grassmann.write_cloud(paths["cloud"], cloud)

    # one simplex dimension above the reported degrees, so clique-skeleton
    # cycles in the top degree die at birth and drop out as zero length
    filtration, landmarks = build_complex(
        cloud, config.kind, config.r_max, config.max_dim + 1, config.max_simplices,
        config.landmark_count, config.landmark_method, config.seed + 1)
    if landmarks is not None:
        paths["landmarks"] = str(out / "landmarks.txt")
        complexes.write_landmarks(paths["landmarks"], landmarks)
    complexes.write_filtration(paths["filtration"], filtration)

    barcode = persistence.barcodes(filtration, config.max_dim)
    persistence.write_barcode(paths["barcode"], barcode)
    persistence.write_barcode_svg(paths["svg"], barcode)

    report = matching_windows(barcode, target_profile(config.space, config.top_dim),
                              config.top_dim)
    write_window_report(paths["report"], report)
    return PipelineResult(report, barcode, filtration, landmarks, paths)


def format_r(r: float) -> str:
    """Shortest decimal form that parses back to exactly r."""
    return "inf" if r == INF else repr(float(r))


def write_window_report(path, report: WindowReport) -> None:
    """Key-value text: target, top_dim, critical-value count, then window lines."""
    with open(path, "w") as fh:
        fh.write(f"target: {' '.join(str(t) for t in report.target)}\n")
        fh.write(f"top_dim: {report.top_dim}\n")
        fh.write(f"critical_values: {len(report.critical_values)}\n")
        fh.write(f"windows: {len(report.windows)}\n")
        for a, b in report.windows:
            fh.write(f"window: [{format_r(a)}, {format_r(b)})\n")
