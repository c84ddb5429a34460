"""Command-line front end: each pipeline stage as a subcommand, plus the
full pipeline. Stages communicate through plain text files so long runs can
be resumed from the last completed stage.

Exit codes: 0 success, 2 usage or input error, 3 no matching window,
4 simplex cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import analysis, complexes, grassmann, persistence


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_list(raw: str, type) -> tuple:
    """Numbers separated by commas or whitespace."""
    return tuple(type(t) for t in raw.replace(",", " ").split())


def _cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    proportions = _parse_list(args.proportions, float) if args.proportions else None
    cloud = analysis.sample_space(args.space, args.count, rng, proportions)
    grassmann.write_cloud(args.out, cloud)
    return 0


def _cmd_betti(args) -> int:
    params = grassmann.GrassmannParams(args.n, args.k)
    profile = grassmann.betti_mod2(params, args.top_dim)
    print(" ".join(str(b) for b in profile))
    return 0


def _cmd_rips(args) -> int:
    cloud = grassmann.read_cloud(args.cloud)
    filtration = complexes.vietoris_rips(cloud, args.r_max, args.max_dim,
                                         args.max_simplices)
    complexes.write_filtration(args.out, filtration)
    return 0


def _cmd_witness(args) -> int:
    cloud = grassmann.read_cloud(args.cloud)
    rng = np.random.default_rng(args.seed)
    landmarks = complexes.LANDMARKS[args.landmark_method](cloud, args.landmark_count, rng)
    if args.landmarks_out:
        complexes.write_landmarks(args.landmarks_out, landmarks)
    filtration = complexes.witness_filtration(cloud, landmarks, args.r_max,
                                              args.max_dim, args.max_simplices)
    complexes.write_filtration(args.out, filtration)
    return 0


def _cmd_persist(args) -> int:
    filtration = complexes.read_filtration(args.filtration)
    barcode = persistence.barcodes(filtration, args.max_dim)
    persistence.write_barcode(args.out_csv, barcode)
    if args.out_svg:
        persistence.write_barcode_svg(args.out_svg, barcode)
    return 0


def _cmd_window(args) -> int:
    barcode = persistence.read_barcode(args.barcode)
    if args.target:
        target = _parse_list(args.target, int)
    elif args.space:
        target = analysis.target_profile(args.space, args.top_dim)
    else:
        print("grasstri window: error: one of --target or --space is required",
              file=sys.stderr)
        return 2
    top_dim = args.top_dim if args.top_dim is not None else len(target) - 1
    report = analysis.matching_windows(barcode, target, top_dim)
    if args.out:
        analysis.write_window_report(args.out, report)
    else:
        print(f"target: {' '.join(str(t) for t in report.target)}")
        for a, b in report.windows:
            print(f"window: [{analysis.format_r(a)}, {analysis.format_r(b)})")
    return 0 if report.windows else 3


_CONFIG_TYPES = {"sample_size": int, "r_max": float, "max_dim": int, "seed": int,
                 "landmark_count": int, "proportions": lambda raw: _parse_list(raw, float),
                 "top_dim": int, "max_simplices": int}


def _config_from_file(path: str) -> analysis.ExperimentConfig:
    """Flat key = value lines, # comments; keys and defaults as in ExperimentConfig."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            raw[key.strip()] = value.strip()
    fields = dataclasses.fields(analysis.ExperimentConfig)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in raw:
            raise ValueError(f"{path}: missing config key {f.name!r}")
    return analysis.ExperimentConfig(
        **{key: _CONFIG_TYPES.get(key, str)(value) for key, value in raw.items()})


def _cmd_pipeline(args) -> int:
    if args.config:
        if args.space:
            print("grasstri pipeline: error: --config and --space are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        config = _config_from_file(args.config)
    else:
        if not args.space:
            print("grasstri pipeline: error: --space (or --config) is required",
                  file=sys.stderr)
            return 2
        outdir = args.outdir or f"grasstri-{args.space}-seed{args.seed}"
        proportions = _parse_list(args.proportions, float) if args.proportions else None
        config = analysis.ExperimentConfig(
            space=args.space, sample_size=args.points, kind=args.complex,
            r_max=args.r_max, max_dim=args.max_dim, seed=args.seed,
            output_dir=outdir, landmark_count=args.landmark_count,
            landmark_method=args.landmark_method, proportions=proportions,
            top_dim=args.top_dim, max_simplices=args.max_simplices)
    result = analysis.run_pipeline(config)
    report = result.report
    print(f"target: {' '.join(str(t) for t in report.target)}")
    print(f"simplices: {len(result.filtration)}")
    for a, b in report.windows:
        print(f"window: [{analysis.format_r(a)}, {analysis.format_r(b)})")
    print(f"artifacts: {config.output_dir}")
    return 0 if report.windows else 3


def build_parser() -> _Parser:
    parser = _Parser(
        prog="grasstri",
        description="Approximate triangulations of Grassmann manifolds: sample "
                    "a manifold, build a filtered complex, compute Z/2 persistent "
                    "homology, and report parameter windows with the target "
                    "homology.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                parser_class=_Parser)

    p = sub.add_parser("sample", parents=[], help="sample a manifold to a cloud file")
    p.add_argument("--space", required=True,
                   help="rp2-r4 | rp2-r5 | rp3 | grassmann-<n>-<k>")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--proportions",
                   help="biased Grassmann sampling: one weight per cell dimension")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("betti", help="print the mod-2 Betti profile of G_k(R^n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--top-dim", type=int, default=None)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("rips", help="Vietoris-Rips filtration from a cloud file")
    p.add_argument("--cloud", required=True)
    p.add_argument("--r-max", type=float, default=analysis.INF)
    p.add_argument("--max-dim", type=int, required=True,
                   help="top simplex dimension (one above the degree of interest)")
    p.add_argument("--max-simplices", type=int, default=analysis.DEFAULT_MAX_SIMPLICES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rips)

    p = sub.add_parser("witness", help="witness filtration from a cloud file")
    p.add_argument("--cloud", required=True)
    p.add_argument("--landmark-count", type=int, required=True)
    p.add_argument("--landmark-method", choices=sorted(complexes.LANDMARKS),
                   default=analysis.DEFAULT_LANDMARK_METHOD)
    p.add_argument("--seed", type=int, required=True,
                   help="landmark selection seed (the pipeline uses its seed + 1)")
    p.add_argument("--r-max", type=float, default=analysis.INF)
    p.add_argument("--max-dim", type=int, required=True,
                   help="top simplex dimension (one above the degree of interest)")
    p.add_argument("--max-simplices", type=int, default=analysis.DEFAULT_MAX_SIMPLICES)
    p.add_argument("--landmarks-out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("persist", help="barcode CSV (and SVG) from a filtration file")
    p.add_argument("--filtration", required=True)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg")
    p.set_defaults(func=_cmd_persist)

    p = sub.add_parser("window", help="matching windows from a barcode CSV")
    p.add_argument("--barcode", required=True)
    p.add_argument("--target", help="Betti profile, e.g. '1,1,2,1,1'")
    p.add_argument("--space", help="derive the target from a space instead")
    p.add_argument("--top-dim", type=int, default=None)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("pipeline", help="run sample, build, persist, window in one go")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--space")
    p.add_argument("--points", type=int, default=200)
    defaults = analysis.ExperimentConfig
    p.add_argument("--complex", choices=("rips", "witness"), default=defaults.kind)
    p.add_argument("--r-max", type=float, default=defaults.r_max)
    p.add_argument("--max-dim", type=int, default=defaults.max_dim,
                   help="top homology degree; simplices go one dimension higher")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--landmark-count", type=int, default=None)
    p.add_argument("--landmark-method", choices=sorted(complexes.LANDMARKS), default=None)
    p.add_argument("--proportions")
    p.add_argument("--top-dim", type=int, default=None)
    p.add_argument("--max-simplices", type=int, default=analysis.DEFAULT_MAX_SIMPLICES)
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except complexes.ResourceLimit as exc:
        print(f"grasstri: resource limit: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError, OSError) as exc:  # overflow: an integer field too large
        print(f"grasstri: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
