"""Command-line front end: each pipeline stage as a subcommand, plus the
full pipeline. Stages communicate through plain text files so long runs can
be resumed from the last completed stage.

Exit codes: 0 success, 2 usage or input error, 3 no matching window,
4 simplex cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import analysis, complexes, grassmann, persistence


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for parse in (int, float):  # a flag's type stays int or float, and so its message
            self.register("type", parse, lambda text, parse=parse: parse(persistence._ascii(text)))

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_list(raw: str, type) -> tuple:
    """Numbers separated by commas or whitespace."""
    return tuple(type(t) for t in persistence._ascii(raw).replace(",", " ").split())


def fractions(raw: str) -> tuple[float, ...]:
    return _parse_list(raw, float)  # a type, so a config line names its error


def _cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    cloud = analysis.sample_space(args.space, args.count, rng, args.proportions)
    grassmann.write_cloud(args.out, cloud)
    return 0


def _cmd_betti(args) -> int:
    params = grassmann.GrassmannParams(args.n, args.k)
    profile = grassmann.betti_mod2(params, args.top_dim)
    print(" ".join(str(b) for b in profile))
    return 0


def _cmd_build(args) -> int:
    filtration, landmarks = analysis.build_complex(
        grassmann.read_cloud(args.cloud), args.command, args.r_max, args.max_dim,
        args.max_simplices, args.landmark_count, args.landmark_method, args.seed)
    if args.landmarks_out:
        complexes.write_landmarks(args.landmarks_out, landmarks)
    complexes.write_filtration(args.out, filtration)
    return 0


def _cmd_persist(args) -> int:
    filtration = complexes.read_filtration(args.filtration)
    top = filtration.max_dim  # no coface there can kill a cycle
    max_dim = max(top - 1, 0) if args.max_dim is None else args.max_dim
    if len(filtration) and max_dim >= top:
        raise ValueError(f"{args.filtration} ends at dimension {top}, too low for degree {max_dim}")
    barcode = persistence.barcodes(filtration, max_dim)
    persistence.write_barcode(args.out_csv, barcode)
    if args.out_svg:
        persistence.write_barcode_svg(args.out_svg, barcode)
    return 0


def _cmd_window(args) -> int:
    barcode = persistence.read_barcode(args.barcode)
    target = (_parse_list(args.target, int) if args.target is not None
              else analysis.target_profile(args.space, args.top_dim))
    top_dim = args.top_dim if args.top_dim is not None else len(target) - 1
    report = analysis.matching_windows(barcode, target, top_dim)
    if args.out:
        analysis.write_window_report(args.out, report)
    else:
        print(f"target: {' '.join(str(t) for t in report.target)}")
        for a, b in report.windows:
            print(f"window: [{analysis.format_r(a)}, {analysis.format_r(b)})")
    return 0 if report.windows else 3


class _Given(argparse._StoreAction):
    """A pipeline experiment flag: stores its value and appends its option to ``given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.given = [*namespace.given, option_string]


def _config_args(parser, path: str, options: dict[str, str]):
    """Flat key = value lines, # comments; each key becomes the flag whose dest
    it is; a value that flag rejects, or a repeated key, is reported at its line."""
    raw, lines = {"output_dir": analysis.ExperimentConfig.output_dir}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            key, sep, value = (part.strip() for part in line.split("#", 1)[0].partition("="))
            if sep and key in lines:
                raise ValueError(f"{path}:{lineno}: {key}: already given at line {lines[key]}")
            if sep:
                raw[key], lines[key] = value, lineno
            elif key:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
    unknown = sorted(set(raw) - set(options))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for f in dataclasses.fields(analysis.ExperimentConfig):
        if f.default is dataclasses.MISSING and f.name not in raw:
            raise ValueError(f"{path}: missing config key {f.name!r}")
    parser.exit_on_error = False  # a rejected value raises, so its line can be named
    try:
        return parser.parse_args([f"{options[key]}={value}" for key, value in raw.items()])
    except argparse.ArgumentError as err:
        key = next(key for key in raw if options[key] == err.argument_name)
        raise ValueError(f"{path}:{lines[key]}: {key}: {err}") from None
    finally:
        parser.exit_on_error = True


def _cmd_pipeline(parser, args) -> int:
    options = {a.dest: a.option_strings[0] for a in parser._actions if isinstance(a, _Given)}
    if args.config:
        if args.given:
            parser.error(f"--config and {args.given[0]} are mutually exclusive")
        args = _config_args(parser, args.config, options)
    if not args.space:
        parser.error("--space (or --config) is required")
    args.output_dir = args.output_dir or f"grasstri-{args.space}-seed{args.seed}"
    config = analysis.ExperimentConfig(**{dest: getattr(args, dest) for dest in options})
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
    p.add_argument("--proportions", type=fractions,
                   help="biased Grassmann sampling: one weight per cell dimension")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("betti", help="print the mod-2 Betti profile of G_k(R^n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--top-dim", type=int, default=None)
    p.set_defaults(func=_cmd_betti)

    build = argparse.ArgumentParser(add_help=False)  # the flags rips and witness share
    build.add_argument("--cloud", required=True)
    build.add_argument("--r-max", type=float, default=analysis.INF)
    build.add_argument("--max-dim", type=int, required=True,
                       help="top simplex dimension (one above the degree of interest)")
    build.add_argument("--max-simplices", type=int, default=complexes.DEFAULT_MAX_SIMPLICES)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_build)

    p = sub.add_parser("rips", parents=[build], help="Vietoris-Rips filtration from a cloud file")
    p.set_defaults(landmark_count=None, landmark_method=None, seed=None, landmarks_out=None)

    p = sub.add_parser("witness", parents=[build], help="witness filtration from a cloud file")
    p.add_argument("--landmark-count", type=int, required=True)
    p.add_argument("--landmark-method", choices=complexes.LANDMARKS,
                   default=analysis.DEFAULT_LANDMARK_METHOD)
    p.add_argument("--seed", type=int, required=True,
                   help="landmark selection seed (the pipeline uses its seed + 1)")
    p.add_argument("--landmarks-out")

    p = sub.add_parser("persist", help="barcode CSV (and SVG) from a filtration file")
    p.add_argument("--filtration", required=True)
    p.add_argument("--max-dim", type=int, help="top degree; at most and by default the top dim - 1")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg")
    p.set_defaults(func=_cmd_persist)

    p = sub.add_parser("window", help="matching windows from a barcode CSV")
    p.add_argument("--barcode", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target", help="Betti profile, e.g. '1,1,2,1,1'")
    target.add_argument("--space", help="derive the target from a space instead")
    p.add_argument("--top-dim", type=int, default=None)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("pipeline", help="run sample, build, persist, window in one go")
    p.add_argument("--config", help="flat key = value config file; no other flag beside it")
    flag = functools.partial(p.add_argument, action=_Given)  # one per ExperimentConfig field
    flag("--space")
    flag("--points", dest="sample_size", metavar="POINTS", type=int, default=200)
    defaults = analysis.ExperimentConfig
    flag("--complex", dest="kind", choices=analysis.COMPLEX_KINDS, default=defaults.kind)
    flag("--r-max", type=float, default=defaults.r_max)
    flag("--max-dim", type=int, default=defaults.max_dim,
         help="top homology degree; simplices go one dimension higher")
    flag("--seed", type=int, default=defaults.seed)
    flag("--landmark-count", type=int, default=None)
    flag("--landmark-method", choices=complexes.LANDMARKS, default=None)
    flag("--proportions", type=fractions)
    flag("--top-dim", type=int, default=None)
    flag("--max-simplices", type=int, default=complexes.DEFAULT_MAX_SIMPLICES)
    flag("--outdir", dest="output_dir", metavar="OUTDIR")
    p.set_defaults(func=functools.partial(_cmd_pipeline, p), given=[])
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
