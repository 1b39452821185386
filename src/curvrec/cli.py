"""Command-line entry point.

Subcommands: reconstruct, curvature, metrics, bench, make-fixture.
Options mirror PipelineConfig fields (kebab-case); a plain key=value
config file can seed any of them, with explicit flags taking precedence.
Reports are printed as key=value lines; errors exit nonzero with the
failing pipeline stage in the message.
"""

import argparse
import sys
from dataclasses import fields

from . import io, pipeline
from .curvature import check_threshold
from .errors import ReconstructionError
from .fixtures import make_fixture
from .metrics import evaluate, sample_mesh
from .pipeline import PipelineConfig


def _threshold(text):
    try:
        return float(text)
    except ValueError:
        try:
            return check_threshold(text)
        except ValueError as exc:  # argparse prints only this type's message
            raise argparse.ArgumentTypeError(str(exc)) from None


# The value parser of each PipelineConfig setting: one table drives both
# the --kebab-case flags and the config-file keys.
SETTINGS = {
    "coarse_cells": int, "margin_cells": int,
    "r0": float, "s_max": float, "s_min": float, "alpha": float, "beta": float,
    "refine_threshold": _threshold, "resample_threshold": _threshold,
    "target_count": int, "estimator": str, "far_cap": float, "iso_eps": float,
    "sample_count": int, "seed": int, "workers": int,
    "baseline_mode": lambda v: v.lower() in ("1", "true", "yes"),
    "dump_field": str,
}


def _add_pipeline_flags(p):
    p.add_argument("--config", help="key=value file providing defaults for any flag")
    for name, parse in SETTINGS.items():
        if name == "baseline_mode":  # a switch, named --baseline
            p.add_argument("--baseline", action="store_const", const=True, dest=name)
        else:
            p.add_argument("--" + name.replace("_", "-"), type=parse, dest=name)


def _read_config_file(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (t.strip() for t in text.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def build_config(args) -> PipelineConfig:
    """Dataclass defaults, overridden by config file, overridden by flags."""
    values = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = SETTINGS[key](raw)
    for f in fields(PipelineConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return PipelineConfig(**values)


def _cmd_reconstruct(args, config):
    result = pipeline.run_pipeline(config)
    for line in result.timing.lines():
        print(line)
    print(f"vertices={result.mesh.num_vertices}")
    print(f"faces={result.mesh.num_faces}")
    print(f"output={config.output_path}")
    return 0


def _cmd_curvature(args, config):
    cf, spec = pipeline.curvature_summary(config)
    print("# id ix iy iz x y z sigma")
    ijk = spec.unflatten(cf.ids)
    pos = spec.fine_position(ijk)
    for qid, (i, j, k), p, s in zip(cf.ids, ijk, pos, cf.sigma):
        print(f"{qid} {i} {j} {k} {p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {s:.9g}")
    print("# " + " ".join(f"{name}={value:.9g}" for name, value in cf.percentiles.items()))
    return 0


def _cmd_metrics(args, config):
    mesh = io.read_mesh(args.mesh)
    reference = io.read_point_cloud(args.reference)
    samples = sample_mesh(mesh, config.sample_count, config.seed)
    report = evaluate(samples, reference, config.sample_count, config.seed,
                      workers=config.workers)
    if args.oneline:
        print(" ".join(report.lines()))
    else:
        for line in report.lines():
            print(line)
    return 0


def _cmd_bench(args, config):
    reference = io.read_point_cloud(args.reference) if args.reference else None
    result = pipeline.bench(config, reference=reference)
    for line in result.lines():
        print(line)
    return 0


def _cmd_make_fixture(args, _config):
    cloud = make_fixture(args.shape, count=args.count, seed=args.seed, radius=args.radius,
                         side=args.side, gap=args.gap, noise=args.noise)
    io.write_point_cloud(cloud, args.output)
    print(f"shape={args.shape}")
    print(f"points={len(cloud)}")
    print(f"output={args.output}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="curvrec",
        description="Curvature-adaptive UDF surface reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="point cloud file -> OBJ mesh")
    p.add_argument("--input", required=True, dest="input_path")
    p.add_argument("--output", required=True, dest="output_path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("curvature", help="dump per-query surface variation")
    p.add_argument("--input", required=True, dest="input_path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("metrics", help="evaluate a mesh against a reference cloud")
    p.add_argument("--mesh", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--oneline", action="store_true",
                   help="print the report as a single line")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bench", help="adaptive vs uniform-fine baseline")
    p.add_argument("--input", required=True, dest="input_path")
    p.add_argument("--reference", help="ground-truth cloud (defaults to the input)")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("make-fixture", help="generate an analytic test cloud")
    p.add_argument("--shape", required=True, choices=("sphere", "cube", "sheets"))
    p.add_argument("--output", required=True)
    p.add_argument("--count", type=int, default=50000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=0.3, help="sphere radius")
    p.add_argument("--side", type=float, default=1.0, help="cube/sheet side length")
    p.add_argument("--gap", type=float, default=0.045, help="sheet separation")
    p.add_argument("--noise", type=float, default=0.0, help="gaussian jitter stddev")
    p.set_defaults(func=_cmd_make_fixture)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        config = None if args.command == "make-fixture" else build_config(args)
        return args.func(args, config)
    except ReconstructionError as exc:
        stage = getattr(exc, "stage", "pipeline")
        print(f"error[{stage}]: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
