"""Command-line interface: one subcommand per verification suite.

Exit status is 0 exactly when every check of the requested suite
passes.  `--report` writes the machine-readable payload; `--csv-dir`
additionally exports geodesic traces for the suites that produce them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from . import geodesics as G
from .sphere import horizontal_frame, random_horizontal, random_point
from .suites import Config, ConfigError, config_from_file, run_and_report


# suite -> (help text, its config keys); each key is a --flag of its field's type
_SUBCOMMANDS = {
    "spectrum": ("sublaplacian spectrum fragments", ("n", "degree")),
    "bochner": ("pointwise Bochner-type identity sweep", ("n", "trials", "tol")),
    "lemmas": ("divergence, integrated and commutation lemmas", ("n", "trials", "tol")),
    "geodesics": ("geodesic integrators and distance checks", ("n", "steps", "step_size")),
    "bound": ("curvature floor and eigenvalue bound", ("n", "degree_max")),
    "s3": ("equality-case phenomenology on S^3", ("a", "b")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crsphere",
        description="verification suites for pseudohermitian geometry on the spheres",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    types = get_type_hints(Config)
    for suite, (help_text, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(suite, help=help_text)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), type=types[key])
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--report", help="write the JSON payload to this path")
        p.add_argument("--csv-dir", help="directory for geodesic trace CSV exports")
        p.add_argument("--seed", type=types["seed"], help="random seed")
    return parser


def _config_from_args(args):
    overrides = {
        f.name: getattr(args, f.name) for f in fields(Config) if getattr(args, f.name, None) is not None
    }
    return config_from_file(args.config, overrides) if args.config else Config(**overrides)


def _export_traces(config, csv_dir):
    os.makedirs(csv_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    n = config.n if config.suite != "s3" else 1
    if config.suite == "s3":
        x0 = G.s3_max_point(config.a, config.b)
        v = horizontal_frame(x0).vectors[0]
        start, b = x0, 0.0
    else:
        start = random_point(rng, n)
        v = random_horizontal(rng, start)
        b = 1.0
    conn = G.integrate_connection_geodesic(
        G.GeodesicState(start, v, b), config.steps * config.step_size, config.step_size
    )
    conn.to_csv(os.path.join(csv_dir, "connection_geodesic.csv"))
    hj = G.integrate_hj_geodesic(
        G.cotangent_lift(start, v, b), config.steps * config.step_size, config.step_size
    )
    hj.to_csv(os.path.join(csv_dir, "hamilton_jacobi_geodesic.csv"))
    return ["connection_geodesic.csv", "hamilton_jacobi_geodesic.csv"]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        config.validate()
    except (ConfigError, TypeError, ValueError) as exc:
        parser.error(str(exc))

    report, payload = run_and_report(config)
    elapsed = payload["elapsed_seconds"]

    for check in report.checks:
        status = "PASS" if check.status else "FAIL"
        residual = "" if check.residual is None else "  residual=%.3e" % check.residual
        print("[%s] %s: %s%s" % (status, check.id, check.description, residual))
    print(
        "suite %s: %s (%d checks, %.2fs)"
        % (report.name, "pass" if report.passed else "FAIL", len(report.checks), elapsed)
    )

    if args.csv_dir and config.suite in ("geodesics", "s3"):
        written = _export_traces(config, args.csv_dir)
        print("wrote traces: %s" % ", ".join(written))

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        print("wrote report: %s" % args.report)

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
