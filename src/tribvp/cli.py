"""Batch command-line interface.

    tribvp constants --config problem.json --out results/
    tribvp certify   --config problem.json [--a 0.01 --b 2 --c 124]
    tribvp solve     --config problem.json [--grid 2049]
    tribvp sweep     --config problem.json --axis beta:0.1:0.9:9

Exit codes: 0 ok, 2 config error, 3 hypothesis failure, 4 certification
failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import load_run_config
from .errors import ConfigError, TribvpError
from .runner import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    parse_axis,
    run,
    sweep,
)


@functools.cache  # parse_args returns a fresh Namespace, so every main call of a process can share one parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tribvp", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="problem configuration JSON")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--no-timing", action="store_true", help="omit timings from the report")

    sp = sub.add_parser("constants", help="validate and compute the certification constants")
    common(sp)

    sp = sub.add_parser("certify", help="check the triple-solution growth conditions")
    common(sp)
    sp.add_argument("--a", help="override threshold a")
    sp.add_argument("--b", help="override threshold b")
    sp.add_argument("--c", help="override threshold c")

    sp = sub.add_parser("solve", help="search for multiple positive solutions")
    common(sp)
    sp.add_argument("--grid", type=int, help="override the grid node count")

    sp = sub.add_parser("sweep", help="tabulate constants/verdicts over parameter ranges")
    common(sp)
    sp.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME:LO:HI:STEPS",
        help="sweep axis; repeatable; NAME is alpha, beta, or eta",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kwargs = {"include_timing": not args.no_timing}
        if args.mode == "certify":
            overrides = (args.a, args.b, args.c)
            if any(v is not None for v in overrides):
                if not all(v is not None for v in overrides):
                    print("certify overrides need all of --a --b --c", file=sys.stderr)
                    return EXIT_CONFIG_ERROR
                kwargs["thresholds_override"] = overrides
        if args.mode == "solve" and args.grid is not None:
            kwargs["grid_n"] = args.grid
        cfg = load_run_config(args.config, args.mode, args.out, **kwargs)
        axes = [parse_axis(spec) for spec in args.axis] if args.mode == "sweep" else None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.mode == "sweep":
            outcome = sweep(cfg, axes)
        else:
            outcome = run(cfg)
    except OSError as exc:  # only the output directory and the files written into it are touched here
        print(f"config error: cannot write output {exc.filename or cfg.output_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except TribvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE

    if outcome.message:
        print(outcome.message, file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
