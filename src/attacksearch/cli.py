"""Command-line front end: `attacksearch <mode> --config <path> [--out DIR] [--seed N]`."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (run_bench_mode, run_memory_mode, run_oracle_mode,
                    run_report_mode, run_search_mode, run_theory_mode)
from .runconfig import MODES, RunConfigError, non_directory_above, parse_run_config
from .serial import RecordFormatError

_HANDLERS = {
    "search": run_search_mode,
    "oracle": run_oracle_mode,
    "theory": run_theory_mode,
    "bench": run_bench_mode,
    "memory": run_memory_mode,
    "report": run_report_mode,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attacksearch",
        description="Finite-budget attack-configuration search against simulated victims.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        mode_parser = sub.add_parser(mode, help=f"run the {mode} mode")
        mode_parser.add_argument("--config", required=True, help="run-configuration file")
        mode_parser.add_argument("--out", default=None, help="output directory override")
        mode_parser.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        raise RunConfigError("seed must be >= 0", key="--seed")
    config = parse_run_config(args.config, args.mode)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    key, out = ("--out", args.out) if args.out is not None else ("out_dir", config.out_dir)
    if blocker := non_directory_above(out):
        raise RunConfigError(f"output directory is, or lies under, a file: {blocker}", key=key)
    return _HANDLERS[args.mode](config, Path(out))


def main(argv=None) -> int:
    """Run one mode; library warnings print as `warning: ...` lines on stderr."""
    logger = logging.getLogger("attacksearch")
    level, propagate = logger.level, logger.propagate
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    try:
        return run(argv)
    except (RunConfigError, RecordFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
