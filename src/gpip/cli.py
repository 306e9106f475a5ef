"""Command-line entry point: `gpip run --config experiment.json`."""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigInvalid
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpip",
        description="Joint user selection, power allocation, and precoding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a configured experiment campaign")
    runp.add_argument("--config", required=True, help="path to a JSON config or manifest")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--seed", type=int, default=None, help="override the master seed")
    runp.add_argument("--trials", type=int, default=None,
                      help="override n_trials (link) or n_drops (system)")
    runp.add_argument("--algorithms", default=None,
                      help="comma-separated subset of the configured algorithms")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            if cfg.scenario == "link":
                cfg.n_trials = args.trials
            else:
                cfg.n_drops = args.trials
        if args.algorithms is not None:
            wanted = [a.strip() for a in args.algorithms.split(",") if a.strip()]
            missing = [a for a in wanted if a not in cfg.algorithms]
            if missing:
                raise ConfigInvalid(f"algorithms: {missing[0]!r} not in the configured list")
            cfg.algorithms = wanted
        paths = run(cfg, args.out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
