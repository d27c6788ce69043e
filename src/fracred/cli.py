"""Command line entry point.

    fracred run <config.json> [--out DIR] [--suites s1,s2] [--seed N]
    fracred list-suites

Exit codes: 0 all asserted contracts passed, 1 contract failure (see
manifest.json in the output directory), 2 invalid configuration, 3 I/O
error.  A bare config name such as ``baseline-1d`` resolves against the
configs bundled with the package.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, load_config
from .runner import list_suites, run_suites

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _resolve_config(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    name = arg if arg.endswith(".json") else arg + ".json"
    bundled = resources.files("fracred") / "configs" / name
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(f"config not found: {arg}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracred",
        description="Batch runner for fractional-power operator experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the suites described by a config file")
    run_p.add_argument("config", help="path to a config JSON, or a bundled name")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument(
        "--suites", help="comma-separated subset of suites to run"
    )
    run_p.add_argument("--seed", type=int, help="seed override")

    sub.add_parser("list-suites", help="print suite names and descriptions")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-suites":
        print(list_suites())
        return EXIT_OK

    suites = args.suites.split(",") if args.suites is not None else None
    try:
        cfg = load_config(_resolve_config(args.config))
        result = run_suites(cfg, out_dir=args.out, suites=suites, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    for failure in result.failures:
        print(
            f"failure in {failure['suite']}: {failure['kind']}: {failure['message']}",
            file=sys.stderr,
        )
    print(f"wrote {len(result.outputs)} files to {result.out_dir}")
    return EXIT_OK if result.ok else EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
