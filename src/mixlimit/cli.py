"""Command-line front end: `mixlimit run <config.json>` and `mixlimit list`."""

from __future__ import annotations

import argparse
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mixlimit",
        description="run reproducible mixing/selfdecomposability experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to the experiment JSON config")
    run_p.add_argument("--out", default=None, help="output directory for reports")
    list_p = sub.add_parser("list", help="list experiment kinds")
    list_p.add_argument("--json", action="store_true", help="emit a JSON array")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; the harness contract is 1
        return 0 if e.code in (0, None) else 1
    if args.command == "list":
        print(harness.list_experiments(as_json=args.json))
        return 0
    return harness.run(args.config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
