"""Regenerate a table or figure of the paper's Section 8.

Run from the repository root, with ``repro`` importable::

    PYTHONPATH=src python -m paper {table6,table7,table8,figure8,figure9,
                                    figure10,assumptions,all}
                                   [--profile {quick,full}]
"""

from __future__ import annotations

import argparse
import sys

from paper.bench import (
    assumptions,
    figure8,
    figure9,
    figure10,
    table6,
    table7,
    table8,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m paper",
        description="regenerate a paper table or figure",
    )
    parser.add_argument(
        "target",
        choices=[
            "table6",
            "table7",
            "table8",
            "figure8",
            "figure9",
            "figure10",
            "assumptions",
            "all",
        ],
    )
    parser.add_argument("--profile", choices=["quick", "full"], default="quick")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: print the requested artifacts, blank-line separated."""
    args = build_parser().parse_args(argv)
    runners = {
        "table6": lambda: table6.main(args.profile),
        "table7": lambda: table7.main(args.profile),
        "table8": lambda: table8.main(args.profile),
        "figure8": figure8.main,
        "figure9": figure9.main,
        "figure10": figure10.main,
        "assumptions": lambda: assumptions.main(args.profile),
    }
    targets = list(runners) if args.target == "all" else [args.target]
    for i, target in enumerate(targets):
        if i:
            print()
        runners[target]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
