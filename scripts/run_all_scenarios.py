#!/usr/bin/env python3
"""Run every bundled scenario and collect the CSV/log artifacts."""

import argparse
import sys

from sfcalc.cli import list_scenarios, main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="scenario_out", help="output directory")
    args = parser.parse_args()

    worst = 0
    for name in list_scenarios():
        code = cli_main(["run", name, "--out", args.out])
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
