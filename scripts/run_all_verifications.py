#!/usr/bin/env python3
"""Run every verification suite plus the default flow and merge the reports.

Usage: python scripts/run_all_verifications.py [outdir] [--seed N]

A missing or invalid argument exits 2 before any suite runs.
"""

import argparse
import sys
from pathlib import Path

from hymkit.cli import main as hymkit_main


def _seed(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default="reports")
    parser.add_argument("--seed", type=_seed, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the message
        return exc.code
    out = Path(args.outdir)
    seed = str(args.seed)
    out.mkdir(parents=True, exist_ok=True)
    # exit codes rank by severity (0 pass, 1 check failure, 2 usage error,
    # 3 numerical abort): report the worst one, never a bitwise mix
    status = 0
    for suite in ("adhm", "ansatz", "potential", "cone", "growth"):
        print(f"== verify {suite} ==")
        status = max(status, hymkit_main(["verify", suite, "--seed", seed,
                                          "--out", str(out)]))
    cfg = Path(__file__).parent / "flow_default.json"
    print("== flow ==")
    status = max(status, hymkit_main(["flow", str(cfg), "--out", str(out / "flow")]))
    reports = sorted(str(p) for p in out.glob("verify_*.json"))
    status = max(status, hymkit_main(["report", *reports, "--out", str(out)]))
    return status


if __name__ == "__main__":
    sys.exit(run())
