#!/usr/bin/env python3
"""Run every verification suite plus the default flow and merge the reports.

Usage: python scripts/run_all_verifications.py [outdir] [--seed N]
"""

import sys
from pathlib import Path

from hymkit.cli import main as hymkit_main


def run(argv=None):
    args = list(argv if argv is not None else sys.argv[1:])
    out = Path(args[0]) if args and not args[0].startswith("-") else Path("reports")
    seed = "0"
    if "--seed" in args:
        seed = args[args.index("--seed") + 1]
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
