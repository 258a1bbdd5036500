"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --out DIR --result FILE
                                [--trace 0|1] [--setup-only] [--smoke]

Set-up is the interpreter start, the numpy and hymkit imports and the
generation of the pass's inputs; it ends at ``t_setup``.  The timed calls
run next and end at ``t_work_end``.  Both are CLOCK_MONOTONIC readings, so
the parent, which read the same clock just before starting this process,
subtracts them from its own start time.  Output checks run after
``t_work_end`` and are not timed.  With ``--trace 1`` the calls run under
the span recorder and the spans are written next to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
import traceback
from pathlib import Path

import workloads
import tracing


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = wl.prepare(args.seed, out, args.smoke)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}/{args.seed}/{out.name}")
        tracing.install(tracer)
    result = {"t_setup": time.monotonic()}
    if not args.setup_only:
        if tracer:
            tracer.recording = True
        calls = wl.run(inputs)
        if tracer:
            tracer.recording = False
        result["t_work_end"] = time.monotonic()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["call_s"] = [dt for _, dt, _ in calls]
        try:
            ops, fingerprint, units = wl.check(inputs, calls)
        except Exception:  # an unexpected output shape fails every operation
            detail = traceback.format_exc(limit=3)
            ops = [{"op": label, "ok": False, "detail": detail} for label, _, _ in calls]
            fingerprint, units = {}, 0
        if tracer:
            estimates = [s[4][2] for s in tracer.spans if s[0] == "potential.eval_G"]
            if estimates:
                fingerprint["eval_G"] = hashlib.sha256(
                    " ".join(float(e).hex() for e in estimates).encode()).hexdigest()
        result.update(ops=ops, fingerprint=fingerprint, units=units)
        if tracer:
            spans_path = out / "spans.jsonl"
            tracer.write(spans_path)
            result["spans"] = str(spans_path)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
