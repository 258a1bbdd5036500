"""hymkit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload W --smoke      # minimal sizes

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Each pass of a workload runs in a fresh Python process
(worker.py) with BLAS and OpenMP pinned to one thread; passes repeat, one
after the other, while another fits in ``--seconds``.  Before the passes the
set-up alone is launched several times, so ``setup_s`` is a median.

With ``--trace 0`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and every end-to-end metric.  With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones.  A fuller record, with the environment, goes to
``perfbench/.work/results/``.  Exit code 2: the program could not be set up
(for instance ``src/hymkit`` is missing); no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
# seeds for claims: tune on the default, confirm on the held-out one
DEFAULT_SEED = 0
HELD_OUT_SEED = 1729
SETUP_REPEATS = 5
# a whole run, set-up launches included, stays under this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("ops_per_s", "1/s"), ("call_ms_p50", "ms"), ("call_ms_p99", "ms")]


class BenchError(RuntimeError):
    """The program could not be set up; no result is reported."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    """Digest of the program source and of the code that makes its inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hymkit").rglob("*.py")) + [BENCH / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(argv) -> dict:
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = read(idx / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():    # a plain checkout has no commit to report
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "caches_per_core_or_shared": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": THREAD_ENV, "commit": commit,
            "source_sha256": source_digest(),
            "command": [sys.executable] + list(argv),
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# passes


def launch(name, seed, run_dir: Path, tag: str, *, trace=0, smoke=False,
           setup_only=False, timeout=RUN_LIMIT_S) -> dict:
    """Start worker.py for one pass (or one set-up), wait, read its result."""
    out, res = run_dir / tag, run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--out", str(out), "--result", str(res),
           "--trace", str(trace)]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * smoke
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "elapsed": time.monotonic() - t0}
    if proc.returncode != 0 or not res.exists():
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed": time.monotonic() - t0}
    with open(res) as fh:
        r = json.load(fh)
    r["setup_s"] = r["t_setup"] - t0
    if not setup_only:
        r["wall_s"] = r["t_work_end"] - t0
        r["elapsed"] = time.monotonic() - t0
    return r


def run_passes(name, seed, seconds, trace, smoke, run_dir):
    """Set-up launches, then passes while another is predicted to fit."""
    run_start = time.monotonic()
    warm = launch(name, seed, run_dir, "warmup", smoke=smoke, setup_only=True)
    if "error" in warm:
        raise BenchError(f"{name}: set-up failed: {warm['error']}")
    setups = []
    for i in range(1 if smoke else SETUP_REPEATS):
        s = launch(name, seed, run_dir, f"setup{i}", smoke=smoke, setup_only=True)
        if "error" in s:
            raise BenchError(f"{name}: set-up failed: {s['error']}")
        setups.append(s["setup_s"])
    kinds = (0, 1) if trace else (0,)
    passes = []
    t0 = time.monotonic()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        left = RUN_LIMIT_S - (time.monotonic() - run_start)
        p = launch(name, seed, run_dir, f"pass{len(passes)}", trace=kind, smoke=smoke,
                   timeout=left)
        p["trace"] = kind
        passes.append(p)
        if "error" in p:
            break
        nxt = kinds[len(passes) % len(kinds)]
        same = [q["elapsed"] for q in passes if q["trace"] == nxt and "error" not in q]
        est = median(same) if same else p["elapsed"]
        have_all = {q["trace"] for q in passes} == set(kinds)
        now = time.monotonic()
        if have_all and (now - t0 + est > seconds or smoke):
            break
        if now - run_start + est > RUN_LIMIT_S:
            break
    return setups, passes


# ---------------------------------------------------------------------------
# the determinism guard


def check_determinism(name, seed, smoke, passes, seed_free) -> list:
    """Compare each pass's output fingerprint with the reference for the
    same inputs and program source: from earlier runs in this checkout, else
    from the first pass of this run.  Returns one (ok, detail) per
    comparison made.
    """
    key = "|".join([name, "smoke" if smoke else "full", source_digest(),
                    "*" if seed_free else str(seed)])
    path = WORK / "fingerprints.json"
    try:
        with open(path) as fh:
            cache = json.load(fh)
    except (OSError, json.JSONDecodeError):
        cache = {}
    ref = cache.get(key, {})
    results = []
    for p in passes:
        fp = p.get("fingerprint", {})
        common = sorted(set(fp) & set(ref))
        if common:
            bad = [k for k in common if fp[k] != ref[k]]
            results.append((not bad, f"outputs differ from an earlier pass: {bad}" if bad else ""))
        for k, v in fp.items():
            ref.setdefault(k, v)
    cache[key] = ref
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return results


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setups, plain) -> dict:
    import tracing

    calls = [c for p in plain for c in p["call_s"]]
    values = {
        "wall_s": median([p["wall_s"] for p in plain]),
        "setup_s": median(setups + [p["setup_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_kb"] for p in plain]) / 1024.0,
        "ops_per_s": sum(p["units"] for p in plain) / sum(calls),
        "call_ms_p50": 1e3 * tracing.percentile(calls, 50),
        "call_ms_p99": 1e3 * tracing.percentile(calls, 99),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}


def traced_metrics(plain, traced) -> dict:
    import tracing

    spans = [tracing.read_spans(p["spans"]) for p in traced]
    conv = [p["fingerprint"].get("flow.converge_step") for p in traced]
    extra = {
        "trace.overhead_frac": median([p["wall_s"] for p in traced])
        / median([p["wall_s"] for p in plain]) - 1.0,
        "trace.accounted_frac": median([
            (p["setup_s"] + tracing.top_level_busy(sp)) / p["wall_s"]
            for p, sp in zip(traced, spans)]),
        "flow.converge_step": median([c for c in conv if c is not None]),
    }
    return tracing.per_layer_metrics([tracing.summarize(sp) for sp in spans], extra)


# ---------------------------------------------------------------------------
# one run of one workload


def run_workload(name, seed, seconds, trace, smoke=False):
    import workloads

    wl = workloads.WORKLOADS[name]
    run_dir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups, passes = run_passes(name, seed, seconds, trace, smoke, run_dir)
        good = [p for p in passes if "error" not in p]
        if not good:
            raise BenchError(f"{name}: no pass completed: {passes[-1]['error']}")
        attempted = failed = 0
        failures = []
        for p in passes:
            ops = p.get("ops") or [{"op": "pass", "ok": False, "detail": p.get("error")}] \
                * wl.n_ops(smoke)
            attempted += len(ops)
            bad = [o for o in ops if not o["ok"]]
            failed += len(bad)
            failures += [f"{o['op']}: {o['detail']}" for o in bad[:3]]
        for ok, detail in check_determinism(name, seed, smoke, good,
                                            getattr(wl, "seed_free", False)):
            attempted += 1
            failed += not ok
            if not ok:
                failures.append(detail)
        plain = [p for p in good if not p["trace"]]
        traced = [p for p in good if p["trace"]]
        if trace:
            if not (plain and traced):
                raise BenchError(f"{name}: no traced and untraced pass pair completed")
            metrics = traced_metrics(plain, traced)
            WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
            shutil.copyfile(traced[-1]["spans"], WORK / "results" /
                            f"{record_stem(name, seed, trace, smoke)}.spans.jsonl")
        else:
            metrics = end_to_end_metrics(setups, plain)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "smoke": smoke, "result": result, "failed_frac": failed / attempted,
                  "failures": failures[:20], "setup_launches_s": setups,
                  "passes": [{k: p.get(k) for k in ("trace", "setup_s", "wall_s",
                                                    "peak_rss_kb", "units", "fingerprint",
                                                    "error")}
                             for p in passes]}
        return result, record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def record_stem(name, seed, trace, smoke) -> str:
    return f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"


def write_record(record, env) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (record_stem(record["workload"], record["seed"], record["trace"],
                              record["smoke"]) + ".json")
    with open(path, "w") as fh:
        json.dump(dict(record, env=env), fh, indent=1)
    return path


def print_table(rows) -> None:
    for wl, metric, value, unit in rows:
        print(f"{wl:<18} {metric:<44} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal sizes, one pass")
    args = ap.parse_args(argv)
    if not (SRC / "hymkit" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'hymkit'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    if None in names or any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"choose --all or --workload from {sorted(workloads.WORKLOADS)}")
    env = environment(["perfbench/run.py"] + list(argv))
    results, rows = {}, []
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace,
                                          args.smoke)
            write_record(record, env)
            results[name] = result
            rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            rows.append((name, "failed_frac", record["failed_frac"], "ratio"))
            for line in record["failures"]:
                print(f"{name}: FAILED {line}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    print_table(rows)
    if args.all:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "workloads": results}))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
