"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


# ---------------------------------------------------------------------------
# names and the declared metric lists


def test_metric_names_match_pattern_and_declarations():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + \
        [w["name"] for w in s["workloads"]]
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_on_synthetic_span_tree():
    # name, start, end, parent, work, outer
    spans = [
        ["a", 0.0, 10.0, -1, None, True],
        ["b", 1.0, 4.0, 0, 7, True],
        ["c", 2.0, 3.0, 1, 5, True],
        ["b", 5.0, 7.0, 0, 3, True],
        ["d", 8.0, 9.5, 0, None, True],
        ["d", 8.2, 9.0, 4, None, False],   # d re-entered inside d
        ["e", 11.0, 12.0, -1, None, True],
    ]
    st = tracing.summarize(spans)
    assert st["a"].self_time == pytest.approx(10.0 - 3.0 - 2.0 - 1.5)
    assert st["b"].self_time == pytest.approx((3.0 - 1.0) + 2.0)
    assert st["c"].self_time == pytest.approx(1.0)
    assert st["d"].self_time == pytest.approx((1.5 - 0.8) + 0.8)
    assert st["d"].calls == 2
    assert st["d"].busy == pytest.approx(1.5)      # nested interval counted once
    assert st["b"].busy == pytest.approx(5.0)
    assert st["c"].work_within == {"b": 5, "a": 5}
    assert st["b"].work_within == {"a": 10}
    assert tracing.top_level_busy(spans) == pytest.approx(11.0)
    total_self = sum(s.self_time for s in st.values())
    assert total_self == pytest.approx(tracing.top_level_busy(spans))


def test_tracer_records_parents_and_nesting():
    tracer = tracing.Tracer("t")

    def inner(k):
        return k if k == 0 else f_inner(k - 1)

    f_inner = tracer.wrap("inner", inner, work=lambda a, kw, r: a[0])
    f_outer = tracer.wrap("outer", lambda: f_inner(2))
    f_outer()                  # not recording: no spans
    assert tracer.spans == []
    tracer.recording = True
    f_outer()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    outer_flags = [s[5] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert parents == [-1, 0, 1, 2]
    assert outer_flags == [True, True, False, False]
    assert [s[4] for s in tracer.spans] == [None, 2, 1, 0]


def test_percentile_matches_numpy():
    vals = list(np.random.default_rng(0).random(37))
    for q in (0, 50, 95, 99, 100):
        assert tracing.percentile(vals, q) == pytest.approx(np.percentile(vals, q))


# ---------------------------------------------------------------------------
# corrupted outputs count as failures


def _verify_report(tmp_path, suite, overrides=None, drop=None):
    checks = []
    for name, rule in workloads.VERIFY_EXPECT[suite].items():
        if name == drop:
            continue
        value = {"near": lambda r: r[1], "le": lambda r: 0.0,
                 "ge": lambda r: r[1]}[rule[0]](rule) if rule else 0.0
        value = (overrides or {}).get(name, value)
        checks.append({"name": name, "value": value, "bound": 1e9, "mode": "le",
                       "pass": True})
    path = tmp_path / f"verify_{suite}.json"
    path.write_text(json.dumps({"suite": suite, "checks": checks, "pass": True}))
    return path


def test_corrupted_verify_report_fails(tmp_path):
    ok, _ = workloads.check_verify_report("ansatz", 0, _verify_report(tmp_path, "ansatz"))
    assert ok
    # passes the program's own bound (2.6) but not the locked 2.0 +- 10%
    path = _verify_report(tmp_path, "ansatz", {"weight_ratio_sup": 2.5})
    assert not workloads.check_verify_report("ansatz", 0, path)[0]
    path = _verify_report(tmp_path, "ansatz", drop="bubbling_scaled_spread")
    assert not workloads.check_verify_report("ansatz", 0, path)[0]
    path = _verify_report(tmp_path, "ansatz")
    assert not workloads.check_verify_report("ansatz", 1, path)[0]
    path.write_text("{not json")
    assert not workloads.check_verify_report("ansatz", 0, path)[0]


def test_corrupted_flow_checkpoint_fails(tmp_path):
    wl = workloads.WORKLOADS["flow-r6"]
    inputs = wl.prepare(5, tmp_path, smoke=True)
    calls = wl.run(inputs)
    ops, fingerprint, units = wl.check(inputs, calls)
    assert [o["ok"] for o in ops] == [True], ops
    assert units == 200 and fingerprint["flow.converge_step"] is not None

    ckpt = tmp_path / "checkpoint.bin"
    raw = np.fromfile(ckpt, dtype="<f8")
    raw[1] = np.nextafter(raw[1], 2.0)       # node 0 is on the boundary
    raw.tofile(ckpt)
    ops, fingerprint2, _ = wl.check(inputs, calls)
    assert not ops[0]["ok"] and "boundary" in ops[0]["detail"]
    assert fingerprint2["checkpoint.bin"] != fingerprint["checkpoint.bin"]

    hist = tmp_path / "history.csv"
    hist.write_text("step,time,sup_mean_curvature,energy\n0,0,1.0,0\n200,1,0.5,0\n")
    assert not wl.check(inputs, calls)[0][0]["ok"]


def test_verify_potential_value_above_bound_fails(tmp_path):
    wl = workloads.WORKLOADS["verify"]
    for suite in wl.SUITES:
        _verify_report(tmp_path, suite)
    inputs = {"out": tmp_path,
              "potential": [("laplacian", None, (), 0.1)] * 2 + [("envelope", None, (), 175.0)] * 3}
    calls = [("verify", 7.0, [(suite, 0) for suite in wl.SUITES]),
             ("laplacian", 0.5, 0.05), ("laplacian", 0.5, 0.2), ("envelope", 0.06, 120.0),
             ("envelope", 0.06, float("inf")), ("envelope", 0.06, ValueError("x"))]
    ops, fingerprint, units = wl.check(inputs, calls)
    assert [o["ok"] for o in ops] == [True] * 4 + [True, False, True, False, False]
    assert "potential_values" in fingerprint and units > 5


def test_negative_potential_fails_the_envelope_call(monkeypatch):
    monkeypatch.setattr(workloads.potential, "barrier_envelope_check",
                        lambda pts, mc: {"sup": 100.0, "g_min": -1e-3})
    assert workloads._envelope(np.ones(3, dtype=complex), None) == float("inf")


def test_end_to_end_metrics_are_medians_over_passes():
    plain = [{"wall_s": w, "setup_s": 0.3, "peak_rss_kb": 1024, "units": 2, "call_s": [c, c]}
             for w, c in ((5.0, 2.0), (9.0, 4.0), (4.0, 1.5))]
    m = {k: v["value"] for k, v in run.end_to_end_metrics([0.2, 0.4], plain).items()}
    assert m["wall_s"] == 5.0
    assert m["setup_s"] == pytest.approx(0.3)
    assert m["peak_rss_mb"] == pytest.approx(1.0)
    assert m["ops_per_s"] == pytest.approx(6 / 15.0)
    assert m["call_ms_p50"] == pytest.approx(2000.0)


def test_determinism_mismatch_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    passes = [{"fingerprint": {"a": "1", "b": "2"}}, {"fingerprint": {"a": "1", "b": "3"}}]
    res = run.check_determinism("w", 7, False, passes, seed_free=False)
    assert [ok for ok, _ in res] == [False]
    # the reference persists: a later run with equal outputs passes, with
    # different outputs fails, under another seed it is a fresh reference
    assert [ok for ok, _ in run.check_determinism(
        "w", 7, False, passes[:1], seed_free=False)] == [True]
    assert [ok for ok, _ in run.check_determinism(
        "w", 7, False, passes[1:], seed_free=False)] == [False]
    assert run.check_determinism("w", 8, False, passes[1:], seed_free=False) == []


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    rc, result, proc = run_bench("--workload", name, "--seed", "3", "--smoke")
    assert rc == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    rc, result, proc = run_bench("--workload", "flow-r6", "--seed", "3", "--smoke",
                                 "--trace", "1")
    assert rc == 0, proc.stderr
    assert list(result["metrics"]) == [row[0] for row in tracing.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["flow.step.calls"] == 200
    assert m["flow.converge_step"] > 0
    assert m["monads.curvature_batch.calls"] == 0
    assert 0.8 < m["trace.accounted_frac"] <= 1.0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    rc, _, proc = run_bench("--workload", "flow-r6", "--seed", "1", "--seconds", "10",
                            cwd=tmp_path)
    assert rc != 0
    assert '"correct"' not in proc.stdout
