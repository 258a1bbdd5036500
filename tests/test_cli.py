import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hymkit import cli
from hymkit.flow import FlowConfig


def run_cli(args):
    return cli.main(args)


def refused(args):
    """The exit status of arguments that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    return exc.value.code


_NOT_INT = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
                     st.booleans(), st.none(), st.lists(st.integers(), max_size=2))
_NOT_REAL = st.one_of(st.text(max_size=4), st.booleans(),
                      st.sampled_from([math.nan, math.inf, -math.inf]),
                      st.lists(st.floats(), max_size=2))
_INTERVAL = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
# values each FlowConfig field must reject
INVALID_FLOW_FIELDS = {
    "steps": st.one_of(st.integers(max_value=0), _NOT_INT),
    "monitor_cadence": st.one_of(st.integers(max_value=0), _NOT_INT),
    # the configs have resolution 5, so 3^6 = 729 interior nodes
    "n_barrier_nodes": st.one_of(st.integers(max_value=0), st.integers(min_value=730),
                                 _NOT_INT),
    "seed": st.one_of(st.integers(max_value=-1), _NOT_INT),
    "resolution": st.one_of(st.integers(max_value=4), st.integers(min_value=12), _NOT_INT),
    "dt": st.one_of(st.floats(max_value=0.0), _NOT_REAL),
    "barrier_constant": st.one_of(st.floats(max_value=0.0, exclude_max=True),
                                  st.none(), _NOT_REAL),
    "box": st.one_of(
        st.lists(_INTERVAL, max_size=5), st.lists(_INTERVAL, min_size=7, max_size=8),
        st.lists(st.floats(1.0, 2.0), min_size=6, max_size=6), st.text(max_size=4),
        st.none(), st.integers(),
        # six intervals of which the first leaves the x-chart (Re x < 1)
        st.lists(_INTERVAL, min_size=6, max_size=6).filter(lambda b: b[0][0] < 1.0)),
}


class TestVerify:
    def test_unknown_suite_usage_error(self, capsys):
        assert run_cli(["verify", "bogus"]) == cli.EXIT_USAGE

    # verify takes no --tol: every bound is fixed in its suite, and argparse
    # refuses the flag with exit 2 before anything runs
    def test_bad_tolerance_flag(self):
        assert refused(["verify", "cone", "--tol", "oops"]) == cli.EXIT_USAGE

    def test_non_numeric_tolerance_usage_error(self):
        assert refused(["verify", "cone", "--tol", "cone_residual=abc"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                            ("--seed", "-1")])
    def test_out_of_range_flag_usage_error(self, tmp_path, flag, value):
        # --samples 0 used to fall back to the suite default and pass
        assert run_cli(["verify", "cone", flag, value,
                        "--out", str(tmp_path)]) == cli.EXIT_USAGE
        assert not (tmp_path / "verify_cone.json").exists()

    @pytest.mark.parametrize("samples,code", [(99, cli.EXIT_USAGE), (100, cli.EXIT_PASS)])
    def test_ansatz_minimum_samples(self, tmp_path, samples, code):
        # fewer points make weight_ratio_sup a sup over too small a sample
        assert cli.ANSATZ_MIN_SAMPLES == 100
        assert run_cli(["verify", "ansatz", "--samples", str(samples),
                        "--out", str(tmp_path)]) == code
        assert (tmp_path / "verify_ansatz.json").exists() == (code == cli.EXIT_PASS)

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    def test_samples_beyond_the_budget_usage_error(self, tmp_path, capsys, suite):
        # 10^12 samples used to end in numpy's _ArrayMemoryError traceback;
        # the bound is checked before any sampling, so nothing is allocated
        most = cli.SAMPLE_BUDGET_BYTES // cli.SAMPLE_BYTES[suite]
        assert most >= 100_000   # above every default and every tested value
        for samples in (most + 1, 10**12):
            tracemalloc.start()
            try:
                code = run_cli(["verify", suite, "--samples", str(samples),
                                "--out", str(tmp_path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert f"at most {most}, got {samples}" in err and "Traceback" not in err
            assert peak < 2**20
        assert not any(tmp_path.iterdir())

    def test_cone_suite_passes(self, tmp_path, capsys):
        code = run_cli(["verify", "cone", "--seed", "3",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_PASS
        report = json.loads((tmp_path / "verify_cone.json").read_text())
        assert report["pass"]
        assert report["suite"] == "cone"
        names = {c["name"] for c in report["checks"]}
        assert "cone_hym_residual" in names

    @pytest.mark.parametrize("spec", ["cone_residul=1e-30",          # misspelt
                                      "flat_metric_control=1e9",     # a check's name
                                      "degree=0.1",                  # the growth suite's
                                      "cone_residual=inf", "cone_residual=nan",
                                      "cone_residual=-inf",
                                      # once a tolerance of the cone suite, it let a
                                      # run loosen the locked bound and pass
                                      "cone_residual=1"])
    def test_tolerance_the_suite_does_not_read_usage_error(self, tmp_path, monkeypatch,
                                                           capsys, spec):
        from hymkit import ansatz

        def no_sampling(*args):
            raise AssertionError("sampled before the arguments were refused")
        monkeypatch.setattr(ansatz, "sample_log_uniform", no_sampling)
        assert refused(["verify", "cone", "--out", str(tmp_path),
                        "--tol", spec]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    def test_every_suite_rejects_a_tolerance_it_does_not_read(self, tmp_path, suite):
        assert refused(["verify", suite, "--out", str(tmp_path),
                        "--tol", "no_such_tolerance=1"]) == cli.EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_failing_check_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.SUITES, "cone",
                            lambda cfg: ([cfg.check("too_large", 2.0, 1.0)], {}))
        assert run_cli(["verify", "cone", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "verify_cone.json").read_text())
        assert report["pass"] is False and report["checks"][0]["pass"] is False
        rec = json.loads((tmp_path / "run_cone.json").read_text())
        assert rec["exit_code"] == cli.EXIT_CHECK_FAILURE

    def test_growth_suite_passes(self, tmp_path):
        code = run_cli(["verify", "growth", "--seed", "0",
                        "--samples", "2048", "--out", str(tmp_path)])
        assert code == cli.EXIT_PASS

    def test_verify_writes_run_record(self, tmp_path):
        assert run_cli(["verify", "cone", "--seed", "2", "--samples", "20",
                        "--out", str(tmp_path)]) == cli.EXIT_PASS
        rec = json.loads((tmp_path / "run_cone.json").read_text())
        assert set(rec) == {"hymkit", "python", "numpy", "threads", "suite", "seed",
                            "samples", "exit_code", "seconds", "peak_rss_mib"}
        assert all(isinstance(rec[k], str) for k in ("hymkit", "python", "numpy"))
        assert isinstance(rec["peak_rss_mib"], float) and rec["peak_rss_mib"] > 0
        assert set(rec["threads"]) == set(cli.THREAD_VARIABLES)
        assert all(v is None or isinstance(v, str) for v in rec["threads"].values())
        assert (rec["suite"], rec["seed"], rec["samples"], rec["exit_code"]) == \
            ("cone", 2, 20, cli.EXIT_PASS)
        report = json.loads((tmp_path / "verify_cone.json").read_text())
        assert list(rec["seconds"]) == sorted(c["name"] for c in report["checks"])
        assert all(isinstance(v, float) and v >= 0 for v in rec["seconds"].values())
        # the default sample count is recorded, not the missing flag
        assert run_cli(["verify", "cone", "--out", str(tmp_path)]) == cli.EXIT_PASS
        rec = json.loads((tmp_path / "run_cone.json").read_text())
        assert (rec["seed"], rec["samples"]) == (0, 50)

    def test_run_record_of_a_numerical_abort(self, tmp_path, monkeypatch):
        def abort(cfg):
            cfg.check("first", 0.0, 1.0)
            raise ValueError("no finite value")
        monkeypatch.setitem(cli.SUITES, "cone", abort)
        assert run_cli(["verify", "cone", "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
        assert not (tmp_path / "verify_cone.json").exists()
        rec = json.loads((tmp_path / "run_cone.json").read_text())
        assert rec["exit_code"] == cli.EXIT_NUMERICAL and list(rec["seconds"]) == ["first"]
        assert isinstance(rec["peak_rss_mib"], float) and rec["peak_rss_mib"] > 0

    def test_out_naming_a_file_usage_error(self, tmp_path, monkeypatch, capsys):
        # refused before the suite runs
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setitem(cli.SUITES, "cone", lambda cfg: pytest.fail("suite ran"))
        assert run_cli(["verify", "cone", "--out", str(out)]) == cli.EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == ""

    def test_deterministic_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert run_cli(["verify", "growth", "--seed", "5",
                            "--samples", "1024", "--out", str(out)]) == cli.EXIT_PASS
        b1 = (d1 / "verify_growth.json").read_bytes()
        b2 = (d2 / "verify_growth.json").read_bytes()
        assert b1 == b2


class TestFlow:
    def make_config(self, tmp_path, **overrides):
        cfg = {"resolution": 5, "steps": 60, "monitor_cadence": 10,
               "n_barrier_nodes": 4}
        cfg.update(overrides)
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_flow_runs_and_writes_outputs(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["flow", str(cfg), "--out", str(out)]) == cli.EXIT_PASS
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "step,time,sup_mean_curvature,energy"
        assert (out / "checkpoint.bin").exists()
        sidecar = json.loads((out / "checkpoint.bin.json").read_text())
        assert sidecar["shape"] == [5] * 6

    def test_flow_writes_run_record(self, tmp_path):
        cfg = self.make_config(tmp_path, steps=150)
        out = tmp_path / "out"
        assert run_cli(["flow", str(cfg), "--out", str(out)]) == cli.EXIT_PASS
        rec = json.loads((out / "run.json").read_text())
        assert set(rec) == {"hymkit", "python", "numpy", "threads", "resolution", "steps",
                            "exit_code", "dt", "cfl_bound", "path", "table_nodes",
                            "converge_step", "seconds", "peak_rss_mib"}
        assert rec["exit_code"] == cli.EXIT_PASS
        assert isinstance(rec["peak_rss_mib"], float) and rec["peak_rss_mib"] > 0
        assert all(isinstance(rec[k], str) for k in ("hymkit", "python", "numpy"))
        assert set(rec["threads"]) == set(cli.THREAD_VARIABLES)
        assert all(v is None or isinstance(v, str) for v in rec["threads"].values())
        assert (rec["resolution"], rec["steps"]) == (5, 150)
        assert rec["dt"] == rec["cfl_bound"] == 0.25**2 / 16  # spacing 1/4, dt null
        assert rec["path"] == "block" and rec["table_nodes"] == 3**2 * 2**4
        assert isinstance(rec["converge_step"], int) and 0 < rec["converge_step"] <= 150
        assert set(rec["seconds"]) == {"build_domain", "table", "steps", "energy",
                                       "positivity", "io"}
        assert all(isinstance(v, float) and v >= 0 for v in rec["seconds"].values())

    def test_out_naming_a_file_usage_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setattr("hymkit.flow.build_domain",
                            lambda *a, **k: pytest.fail("flow ran"))
        assert run_cli(["flow", str(self.make_config(tmp_path)),
                        "--out", str(out)]) == cli.EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == ""

    def test_missing_config_usage_error(self, tmp_path):
        assert run_cli(["flow", str(tmp_path / "nope.json")]) == cli.EXIT_USAGE

    def test_corrupt_config_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["flow", str(path)]) == cli.EXIT_USAGE

    def test_dt_above_cfl_numerical_abort(self, tmp_path):
        cfg = self.make_config(tmp_path, dt=0.2 * (1.0 / 4.0) ** 2)
        assert run_cli(["flow", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL

    def test_run_record_of_a_numerical_abort(self, tmp_path):
        # dt 0.0125 is above the CFL bound 1/256 of the resolution-5 box
        cfg = self.make_config(tmp_path, dt=0.0125)
        out = tmp_path / "out"
        assert run_cli(["flow", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]
        rec = json.loads((out / "run.json").read_text())
        assert set(rec) == {"hymkit", "python", "numpy", "threads", "resolution", "steps",
                            "exit_code", "error", "seconds", "peak_rss_mib"}
        assert isinstance(rec["peak_rss_mib"], float) and rec["peak_rss_mib"] > 0
        assert set(rec["threads"]) == set(cli.THREAD_VARIABLES)
        assert (rec["resolution"], rec["steps"], rec["exit_code"]) == \
            (5, 60, cli.EXIT_NUMERICAL)
        assert "above CFL bound" in rec["error"]
        assert set(rec["seconds"]) == {"build_domain", "run"}
        assert all(isinstance(v, float) and v >= 0 for v in rec["seconds"].values())

    def test_degenerate_box_numerical_abort(self, tmp_path):
        # a last interval of width 1e-300 gives zero spacing squares (a zero
        # CFL dt and a NaN metric): a config error, rejected before any step
        box = [[1.0, 2.0]] + [[-0.5, 0.5]] * 4 + [[0.0, 1e-300]]
        cfg = self.make_config(tmp_path, box=box, steps=20)
        assert run_cli(["flow", str(cfg)]) == cli.EXIT_USAGE

    def test_huge_barrier_node_count_usage_error(self, tmp_path, capsys):
        # 1e10 barrier nodes passed the config and asked numpy for 447 GiB
        # of indices: exit 1 with a MemoryError traceback
        cfg = self.make_config(tmp_path, n_barrier_nodes=10_000_000_000)
        tracemalloc.start()
        try:
            code = run_cli(["flow", str(cfg), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "n_barrier_nodes" in err and "Traceback" not in err
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"steps": "ten"}, {"steps": 0}, {"steps": 2.5}, {"monitor_cadence": 0},
        {"n_barrier_nodes": 0}, {"n_barrier_nodes": 730}, {"resolution": True}, {"resolution": 4},
        {"resolution": 100}, {"dt": -0.001}, {"dt": 0}, {"dt": "0.001"},
        {"seed": -1}, {"barrier_constant": "2"}, {"box": [[0.5, 2.0]] + [[-0.5, 0.5]] * 5},
    ], ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items())[:40])
    def test_invalid_config_usage_error(self, tmp_path, overrides):
        cfg = self.make_config(tmp_path, **overrides)
        assert run_cli(["flow", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", sorted(INVALID_FLOW_FIELDS) + ["unknown key", "document"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_invalid_config_usage_error(self, kind, data):
        # one field (or the whole document) is invalid, so the config is
        # rejected before any flow step
        doc = {"resolution": 5, "steps": 2, "monitor_cadence": 1, "n_barrier_nodes": 1}
        if kind == "document":
            doc = data.draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                                      st.text(max_size=4), st.none(), st.floats()))
        elif kind == "unknown key":
            key = data.draw(st.text(max_size=6).filter(
                lambda k: k not in FlowConfig.__dataclass_fields__))
            doc[key] = data.draw(st.integers())
        else:
            doc[kind] = data.draw(INVALID_FLOW_FIELDS[kind])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.json"
            path.write_text(json.dumps(doc))
            code = run_cli(["flow", str(path), "--out", str(Path(tmp) / "out")])
            assert code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE, cli.EXIT_USAGE,
                            cli.EXIT_NUMERICAL)
            assert code == cli.EXIT_USAGE, (doc, code)
            assert not (Path(tmp) / "out").exists()

    def test_flow_deterministic(self, tmp_path):
        cfg = self.make_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for out in (d1, d2):
            run_cli(["flow", str(cfg), "--out", str(out)])
        assert (d1 / "history.csv").read_bytes() == (d2 / "history.csv").read_bytes()
        assert (d1 / "checkpoint.bin").read_bytes() == (d2 / "checkpoint.bin").read_bytes()


class TestReport:
    def test_merge(self, tmp_path):
        rep = {"suite": "demo", "checks": [
            {"name": "a", "value": 1.0, "bound": 2.0, "mode": "le", "pass": True}],
            "growth_table": [
            {"label": "t3", "d_origin": 1.0, "d_infinity": 0.0}]}
        src = tmp_path / "verify_demo.json"
        src.write_text(json.dumps(rep))
        out = tmp_path / "merged"
        assert run_cli(["report", str(src), "--out", str(out)]) == cli.EXIT_PASS
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "suite,check,value,bound,mode,status"
        assert lines[1].startswith("demo,a,1,2,le,pass")
        growth_lines = (out / "growth_table.csv").read_text().strip().split("\n")
        assert growth_lines[1] == "t3,1,0"

    def test_growth_table_from_verify_run(self, tmp_path):
        assert run_cli(["verify", "growth", "--seed", "0", "--samples", "1024",
                        "--out", str(tmp_path)]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "verify_growth.json").read_text())
        table = report["growth_table"]
        assert [r["label"] for r in table] == ["t1", "t2", "t3"]
        out = tmp_path / "merged"
        assert run_cli(["report", str(tmp_path / "verify_growth.json"),
                        "--out", str(out)]) == cli.EXIT_PASS
        lines = (out / "growth_table.csv").read_text().strip().split("\n")
        assert lines[0] == "section,d_origin,d_infinity"
        rows = [line.split(",") for line in lines[1:]]
        assert [(lbl, float(d0), float(di)) for lbl, d0, di in rows] == \
            [(r["label"], r["d_origin"], r["d_infinity"]) for r in table]
        # t3 vanishes to first order at the origin and is bounded at infinity
        assert abs(float(rows[2][1]) - 1.0) <= 0.05 and abs(float(rows[2][2])) <= 0.05

    def test_empty_inputs_ok(self, tmp_path):
        out = tmp_path / "merged"
        assert run_cli(["report", "--out", str(out)]) == cli.EXIT_PASS
        assert (out / "report.csv").read_text().strip() == \
            "suite,check,value,bound,mode,status"

    def test_corrupt_input_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{{")
        assert run_cli(["report", str(bad)]) == cli.EXIT_USAGE

    def test_out_naming_a_file_usage_error(self, tmp_path, capsys):
        src = tmp_path / "verify_demo.json"
        src.write_text(json.dumps({"suite": "demo", "checks": []}))
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(["report", str(src), "--out", str(out)]) == cli.EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == ""

    @pytest.mark.parametrize("doc", [
        [{"name": "a", "value": 1.0, "bound": 2.0, "mode": "le", "pass": True}],
        {"checks": [{"value": 1.0, "bound": 2.0, "mode": "le", "pass": True}]},
        {"checks": [{"name": "a", "value": "one", "bound": 2.0, "mode": "le",
                     "pass": True}]},
        {"checks": [{"name": "x", "value": 1.0, "bound": 2.0, "mode": "sideways",
                     "pass": "no"}]},
        {"checks": [{"name": "a", "value": 1.0, "bound": 2.0, "mode": "le", "pass": 1}]},
        {"checks": [{"name": "a", "value": 1.0, "bound": 2.0, "mode": "lt",
                     "pass": True}]},
    ], ids=["top-level-list", "check-without-name", "non-numeric-value",
            "string-pass-and-unknown-mode", "integer-pass", "unknown-mode"])
    def test_json_that_is_not_a_report_usage_error(self, tmp_path, capsys, doc):
        good = tmp_path / "verify_good.json"
        good.write_text(json.dumps({"suite": "good", "checks": [
            {"name": "a", "value": 1.0, "bound": 2.0, "mode": "le", "pass": True}]}))
        bad = tmp_path / "verify_bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "merged"
        assert run_cli(["report", str(good), str(bad), "--out", str(out)]) == cli.EXIT_USAGE
        assert str(bad) in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []


def test_potential_weak_checks_catch_a_one_percent_constant(monkeypatch):
    # a Laplacian constant 1.01 times too large moves each weak-form ratio by
    # about 1e-2: the suite's bound max(1e-3, 2 stderr) fails all three
    # checks, which a bound of 0.1 would pass; the envelope is stubbed out
    from hymkit import potential as pot
    monkeypatch.setattr(pot, "LAPLACIAN_CONSTANT", 1.01 * pot.LAPLACIAN_CONSTANT)
    monkeypatch.setattr(pot, "barrier_envelope_check",
                        lambda points, mc: {"sup": 0.0, "g_min": 1.0})
    checks, _ = cli.suite_potential(cli.RunConfig(seed=0))
    weak = [c for c in checks if c["name"].startswith("laplacian_ratio_dev_")]
    assert len(weak) == 3
    assert not any(c["pass"] for c in weak)
    assert all(0.005 < c["value"] <= 0.1 for c in weak)


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "hymkit", "verify", "bogus"],
                         capture_output=True, text=True)
    assert out.returncode == cli.EXIT_USAGE


def test_no_command_prints_help(capsys):
    assert run_cli([]) == cli.EXIT_USAGE


class TestRunAllVerifications:
    def load(self):
        import importlib.util
        from pathlib import Path
        path = Path(__file__).parents[1] / "scripts" / "run_all_verifications.py"
        spec = importlib.util.spec_from_file_location("run_all_verifications", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("codes,expected", [
        ([0] * 7, cli.EXIT_PASS),
        ([1, 0, 2, 0, 0, 0, 0], cli.EXIT_USAGE),
        ([0, 1, 0, 0, 0, 1, 0], cli.EXIT_CHECK_FAILURE),
        ([2, 0, 0, 3, 0, 1, 0], cli.EXIT_NUMERICAL),
    ])
    def test_reports_most_severe_exit_code(self, tmp_path, monkeypatch, codes,
                                           expected):
        # seven calls: five verify suites, the flow, the report
        module = self.load()
        calls = []

        def fake_main(argv):
            calls.append(argv[0])
            return codes[len(calls) - 1]

        monkeypatch.setattr(module, "hymkit_main", fake_main)
        assert module.run([str(tmp_path)]) == expected
        assert calls == ["verify"] * 5 + ["flow", "report"]

    @pytest.mark.parametrize("seed_args", [["--seed"], ["--seed", "x"],
                                           ["--seed", "-1"]])
    def test_bad_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                       seed_args):
        module = self.load()
        calls = []

        def fake_main(argv):
            calls.append(argv[0])
            return cli.EXIT_PASS

        monkeypatch.setattr(module, "hymkit_main", fake_main)
        assert module.run([str(tmp_path / "out"), *seed_args]) == cli.EXIT_USAGE
        assert calls == []
        assert not (tmp_path / "out").exists()
        assert "--seed" in capsys.readouterr().err


def test_decay_profile_script(tmp_path, capsys):
    # the script runs curvature_batch down to r = 0.01 on three rays, where
    # the singular-point rule must not fire
    import csv
    import importlib.util
    from pathlib import Path
    path = Path(__file__).parents[1] / "scripts" / "decay_profile.py"
    spec = importlib.util.spec_from_file_location("decay_profile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "out.csv"
    assert module.main([out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 180
    for col in ("curvature_norm", "mean_curvature_norm", "weight"):
        vals = np.array([float(row[col]) for row in rows])
        assert np.all(np.isfinite(vals) & (vals > 0)), col
