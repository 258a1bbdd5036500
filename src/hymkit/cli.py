"""Batch entry point: verification suites, the heat flow, report merging.

Subcommands:

    hymkit verify <suite> [--seed N] [--samples N] [--out DIR]
    hymkit flow <config.json> [--out DIR]
    hymkit report <file...> [--out DIR]

Suites: adhm, ansatz, potential, cone, growth.  Exit codes: 0 all checks
pass, 1 check failure, 2 usage or config error (an unusable --out, or a
report input that is not a verify report, included), 3 numerical abort.  The
growth suite's report also holds its degree table, which ``report`` writes
to growth_table.csv.
Fixed seed implies byte-identical JSON/CSV outputs on one platform, except
the run records, which hold timings and the peak resident memory
(``peak_rss_mib``): ``run_<suite>.json`` next to each ``verify_<suite>.json``
and ``run.json`` next to the flow's history.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# thread-count variables of the BLAS and OpenMP runtimes, kept in the run records
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class RunConfig:
    """A suite's settings, its sample count and its checks' wall seconds."""

    seed: int = 0
    samples: int | None = None
    out_dir: Path = Path(".")
    sample_count: int | None = None
    seconds: dict = field(default_factory=dict)
    _mark: float = field(default_factory=time.perf_counter, repr=False)

    def n_samples(self, default: int) -> int:
        """--samples, or the suite's ``default`` when it is not given."""
        self.sample_count = self.samples or default
        return self.sample_count

    def check(self, name, value, bound, mode="le") -> dict:
        """A check's record.  Its producer ran since the previous check (or
        since the suite started); that time goes to ``seconds[name]``."""
        now = time.perf_counter()
        self.seconds[name], self._mark = now - self._mark, now
        value = float(value)
        ok = value <= bound if mode == "le" else value >= bound
        return {"name": name, "value": value, "bound": float(bound),
                "mode": mode, "pass": bool(ok)}


def _provenance() -> dict:
    """Versions and thread variables, the head of every run record."""
    from . import __version__

    return {"hymkit": __version__, "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def _peak_rss_mib() -> float:
    """The process's peak resident set so far, in MiB (``ru_maxrss`` is in
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _out_dir(path) -> Path | None:
    """The ``--out`` directory, created if it is missing; None, with a
    message, when it cannot be (a file of that name, say)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"--out {path} is not a usable directory: {exc}", file=sys.stderr)
        return None
    return Path(path)


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# suites


def suite_adhm(cfg: RunConfig) -> tuple:
    from . import adhm
    from . import monads as mo

    rng = np.random.default_rng(cfg.seed)
    n_pts = cfg.n_samples(100)
    checks = []
    datasets = [adhm.ADHMData(1, 0, 0, 1)] + \
        [adhm.random_valid_data(rng) for _ in range(4)]
    worst_an = 0.0
    for d in datasets:
        spec = adhm.instanton_monad(d)
        pts = rng.standard_normal((n_pts, 4)) * 1.5
        pts = pts[:, :2] + 1j * pts[:, 2:]
        data = mo.curvature_batch(spec, pts, fields=("norm_mean",))
        worst_an = max(worst_an, float(data["norm_mean"].max()))
    checks.append(cfg.check("asd_residual_analytic", worst_an, 1e-9))
    spec_fd = adhm.strip_analytic_derivatives(adhm.instanton_monad(datasets[0]))
    pts = rng.standard_normal((10, 4))
    data = mo.curvature_batch(spec_fd, pts[:, :2] + 1j * pts[:, 2:], fields=("norm_mean",))
    worst_fd = float(data["norm_mean"].max())
    checks.append(cfg.check("asd_residual_fd", worst_fd, 1e-6))
    q = adhm.charge(adhm.ADHMData(1, 0, 0, 1))
    checks.append(cfg.check("charge_error", abs(q - 1.0), 0.02))
    nf = adhm.framed_moduli_point(adhm.ADHMData(2, 0, 0, 2))
    checks.append(cfg.check("moduli_label_error", abs(nf.z2_label - 2.0), 1e-12))
    return checks, {}


# weight_ratio_sup is a sup over the sample; at one point it reads 1.01-1.99
# against the regression-locked 2.0, from 100 points on at least 1.9997
ANSATZ_MIN_SAMPLES = 100

# --samples is bounded so that a suite's arrays stay within the budget: the
# bytes per sample are each suite's tracemalloc peak growth per sample (per
# weak-check ball node for potential) between 1e5 and 4e5 samples (growth
# 4e4 and 1.6e5, potential 2e4 and 6e4), rounded up
SAMPLE_BUDGET_BYTES = 1 << 30
SAMPLE_BYTES = {"adhm": 80, "ansatz": 160, "cone": 160, "growth": 272, "potential": 192}


def suite_ansatz(cfg: RunConfig) -> tuple:
    from . import ansatz

    checks = []
    lhs, rhs = ansatz.cancellation([1.0, 0, 0])
    checks.append(cfg.check("cancellation_spot_lhs", abs(lhs + 0.41421356), 1e-6))
    checks.append(cfg.check("cancellation_spot_rhs", abs(rhs - 0.5), 1e-12))
    n_pts = cfg.n_samples(10_000)
    sup = ansatz.weight_ratio_sup(n_pts, seed=cfg.seed)
    checks.append(cfg.check("weight_ratio_sup", sup, 2.6))
    d1 = ansatz.decay_slope([1, 1, 0], np.geomspace(10, 1000, 25))
    checks.append(cfg.check("generic_decay_slope_error", abs(d1 + 3.0), 0.1))
    d2 = ansatz.decay_slope([1, 0, 0], np.geomspace(1e-3, 0.1, 25))
    checks.append(cfg.check("origin_decay_slope_error", abs(d2 + 2.0), 0.15))
    sups = {}
    for zeta in (100.0, 400.0, 1600.0):
        sups[zeta] = ansatz.instanton_comparison(zeta, seed=cfg.seed)["scaled_sup"]
    spread = max(sups.values()) / min(sups.values())
    checks.append(cfg.check("bubbling_scaled_spread", spread, 2.0))
    lbl = ansatz.fueter_map(4.0, root=2.0).z2_label
    lbl2 = ansatz.fueter_map(4.0, root=-2.0).z2_label
    checks.append(cfg.check("fueter_root_gap", abs(lbl - lbl2), 1e-9))
    return checks, {}


def suite_potential(cfg: RunConfig) -> tuple:
    from . import potential as pot
    from .ansatz import sample_log_uniform

    checks = []
    mc = pot.MCParams(samples_per_shell=cfg.n_samples(2000), seed=cfg.seed)
    for i, (center, rad) in enumerate((([10.0, 0, 0], 1.0),
                                       ([0, 0, 50.0], 2.0),
                                       ([5.0, 3.0, -4.0], 1.0))):
        wc = pot.laplacian_weak_check(center, rad, mc, seed=cfg.seed + i)
        tol = max(1e-3, 2.0 * wc["stderr"])
        checks.append(cfg.check(f"laplacian_ratio_dev_{i}", abs(wc["ratio"] - 1.0), tol))
    rng = np.random.default_rng(cfg.seed)
    pts = [sample_log_uniform(rng, 200, 1.0, 1000.0)]
    # the z-axis vicinity (log-branch of the envelope) and the transition
    # zone |x|+|y| ~ |p|/3 where the ratio field peaks
    zs = np.geomspace(2.0, 1000.0, 30)
    phases = np.exp(2j * np.pi * rng.random(30))
    pts.append(np.stack([0.1 * np.sqrt(zs) * phases,
                         np.zeros(30, dtype=complex), zs + 0j], axis=-1))
    radii = np.array([10.0, 30.0, 100.0, 300.0, 1000.0])
    fracs = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    rg, cg = np.meshgrid(radii, fracs, indexing="ij")
    ph = np.exp(2j * np.pi * rng.random(rg.size)).reshape(rg.shape)
    pts.append(np.stack([cg * rg * ph, np.zeros_like(rg, dtype=complex),
                         rg * np.sqrt(1.0 - cg**2) + 0j], axis=-1).reshape(-1, 3))
    env = pot.barrier_envelope_check(np.vstack(pts),
                                     pot.MCParams(samples_per_shell=6000,
                                                  seed=cfg.seed))
    checks.append(cfg.check("envelope_sup", env["sup"], 175.0))
    checks.append(cfg.check("g_min", env["g_min"], 0.0, mode="ge"))
    return checks, {}


def suite_cone(cfg: RunConfig) -> tuple:
    from . import ansatz
    from . import monads as mo

    rng = np.random.default_rng(cfg.seed)
    pts = ansatz.sample_log_uniform(rng, cfg.n_samples(50), 0.3, 3.0)
    res = ansatz.cone_hym_residual(pts)
    checks = [cfg.check("cone_hym_residual", float(res.max()), 1e-8)]
    rep = mo.curvature(ansatz.flat_metric_cone_monad(), [0, 0, 1.0])
    checks.append(cfg.check("flat_metric_control", rep["norm_mean"], 0.01, mode="ge"))
    return checks, {}


def suite_growth(cfg: RunConfig) -> tuple:
    from . import growth

    checks = []
    t1, t2, t3 = (growth.KoszulSection.generator(i) for i in (1, 2, 3))
    n = cfg.n_samples(4096)
    tab = growth.filtration_table([t1, t2, t3], n_samples=n, seed=cfg.seed)
    d0, di = tab["rows"][2]["d_origin"], tab["rows"][2]["d_infinity"]  # t3's degrees
    checks.append(cfg.check("t3_origin_degree_error", abs(d0 - 1.0), 0.05))
    checks.append(cfg.check("t3_infinity_degree_error", abs(di), 0.05))
    checks.append(cfg.check("filtrations_differ", 1.0 if tab["filtrations_differ"]
                            else 0.0, 1.0, mode="ge"))
    zt3 = t3.times(growth.Poly3.monomial(0, 0, 1), "z*t3")
    diz = growth.growth_degree(zt3, "infinity", n_samples=n, seed=cfg.seed)
    checks.append(cfg.check("degree_shift_error", abs(diz - di - 1.0), 0.07))
    cx = growth.convexity_check(t3, seed=cfg.seed)
    checks.append(cfg.check("t3_convexity_residual", cx["residual"],
                            -2.0 * cx["stderr"], mode="ge"))
    return checks, {"growth_table": [{key: r[key] for key in ("label", "d_origin", "d_infinity")}
                                     for r in tab["rows"]]}


# each suite returns its checks and the tables its report also holds
SUITES = {
    "adhm": suite_adhm,
    "ansatz": suite_ansatz,
    "potential": suite_potential,
    "cone": suite_cone,
    "growth": suite_growth,
}


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return EXIT_USAGE
    least = ANSATZ_MIN_SAMPLES if args.suite == "ansatz" else 1
    most = SAMPLE_BUDGET_BYTES // SAMPLE_BYTES[args.suite]
    if args.samples is not None and not least <= args.samples <= most:
        rule = f"at least {least}" if args.samples < least else f"at most {most}"
        print(f"--samples for the {args.suite} suite must be {rule}, "
              f"got {args.samples}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"--seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite == "potential" and args.samples is not None:
        from .potential import MCParams
        try:
            MCParams(samples_per_shell=args.samples)
        except ValueError as exc:
            print(f"--samples for the potential suite: {exc}", file=sys.stderr)
            return EXIT_USAGE
    out_dir = _out_dir(args.out)
    if out_dir is None:
        return EXIT_USAGE
    cfg = RunConfig(seed=args.seed, samples=args.samples, out_dir=out_dir)
    try:
        checks, tables = SUITES[args.suite](cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        checks, code = None, EXIT_NUMERICAL
    if checks is not None:
        report = {"suite": args.suite, "seed": args.seed,
                  "samples": cfg.samples, "checks": checks,
                  "pass": all(c["pass"] for c in checks), **tables}
        out_path = cfg.out_dir / f"verify_{args.suite}.json"
        _write_json(out_path, report)
        for c in checks:
            status = "pass" if c["pass"] else "FAIL"
            print(f"[{status}] {c['name']}: {c['value']:.6g} "
                  f"({'<=' if c['mode'] == 'le' else '>='} {c['bound']:.6g})")
        print(f"report written to {out_path}")
        code = EXIT_PASS if report["pass"] else EXIT_CHECK_FAILURE
    # the run record: the checks timed before an abort, if there was one
    _write_json(cfg.out_dir / f"run_{args.suite}.json",
                {**_provenance(), "suite": args.suite, "seed": args.seed,
                 "samples": cfg.sample_count, "exit_code": code,
                 "seconds": cfg.seconds, "peak_rss_mib": _peak_rss_mib()})
    return code


def cmd_flow(args) -> int:
    """Run the flow; write history.csv, the checkpoint and run.json, the run
    record: versions, thread variables, grid, the exit code, dt, path, the
    first step with sup <= 1e-12 sup0 and the seconds of each stage.  After
    a numerical abort run.json is the one output: the exit code, the error
    and the seconds of the stages up to the abort."""
    from . import flow as fl

    try:
        cfg = fl.FlowConfig.from_json(args.config)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = _out_dir(args.out)
    if out_dir is None:
        return EXIT_USAGE
    record = {**_provenance(), "resolution": cfg.resolution, "steps": cfg.steps}
    start = time.perf_counter()
    seconds = {}
    try:
        dom = fl.build_domain(cfg.box, cfg.resolution,
                              n_barrier_nodes=cfg.n_barrier_nodes, seed=cfg.seed)
        seconds["build_domain"] = time.perf_counter() - start
        state = fl.run(dom, cfg.steps, dt=cfg.dt,
                       monitor_cadence=cfg.monitor_cadence)
    except (fl.PositivityError, ValueError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        # the stage that aborted, timed up to the abort
        seconds["run" if seconds else "build_domain"] = \
            time.perf_counter() - start - sum(seconds.values())
        _write_json(out_dir / "run.json", {**record, "exit_code": EXIT_NUMERICAL,
                                           "error": str(exc), "seconds": seconds,
                                           "peak_rss_mib": _peak_rss_mib()})
        return EXIT_NUMERICAL
    ran = time.perf_counter()
    fl.write_history_csv(state, out_dir / "history.csv")
    fl.save_checkpoint(state, out_dir / "checkpoint.bin")
    sups = [row[2] for row in state.history]
    ratio = sups[-1] / sups[0] if sups[0] > 0 else 0.0
    code = EXIT_PASS if ratio <= 0.5 else EXIT_CHECK_FAILURE
    record.update({
        "exit_code": code,
        "dt": dom.cfl_bound() if cfg.dt is None else cfg.dt, "cfl_bound": dom.cfl_bound(),
        "path": "block" if state.table.dst.size else "interior",
        "table_nodes": int(state.table.nodes.size),
        "converge_step": next((row[0] for row in state.history
                               if row[2] <= 1e-12 * sups[0]), None),
        "seconds": {**seconds, **state.seconds,
                    "io": time.perf_counter() - ran},
        "peak_rss_mib": _peak_rss_mib(),
    })
    _write_json(out_dir / "run.json", record)
    print(f"flow: {cfg.steps} steps, sup |iLamF| {sups[0]:.4g} -> {sups[-1]:.4g} "
          f"(ratio {ratio:.3g})")
    print(f"history and checkpoint written to {out_dir}")
    return code


def cmd_report(args) -> int:
    """Merge verify reports into report.csv (and growth_table.csv); a file
    that is not a verify report is a usage error, and no CSV is written."""
    out_dir = _out_dir(args.out)
    if out_dir is None:
        return EXIT_USAGE
    rows = []
    growth_rows = []
    for path in args.inputs:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            suite = data.get("suite", Path(path).stem)
            for c in data.get("checks", []):
                if not isinstance(c["pass"], bool) or c["mode"] not in ("le", "ge"):
                    raise ValueError(f"check {c['name']!r} needs a boolean 'pass' and "
                                     f"a 'mode' of 'le' or 'ge'")
                rows.append([suite, c["name"], format(c["value"], ".17g"),
                             format(c["bound"], ".17g"), c["mode"],
                             "pass" if c["pass"] else "fail"])
            for r in data.get("growth_table", []):
                growth_rows.append([r["label"], format(r["d_origin"], ".17g"),
                                    format(r["d_infinity"], ".17g")])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            print(f"{path} is not a verify report: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    out_path = out_dir / "report.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "check", "value", "bound", "mode", "status"])
        writer.writerows(rows)
    if growth_rows:
        with open(out_dir / "growth_table.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["section", "d_origin", "d_infinity"])
            writer.writerows(growth_rows)
    print(f"merged {len(rows)} checks into {out_path}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hymkit",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command")
    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--out", default=".")
    pv.set_defaults(func=cmd_verify)
    pf = sub.add_parser("flow", help="run the Dirichlet heat flow")
    pf.add_argument("config")
    pf.add_argument("--out", default=".")
    pf.set_defaults(func=cmd_flow)
    pr = sub.add_parser("report", help="merge JSON reports into CSV tables")
    pr.add_argument("inputs", nargs="*")
    pr.add_argument("--out", default=".")
    pr.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
