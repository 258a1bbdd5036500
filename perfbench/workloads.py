"""The two benchmark workloads: seeded inputs, the timed calls, output checks.

Each workload runs one pass inside a fresh Python process (see worker.py):

    inputs = wl.prepare(seed, out_dir, smoke)   # part of set-up
    calls = wl.run(inputs)                      # timed closed loop
    ops, fingerprint, units = wl.check(inputs, calls)

``run`` returns one record per timed call, ``(label, seconds, result)``; the
call latencies are the percentiles ``call_ms_p50`` and ``call_ms_p99``.
``check`` turns the records and the files the program wrote into one
operation result per top-level call (``{"op", "ok", "detail"}``), a
fingerprint of the outputs for the determinism guard, and the count of work
units that ``ops_per_s`` divides by the call time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import traceback
from pathlib import Path
from time import perf_counter as _now

import numpy as np

from hymkit import ansatz, cli, flow, potential
# imported so that set-up covers every module a pass can touch
from hymkit import adhm, geometry, growth, monads  # noqa: F401

# Program seeds are non-negative and below 2**31, whatever the benchmark seed.
SEED_MODULUS = 2**31

# Converged: sup |i Lambda F| at most this fraction of its value at step 0.
FLOW_CONVERGED_FRAC = 1e-12


def program_seed(seed: int) -> int:
    return int(seed) % SEED_MODULUS


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def call_cli(argv):
    """Exit code of ``hymkit <argv>`` run in this process, console output
    discarded.  A traceback is exit code 1, as from the command line."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code
        except Exception:
            traceback.print_exc()
            return 1


def _bound_ok(value, rule) -> bool:
    """rule: ("le", b), ("ge", b) or ("near", target, rel)."""
    if value is None or not math.isfinite(value):
        return False
    if rule[0] == "le":
        return value <= rule[1]
    if rule[0] == "ge":
        return value >= rule[1]
    return abs(value - rule[1]) <= rule[2] * abs(rule[1])


# ---------------------------------------------------------------------------
# verify suites

# Acceptance values each verify report must show, independent of the bounds
# the program writes into its own report.  None: the check must be present
# and pass, with no further bound.
VERIFY_EXPECT = {
    "adhm": {"asd_residual_analytic": ("le", 1e-9),
             "asd_residual_fd": ("le", 1e-6),
             "charge_error": ("le", 0.02),
             "moduli_label_error": ("le", 1e-12)},
    "ansatz": {"cancellation_spot_lhs": ("le", 1e-6),
               "cancellation_spot_rhs": ("le", 1e-12),
               "weight_ratio_sup": ("near", 2.0, 0.10),
               "generic_decay_slope_error": ("le", 0.1),
               "origin_decay_slope_error": ("le", 0.15),
               "bubbling_scaled_spread": ("le", 2.0),
               "fueter_root_gap": ("le", 1e-9)},
    "cone": {"cone_hym_residual": ("le", 1e-8),
             "flat_metric_control": ("ge", 0.01)},
    "growth": {"t3_origin_degree_error": ("le", 0.05),
               "t3_infinity_degree_error": ("le", 0.05),
               "filtrations_differ": ("ge", 1.0),
               "degree_shift_error": ("le", 0.07),
               "t3_convexity_residual": None},
    # the criterion allows max(0.1, 2 stderr); at the default sample counts
    # 2 stderr stays below 0.1, so the benchmark holds the fixed 0.1
    "potential": {"laplacian_ratio_dev_0": ("le", 0.1),
                  "laplacian_ratio_dev_1": ("le", 0.1),
                  "laplacian_ratio_dev_2": ("le", 0.1),
                  "envelope_sup": ("le", 175.0),
                  "g_min": ("ge", 0.0)},
}


def check_verify_report(suite: str, rc, path) -> tuple[bool, str]:
    """Exit code 0, every check passed, every acceptance value in range."""
    if rc != 0:
        return False, f"exit code {rc}"
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return False, f"unreadable report: {exc}"
    checks = {c.get("name"): c for c in report.get("checks", [])}
    bad = [n for n, c in checks.items() if not c.get("pass")]
    if bad or not report.get("pass"):
        return False, f"failed checks {bad}"
    for name, rule in VERIFY_EXPECT[suite].items():
        if name not in checks:
            return False, f"missing check {name}"
        if rule is not None and not _bound_ok(checks[name].get("value"), rule):
            return False, f"{name}={checks[name].get('value')!r} outside {rule}"
    return True, ""


def _laplacian_dev(center, radius, mc, seed):
    return abs(potential.laplacian_weak_check(center, radius, mc, seed=seed)["ratio"] - 1.0)


def _envelope(p, mc):
    env = potential.barrier_envelope_check(p[None, :], mc)
    # a negative G fails the call whatever its envelope ratio
    return env["sup"] if env["g_min"] >= 0.0 else math.inf


# (center, radius) of the weak-form Laplacian checks of the potential suite
WEAK_CHECKS = (([10.0, 0, 0], 1.0), ([0, 0, 50.0], 2.0), ([5.0, 3.0, -4.0], 1.0))


def potential_calls(seed, smoke):
    """The potential suite's calls, one envelope point per call.

    Its three weak-form Laplacian checks, then 18 of its 255 envelope
    points, drawn as the suite draws them: log-uniform in 1 <= |w| <= 1000,
    near the z-axis, and across the transition zone, each with the seed the
    suite's envelope check gives its i-th point.  Every ``eval_G`` draws a
    fixed number of samples, so the cost does not depend on the seed.
    Returns ``(label, function, args, upper bound)`` records; the bounds are
    the suite's acceptance values.
    """
    s = program_seed(seed)
    rng = np.random.default_rng(s)
    n_log, n_z, n_tr = (1, 1, 1) if smoke else (10, 4, 4)
    calls = []
    for i, (center, radius) in enumerate(WEAK_CHECKS[:1] if smoke else WEAK_CHECKS):
        mc = potential.MCParams(samples_per_shell=2000, seed=s)
        calls.append(("laplacian", _laplacian_dev, (center, radius, mc, s + i), 0.1))
    pts = [ansatz.sample_log_uniform(rng, n_log, 1.0, 1000.0)]
    zs = np.exp(rng.uniform(np.log(2.0), np.log(1000.0), n_z))
    phases = np.exp(2j * np.pi * rng.random(n_z))
    pts.append(np.stack([0.1 * np.sqrt(zs) * phases,
                         np.zeros(n_z, dtype=complex), zs + 0j], axis=-1))
    rad = np.exp(rng.uniform(np.log(10.0), np.log(1000.0), n_tr))
    frac = rng.uniform(0.1, 0.5, n_tr)
    ph = np.exp(2j * np.pi * rng.random(n_tr))
    pts.append(np.stack([frac * rad * ph, np.zeros_like(ph),
                         rad * np.sqrt(1.0 - frac**2) + 0j], axis=-1))
    for i, p in enumerate(np.vstack(pts)):
        mc = potential.MCParams(samples_per_shell=6000, seed=s + 104729 * i)
        calls.append(("envelope", _envelope, (p, mc), 175.0))
    return calls


class VerifyWorkload:
    """``hymkit verify adhm``, ``ansatz``, ``cone`` and ``growth`` as one
    request, then the potential suite's calls (see ``potential_calls``).

    The suites keep their default sizes, because their acceptance values
    depend on them; the whole potential suite (16 s) would make a pass too
    long for several passes to fit in a run.
    """

    name = "verify"
    SUITES = ("adhm", "ansatz", "cone", "growth")

    def n_ops(self, smoke: bool) -> int:
        return len(self.SUITES) + (4 if smoke else len(WEAK_CHECKS) + 18)

    def prepare(self, seed, out_dir: Path, smoke: bool):
        s = str(program_seed(seed))
        return {"out": out_dir,
                "argv": [(suite, ["verify", suite, "--seed", s, "--out", str(out_dir)])
                         for suite in self.SUITES],
                "potential": potential_calls(seed, smoke)}

    def run(self, inputs):
        # one timed call for the suites, in order, as one verification request
        t = _now()
        rcs = [(suite, call_cli(argv)) for suite, argv in inputs["argv"]]
        records = [("verify", _now() - t, rcs)]
        for label, fn, args, _ in inputs["potential"]:
            t = _now()
            try:
                value = float(fn(*args))
            except Exception as exc:  # a raising call is a failed operation
                value = exc
            records.append((label, _now() - t, value))
        return records

    def check(self, inputs, calls):
        ops, fingerprint, units = [], {}, 0
        for suite, rc in calls[0][2]:
            path = inputs["out"] / f"verify_{suite}.json"
            ok, detail = check_verify_report(suite, rc, path)
            ops.append({"op": f"verify {suite}", "ok": ok, "detail": detail})
            if path.exists():
                fingerprint[path.name] = sha256_file(path)
                with open(path) as fh:
                    units += len(json.load(fh).get("checks", []))
        digest = hashlib.sha256()
        for (label, _, value), (_, _, _, bound) in zip(calls[1:], inputs["potential"]):
            if isinstance(value, Exception):
                ops.append({"op": label, "ok": False, "detail": repr(value)})
                digest.update(b"error")
                continue
            ok = _bound_ok(value, ("le", bound))
            ops.append({"op": label, "ok": ok,
                        "detail": "" if ok else f"{label} value {value!r} above {bound!r}"})
            digest.update(float(value).hex().encode())
        fingerprint["potential_values"] = digest.hexdigest()
        return ops, fingerprint, units + len(calls) - 1


# ---------------------------------------------------------------------------
# heat flow


def history_converge_step(rows) -> int | None:
    """First history step with sup |i Lambda F| <= 1e-12 sup0, or None."""
    sup0 = rows[0][1]
    for step, sup in rows:
        if sup <= FLOW_CONVERGED_FRAC * sup0:
            return step
    return None


def read_history(path):
    with open(path, newline="") as fh:
        return [(int(r["step"]), float(r["sup_mean_curvature"]))
                for r in csv.DictReader(fh)]


def check_flow_outputs(cfg: dict, rc, out_dir: Path) -> tuple[bool, str, int | None]:
    """Exit 0, converged, boundary bit-identical to a fresh H0, H positive."""
    if rc != 0:
        return False, f"exit code {rc}", None
    try:
        rows = read_history(out_dir / "history.csv")
        raw = np.fromfile(out_dir / "checkpoint.bin", dtype="<f8")
    except (OSError, KeyError, ValueError) as exc:
        return False, f"unreadable output: {exc}", None
    if not rows:
        return False, "empty history", None
    conv = history_converge_step(rows)
    if rows[-1][0] != cfg["steps"] or rows[-1][1] > FLOW_CONVERGED_FRAC * rows[0][1]:
        return False, f"not converged: final {rows[-1]} from sup0 {rows[0][1]}", conv
    dom = flow.build_domain(cfg["box"], cfg["resolution"],
                            n_barrier_nodes=cfg["n_barrier_nodes"], seed=cfg["seed"])
    if raw.size != 8 * dom.n_nodes:
        return False, f"checkpoint holds {raw.size} reals, expected {8 * dom.n_nodes}", conv
    raw = raw.reshape(dom.shape + (8,))
    h0 = dom.h0
    expect = np.stack([h0[..., 0, 0].real, h0[..., 1, 1].real,
                       h0[..., 0, 1].real, h0[..., 0, 1].imag], axis=-1)
    boundary = np.ones(dom.shape, dtype=bool)
    boundary[dom.interior] = False
    got = np.ascontiguousarray(raw[boundary][:, :4])
    want = np.ascontiguousarray(expect[boundary])
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        return False, "boundary differs from a freshly built H0", conv
    det = raw[..., 0] * raw[..., 1] - raw[..., 2] ** 2 - raw[..., 3] ** 2
    if not (np.all(raw[..., 0] > 0) and np.all(det > 0)):
        return False, "H not positive at every node", conv
    return True, "", conv


class FlowWorkload:
    """``hymkit flow`` at resolution 6 (46,656 nodes, a 3.0 MB state: larger
    than L2) for 200 steps at the CFL dt; the flow converges near step 190."""

    name = "flow-r6"
    # the seed only picks barrier nodes, which `hymkit flow` never reads
    seed_free = True

    def n_ops(self, smoke: bool) -> int:
        return 1

    def prepare(self, seed, out_dir: Path, smoke: bool):
        cfg = {"box": [list(iv) for iv in flow.default_box()],
               "resolution": 5 if smoke else 6,
               "steps": 200, "dt": None, "monitor_cadence": 10,
               "seed": program_seed(seed), "n_barrier_nodes": 12}
        path = out_dir / "flow.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return {"cfg": cfg, "path": path, "out": out_dir}

    def run(self, inputs):
        t = _now()
        rc = call_cli(["flow", str(inputs["path"]), "--out", str(inputs["out"])])
        return [("flow", _now() - t, rc)]

    def check(self, inputs, calls):
        rc = calls[0][2]
        out = inputs["out"]
        ok, detail, conv = check_flow_outputs(inputs["cfg"], rc, out)
        fingerprint = {"flow.converge_step": conv}
        for name in ("history.csv", "checkpoint.bin", "checkpoint.bin.json"):
            if (out / name).exists():
                fingerprint[name] = sha256_file(out / name)
        ops = [{"op": "flow", "ok": ok, "detail": detail}]
        return ops, fingerprint, inputs["cfg"]["steps"]


WORKLOADS = {
    "flow-r6": FlowWorkload(),
    "verify": VerifyWorkload(),
}
