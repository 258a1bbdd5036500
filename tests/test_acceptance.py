"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The heat-flow criterion performs the full long run and dominates the runtime
(a few minutes); everything else completes in seconds.
"""

import time

import numpy as np
import pytest

from hymkit import adhm, ansatz, flow, growth, monads as mo, potential as pot


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. ADHM anti-self-duality


def test_criterion_01_adhm_asd():
    t0 = time.time()
    rng = np.random.default_rng(11)
    datasets = [adhm.ADHMData(1, 0, 0, 1)] + \
        [adhm.random_valid_data(rng) for _ in range(4)]
    worst_analytic = 0.0
    for d in datasets:
        pts = rng.standard_normal((100, 4)) * 1.5
        pts = pts[:, :2] + 1j * pts[:, 2:]
        data = mo.curvature_batch(adhm.instanton_monad(d), pts)
        worst_analytic = max(worst_analytic, float(data["norm_mean"].max()))
    worst_fd = 0.0
    for d in datasets:
        spec_fd = adhm.strip_analytic_derivatives(adhm.instanton_monad(d))
        for p in rng.standard_normal((100, 4)) * 1.5:
            rep = mo.curvature(spec_fd, p[:2] + 1j * p[2:])
            worst_fd = max(worst_fd, rep["norm_mean"])
    elapsed = time.time() - t0
    ok = worst_analytic <= 1e-9 and worst_fd <= 1e-6 and elapsed < 10.0
    report("criterion 1 (ADHM ASD)", ok,
           f"analytic {worst_analytic:.2e} <= 1e-9, fd {worst_fd:.2e} <= 1e-6, "
           f"runtime {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 2. instanton charge


def test_criterion_02_charge():
    t0 = time.time()
    res = adhm.charge(adhm.ADHMData(1, 0, 0, 1))
    elapsed = time.time() - t0
    ok = abs(res - 1.0) <= 0.02 and elapsed < 30.0
    report("criterion 2 (charge)", ok,
           f"charge {res:.4f} within 1.00 +- 0.02, "
           f"runtime {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. curvature formula against the finite-difference Chern oracle


def _oracle_cases(rng, n_points):
    cases = []
    spec_a = ansatz.ansatz_monad()
    count = 0
    while count < n_points:
        p = rng.standard_normal(6)
        w = p[:3] + 1j * p[3:]
        w *= np.exp(rng.uniform(np.log(0.5), np.log(2.0))) / \
            np.sqrt(np.sum(np.abs(w) ** 2))
        chart = "x" if abs(w[0]) >= abs(w[1]) else "y"
        if max(abs(w[0]), abs(w[1])) < 0.4:
            continue
        cases.append(("ansatz", spec_a, ansatz.chart_frame(chart), w))
        count += 1
    d = adhm.ADHMData(1, 0, 0, 1)
    spec_i = adhm.instanton_monad(d)

    def bframe(q):
        q = np.asarray(q, dtype=complex)
        return np.stack([np.array([1, 0, 0, q[1]]),
                         np.array([0, 1, 0, -q[0]])], axis=1)

    count = 0
    while count < n_points:
        p = rng.standard_normal(4)
        w = p[:2] + 1j * p[2:]
        w *= np.exp(rng.uniform(np.log(0.5), np.log(2.0))) / np.linalg.norm(p)
        cases.append(("adhm", spec_i, bframe, w))
        count += 1
    spec_c = ansatz.cone_monad()

    def zframe(q):
        q = np.asarray(q, dtype=complex)
        return np.stack([np.array([q[2], 0, -q[0]]),
                         np.array([0, q[2], -q[1]])], axis=1)

    count = 0
    while count < n_points:
        p = rng.standard_normal(6)
        w = p[:3] + 1j * p[3:]
        w *= np.exp(rng.uniform(np.log(0.5), np.log(2.0))) / \
            np.sqrt(np.sum(np.abs(w) ** 2))
        if abs(w[2]) < 0.4 * np.sqrt(np.sum(np.abs(w) ** 2)):
            continue
        cases.append(("cone", spec_c, zframe, w))
        count += 1
    return cases


def test_criterion_03_curvature_oracle():
    rng = np.random.default_rng(23)
    cases = _oracle_cases(rng, 20)
    worst = 0.0
    for _, spec, frame, w in cases:
        worst = max(worst, mo.curvature_fd_check(spec, w, frame, h=1e-3))
    orders = {}
    for name, spec, frame, w in cases[::5]:
        e1 = mo.curvature_fd_check(spec, w, frame, h=2e-2)
        e2 = mo.curvature_fd_check(spec, w, frame, h=1e-2)
        orders.setdefault(name, []).append(np.log2(e1 / e2))
    med = {k: float(np.median(v)) for k, v in orders.items()}
    ok = worst <= 1e-3 and all(abs(m - 2.0) <= 0.2 for m in med.values())
    report("criterion 3 (curvature oracle)", ok,
           f"max rel err {worst:.2e} <= 1e-3 at h=1e-3; "
           f"refinement orders {med} within 2 +- 0.2")


# ---------------------------------------------------------------------------
# 4. mean-curvature weight bound


def test_criterion_04_weight_bound():
    s1 = ansatz.weight_ratio_sup(10_000, seed=0)
    s2 = ansatz.weight_ratio_sup(10_000, seed=1)
    locked = 2.0
    ok = (np.isfinite(s1) and abs(s1 - s2) <= 0.10 * s1
          and abs(s1 - locked) <= 0.10 * locked)
    report("criterion 4 (weight-ratio sup)", ok,
           f"sup {s1:.4f} (reseed {s2:.4f}), locked {locked} +- 10%")


# ---------------------------------------------------------------------------
# 5. inverse-factor cancellation


def test_criterion_05_cancellation():
    lhs, rhs = ansatz.cancellation([1.0, 0, 0])
    ts = np.geomspace(1.0, 1000.0, 50)
    ratios = [abs(ansatz.cancellation([t, 0, 0])[0])
              / ansatz.cancellation([t, 0, 0])[1] for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(ratios), 1)[0])
    ok = (abs(lhs + 0.41421) <= 1e-4 and abs(rhs - 0.5) <= 1e-10
          and abs(slope) <= 0.1)
    report("criterion 5 (cancellation)", ok,
           f"spot lhs {lhs:.5f} = -0.41421, rhs {rhs:.5f} = 0.5; "
           f"ray growth slope {slope:.3f} within 0 +- 0.1")


# ---------------------------------------------------------------------------
# 6. curvature decay slopes


def test_criterion_06_decay_slopes():
    t0 = time.time()
    generic = ansatz.decay_slope([1, 1, 0], np.geomspace(10, 1000, 25))
    origin = ansatz.decay_slope([1, 0, 0], np.geomspace(1e-3, 0.1, 25))
    elapsed = time.time() - t0
    ok = (abs(generic + 3.0) <= 0.1 and abs(origin + 2.0) <= 0.15
          and elapsed < 10.0)
    report("criterion 6 (decay slopes)", ok,
           f"generic {generic:.3f} within -3 +- 0.1, "
           f"near-origin {origin:.3f} within -2 +- 0.15, "
           f"runtime {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 7. bubbling-region comparison and the Fueter label


def test_criterion_07_bubbling():
    sups = [ansatz.instanton_comparison(z, seed=0)["scaled_sup"]
            for z in (100.0, 400.0, 1600.0)]
    spread = max(sups) / min(sups)
    l1 = ansatz.fueter_map(4.0, root=2.0).z2_label
    l2 = ansatz.fueter_map(4.0, root=-2.0).z2_label
    ok = spread <= 2.0 and abs(l1 - l2) <= 1e-9
    report("criterion 7 (bubbling)", ok,
           f"scaled sups {np.round(sups, 3).tolist()} spread x{spread:.2f} <= 2; "
           f"Fueter label root gap {abs(l1 - l2):.1e} <= 1e-9")


# ---------------------------------------------------------------------------
# 8. barrier potential


def test_criterion_08_potential():
    t0 = time.time()
    devs = []
    errs = []
    for i, (center, rad) in enumerate((([10.0, 0, 0], 1.0),
                                       ([0, 0, 50.0], 2.0),
                                       ([5.0, 3.0, -4.0], 1.0))):
        wc = pot.laplacian_weak_check(center, rad,
                                      pot.MCParams(samples_per_shell=2000),
                                      seed=3 + i)
        devs.append(abs(wc["ratio"] - 1.0))
        errs.append(wc["stderr"])
    rng = np.random.default_rng(0)
    pts = [ansatz.sample_log_uniform(rng, 200, 1.0, 1000.0)]
    zs = np.geomspace(2.0, 1000.0, 30)
    pts.append(np.stack([0.1 * np.sqrt(zs) * np.exp(2j * np.pi * rng.random(30)),
                         np.zeros(30, dtype=complex), zs + 0j], axis=-1))
    env_a = pot.barrier_envelope_check(np.vstack(pts),
                                       pot.MCParams(samples_per_shell=6000, seed=0))
    env_b = pot.barrier_envelope_check(np.vstack(pts),
                                       pot.MCParams(samples_per_shell=6000, seed=99))
    elapsed = time.time() - t0
    ratio_ok = all(d <= max(0.1, 2 * e) for d, e in zip(devs, errs))
    env_ok = (np.isfinite(env_a["sup"])
              and abs(env_a["sup"] - env_b["sup"]) <= 0.15 * env_a["sup"]
              and env_a["g_min"] > 0.0)
    ok = ratio_ok and env_ok and elapsed < 60.0
    report("criterion 8 (potential)", ok,
           f"weak-form deviations {', '.join(f'{d:.1e}' for d in devs)} within "
           f"max(0.1, 2 stderr); envelope sup {env_a['sup']:.1f} "
           f"(mc reseed {env_b['sup']:.1f}, within 15%); G > 0; "
           f"runtime {elapsed:.0f}s < 60s")


# ---------------------------------------------------------------------------
# 9. Dirichlet heat flow


@pytest.fixture(scope="module")
def long_flow():
    t0 = time.time()
    dom = flow.build_domain(resolution=7, n_barrier_nodes=12, seed=0)
    state = flow.run(dom, 10_000, monitor_cadence=10)
    return dom, state, time.time() - t0


def test_criterion_09_flow(long_flow):
    dom, state, elapsed = long_flow
    hist = {row[0]: row[2] for row in state.history}
    sups = [row[2] for row in state.history]
    sup0 = hist[0]
    floor = 1e-12 * sup0
    monotone = all(b <= a + floor for a, b in
                   zip(sups[1:], sups[2:]))  # history entries from step 10 on
    ratio_2000 = hist[2000] / sup0
    ratio_final = hist[10_000] / sup0
    mask = np.ones(dom.shape, dtype=bool)
    mask[dom.interior] = False
    boundary_exact = np.array_equal(state.h[mask], dom.h0[mask])
    h = state.h
    tr = np.real(h[..., 0, 0] + h[..., 1, 1])
    det = np.real(h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0])
    positive = bool(tr.min() > 0 and det.min() > 0)
    flow.attach_barrier_potentials(dom, pot.MCParams(samples_per_shell=2000,
                                                     seed=0))
    barrier = flow.barrier_check(state, c_barrier=2.0)
    ok = (monotone and ratio_2000 <= 0.5 and ratio_final <= 0.1
          and boundary_exact and positive and barrier["pass"]
          and elapsed < 600.0)
    report("criterion 9 (heat flow)", ok,
           f"monotone after step 10: {monotone}; sup ratio {ratio_2000:.2e} "
           f"<= 0.5 at step 2000 and {ratio_final:.2e} <= 0.1 at step 10^4; "
           f"boundary bit-exact: {boundary_exact}; positive: {positive}; "
           f"barrier pass: {barrier['pass']}; runtime {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 10. conical model is Hermitian-Yang-Mills


def test_criterion_10_cone():
    rng = np.random.default_rng(5)
    pts = ansatz.sample_log_uniform(rng, 50, 0.3, 3.0)
    worst = float(ansatz.cone_hym_residual(pts).max())
    control = mo.curvature(ansatz.flat_metric_cone_monad(), [0, 0, 1.0])["norm_mean"]
    ok = worst <= 1e-8 and control >= 0.01
    report("criterion 10 (conical HYM)", ok,
           f"residual {worst:.2e} <= 1e-8 at 50 points; "
           f"flat-metric control {control:.2f} >= 0.01")


# ---------------------------------------------------------------------------
# 11. growth filtration


def test_criterion_11_growth():
    t3 = growth.KoszulSection.generator(3)
    d0 = growth.growth_degree(t3, "origin")
    di = growth.growth_degree(t3, "infinity")
    fam = [growth.KoszulSection.generator(i) for i in (1, 2, 3)]
    tab = growth.filtration_table(fam)
    zt3 = t3.times(growth.Poly3.monomial(0, 0, 1), "z*t3")
    shift = growth.growth_degree(zt3, "infinity") - di
    cx_t3 = growth.convexity_check(t3)
    mixed = growth.KoszulSection(
        growth.Poly3(), growth.Poly3(),
        growth.Poly3.const(1.0) + growth.Poly3.monomial(0, 0, 1), label="(1+z)t3")
    cx_mix = growth.convexity_check(mixed)
    ok = (abs(d0 - 1.0) <= 0.05 and abs(di) <= 0.05
          and tab["filtrations_differ"]
          and abs(shift - 1.0) <= 0.07
          and cx_t3["residual"] >= -2.0 * cx_t3["stderr"]
          and abs(cx_t3["residual"]) <= max(2.0 * cx_t3["stderr"],
                                            1e-12 * cx_t3["scale"])
          and cx_mix["residual"] >= -2.0 * cx_mix["stderr"])
    report("criterion 11 (growth filtration)", ok,
           f"(d0, dinf)(t3) = ({d0:.3f}, {di:.3f}) within (1, 0) +- 0.05; "
           f"filtrations differ: {tab['filtrations_differ']}; "
           f"degree shift {shift:.3f} within 1 +- 0.07; "
           f"convexity residual {cx_t3['residual']:.2e} >= -2 stderr "
           f"(equality for homogeneous)")
