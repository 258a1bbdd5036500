import warnings

import numpy as np
import pytest

from hymkit import adhm, ansatz, monads as mo
from hymkit.geometry import coords

SPEC = ansatz.ansatz_monad()


def closed_form_ingredients(p) -> dict:
    """Closed-form curvature ingredients of the main family at p.

    Returns alpha^dag alpha, beta beta^dag, the rows of grad alpha^dag per
    dwbar_j and of grad beta per dw_j, and the middle-bundle Chern term
    F1[j,k] = -dbar_k(h1^{-1} d_j h1).
    """
    w = coords(p, 3)
    x, y, z = w
    rho = 1.0 + np.sum(np.abs(w) ** 2)
    sig = abs(x) ** 2 + abs(y) ** 2
    q = rho ** -0.5
    ada = sig * q + 1.0
    bbd = sig / q + abs(z) ** 2

    grad_adag = np.zeros((3, 1, 4), dtype=complex)
    for j in range(3):
        grad_adag[j, 0, 0] = -np.conj(x) * w[j] / (2 * rho**1.5)
        grad_adag[j, 0, 1] = -np.conj(y) * w[j] / (2 * rho**1.5)
    grad_adag[0, 0, 0] += q
    grad_adag[1, 0, 1] += q

    grad_beta = np.zeros((3, 1, 4), dtype=complex)
    for j in range(3):
        grad_beta[j, 0, 0] = -y * np.conj(w[j]) / (2 * rho)
        grad_beta[j, 0, 1] = x * np.conj(w[j]) / (2 * rho)
    grad_beta[1, 0, 0] += -1.0
    grad_beta[0, 0, 1] += 1.0
    grad_beta[2, 0, 3] = 1.0

    f1 = np.zeros((3, 3, 4, 4), dtype=complex)
    for j in range(3):
        for k in range(3):
            cjk = 0.5 * ((1.0 if j == k else 0.0) / rho - np.conj(w[j]) * w[k] / rho**2)
            f1[j, k, 0, 0] = cjk
            f1[j, k, 1, 1] = cjk
    return {"ada": ada, "bbd": bbd, "grad_adag": grad_adag,
            "grad_beta": grad_beta, "f1": f1}


def chern_f1(pc):
    """F1[j,k] = -h1^{-1}(d_j d_kbar h1 - (d_k h1)^dag h1^{-1} d_j h1) =
    -d_j d_kbar log h1 for the diagonal h1, from the engine's log-Hessian
    terms of h1 at one point as dense matrices (3, 3, 4, 4)."""
    ddlog = sum(e[:, 0, 0] * x[:, :, 0, None] for e, x in pc["ddlog_h1"])
    return -ddlog[..., None] * np.eye(4)


# ---------------------------------------------------------------------------
# oracles: a covariant derivative of i Lambda F by finite differences, and
# the first-block size of unit fiber elements


def mean_curvature_ratio_grad(p) -> float:
    """|grad(i Lambda F)| / (|w|^{-1} (|x|+|y|+|z|^{1/2})^{-3}) at p, |x| >= 1.

    The endomorphism i Lambda F is expressed in the dominant chart frame; its
    covariant derivative is d M + [G^{-1} dG, M] with G the frame Gram, by
    centered differences with step proportional to the local regularity
    scale.  The norm sums the Gram-metric operator norms over the six real
    directions.
    """
    w = coords(p, 3)
    assert abs(w[0]) >= 1.0 or abs(w[1]) >= 1.0, "weight calibrated for max(|x|,|y|) >= 1"
    chart = "x" if abs(w[0]) >= abs(w[1]) else "y"
    frame = ansatz.chart_frame(chart)
    reg_scale = abs(w[0]) + abs(w[1]) + np.sqrt(abs(w[2]))
    h = 1e-2 * max(1.0, 0.2 * reg_scale)

    def mean_in_frame(q):
        rep = mo.curvature(SPEC, q)
        # B^dag h1 alpha = (h0 alpha^dag B)^dag = 0, so no projection off Im alpha
        t = rep["basis"].conj().T @ SPEC.h1.value(q) @ frame(q)
        return np.linalg.inv(t) @ rep["mean"] @ t

    g0 = ansatz.chart_gram(w, chart)
    g0_inv = np.linalg.inv(g0)
    m0 = mean_in_frame(w)
    total = 0.0
    evals, evecs = np.linalg.eigh(g0)
    g_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    g_half_inv = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    for j in range(3):
        for real_dir in (1.0, 1j):
            delta = np.zeros(3, dtype=complex)
            delta[j] = real_dir * h
            dm = (mean_in_frame(w + delta) - mean_in_frame(w - delta)) / (2 * h)
            dg = (ansatz.chart_gram(w + delta, chart)
                  - ansatz.chart_gram(w - delta, chart)) / (2 * h)
            conn = g0_inv @ dg
            # connection form along a real direction: A_j dw_j + A_j^dag dwbar_j
            cov = dm + conn @ m0 - m0 @ conn
            cov_std = g_half @ cov @ g_half_inv
            total += np.linalg.norm(cov_std, 2) ** 2
    grad_norm = float(np.sqrt(total))
    r = float(np.sqrt(np.sum(np.abs(w) ** 2)))
    weight = (1.0 / r) * (abs(w[0]) + abs(w[1]) + np.sqrt(abs(w[2]))) ** -3.0
    return grad_norm / weight


def section_component_bound(p, samples: int = 64, seed: int = 0) -> float:
    """sup over random unit-norm fiber elements s of
    (|s_1| + |s_2|) / min(sqrt(|w|+1), (|w|+1)/(|x|+|y|))."""
    w = SPEC.point(p)
    basis = mo.cohomology_frame(SPEC, w)
    rank = basis.shape[1]
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((samples, rank)) + 1j * rng.standard_normal((samples, rank))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    s = c @ basis.T  # (samples, k1)
    num = np.abs(s[:, 0]) + np.abs(s[:, 1])
    r = np.sqrt(np.sum(np.abs(w) ** 2))
    sig1 = abs(w[0]) + abs(w[1])
    cap = np.sqrt(r + 1.0)
    if sig1 > 0:
        cap = min(cap, (r + 1.0) / sig1)
    return float(num.max() / cap)


class TestClosedForms:
    def test_scalars_at_unit_x(self):
        ing = closed_form_ingredients([1.0, 0, 0])
        assert ing["ada"] == pytest.approx(1 + 2**-0.5, abs=1e-12)
        assert ing["bbd"] == pytest.approx(2**0.5, abs=1e-12)

    def test_scalars_on_axis(self):
        ing = closed_form_ingredients([0, 0, 10.0])
        assert ing["ada"] == pytest.approx(1.0)
        assert ing["bbd"] == pytest.approx(100.0)

    def test_grad_beta_last_slots(self, rng):
        # third slot identically zero, fourth slot is dz
        for _ in range(10):
            p = rng.standard_normal(6)
            ing = closed_form_ingredients(p[:3] + 1j * p[3:])
            gb = ing["grad_beta"]
            assert np.abs(gb[:, 0, 2]).max() == 0.0
            np.testing.assert_allclose(gb[:, 0, 3], [0, 0, 1.0], atol=1e-14)

    def test_cross_check_against_engine(self, rng):
        for _ in range(10):
            p = rng.standard_normal(6)
            w = p[:3] + 1j * p[3:]
            ing = closed_form_ingredients(w)
            # the engine's pieces at one point, held points last
            pc = mo._pieces(SPEC, w[None], mo._values(SPEC, w[None]))
            assert abs(ing["ada"] - mo._mm(pc["alpha_dag"], pc["alpha"])[0, 0, 0]) < 1e-6
            assert abs(ing["bbd"] - mo._mm(pc["beta"], pc["beta_dag"])[0, 0, 0]) < 1e-6
            assert np.abs(ing["grad_adag"] - pc["grad_alpha_dag"][..., 0]).max() < 1e-6
            assert np.abs(ing["grad_beta"] - pc["grad_beta"][..., 0]).max() < 1e-6
            assert np.abs(ing["f1"] - chern_f1(pc)).max() < 1e-6

    def test_cross_check_against_fd(self):
        # the engine pieces against plain finite differences of the maps
        stripped = adhm.strip_analytic_derivatives(SPEC)
        w = np.array([0.6, -0.3 + 0.5j, 0.8 - 0.2j])
        ing = closed_form_ingredients(w)
        pc = mo._pieces(stripped, w[None], mo._values(stripped, w[None]))
        assert np.abs(ing["grad_adag"] - pc["grad_alpha_dag"][..., 0]).max() < 1e-6
        assert np.abs(ing["grad_beta"] - pc["grad_beta"][..., 0]).max() < 1e-6
        assert np.abs(ing["f1"] - chern_f1(pc)).max() < 1e-5


class TestWeight:
    def test_branch_values(self):
        assert ansatz.curvature_weight([1.0, 0, 0]) == pytest.approx(1.0)
        assert ansatz.curvature_weight([0, 0, 10.0]) == pytest.approx(0.01)
        assert ansatz.curvature_weight([0.1, 0, 0]) == pytest.approx(100.0)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            ansatz.curvature_weight([0.0, 0, 0])

    def test_mean_curvature_ratio_spot(self):
        # regression lock: |i Lambda F| at the unit point equals sqrt(2)
        # while the weight is 1 there
        rep = mo.curvature(SPEC, [1.0, 0, 0])
        r = rep["norm_mean"] / ansatz.curvature_weight([1.0, 0, 0])
        assert r == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_weight_ratio_sup_bounded_and_reseed_stable(self):
        s1 = ansatz.weight_ratio_sup(10_000, seed=0)
        s2 = ansatz.weight_ratio_sup(10_000, seed=1)
        assert s1 <= 2.6  # locked: measured plateau just below 2
        assert abs(s1 - s2) <= 0.1 * s1

    def test_gradient_ratio_bounded(self, rng):
        vals = []
        while len(vals) < 10:
            p = rng.standard_normal(6)
            w = p[:3] + 1j * p[3:]
            r = np.exp(rng.uniform(np.log(2.0), np.log(50.0)))
            w = w / np.sqrt(np.sum(np.abs(w) ** 2)) * r
            if abs(w[0]) < 1.0:
                continue
            vals.append(mean_curvature_ratio_grad(w))
        assert max(vals) <= 40.0  # locked: measured max ~ 23


class TestCancellation:
    def test_spot_values(self):
        lhs, rhs = ansatz.cancellation([1.0, 0, 0])
        assert lhs == pytest.approx(-0.41421356, abs=1e-6)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert abs(lhs) / rhs == pytest.approx(0.8284271, abs=1e-5)

    def test_locked_value_at_ten(self):
        lhs, rhs = ansatz.cancellation([10.0, 0, 0])
        assert abs(lhs) / rhs == pytest.approx(101.0 / (100.0 + np.sqrt(101.0)),
                                               abs=1e-10)

    def test_no_growth_along_ray(self):
        ts = np.geomspace(1.0, 1000.0, 40)
        ratios = []
        for t in ts:
            lhs, rhs = ansatz.cancellation([t, 0, 0])
            ratios.append(abs(lhs) / rhs)
        slope = np.polyfit(np.log(ts), np.log(ratios), 1)[0]
        assert abs(slope) <= 0.1
        assert max(ratios) <= 1.0


class TestSectionBound:
    def test_pure_last_component(self):
        # s = (0,0,0,1) has no first-block content
        basis = mo.cohomology_frame(SPEC, [0, 10.0, 0])
        h1 = SPEC.h1.value(np.array([0, 10.0, 0]))
        s = basis @ (basis.conj().T @ h1 @ np.array([0, 0, 0, 1.0]))
        assert abs(s[0]) + abs(s[1]) < 1e-10

    def test_bounded_over_sample(self, rng):
        sups = []
        for i in range(100):
            p = rng.standard_normal(6)
            w = p[:3] + 1j * p[3:]
            r = np.exp(rng.uniform(np.log(0.5), np.log(100.0)))
            w = w / np.sqrt(np.sum(np.abs(w) ** 2)) * r
            sups.append(section_component_bound(w, samples=64, seed=i))
        assert max(sups) <= 2.5  # locked: measured sup ~ 1.96

    def test_saturates_along_x_ray(self):
        # along (t,0,0) the sup ratio rises toward (but never exceeds) one:
        # |s_1|^2 -> t/(1+t) at unit norm while the cap tends to (t+1)/t
        vals = [section_component_bound([t, 0, 0], samples=256, seed=0)
                for t in (1.0, 10.0, 100.0)]
        assert vals[0] <= vals[1] <= vals[2] <= 1.0


class TestDecay:
    def test_generic_ray_cubic(self):
        d = ansatz.decay_slope([1, 1, 0], np.geomspace(10, 1000, 25))
        assert d == pytest.approx(-3.0, abs=0.1)

    def test_near_origin_quadratic(self):
        d = ansatz.decay_slope([1, 0, 0], np.geomspace(1e-3, 0.1, 25))
        assert d == pytest.approx(-2.0, abs=0.15)

    def test_profile_ratio_bounded_two_sided(self):
        # |F| along (t, t, 0)/sqrt(2) over the profile |w| / (|x|^2+|y|^2)^2
        rs = np.geomspace(10, 1000, 15)
        pts = rs[:, None] * np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        norm = mo.curvature_batch(SPEC, pts, fields=("norm_form",))["norm_form"]
        sig = np.abs(pts[:, 0]) ** 2 + np.abs(pts[:, 1]) ** 2
        ratios = norm / (rs / sig**2)
        assert ratios.min() > 3.0
        assert ratios.max() < 4.5  # locked: measured range [3.6, 3.8]


class TestAsymptoticFrame:
    """The chart frame's Gram matrix deviates from the identity by at most
    a constant times |w| / |chart coordinate|^2."""

    def test_y_chart_reference_point(self):
        w = np.array([0, 10.0, 0], dtype=complex)
        g = ansatz.chart_gram(w, "y")
        np.testing.assert_allclose(g, np.diag([0.90868, 1.0]), atol=1e-4)
        deviation = np.linalg.norm(g - np.eye(2), 2)
        assert deviation == pytest.approx(0.0913, abs=2e-3)
        assert deviation <= 1.0 * np.linalg.norm(w) / abs(w[1]) ** 2

    def test_x_chart_symmetric(self):
        g = ansatz.chart_gram(np.array([10.0, 0, 0], dtype=complex), "x")
        assert np.linalg.norm(g - np.eye(2), 2) == pytest.approx(0.0913, abs=2e-3)

    def test_frame_in_kernel(self, rng):
        for chart in ("x", "y"):
            frame = ansatz.chart_frame(chart)
            for _ in range(10):
                p = rng.standard_normal(6)
                w = p[:3] + 1j * p[3:]
                s = frame(w)
                assert np.abs(SPEC.beta(w) @ s).max() < 1e-12

    def test_single_constant_over_sample(self, rng):
        # deviation / reference bounded by one constant where the chart
        # coordinate dominates: |chart| >= 2 sqrt(|w|)
        consts = []
        while len(consts) < 1000:
            p = rng.standard_normal(6)
            w = p[:3] + 1j * p[3:]
            r = np.exp(rng.uniform(0.0, np.log(1000.0)))
            w = w / np.sqrt(np.sum(np.abs(w) ** 2)) * r
            chart = "x" if abs(w[0]) >= abs(w[1]) else "y"
            cc = abs(w[0]) if chart == "x" else abs(w[1])
            if cc < 2.0 * np.sqrt(r):
                continue
            deviation = np.linalg.norm(ansatz.chart_gram(w, chart) - np.eye(2), 2)
            consts.append(deviation / (np.linalg.norm(w) / cc**2))
        assert max(consts) <= 1.2  # locked: measured max ~ 0.99


class TestInducedPairing:
    # the points spread over six decades of |w|
    @pytest.mark.parametrize("chart", ["x", "y"])
    def test_matches_the_generic_induced_metric(self, rng, chart):
        w = ansatz.sample_log_uniform(rng, 300, 1e-3, 1e3)
        frame = ansatz.chart_frame(chart)
        ref = np.stack([mo.induced_metric(SPEC, p, frame(p)) for p in w])
        scale = np.linalg.norm(ref, axis=(1, 2))[:, None, None]
        gram = ansatz.chart_gram(w, chart)
        assert (np.abs(gram - ref) / scale).max() <= 1e-13
        # any pair of sections: columns combined with random coefficients
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s, t = (tuple(frame(w)[:, i] @ ci for i in range(4)) for ci in c)
        expect = np.einsum("i,nij,j->n", c[0].conj(), ref, c[1])
        np.testing.assert_allclose(ansatz.induced_pairing(w, s, t), expect,
                                   rtol=1e-13, atol=1e-13 * scale.max())

    def test_structural_zeros_change_nothing(self, rng):
        # a scalar 0 component gives the pairing of an array of zeros there
        w = ansatz.sample_log_uniform(rng, 50, 1e-3, 1e3)
        x, y, z = w.T
        zero = np.zeros(len(w), dtype=complex)
        s, t = (0, -z / x, 0, 1), (z / y, 0, 0, 1)
        dense = tuple(zero + c for c in s), tuple(zero + c for c in t)
        np.testing.assert_allclose(ansatz.induced_pairing(w, s, t),
                                   ansatz.induced_pairing(w, *dense), rtol=1e-15)

    @pytest.mark.parametrize("chart", ["x", "y"])
    @pytest.mark.parametrize("resolution", [5, 6, 7, 8, 9])
    def test_chart_gram_bit_identical_to_entrywise_pairings(self, resolution, chart):
        # chart_gram shares q, sigma and alpha^dag h1 s between its entries;
        # on the flow's grids (x and y swapped for the y chart) every bit of
        # the three induced_pairing calls must survive
        from hymkit import flow
        w = flow.build_domain(resolution=resolution, n_barrier_nodes=1).grid_points()
        if chart == "y":
            w = w[..., [1, 0, 2]]
        s1, s2 = ansatz._chart_sections(chart)(w)
        ref = np.empty(w.shape[:-1] + (2, 2), dtype=complex)
        ref[..., 0, 0] = ansatz.induced_pairing(w, s1, s1).real
        ref[..., 0, 1] = ansatz.induced_pairing(w, s1, s2)
        ref[..., 1, 0] = ref[..., 0, 1].conj()
        ref[..., 1, 1] = ansatz.induced_pairing(w, s2, s2).real
        assert np.array_equal(ansatz.chart_gram(w, chart).view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("chart", ["x", "y"])
    def test_batched_chart_frame_is_the_per_point_stack(self, rng, chart):
        w = ansatz.sample_log_uniform(rng, 40, 1e-3, 1e3).reshape(5, 8, 3)
        frame = ansatz.chart_frame(chart)
        stack = np.stack([frame(p) for p in w.reshape(-1, 3)]).reshape(5, 8, 4, 2)
        assert np.array_equal(frame(w), stack)
        assert frame(w[0, 0]).shape == (4, 2)

    @pytest.mark.parametrize("chart,point", [("x", [0, 1, 0]), ("y", [1, 0, 1])])
    def test_chart_coordinate_zero_rejected(self, chart, point):
        # the sections divide by the chart coordinate: at 0 both functions
        # returned NaN entries with RuntimeWarnings
        batch = np.array([[2.0, 3.0, 1.0], point], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (point, batch):
                with pytest.raises(ValueError, match=f"{chart} != 0"):
                    ansatz.chart_gram(w, chart)
                with pytest.raises(ValueError, match=f"{chart} != 0"):
                    ansatz.chart_frame(chart)(w)

    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError):
            ansatz.chart_frame("z")
        with pytest.raises(ValueError):
            ansatz.chart_gram([1.0, 1.0, 1.0], "z")


class TestSymmetry:
    def test_su2_u1_invariance_of_norms(self, rng):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        nrm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / nrm, b / nrm
        phase = np.exp(1j * rng.standard_normal())
        for _ in range(5):
            p = rng.standard_normal(6)
            w = p[:3] + 1j * p[3:]
            w2 = np.array([a * w[0] + b * w[1],
                           -np.conj(b) * w[0] + np.conj(a) * w[1],
                           phase * w[2]])
            r1 = mo.curvature(SPEC, w)
            r2 = mo.curvature(SPEC, w2)
            for key in ("norm_form", "norm_mean"):
                assert float(r1[key]) == pytest.approx(float(r2[key]), abs=1e-8, rel=1e-8)


class TestTwisted:
    def test_metric_at_base_point(self):
        tw = ansatz.twisted_monad(100.0)
        h = tw.h1.value(np.array([0, 0, 100.0], dtype=complex))
        expected = np.sqrt(100.0**2 + 1.0)
        np.testing.assert_allclose(
            np.diag(h).real, [1, 1, expected / 100.0, expected / 100.0],
            rtol=1e-12)
        np.testing.assert_allclose(np.diag(h).real[2:], [1.0, 1.0], atol=1e-4)

    def test_complex_identity(self, rng):
        tw = ansatz.twisted_monad(100.0)
        pts = rng.standard_normal((10, 6))
        pts = pts[:, :3] + 1j * pts[:, 3:]
        pts[:, 2] += 100.0
        assert np.abs(tw.beta(pts) @ tw.alpha(pts)).max() < 1e-12

    def test_root_independence(self):
        p = np.array([3.0 + 1j, -2.0, 100.0])
        r1 = mo.curvature(ansatz.twisted_monad(100.0, root=10.0), p)
        r2 = mo.curvature(ansatz.twisted_monad(100.0, root=-10.0), p)
        assert abs(r1["norm_form"] - r2["norm_form"]) <= 1e-9
        assert abs(r1["norm_mean"] - r2["norm_mean"]) <= 1e-9

    def test_small_zeta_rejected(self):
        with pytest.raises(ValueError):
            ansatz.twisted_monad(0.5)

    def test_fd_oracle_on_twisted(self):
        tw = ansatz.twisted_monad(100.0)

        def xframe(q):
            # ker-beta frame for beta = (-y, x, 0, c), valid for x != 0
            q = np.asarray(q, dtype=complex)
            return np.stack([np.array([0, 0, 1, 0], dtype=complex),
                             np.array([0, -10.0 / q[0], 0, 1])], axis=1)

        err = mo.curvature_fd_check(tw, [2.0, 1.0 - 0.5j, 100.0], xframe, h=1e-3)
        assert err <= 1e-3


class TestBubbling:
    def test_scaled_sup_locked(self):
        r = ansatz.instanton_comparison(100.0, seed=0)
        assert r["scaled_sup"] == pytest.approx(2.884, rel=0.15)

    def test_rate_across_scales(self):
        sups = [ansatz.instanton_comparison(z, seed=0)["scaled_sup"]
                for z in (100.0, 400.0, 1600.0)]
        assert max(sups) / min(sups) <= 2.0

    def test_axial_components_slower_rate(self):
        # the dz-block of the twisted curvature decays like |z|^{-3/2}
        vals = [ansatz.instanton_comparison(z, seed=0)["axial_sup"] * z**1.5
                for z in (100.0, 400.0, 1600.0)]
        assert max(vals) / min(vals) <= 1.2

    def test_model_parameters(self):
        # zeta = 100 compares against the instanton with parameters (10,0,0,10)
        c = complex(np.sqrt(100.0))
        assert c == 10.0


class TestFueter:
    @pytest.mark.parametrize("zeta,label", [(4.0, 2.0), (1.0, 1.0)])
    def test_values(self, zeta, label):
        assert ansatz.fueter_map(zeta).z2_label == pytest.approx(label)

    def test_roots_agree(self):
        l1 = ansatz.fueter_map(4.0, root=2.0).z2_label
        l2 = ansatz.fueter_map(4.0, root=-2.0).z2_label
        assert abs(l1 - l2) <= 1e-9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ansatz.fueter_map(0.0)


class TestCone:
    def test_hym_at_reference_points(self):
        for p in ([0, 0, 1.0], np.array([1.0, 1, 1]) / np.sqrt(3.0)):
            res = ansatz.cone_hym_residual(np.asarray(p, dtype=complex)[None, :])
            assert res[0] <= 1e-8

    def test_hym_at_random_points(self, rng):
        pts = ansatz.sample_log_uniform(rng, 50, 0.3, 3.0)
        assert ansatz.cone_hym_residual(pts).max() <= 1e-8

    def test_flat_metric_control(self):
        rep = mo.curvature(ansatz.flat_metric_cone_monad(), [0, 0, 1.0])
        assert rep["norm_mean"] > 0.01
        assert float(rep["norm_mean"]) == pytest.approx(2.0, abs=1e-10)

    def test_scale_invariance(self):
        r1 = mo.curvature(ansatz.cone_monad(), [0.2, 0.1, 0.3])
        r2 = mo.curvature(ansatz.cone_monad(), [2.0, 1.0, 3.0])
        # conical: |F| scales like r^{-2}
        assert float(r1["norm_form"]) == pytest.approx(100.0 * r2["norm_form"], rel=1e-8)
