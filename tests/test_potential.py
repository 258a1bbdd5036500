import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hymkit import cli
from hymkit import potential as pot
from hymkit.ansatz import curvature_weight, sample_log_uniform

# ---------------------------------------------------------------------------
# references: a complex-array sampler, its mixture density, the estimator
# built on them, the broadcast two-centre quadrature and the ball weak check;
# the module's kernels must reproduce their values (same RNG streams, same
# points)


def _ref_unit_vectors(rng, n, real_dim):
    g = rng.standard_normal((n, real_dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _ref_sfc64(*key):
    return np.random.Generator(np.random.SFC64(list(key)))


def _ref_directions(rng, n, real_dim):
    # unit vectors from Gaussians drawn coordinate-major, (real_dim, n),
    # returned as complex (n, real_dim / 2): coordinate j is g[2j] + i g[2j+1]
    g = rng.standard_normal((real_dim, n))
    g = g / np.linalg.norm(g, axis=0)
    return (g[0::2] + 1j * g[1::2]).T


def _ref_shell_points(cloud_rng, kernel_rng, n, r1, r2, p, delta, u_max):
    # generic and axis-adapted draws from the shell's generator, kernel-adapted
    # ones from the point's
    base = n // 5
    n_gen, n_axis, n_ker = 2 * base, base, 2 * base
    r = np.exp(cloud_rng.uniform(np.log(r1), np.log(r2), n_gen))
    pts_gen = r[:, None] * _ref_directions(cloud_rng, n_gen, 6)
    r = np.exp(cloud_rng.uniform(np.log(r1), np.log(r2), n_axis))
    t = np.exp(cloud_rng.uniform(np.log(1e-6), 0.0, n_axis))
    dir4 = _ref_directions(cloud_rng, n_axis, 4)
    phase = cloud_rng.uniform(0.0, 2 * np.pi, n_axis)
    pts_axis = np.empty((n_axis, 3), dtype=complex)
    pts_axis[:, :2] = (r * np.sqrt(t))[:, None] * dir4
    pts_axis[:, 2] = r * np.sqrt(1.0 - t) * np.exp(1j * phase)
    s = np.exp(kernel_rng.uniform(np.log(delta), np.log(u_max), n_ker))
    pts_ker = p[None, :] + s[:, None] * _ref_directions(kernel_rng, n_ker, 6)
    return np.concatenate([pts_gen, pts_axis, pts_ker], axis=0)


def _ref_mixture_density(pts, r1, r2, p, delta, u_max):
    # 0.4 generic + 0.2 axis-adapted + 0.4 kernel-adapted, w.r.t. Lebesgue dV;
    # pi^3 and 2 pi^2 are the areas of the unit 5- and 3-spheres
    r2n = np.sum(np.abs(pts) ** 2, axis=-1)
    r = np.sqrt(r2n)
    t = (np.abs(pts[:, 0]) ** 2 + np.abs(pts[:, 1]) ** 2) / r2n
    log_r_span, log_t_span = np.log(r2 / r1), -np.log(1e-6)
    in_shell = (r >= r1) & (r <= r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_gen = np.where(in_shell, 1.0 / (np.pi**3 * log_r_span * r**6), 0.0)
        q_axis = np.where(in_shell & (t >= 1e-6),
                          2.0 / (log_r_span * log_t_span * 2 * np.pi**2 * 2 * np.pi
                                 * r**6 * t**2), 0.0)
    s = np.sqrt(np.sum(np.abs(pts - p[None, :]) ** 2, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        q_ker = np.where((s >= delta) & (s <= u_max),
                         1.0 / (np.pi**3 * np.log(u_max / delta) * s**6), 0.0)
    return 0.4 * q_gen + 0.2 * q_axis + 0.4 * q_ker


def _ref_shells(p_norm):
    # seven dyadic scales below |p| and seven above max(|p|, 1)
    base = int(np.floor(np.log2(p_norm)))
    return base - 7, max(base, 0) + 7


def _ref_eval_G(p, mc, row=0):
    # G at p as row ``row`` of a batch: shell k's generic and axis draws come
    # from [seed, k + 256, 2654435761], shared by every row, and the row's
    # kernel draws, shell after shell, from [seed, row, 2246822519]
    w = np.asarray(p, dtype=complex).reshape(3)
    p_norm = float(np.sqrt(np.sum(np.abs(w) ** 2)))
    lo, hi = _ref_shells(p_norm)
    delta = 1e-3 * p_norm
    kernel_rng = _ref_sfc64(mc.seed, row, 2246822519)
    shells, total, var = [], 0.0, 0.0
    for k in range(lo, hi + 1):
        r1, r2 = 2.0**k, 2.0 ** (k + 1)
        u_max = p_norm + 2.0 * r2
        cloud_rng = _ref_sfc64(mc.seed, k + 256, 2654435761)
        n = 5 * (mc.samples_per_shell // 5)
        pts = _ref_shell_points(cloud_rng, kernel_rng, n, r1, r2, w, delta, u_max)
        q = _ref_mixture_density(pts, r1, r2, w, delta, u_max)
        r = np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1))
        s = np.sqrt(np.sum(np.abs(pts - w[None, :]) ** 2, axis=-1))
        mask = (r >= r1) & (r <= r2) & (s >= delta)
        f = np.zeros(n)
        f[mask] = curvature_weight(pts[mask]) / s[mask] ** 4
        wgt = np.where(q > 0, f / np.where(q > 0, q, 1.0), 0.0)
        shells.append((k, float(wgt.mean()), float(np.sqrt(wgt.var() / n))))
        total += shells[-1][1]
        var += float(wgt.var() / n)
    return pot.GValue(estimate=total, stderr=float(np.sqrt(var)), shells=tuple(shells))


def _ref_sphere_kernel_mean(a_vals, d_vals, n_theta=96):
    th, wth = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * np.pi * (th + 1.0)
    wtheta = 0.5 * np.pi * wth
    a = np.asarray(a_vals)[:, None, None]
    d = np.asarray(d_vals)[None, :, None]
    q = a**2 + d**2 - 2.0 * a * d * np.cos(theta)[None, None, :]
    integrand = np.sin(theta)[None, None, :] ** 4 / q**2
    return (8.0 / (3.0 * np.pi)) * np.sum(wtheta[None, None, :] * integrand, axis=-1)


def _ref_bump_pairing(d_vals, radius, n_a=64):
    xa, wa = np.polynomial.legendre.leggauss(n_a)
    a = 0.5 * radius * (xa + 1.0)
    w = 0.5 * radius * wa
    lap = pot.bump_laplacian(a / radius, radius)
    mean_k = _ref_sphere_kernel_mean(a, np.asarray(d_vals))
    return np.einsum("a,ad->d", w * lap * pot._OMEGA5 * a**5, mean_k)


def _ref_ball_nodes(rng, n):
    # the unit ball of R^6 cut at radii 2^-7, ..., 1/2, 1; a stratum holds
    # max(floor(n * share), 8) nodes, share = its fraction of the volume,
    # each with weight share / count: a uniform direction, then
    # |u|^6 uniform over the stratum
    edges = [0.0] + [2.0**-k for k in range(7, -1, -1)]
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        share = hi**6 - lo**6
        count = max(int(share * n), 8)
        dirs = _ref_unit_vectors(rng, count, 6)
        rad = (lo**6 + rng.random(count) * share) ** (1.0 / 6.0)
        nodes.append(rad[:, None] * dirs)
        weights.append(np.full(count, share / count))
    return np.concatenate(nodes), np.concatenate(weights)


def _ref_ball_check_once(c, radius, n, seed, grid, psi_grid):
    # both integrals over the support ball, on the same nodes: the ratio of
    # sum(weight * Psi) to -4 pi^3 sum(weight * phi)
    unit, wts = _ref_ball_nodes(np.random.default_rng(seed), n)
    s = np.linalg.norm(unit, axis=1)
    x = c[None, :] + radius * (unit[:, :3] + 1j * unit[:, 3:])
    f = wts * curvature_weight(x)
    phi = np.zeros(len(s))
    phi[s < 1.0] = np.exp(-1.0 / (1.0 - s[s < 1.0] ** 2))
    return float((f @ np.interp(radius * s, grid, psi_grid))
                 / (-4.0 * np.pi**3 * (f @ phi)))


def _ref_laplacian_weak_check(center, radius, mc, seed, replicas=4):
    # Psi on 301 equispaced nodes of [0, radius], 0 at the support's edge
    c = np.asarray(center, dtype=complex).reshape(3)
    grid = np.linspace(0.0, radius, 301)
    psi_grid = np.append(_ref_bump_pairing(grid[:-1], radius), 0.0)
    ratios = np.asarray([_ref_ball_check_once(c, radius, mc.samples_per_shell,
                                              [seed, rep, 7919], grid, psi_grid)
                         for rep in range(replicas)])
    return {"ratio": float(ratios.mean()),
            "stderr": float(ratios.std(ddof=1) / np.sqrt(replicas))}


# the weak-form checks of the potential suite: (center, radius)
SUITE_CENTRES = (([10.0, 0, 0], 1.0), ([0, 0, 50.0], 2.0), ([5.0, 3.0, -4.0], 1.0))


class TestLaplacianConstantOracle:
    """Independent 1D checks of the R^6 fundamental-solution constant."""

    def test_radial_quadrature(self):
        # integral over R^6 of |x|^{-4} Lap(bump)(|x|) = -4 pi^3 bump(0)
        rho = 1.0
        val, err = quad(lambda r: r**-4 * pot.bump_laplacian(np.array([r / rho]),
                                                             rho)[0]
                        * np.pi**3 * r**5, 0.0, rho, limit=200)
        expect = pot.LAPLACIAN_CONSTANT * pot.bump(np.array([0.0]))[0]
        assert val == pytest.approx(expect, rel=1e-10)
        assert err < 1e-8

    def test_scaled_bump(self):
        rho = 2.5
        val, _ = quad(lambda r: r**-4 * pot.bump_laplacian(np.array([r / rho]),
                                                           rho)[0]
                      * np.pi**3 * r**5, 0.0, rho, limit=200)
        expect = pot.LAPLACIAN_CONSTANT * np.exp(-1.0)
        assert val == pytest.approx(expect, rel=1e-9)

    def test_bump_laplacian_against_fd(self):
        # radial Laplacian formula vs a centered second difference in R^6
        rho, s0, h = 1.0, 0.6, 1e-4
        lap = pot.bump_laplacian(np.array([s0]), rho)[0]

        def phi6(x):
            return pot.bump(np.array([np.linalg.norm(x)]))[0]

        x0 = np.zeros(6)
        x0[0] = s0
        fd = sum((phi6(x0 + h * e) + phi6(x0 - h * e) - 2 * phi6(x0)) / h**2
                 for e in np.eye(6))
        assert lap == pytest.approx(fd, rel=1e-5)

    def test_sphere_kernel_mean_matches_broadcast_reference(self):
        a = np.linspace(0.01, 2.5, 64)
        d = np.concatenate([np.linspace(0.0, 5.0, 600, endpoint=False),
                            np.geomspace(5.0, 300.0, 37)])
        np.testing.assert_allclose(pot._sphere_kernel_mean(a, d),
                                   _ref_sphere_kernel_mean(a, d), rtol=1e-12, atol=0)

    def test_bump_pairing_memory(self):
        # the (a, d, theta) integrand is evaluated in column blocks: one
        # pairing on an 800-node grid allocated 113 MiB when it was built whole
        grid = np.linspace(0.0, 40.0, 800)
        tracemalloc.start()
        try:
            pot.bump_pairing(grid, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_two_center_reduction_matches_shell_values(self):
        # the quadrature spherical mean agrees with max(a, d)^{-4}
        a = np.array([0.5, 1.0, 1.3])
        d = np.array([0.7, 1.0, 2.0])
        m = pot._sphere_kernel_mean(a, d)
        for i, av in enumerate(a):
            for j, dv in enumerate(d):
                assert m[i, j] == pytest.approx(max(av, dv) ** -4.0, rel=1e-9)


class TestMatchesReference:
    """Same RNG streams and points as the reference sampler, so the values
    agree to rounding."""

    POINTS = ([0.3, 0.2j, 0.1], [0.0, 0.0, 0.02 + 0.01j], [10.0, 0, 0],
              [3.0 + 1j, 0.5, 20.0 + 2j], [0.0, 400.0j, -650.0])

    @staticmethod
    def assert_matches(got, ref):
        for field in ("estimate", "stderr"):
            assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12)
        assert [k for k, _, _ in got.shells] == [k for k, _, _ in ref.shells]
        np.testing.assert_allclose(np.array(got.shells), np.array(ref.shells),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", POINTS)
    @pytest.mark.parametrize("samples", [8, 1999, 6000])
    def test_eval_G(self, p, samples):
        mc = pot.MCParams(samples_per_shell=samples, seed=17)
        self.assert_matches(pot.eval_G(p, mc), _ref_eval_G(p, mc))

    @pytest.mark.parametrize("samples", [8, 1999])
    def test_batch_rows(self, samples):
        # the five points as rows 0-4 of one batch: their shell ranges differ,
        # so each shell's cloud serves a different set of rows
        mc = pot.MCParams(samples_per_shell=samples, seed=17)
        for row, got in enumerate(pot.eval_G_batch(self.POINTS, mc)):
            self.assert_matches(got, _ref_eval_G(self.POINTS[row], mc, row=row))

    @pytest.mark.parametrize("i", range(3))
    def test_weak_check_at_suite_centres(self, i):
        center, rad = SUITE_CENTRES[i]
        mc = pot.MCParams(samples_per_shell=2000)
        got = pot.laplacian_weak_check(center, rad, mc, seed=i)
        ref = _ref_laplacian_weak_check(center, rad, mc, seed=i)
        assert set(got) == {"ratio", "stderr"}
        assert got["ratio"] == pytest.approx(ref["ratio"], rel=1e-12)
        assert got["stderr"] == pytest.approx(ref["stderr"], rel=1e-12)


class TestMCParams:
    @pytest.mark.parametrize("field,value", [
        ("samples_per_shell", 7), ("samples_per_shell", 4), ("samples_per_shell", 0),
        ("samples_per_shell", 8.0), ("samples_per_shell", True),
        ("seed", -1), ("seed", 1.5)])
    def test_invalid_rejected(self, field, value):
        # samples_per_shell 4 made every shell mean NaN
        with pytest.raises(ValueError, match=field):
            pot.MCParams(**{field: value})

    def test_minimum_samples_runs(self):
        mc = pot.MCParams(samples_per_shell=8, seed=2)
        assert np.isfinite(pot.eval_G([10.0, 0, 0], mc).estimate)
        wc = pot.laplacian_weak_check([10.0, 0, 0], 1.0, mc)
        assert np.isfinite(wc["ratio"]) and np.isfinite(wc["stderr"])

    def test_cli_samples_below_minimum_usage_error(self, tmp_path, capsys):
        # used to end in a ZeroDivisionError traceback in the weak check
        code = cli.main(["verify", "potential", "--samples", "7", "--out", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert "samples_per_shell" in capsys.readouterr().err
        assert not (tmp_path / "verify_potential.json").exists()


class TestEvalG:
    def test_locked_reference_value(self):
        # brute-force reference 6.3007 +- 0.011 (independent sampler, 2M pts)
        gv = pot.eval_G([10.0, 0, 0], pot.MCParams(samples_per_shell=4000, seed=1))
        assert gv.estimate == pytest.approx(6.30, abs=0.25)
        assert gv.stderr < 0.15

    def test_shell_contributions_positive(self):
        gv = pot.eval_G([10.0, 0, 0], pot.MCParams(seed=3))
        assert all(c >= 0.0 for _, c, _ in gv.shells)
        assert gv.estimate > 0.0

    def test_stderr_scaling(self):
        # quadrupling samples roughly halves the standard error
        e1 = pot.eval_G([10.0, 0, 0], pot.MCParams(samples_per_shell=2000, seed=5)).stderr
        e4 = pot.eval_G([10.0, 0, 0], pot.MCParams(samples_per_shell=8000, seed=5)).stderr
        assert e4 == pytest.approx(0.5 * e1, rel=0.3)

    def test_axial_symmetry(self):
        # G depends only on (|x|^2+|y|^2, |z|): rotated points agree within
        # a couple of standard errors
        g1 = pot.eval_G([3.0, 4.0, 5.0], pot.MCParams(seed=2))
        g2 = pot.eval_G([5.0, 0.0, 5.0], pot.MCParams(seed=7))
        g3 = pot.eval_G([0.0, 5.0j, 5.0 * np.exp(0.3j)], pot.MCParams(seed=11))
        tol = 2.0 * (g1.stderr + g2.stderr)
        assert abs(g1.estimate - g2.estimate) <= tol
        assert abs(g1.estimate - g3.estimate) <= 2.0 * (g1.stderr + g3.stderr)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            pot.eval_G([0.0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        # NaN failed by accident, inf raised OverflowError past the CLI handler
        p = np.array([10.0, bad, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            pot.eval_G(p)
        with pytest.raises(ValueError, match="finite"):
            pot.barrier_envelope_check(np.vstack([[2.0, 0, 0], p]))

    def test_small_point_keeps_the_log_region(self):
        # G(p) grows like log(1/|p|) as p -> 0, from the shells between |p|
        # and 1: with the shells stopping at 256 |p| the last one held 21.3
        # of an estimate of 177.6 at |p| = 1e-3; carried past 1 it holds 0.24
        # of 256.4
        gv = pot.eval_G([1e-3, 0, 0], pot.MCParams(samples_per_shell=4000, seed=1))
        assert gv.shells[-1][1] < 0.01 * gv.estimate
        assert np.isfinite(pot.eval_G([1e-8, 0, 0]).estimate)

    @pytest.mark.parametrize("tiny", [1e-55, 1e-80])
    def test_point_near_origin_rejected(self, tiny):
        # below |p| ~ 2.5e-49 the core radius 1e-3 |p| has a sixth power below
        # the normal floats: unguarded, 1e-55 gave ~3700 with hundreds of
        # divide-by-zero and overflow warnings, and 1e-80 gave NaN
        with pytest.raises(ValueError, match="origin"):
            pot.eval_G([tiny, 0, 0])

    @pytest.mark.parametrize("big", [1e50, 1e100, 1e160])
    def test_point_beyond_the_shell_arithmetic_rejected(self, big):
        # the outer shell reaches 2^(floor(log2 |p|) + 8) and the shell density
        # divides by its sixth power: unguarded, |p| G read 7.9e5 at 1e50 (70
        # below), NaN with RuntimeWarnings at 1e100, and 1e160 was called not
        # finite, its norm overflowing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda p: pot.eval_G(p),
                         lambda p: pot.eval_G_batch([[2.0, 0, 0], p])):
                with pytest.raises(ValueError, match=r"2\^163"):
                    call([big, 0, 0])

    def test_point_just_below_the_bound_is_finite(self):
        p = 0.999 * pot._P_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gv = pot.eval_G([p, 0, 0], pot.MCParams(samples_per_shell=2000, seed=1))
        # |p| G reads 69-73 from 1e30 to 1e48 at this sample size
        assert 60.0 < p * gv.estimate < 80.0 and np.isfinite(gv.stderr)

    def test_small_point_above_cut_is_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gv = pot.eval_G([1e-45, 0, 0], pot.MCParams(samples_per_shell=500))
        assert np.isfinite(gv.estimate) and np.isfinite(gv.stderr)


class TestWeakForm:
    def test_ratio_at_three_centers(self):
        for i, (center, rad) in enumerate((([10.0, 0, 0], 1.0),
                                           ([0, 0, 50.0], 2.0),
                                           ([5.0, 3.0, -4.0], 1.0))):
            wc = pot.laplacian_weak_check(center, rad,
                                          pot.MCParams(samples_per_shell=2000),
                                          seed=3 + i)
            assert abs(wc["ratio"] - 1.0) <= max(0.1, 2.0 * wc["stderr"])

    @pytest.mark.parametrize("radius", [1e-3, 1e-6, 1e-13])
    def test_ratio_at_small_radii(self, radius):
        # a quadrature of Psi beyond the support gave -0.26 at 1e-3 and
        # -1.3e6 at 1e-6; 1e-13 is 45 eps |centre|
        wc = pot.laplacian_weak_check([10.0, 0, 0], radius,
                                      pot.MCParams(samples_per_shell=2000), seed=3)
        assert abs(wc["ratio"] - 1.0) <= max(0.1, 2.0 * wc["stderr"])

    # both sides of the weak form are taken on the same ball nodes, so the
    # ratio is off 1 only by the interpolation of Psi: at most 6.8e-5 at 2000
    # nodes and 3.3e-4 at 8, while a 1% error in the constant reads 0.99
    # (the shell-cloud sampler read 1.030 +- 0.022 at the first centre)
    @pytest.mark.parametrize("samples", [8, 2000])
    @pytest.mark.parametrize("seed", range(6))
    def test_ratio_within_interpolation_error(self, seed, samples):
        center, rad = SUITE_CENTRES[seed % 3]
        wc = pot.laplacian_weak_check(center, rad,
                                      pot.MCParams(samples_per_shell=samples), seed=seed)
        assert abs(wc["ratio"] - 1.0) <= 1e-3

    @pytest.mark.parametrize("radius", [1e-3, 1e-6, 1e-13])
    def test_ratio_within_interpolation_error_at_small_radii(self, radius):
        wc = pot.laplacian_weak_check([10.0, 0, 0], radius,
                                      pot.MCParams(samples_per_shell=2000), seed=3)
        assert abs(wc["ratio"] - 1.0) <= 1e-3

    def test_radius_with_subnormal_sixth_power_rejected(self):
        # used to raise ZeroDivisionError
        with pytest.raises(ValueError, match="sixth power"):
            pot.laplacian_weak_check([10.0, 0, 0], 1e-60)

    def test_radius_the_centre_cannot_resolve_rejected(self):
        # the cloud's points rounded to the centre: the ratio read 1.78
        with pytest.raises(ValueError, match="cannot resolve"):
            pot.laplacian_weak_check([10.0, 0, 0], 1e-20,
                                     pot.MCParams(samples_per_shell=2000), seed=3)

    def test_support_through_origin_rejected(self):
        with pytest.raises(ValueError):
            pot.laplacian_weak_check([0.5, 0, 0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_centre_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pot.laplacian_weak_check([10.0, bad, 0], 1.0)


class TestEnvelope:
    def test_sup_and_positivity(self, rng):
        pts = sample_log_uniform(rng, 30, 1.0, 1000.0)
        env = pot.barrier_envelope_check(pts, pot.MCParams(samples_per_shell=1500))
        assert np.isfinite(env["sup"])
        assert env["sup"] <= 175.0  # locked: measured field peak ~ 140
        assert env["g_min"] > 0.0

    def test_log_branch_points(self):
        zs = np.geomspace(10.0, 1000.0, 6)
        pts = np.stack([0.1 * np.sqrt(zs), np.zeros(6), zs], axis=-1).astype(complex)
        env = pot.barrier_envelope_check(pts, pot.MCParams(samples_per_shell=1500))
        assert env["sup"] <= 175.0

    def test_interior_points_rejected(self):
        with pytest.raises(ValueError):
            pot.barrier_envelope_check(np.array([[0.5, 0, 0]], dtype=complex))


class TestBatch:
    """eval_G_batch: one cloud per shell shared by the rows, and each row's
    kernel draws under its own key."""

    def test_eval_G_is_row_0(self):
        # the other rows widen the batch's shell range on both sides, and a
        # second copy of p draws its own kernel component
        p = [3.0 + 1j, 0.5, 20.0 + 2j]
        mc = pot.MCParams(samples_per_shell=500, seed=4)
        one = pot.eval_G(p, mc)
        batch = pot.eval_G_batch([p, [1e-3, 0, 0], [600.0, 0, 0], p], mc)
        assert one == batch[0]
        assert batch[3].estimate != one.estimate

    def test_rows_bit_identical_in_any_block(self, monkeypatch):
        pts = sample_log_uniform(np.random.default_rng(8), 70, 1e-3, 1e3)
        mc = pot.MCParams(samples_per_shell=40, seed=6)
        got = []
        for size in (1, 7, 64):
            monkeypatch.setattr(pot, "BLOCK_POINTS", size)
            got.append(pot.eval_G_batch(pts, mc))
        assert got[0] == got[1] == got[2]

    def test_stated_stderr_matches_the_spread_over_seeds(self):
        # a generic point, one near the z-axis, one in the transition zone
        # |x| + |y| ~ |p| / 3 and one near |p| = 1
        pts = [[30.0, 0, 40.0], [0.1 * np.sqrt(300.0), 0, 300.0],
               [30.0, 0, 100.0 * np.sqrt(0.91)], [1.5, 1.0j, -2.0]]
        runs = [pot.eval_G_batch(pts, pot.MCParams(samples_per_shell=1500, seed=s))
                for s in range(20)]
        est = np.array([[gv.estimate for gv in run] for run in runs])
        err = np.array([[gv.stderr for gv in run] for run in runs])
        ratio = est.std(axis=0, ddof=1) / err.mean(axis=0)
        assert np.all((0.7 <= ratio) & (ratio <= 1.4)), ratio

    def test_envelope_memory(self):
        # one block of BLOCK_POINTS rows at a time against one shell's cloud,
        # plus each row's generator and shells: 2.9 MiB for 255 points
        pts = sample_log_uniform(np.random.default_rng(0), 255, 1.0, 1000.0)
        tracemalloc.start()
        try:
            pot.barrier_envelope_check(pts, pot.MCParams(samples_per_shell=6000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("shape", [(3, 2), (0, 3)], ids=["3x2", "empty"])
    @pytest.mark.parametrize("fn", ["eval_G_batch", "barrier_envelope_check"])
    def test_malformed_point_set_rejected(self, fn, shape):
        # a (3, 2) array was read as two 3-D points; an empty one died in
        # numpy's zero-size reduction
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            getattr(pot, fn)(np.ones(shape) * 5.0)

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
    def test_eval_G_takes_one_point(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            pot.eval_G(np.ones(shape) * 5.0)


def test_deterministic_given_seed():
    g1 = pot.eval_G([7.0, 1.0, -2.0], pot.MCParams(seed=9))
    g2 = pot.eval_G([7.0, 1.0, -2.0], pot.MCParams(seed=9))
    assert g1.estimate == g2.estimate
    assert g1.shells == g2.shells
