from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hymkit import adhm, monads as mo


# ---------------------------------------------------------------------------
# oracle: the curvature of the projection connection by finite differences,
# free of the engine's complex conventions


def _projector(alpha, beta):
    """w -> I - K^dag (K K^dag)^{-1} K with K = [beta; alpha^dag] (batched).

    The orthogonal projector onto ker beta ∩ ker alpha^dag, exact wherever
    the two constraints are independent at w; no ADHM equation is assumed.
    """
    def proj(w):
        w = np.asarray(w, dtype=complex)
        k = np.concatenate([beta(w), np.swapaxes(alpha(w).conj(), -1, -2)], axis=-2)
        kd = np.swapaxes(k.conj(), -1, -2)
        return np.eye(4) - kd @ np.linalg.solve(k @ kd, k)

    return proj


def _projector_curvature(proj, p, h):
    """P [d_mu P, d_nu P] P for mu < nu by centred differences of step h.

    Real coordinate order (u1, v1, u2, v2) with w_j = u_j + i v_j.
    """
    w = np.asarray(p, dtype=complex)
    steps = [np.array([h, 0]), np.array([1j * h, 0]),
             np.array([0, h]), np.array([0, 1j * h])]
    dp = [(proj(w + s) - proj(w - s)) / (2 * h) for s in steps]
    p0 = proj(w)
    return {(m, n): p0 @ (dp[m] @ dp[n] - dp[n] @ dp[m]) @ p0
            for m in range(4) for n in range(m + 1, 4)}


def projector_curvature_fd(d, p, h=1e-4):
    """The six real components F_{mu nu} = P [d_mu P, d_nu P] P of the
    projection connection s -> P d s (trivial ambient metrics), restricted
    to an orthonormal fiber basis."""
    spec = adhm.instanton_monad(d)
    bmat = mo.cohomology_frame(spec, p)
    comps = _projector_curvature(_projector(spec.alpha, spec.beta), p, h)
    return {key: bmat.conj().T @ f @ bmat for key, f in comps.items()}


def asd_defect_fd(a1, a2, b1, b2, p, h=1e-4):
    """Sum of the three anti-self-duality relations of the projection
    connection of any quadruple (no ADHM equation assumed): FD-level for
    valid data, order one for data violating the equations."""
    spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
    alpha, beta = spec.alpha_coeffs.copy(), spec.beta_coeffs.copy()
    alpha[0, 2:, 0], beta[0, 0, 2:] = (a1, a2), (b1, b2)   # the constant terms
    spec = replace(spec, alpha_coeffs=alpha, beta_coeffs=beta)
    comps = _projector_curvature(_projector(spec.alpha, spec.beta), p, h)
    return float(np.linalg.norm(comps[(0, 1)] + comps[(2, 3)])
                 + np.linalg.norm(comps[(0, 2)] - comps[(1, 3)])
                 + np.linalg.norm(comps[(0, 3)] + comps[(1, 2)]))


class TestResiduals:
    def test_unit_family_solves_equations(self):
        assert adhm.adhm_residual(adhm.ADHMData(1, 0, 0, 1)) == (0, 0)

    def test_degenerate_flagged(self):
        d = adhm.ADHMData(0, 0, 0, 0)
        assert adhm.adhm_residual(d) == (0, 0)
        assert d.degenerate

    def test_violating_data(self):
        cres, rres = adhm.adhm_residual(adhm.ADHMData(1, 0, 1, 0))
        assert cres == 1.0
        assert rres == 0.0
        with pytest.raises(ValueError, match="ADHM"):
            adhm.instanton_monad(adhm.ADHMData(1, 0, 1, 0))

    @given(seed=st.integers(0, 10**6))
    def test_random_data_valid(self, seed):
        d = adhm.random_valid_data(np.random.default_rng(seed))
        assert adhm.is_valid(d)
        assert not d.degenerate


class TestInstantonMonad:
    def test_complex_identity(self, rng):
        spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
        pts = rng.standard_normal((20, 4))
        pts = pts[:, :2] + 1j * pts[:, 2:]
        assert np.abs(spec.beta(pts) @ spec.alpha(pts)).max() <= 1e-12

    def test_regular_everywhere_including_origin(self):
        spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
        rep = mo.validate_monad(spec, [0.0, 0.0])
        assert rep.regular

    def test_rank_two(self):
        spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
        assert mo.RANK == 2
        assert mo.cohomology_frame(spec, [0.2, 0.4]).shape == (4, 2)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            adhm.instanton_monad(adhm.ADHMData(0, 0, 0, 0))


class TestASD:
    """The induced connection is the Chern connection of the cohomology
    metric, so its curvature is type (1,1): |i Lambda F| is the whole
    anti-self-duality residual."""

    def test_unit_data_spot(self):
        spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
        assert mo.curvature(spec, [0.3, -0.7])["norm_mean"] <= 1e-9

    def test_scaled_data_random_points(self, rng):
        spec = adhm.instanton_monad(adhm.ADHMData(2, 0, 0, 2))
        pts = rng.standard_normal((10, 4))
        for p in pts:
            assert mo.curvature(spec, p[:2] + 1j * p[2:])["norm_mean"] <= 1e-8

    def test_invalid_data_is_not_asd(self):
        # negative control: raw quadruple violating the complex equation
        assert asd_defect_fd(1, 0, 1, 0, [0.4, 0.9]) > 0.01
        # the same oracle confirms valid data at FD accuracy
        assert asd_defect_fd(1, 0, 0, 1, [0.4, 0.9]) < 1e-6

    def test_fd_derivative_mode(self, rng):
        spec = replace(adhm.instanton_monad(adhm.random_valid_data(rng)), fd=True)
        for p in rng.standard_normal((5, 4)):
            assert mo.curvature(spec, p[:2] + 1j * p[2:])["norm_mean"] <= 1e-6

    @given(theta=st.floats(0.0, 2 * np.pi))
    def test_u1_orbit_invariance(self, theta):
        d = adhm.ADHMData(1.0, 0.5j, -0.25 + 0.25j, 0.5 + 1.0j)
        # project to the constraint set: use generator recipe instead
        d = adhm.ADHMData(1.0, 0.5j, np.exp(0.7j) * (-0.5j), np.exp(0.7j) * 1.0)
        assert adhm.is_valid(d)
        rot = d.rotated(theta)
        p = [0.3, -0.2 + 0.4j]
        assert mo.curvature(adhm.instanton_monad(rot), p)["norm_mean"] <= 1e-9
        assert adhm.curvature_scale(rot) == pytest.approx(adhm.curvature_scale(d))
        nf1 = adhm.framed_moduli_point(d).normal_form
        nf2 = adhm.framed_moduli_point(rot).normal_form
        np.testing.assert_allclose(nf1, nf2, atol=1e-9)


class TestProjectorOracle:
    """FD curvature of the projection connection, free of complex conventions."""

    def test_real_component_asd(self):
        d = adhm.ADHMData(1, 0, 0, 1)
        comps = projector_curvature_fd(d, [0.3, -0.7])
        # orientation (u1, v1, u2, v2): F01 = -F23, F02 = F13, F03 = -F12
        assert np.abs(comps[(0, 1)] + comps[(2, 3)]).max() < 1e-7
        assert np.abs(comps[(0, 2)] - comps[(1, 3)]).max() < 1e-7
        assert np.abs(comps[(0, 3)] + comps[(1, 2)]).max() < 1e-7

    def test_matches_complex_engine(self):
        # the record's form_raw holds the coefficients of i F, the raw
        # dw_j ^ dwbar_k components; F(u1, v1) = -2 i raw[0, 0]
        d = adhm.ADHMData(1, 0, 0, 1)
        p = [0.3, -0.7]
        comps = projector_curvature_fd(d, p)
        raw = mo.curvature(adhm.instanton_monad(d), p)["form_raw"]
        np.testing.assert_allclose(comps[(0, 1)], -2j * raw[0, 0], atol=1e-6)
        # mixed component F(u1, u2) = raw[0,1] - raw[1,0]
        np.testing.assert_allclose(comps[(0, 2)], raw[0, 1] - raw[1, 0], atol=1e-6)


class TestCharge:
    def test_unit_charge(self):
        res = adhm.charge(adhm.ADHMData(1, 0, 0, 1))
        assert res == pytest.approx(1.0, abs=0.02)

    def test_scale_invariance(self):
        charges = [adhm.charge(adhm.ADHMData(c, 0, 0, c))
                   for c in (1.0, 2.0, 4.0)]
        assert max(charges) - min(charges) <= 0.02

    def test_degenerate_is_flat(self):
        assert adhm.charge(adhm.ADHMData(0, 0, 0, 0)) == 0.0

    def test_density_matches_reference_profile(self):
        # |F|^2 for (1,0,0,1) equals 48 / (r^2 + 1)^4
        d = adhm.ADHMData(1, 0, 0, 1)
        r = np.linspace(0.0, 3.0, 7)
        pts = np.stack([r, np.zeros(7)], axis=-1).astype(complex)
        dens = adhm.curvature_density(d, pts)
        np.testing.assert_allclose(dens, 48.0 / (r**2 + 1.0) ** 4, rtol=1e-10)

    def test_density_peak_and_width_scale_with_data(self):
        # half-max radius proportional to the curvature length scale
        radii = {}
        for c in (1.0, 2.0, 4.0):
            d = adhm.ADHMData(c, 0, 0, c)
            r = np.linspace(0.0, 4.0 * c, 400)
            pts = np.stack([r, np.zeros_like(r)], axis=-1).astype(complex)
            dens = adhm.curvature_density(d, pts)
            assert np.argmax(dens) == 0  # maximum at the origin
            half = dens[0] / 2.0
            radii[c] = r[np.argmax(dens < half)]
        ratios = [radii[c] / (c * adhm.curvature_scale(adhm.ADHMData(1, 0, 0, 1)))
                  for c in (1.0, 2.0, 4.0)]
        assert max(ratios) / min(ratios) < 1.2


class TestCurvatureScale:
    @pytest.mark.parametrize("c,expect", [(1.0, 1.0), (2.0, 2.0), (0.0, 0.0)])
    def test_values(self, c, expect):
        assert adhm.curvature_scale(adhm.ADHMData(c, 0, 0, c)) == expect


class TestModuli:
    def test_phase_pair_normalises_to_unit(self):
        d = adhm.ADHMData(np.exp(1j * np.pi / 3), 0, 0, np.exp(-1j * np.pi / 3))
        nf = adhm.framed_moduli_point(d).normal_form
        np.testing.assert_allclose(nf, (1, 0, 0, 1), atol=1e-12)

    def test_subfamily_label(self):
        assert adhm.framed_moduli_point(adhm.ADHMData(2, 0, 0, 2)).z2_label == 2.0

    def test_cone_point(self):
        pt = adhm.framed_moduli_point(adhm.ADHMData(0, 0, 0, 0))
        assert pt.cone_point
        assert pt.z2_label == 0

    def test_z2_sign_is_canonical(self):
        lbl = adhm.framed_moduli_point(adhm.ADHMData(-2, 0, 0, -2)).z2_label
        assert lbl == 2.0
