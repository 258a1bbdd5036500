import dataclasses
import dis
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hymkit import adhm, monads as mo
from hymkit.ansatz import (ansatz_monad, chart_frame, cone_monad,
                           flat_metric_cone_monad, twisted_monad, weight_ratio_sup)
from hymkit.geometry import fd_derivative, fd_mixed_second


@pytest.fixture(scope="module")
def main_spec():
    return ansatz_monad()


def _zero_map_spec(zero_beta=True):
    """All-zero ADHM maps (or a zero alpha only), built directly to bypass
    the data validation."""
    spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
    return mo.MonadSpec(
        name="degenerate", n=2, k0=1, k1=4, k2=1,
        alpha=lambda w: np.where(True, 0.0, 0.0) * spec.alpha(w),
        beta=lambda w: (0.0 if zero_beta else 1.0) * spec.beta(w),
        h0=spec.h0, h1=spec.h1, h2=spec.h2)


class TestValidate:
    def test_regular_point(self, main_spec):
        rep = mo.validate_monad(main_spec, [1.0, 0, 0])
        assert rep.regular
        assert rep.beta_alpha_residual <= 1e-12
        assert rep.sigma_min_alpha > 0.5

    def test_origin_is_singular(self, main_spec):
        rep = mo.validate_monad(main_spec, [0.0, 0, 0])
        assert not rep.beta_surjective
        assert rep.alpha_injective  # alpha = (0,0,1,0)^t stays injective

    def test_degenerate_adhm_alpha_fails(self):
        rep = mo.validate_monad(_zero_map_spec(), [0.0, 0.0])
        assert not rep.alpha_injective

    def test_beta_alpha_identity_random_points(self, main_spec, rng):
        pts = rng.standard_normal((50, 6))
        pts = pts[:, :3] + 1j * pts[:, 3:]
        a = main_spec.alpha(pts)
        b = main_spec.beta(pts)
        assert np.abs(b @ a).max() <= 1e-12


def _spec_maps(spec):
    return spec.alpha, spec.beta, spec.dalpha, spec.dbeta


ROOT = complex(np.sqrt(-37 + 5j))

# name -> (maps, n, entries of the column alpha or None if k0 = 0, entries
# of the row beta), the entries written from each map's formula
AFFINE_CASES = {
    "ansatz": (lambda: _spec_maps(ansatz_monad()), 3,
               lambda x, y, z: [x, y, 1, 0], lambda x, y, z: [-y, x, 0, z]),
    "cone": (lambda: _spec_maps(cone_monad()), 3,
             None, lambda x, y, z: [x, y, z]),
    "flat-cone": (lambda: _spec_maps(flat_metric_cone_monad()), 3,
                  None, lambda x, y, z: [x, y, z]),
    "twisted-100-root-10": (lambda: _spec_maps(twisted_monad(100, root=10)), 3,
                            lambda x, y, z: [x, y, 10, 0],
                            lambda x, y, z: [-y, x, 0, 10]),
    "twisted-100-root-minus-10": (lambda: _spec_maps(twisted_monad(100, root=-10)), 3,
                                  lambda x, y, z: [x, y, -10, 0],
                                  lambda x, y, z: [-y, x, 0, -10]),
    "twisted-complex": (lambda: _spec_maps(twisted_monad(-37 + 5j)), 3,
                        lambda x, y, z: [x, y, ROOT, 0],
                        lambda x, y, z: [-y, x, 0, ROOT]),
    "instanton": (lambda: _spec_maps(adhm.instanton_monad(
                      adhm.ADHMData(1, 0.5j, -0.5j, 1))), 2,
                  lambda x, y: [x, y, 1, 0.5j], lambda x, y: [-y, x, -0.5j, 1]),
    "instanton-complex": (lambda: _spec_maps(adhm.instanton_monad(
                              adhm.ADHMData(2 - 1j, 0, 0, 2 - 1j))), 2,
                          lambda x, y: [x, y, 2 - 1j, 0],
                          lambda x, y: [-y, x, 0, 2 - 1j]),
    # a1 b1 + a2 b2 = 1: violates the ADHM equations
    "raw-non-adhm": (lambda: adhm._maps(1, 0, 1, 0), 2,
                     lambda x, y: [x, y, 1, 0], lambda x, y: [-y, x, 1, 0]),
}


def _entries(w, entries):
    """The entries (scalars or arrays over the batch) stacked on a last axis."""
    return np.stack([np.broadcast_to(np.asarray(e, dtype=complex), w.shape[:-1])
                     for e in entries(*np.moveaxis(w, -1, 0))], axis=-1)


class TestAffineMaps:
    """Every bundled monad's maps against their formulas, and each derivative
    against finite differences of its map."""

    def points(self, n, rng):
        p = rng.standard_normal((7, 2 * n)) * 2
        w = p[:, :n] + 1j * p[:, n:]
        w[0, 1] = 0.0  # a zero coordinate
        return w

    @pytest.mark.parametrize("name", list(AFFINE_CASES))
    def test_maps_match_formulas(self, name, rng):
        make, n, alpha_entries, beta_entries = AFFINE_CASES[name]
        alpha, beta, _, _ = make()
        w = self.points(n, rng)
        for q in (w, w[3]):
            expected_beta = _entries(q, beta_entries)[..., None, :]
            if alpha_entries is None:
                expected_alpha = np.zeros(q.shape[:-1] + (expected_beta.shape[-1], 0))
            else:
                expected_alpha = _entries(q, alpha_entries)[..., :, None]
            for got, expected in ((alpha(q), expected_alpha), (beta(q), expected_beta)):
                assert got.shape == expected.shape
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("name", list(AFFINE_CASES))
    def test_derivatives_match_finite_differences(self, name, rng):
        make, n, _, _ = AFFINE_CASES[name]
        alpha, beta, dalpha, dbeta = make()
        w = self.points(n, rng)
        for q in (w, w[3]):
            for fn, dfn in ((alpha, dalpha), (beta, dbeta)):
                d = dfn(q)
                fd = mo._fd_jacobian(fn, q, n, 1e-5)
                assert d.shape == fd.shape
                scale = np.abs(d).max(initial=0.0)
                assert np.abs(d - fd).max(initial=0.0) <= 1e-8 * scale


class TestCohomologyFrame:
    def test_rank_is_two(self, main_spec):
        basis = mo.cohomology_frame(main_spec, [1.0, 0, 0])
        assert basis.shape == (4, 2) and main_spec.rank == 2

    def test_fiber_conditions_at_unit_x(self, main_spec):
        # at (1,0,0): v2 = 0 and v1/sqrt(2) + v3 = 0 cut the fiber
        b = mo.cohomology_frame(main_spec, [1.0, 0, 0])
        h1 = main_spec.h1.value(np.array([1.0, 0, 0]))
        assert np.abs(b[1, :]).max() < 1e-10
        assert np.abs(b[0, :] * 2**-0.5 + b[2, :]).max() < 1e-10
        # contains (0,0,0,1) and the normalisation of (1,0,-2^{-1/2},0)
        coords = b.conj().T @ h1 @ np.array([0, 0, 0, 1.0])
        np.testing.assert_allclose(b @ coords, [0, 0, 0, 1.0], atol=1e-10)
        v = np.array([1.0, 0, -(2**-0.5), 0])
        coords = b.conj().T @ h1 @ v
        np.testing.assert_allclose(b @ coords, v, atol=1e-10)

    def test_orthonormal_and_annihilated(self, main_spec, rng):
        for _ in range(5):
            p = rng.standard_normal(6)
            w = p[:3] + 1j * p[3:]
            basis = mo.cohomology_frame(main_spec, w)
            h1 = main_spec.h1.value(w)
            gram = basis.conj().T @ h1 @ basis
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
            assert np.abs(main_spec.beta(w) @ basis).max() < 1e-10
            h0 = main_spec.h0.value(w)
            adag = np.linalg.solve(h0, main_spec.alpha(w).conj().T @ h1)
            assert np.abs(adag @ basis).max() < 1e-10
            column = mo._projector(main_spec, mo._values(main_spec, w[None]))
            proj = np.concatenate([column(i) for i in range(main_spec.k1)], axis=1)[..., 0]
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
            # h1-self-adjoint projector
            lhs = h1 @ proj
            np.testing.assert_allclose(lhs, lhs.conj().T, atol=1e-10)

    def test_singular_point_raises_with_diagnostics(self, main_spec):
        with pytest.raises(mo.SingularPointError) as exc:
            mo.cohomology_frame(main_spec, [0.0, 0, 0])
        assert exc.value.report is not None

    def test_cone_fiber_at_unit_z(self):
        basis = mo.cohomology_frame(cone_monad(), [0, 0, 1.0])
        assert basis.shape == (3, 2)
        assert np.abs(basis[2, :]).max() < 1e-12

    def test_deterministic(self, main_spec):
        f1 = mo.cohomology_frame(main_spec, [0.3, -0.2j, 1.0])
        f2 = mo.cohomology_frame(main_spec, [0.3, -0.2j, 1.0])
        np.testing.assert_array_equal(f1, f2)


def _pointwise_frame(spec, w):
    """The pointwise frame rule, one point at a time: seeds P e_1..P e_{k1} in
    index order, modified Gram-Schmidt in h1, residual h1-norms <= 1e-7
    discarded."""
    h0, h1, h2 = (m.value(w) for m in (spec.h0, spec.h1, spec.h2))
    b = np.asarray(spec.beta(w), dtype=complex)
    bd = np.linalg.solve(h1, b.conj().T @ h2)
    proj = np.eye(spec.k1) - bd @ np.linalg.solve(b @ bd, b)
    if spec.k0 > 0:
        a = np.asarray(spec.alpha(w), dtype=complex)
        ad = np.linalg.solve(h0, a.conj().T @ h1)
        proj = proj - a @ np.linalg.solve(ad @ a, ad)
    basis = []
    for i in range(spec.k1):
        v = proj[:, i].copy()
        for u in basis:
            v -= u * (u.conj() @ h1 @ v)
        nrm = np.sqrt(np.real(v.conj() @ h1 @ v))
        if nrm > 1e-7:
            basis.append(v / nrm)
        if len(basis) == spec.rank:
            break
    return np.stack(basis, axis=1)


class TestFrameBatch:
    """The batched frame against the pointwise Gram-Schmidt rule."""

    def case(self, name, rng):
        p = rng.standard_normal((10, 6))
        w = p[:, :3] + 1j * p[:, 3:]
        if name == "ansatz":
            # at (1, 0, 0) the seed P e_2 is 0 and the third seed is taken
            w[:2] = [[1.0, 0, 0], [-2.0, 0, 0]]
            return ansatz_monad(), w
        if name == "adhm":
            return adhm.instanton_monad(adhm.ADHMData(1, 0.5j, -0.5j, 1)), w[:, :2]
        if name == "cone":
            return cone_monad(), w
        return twisted_monad(400), w + np.array([0, 0, 400.0])

    @pytest.mark.parametrize("name", ["ansatz", "adhm", "cone", "twisted"])
    def test_matches_pointwise_rule(self, name, rng):
        spec, w = self.case(name, rng)
        basis = mo.frame_batch(spec, mo._values(spec, w))
        ref = np.stack([_pointwise_frame(spec, q) for q in w])
        assert basis.shape == ref.shape
        assert np.abs(basis - ref).max() <= 1e-12

    def test_origin_in_batch_raises(self, main_spec):
        w = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.3, 0.4, 1.0]], dtype=complex)
        for spec in (main_spec, cone_monad()):
            with np.errstate(divide="ignore"):  # the cone metric |w|^{-1} at 0
                with pytest.raises(mo.SingularPointError, match="1 singular point"):
                    mo.frame_batch(spec, mo._values(spec, w))
                with pytest.raises(mo.SingularPointError, match="1 singular point"):
                    mo.curvature_batch(spec, w)

    @pytest.mark.parametrize("scale", [np.nan, 1e-20])
    def test_short_or_non_finite_point_raises(self, main_spec, scale):
        # a NaN h1 norm, or residual norms all <= 1e-7, at the second point
        values = mo._values(main_spec, np.array([[1.0, 0, 0], [0.3, 0.4, 1.0]]))
        values["h1"][..., 1] *= scale
        with pytest.raises(mo.SingularPointError):
            mo.frame_batch(main_spec, values)

    @pytest.mark.parametrize("entry,expected", [
        (lambda spec: mo.curvature_batch(
            spec, np.array([[0.5, 1.0, -0.3], [1.2, 0.3j, 0.4]])),
         {"h0": 1, "h1": 1, "h2": 1, "alpha": 1, "beta": 1}),
        (lambda spec: mo.curvature(spec, [0.5, 1.0, -0.3]),
         {"h0": 1, "h1": 1, "h2": 1, "alpha": 1, "beta": 1}),
        # the Gram matrix needs no h2
        (lambda spec: mo.induced_metric(
            spec, [0.5, 1.0, -0.3], chart_frame("x")([0.5, 1.0, -0.3])),
         {"h0": 1, "h1": 1, "alpha": 1, "beta": 1}),
    ], ids=["curvature_batch", "curvature", "induced_metric"])
    def test_evaluates_inputs_once(self, entry, expected):
        base = ansatz_monad()
        calls = {}

        def counted(name, fn):
            def wrapped(w):
                calls[name] = calls.get(name, 0) + 1
                return fn(w)
            return wrapped

        def metric(name, m):
            # counts the evaluations of the metric, each _diags call forming
            # the entries and every derivative order asked for at once
            class Counted(mo.DiagPowerMetric):
                def _diags(self, wt, order):
                    calls[name] = calls.get(name, 0) + 1
                    return super()._diags(wt, order)
            return Counted(m.consts, m.pow_rho, m.pow_r2, m.pow_z2)

        spec = mo.MonadSpec(
            name="counted", n=3, k0=1, k1=4, k2=1,
            alpha=counted("alpha", base.alpha), beta=counted("beta", base.beta),
            h0=metric("h0", base.h0), h1=metric("h1", base.h1),
            h2=metric("h2", base.h2), dalpha=base.dalpha, dbeta=base.dbeta)
        entry(spec)
        assert calls == expected


def _ref_validity(spec, w):
    """The per-point validity rule the engine used before its one
    singular-point rule, kept as a reference: with h = L L^dag (Cholesky),
    the smallest singular values of L1^dag alpha L0^{-dag} and
    L2^dag beta L1^{-dag}, regular when both are above SINGULAR_TOL."""
    h1, h2 = spec.h1.value(w), spec.h2.value(w)
    b = np.asarray(spec.beta(w), dtype=complex)
    l1, l2 = np.linalg.cholesky(h1), np.linalg.cholesky(h2)
    if spec.k0 > 0:
        a = np.asarray(spec.alpha(w), dtype=complex)
        l0 = np.linalg.cholesky(spec.h0.value(w))
        a_std = l1.conj().T @ a @ np.linalg.inv(l0.conj().T)
        smin_a = float(np.linalg.svd(a_std, compute_uv=False).min())
        res = float(np.abs(b @ a).max())
    else:
        smin_a, res = np.inf, 0.0
    b_std = l2.conj().T @ b @ np.linalg.inv(l1.conj().T)
    smin_b = float(np.linalg.svd(b_std, compute_uv=False).min())
    return mo.ValidityReport(point=w, sigma_min_alpha=smin_a, sigma_min_beta_dag=smin_b,
                             beta_alpha_residual=res,
                             alpha_injective=bool(smin_a > mo.SINGULAR_TOL),
                             beta_surjective=bool(smin_b > mo.SINGULAR_TOL))


# name -> (spec, n, shift of the last coordinate); the twisted monad's h1
# has a |z|^{-2} entry, so its points sit near z = 400
RULE_CASES = {
    "ansatz": (ansatz_monad, 3, 0.0),
    "cone": (cone_monad, 3, 0.0),
    "flat-cone": (flat_metric_cone_monad, 3, 0.0),
    "twisted": (lambda: twisted_monad(400), 3, 400.0),
    "instanton": (lambda: adhm.instanton_monad(adhm.ADHMData(1, 0.5j, -0.5j, 1)), 2, 0.0),
    "zero-maps": (_zero_map_spec, 2, 0.0),
    "zero-alpha": (lambda: _zero_map_spec(zero_beta=False), 2, 0.0),
}
AXIS_T = [0.0, 1e-12, 5e-9, 2e-8, 1.0]


class TestSingularPointRule:
    """The one singular-point rule against the per-point Cholesky/SVD rule,
    on random points and on (t, 0, 0) for t down to the origin."""

    def case(self, name, rng):
        make, n, shift = RULE_CASES[name]
        p = rng.standard_normal((6, 2 * n))
        axis = np.zeros((len(AXIS_T), n), dtype=complex)
        axis[:, 0] = AXIS_T
        w = np.vstack([p[:, :n] + 1j * p[:, n:], axis])
        w[:, -1] += shift
        spec = make()
        with np.errstate(divide="ignore"):  # the cone metric |w|^{-1} at 0
            refs = [_ref_validity(spec, q) for q in w]
        return spec, w, refs

    @pytest.mark.parametrize("name", list(RULE_CASES))
    def test_report_matches_reference(self, name, rng):
        spec, w, refs = self.case(name, rng)
        for q, ref in zip(w, refs):
            with np.errstate(divide="ignore"):
                rep = mo.validate_monad(spec, q)
            np.testing.assert_allclose(
                [rep.sigma_min_alpha, rep.sigma_min_beta_dag],
                [ref.sigma_min_alpha, ref.sigma_min_beta_dag], rtol=1e-10, atol=0)
            assert rep.beta_alpha_residual == ref.beta_alpha_residual
            assert ((rep.alpha_injective, rep.beta_surjective)
                    == (ref.alpha_injective, ref.beta_surjective))

    @pytest.mark.parametrize("name", list(RULE_CASES))
    def test_entry_points_raise_exactly_at_singular_points(self, name, rng):
        spec, w, refs = self.case(name, rng)
        entries = (lambda q: mo.curvature_batch(spec, q[None]),
                   lambda q: mo.curvature(spec, q),
                   lambda q: mo.cohomology_frame(spec, q))
        with np.errstate(divide="ignore"):
            for q, ref in zip(w, refs):
                for entry in entries:
                    if ref.regular:
                        entry(q)
                        continue
                    with pytest.raises(mo.SingularPointError) as exc:
                        entry(q)
                    assert not exc.value.report.regular
                    np.testing.assert_array_equal(exc.value.report.point, q)
            bad = sum(not ref.regular for ref in refs)
            if bad:
                with pytest.raises(mo.SingularPointError,
                                   match=f"{bad} singular point") as exc:
                    mo.curvature_batch(spec, w)
                first = next(q for q, ref in zip(w, refs) if not ref.regular)
                np.testing.assert_array_equal(exc.value.report.point, first)
            else:
                mo.curvature_batch(spec, w)

    def test_non_finite_gram_is_singular(self):
        # at z = 0 the twisted h1 has an infinite entry and alpha^dag alpha is NaN
        spec = twisted_monad(400)
        with np.errstate(divide="ignore", invalid="ignore"):
            rep = mo.validate_monad(spec, [1.0, 0, 0])
            with pytest.raises(mo.SingularPointError, match="1 singular point"):
                mo.curvature_batch(spec, [[1.0, 0, 400], [1.0, 0, 0]])
        assert np.isnan(rep.sigma_min_alpha) and not rep.alpha_injective

    @pytest.mark.parametrize("spec,w", [
        (cone_monad(), [[0, 0, 0], [1.0, 0, 0]]),
        (twisted_monad(400), [[1.0, 0, 0], [1.0, 0, 400]])], ids=["cone", "twisted"])
    def test_singular_rule_decides_without_warnings(self, spec, w):
        # a negative metric power of 0 (and inf * 0 in a Gram matrix) used to
        # warn before the rule raised
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(mo.SingularPointError, match="1 singular point"):
                mo.curvature_batch(spec, w)
            assert not mo.validate_monad(spec, w[0]).regular


class TestInducedMetric:
    def test_gram_at_reference_point(self, main_spec):
        s = [np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0])]
        g = mo.induced_metric(main_spec, [0, 10.0, 0], s)
        np.testing.assert_allclose(g, np.diag([0.90868, 1.0]), atol=1e-4)

    def test_deviation_bounded_by_scaled_norm(self, main_spec):
        s = [np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0])]
        g = mo.induced_metric(main_spec, [0, 10.0, 0], s)
        dev = np.linalg.norm(g - np.eye(2), 2)
        assert dev == pytest.approx(0.091, abs=5e-3)
        assert dev <= 1.0 * 10.0 / 100.0  # C * |w| / |y|^2 with C = 1

    def test_orthonormal_basis_gives_identity(self, main_spec):
        basis = mo.cohomology_frame(main_spec, [0.5, 1.0, -0.3])
        g = mo.induced_metric(main_spec, [0.5, 1.0, -0.3], [basis[:, 0], basis[:, 1]])
        np.testing.assert_allclose(g, np.eye(2), atol=1e-10)

    def test_rejects_section_outside_kernel(self, main_spec):
        with pytest.raises(ValueError, match="ker beta"):
            mo.induced_metric(main_spec, [1.0, 0, 0], [np.array([0, 1.0, 0, 0])])


class TestCurvature:
    def test_mean_curvature_hermitian(self, main_spec, rng):
        for _ in range(5):
            p = rng.standard_normal(6)
            rep = mo.curvature(main_spec, p[:3] + 1j * p[3:])
            np.testing.assert_allclose(rep["mean"], rep["mean"].conj().T, atol=1e-10)
            c = rep["form_raw"]
            np.testing.assert_allclose(c, c.conj().transpose(1, 0, 3, 2), rtol=0,
                                       atol=1e-8 * max(np.abs(c).max(), 1.0))

    def test_gauge_invariance_of_norms(self, main_spec, rng):
        w = np.array([[0.8, -0.4 + 0.3j, 1.1]])
        values = mo._values(main_spec, w)
        basis = mo.frame_batch(main_spec, values)   # (1, 4, 2), points first
        _, _, norm_mean, norm_form = mo._curvature_data(
            main_spec, w, np.moveaxis(basis, 0, -1), values)
        # unitary recombination of the basis
        th = rng.standard_normal()
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                     dtype=complex)
        u = u @ np.diag(np.exp(1j * rng.standard_normal(2)))
        _, _, norm_mean2, norm_form2 = mo._curvature_data(
            main_spec, w, np.moveaxis(basis @ u, 0, -1), values)
        assert norm_form[0] == pytest.approx(norm_form2[0], rel=1e-8)
        assert norm_mean[0] == pytest.approx(norm_mean2[0], abs=1e-8)

    def test_batch_agrees_with_single(self, main_spec, rng):
        pts = rng.standard_normal((8, 6))
        pts = pts[:, :3] + 1j * pts[:, 3:]
        data = mo.curvature_batch(main_spec, pts)
        for i, p in enumerate(pts):
            rep = mo.curvature(main_spec, p)
            assert data["norm_form"][i] == pytest.approx(float(rep["norm_form"]), rel=1e-9)
            assert data["norm_mean"][i] == pytest.approx(float(rep["norm_mean"]), rel=1e-9)

    @pytest.mark.parametrize("name", ["ansatz", "cone", "cone-flat", "twisted", "adhm",
                                      "ansatz-fd", "adhm-fd"])
    def test_one_point_calls_are_rows_of_the_batch(self, name, rng):
        # curvature and cohomology_frame return, bit for bit, a row of the
        # curvature_batch record; "-fd" is the finite-difference oracle
        spec = {"ansatz": ansatz_monad, "cone": cone_monad,
                "cone-flat": flat_metric_cone_monad,
                "twisted": lambda: twisted_monad(100.0),
                "adhm": lambda: adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1)),
                "ansatz-fd": lambda: adhm.strip_analytic_derivatives(ansatz_monad()),
                "adhm-fd": lambda: adhm.strip_analytic_derivatives(
                    adhm.instanton_monad(adhm.random_valid_data(rng)))}[name]()
        p = rng.standard_normal((20, 2 * spec.n))
        w = p[:, :spec.n] + 1j * p[:, spec.n:]
        if name == "twisted":
            w[:, 2] += 100.0
        data = mo.curvature_batch(spec, w)
        shapes = {"basis": (spec.k1, 2), "form_raw": (spec.n, spec.n, 2, 2),
                  "mean": (2, 2), "norm_mean": (), "norm_form": ()}
        for i, q in enumerate(w):
            rep = mo.curvature(spec, q)
            assert {key: x.shape for key, x in rep.items()} == shapes
            for key, x in rep.items():
                assert x.tobytes() == data[key][i].tobytes(), key
            basis = mo.cohomology_frame(spec, q)
            assert basis.tobytes() == data["basis"][i].tobytes()
            assert basis.tobytes() == mo.frame_batch(spec, mo._values(spec, q[None]))[0].tobytes()

    def test_fd_fallback_matches_analytic(self, main_spec):
        stripped = adhm.strip_analytic_derivatives(main_spec)
        w = np.array([0.9, 0.4 - 0.2j, 0.7 + 0.1j])
        r_an = mo.curvature(main_spec, w)
        r_fd = mo.curvature(stripped, w)
        assert np.abs(r_an["mean"] - r_fd["mean"]).max() < 1e-6
        assert float(r_fd["norm_form"]) == pytest.approx(float(r_an["norm_form"]), rel=1e-6)


class TestCurvatureOracle:
    """The curvature formula against finite differences of the induced metric."""

    def frame_for(self, name):
        if name == "ansatz":
            return ansatz_monad(), chart_frame("x"), [1.2, 0.3 - 0.2j, 0.4]
        if name == "cone":
            def zframe(q):
                q = np.asarray(q, dtype=complex)
                return np.stack([np.array([q[2], 0, -q[0]]),
                                 np.array([0, q[2], -q[1]])], axis=1)
            return cone_monad(), zframe, [0.4, -0.3, 1.1]
        d = adhm.ADHMData(1, 0, 0, 1)

        def bframe(q):
            q = np.asarray(q, dtype=complex)
            return np.stack([np.array([1, 0, 0, q[1]]),
                             np.array([0, 1, 0, -q[0]])], axis=1)
        return adhm.instanton_monad(d), bframe, [0.5, -0.7]

    @pytest.mark.parametrize("name", ["adhm", "ansatz", "cone"])
    def test_formula_matches_fd(self, name):
        spec, frame, p = self.frame_for(name)
        err = mo.curvature_fd_check(spec, p, frame, h=1e-3)
        assert err <= 1e-3

    @pytest.mark.parametrize("name", ["adhm", "ansatz", "cone"])
    def test_second_order_refinement(self, name):
        spec, frame, p = self.frame_for(name)
        e1 = mo.curvature_fd_check(spec, p, frame, h=2e-2)
        e2 = mo.curvature_fd_check(spec, p, frame, h=1e-2)
        assert np.log2(e1 / e2) == pytest.approx(2.0, abs=0.2)


class TestDiagPowerMetric:
    @given(seed=st.integers(0, 10**6))
    def test_derivatives_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        metric = mo.DiagPowerMetric(consts=(0.7, 1.3), pow_rho=(-0.5, 0.5),
                                    pow_r2=(0.0, -0.5), pow_z2=(0.0, -1.0))
        p = rng.standard_normal(6) * 0.8
        w = p[:3] + 1j * p[3:]
        if abs(w[2]) < 0.3 or np.sum(np.abs(w) ** 2) < 0.1:
            return
        dh = metric.dholo(w)
        ddh = metric.dmixed(w)
        for j in range(3):
            fd = fd_derivative(metric.value, w, j, "holo", 1e-4)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(dh[j] - fd).max() < 1e-6 * scale
        for j in range(3):
            for k in range(3):
                fd = fd_mixed_second(metric.value, w, j, k, 1e-3)
                scale = max(np.abs(fd).max(), 1.0)
                assert np.abs(ddh[j, k] - fd).max() < 1e-4 * scale

    @staticmethod
    def loop_derivatives(metric, w):
        """dholo and dmixed with the per-index Python loops they replaced."""
        w = np.asarray(w, dtype=complex)
        vals, rho, r2, z2 = metric._entries(np.moveaxis(w, -1, 0))
        vals = np.moveaxis(vals, 0, -1)
        n, k = w.shape[-1], metric.dim
        a, b, g = (np.asarray(t) for t in (metric.pow_rho, metric.pow_r2, metric.pow_z2))
        wb = w.conj()
        dlog = np.zeros(w.shape[:-1] + (n, k), dtype=complex)
        for j in range(n):
            term = a * (wb[..., j] / rho)[..., None]
            if np.any(b != 0.0):
                term = term + b * (wb[..., j] / r2)[..., None]
            dlog[..., j, :] = term
        if np.any(g != 0.0):
            dlog[..., n - 1, :] += g * (1.0 / w[..., -1])[..., None]
        ddlog = np.zeros(w.shape[:-1] + (n, n, k), dtype=complex)
        for j in range(n):
            for kk in range(n):
                delta = 1.0 if j == kk else 0.0
                term = a * ((delta / rho) - wb[..., j] * w[..., kk] / rho**2)[..., None]
                if np.any(b != 0.0):
                    term = term + b * ((delta / r2) - wb[..., j] * w[..., kk] / r2**2)[..., None]
                ddlog[..., j, kk, :] = term
        idx = np.arange(k)
        dh = np.zeros(w.shape[:-1] + (n, k, k), dtype=complex)
        dh[..., idx, idx] = vals[..., None, :] * dlog
        prod = dlog[..., :, None, :] * dlog.conj()[..., None, :, :]
        ddh = np.zeros(w.shape[:-1] + (n, n, k, k), dtype=complex)
        ddh[..., idx, idx] = vals[..., None, None, :] * (ddlog + prod)
        return dh, ddh

    @pytest.mark.parametrize("metric", [
        ansatz_monad().h1, cone_monad().h1, twisted_monad(400.0).h1,
        mo.DiagPowerMetric(consts=(0.7, 1.3), pow_rho=(-0.5, 0.5),
                           pow_r2=(0.0, -0.5), pow_z2=(0.0, -1.0))],
        ids=["ansatz", "cone", "twisted", "all-powers"])
    def test_bit_identical_to_loops(self, metric):
        from hymkit.ansatz import sample_log_uniform
        rng = np.random.default_rng(7)
        adhm_pts = rng.standard_normal((40, 4)) * 1.5
        batches = [adhm_pts[:, :2] + 1j * adhm_pts[:, 2:],          # adhm, C^2
                   sample_log_uniform(rng, 40, 1e-2, 1e2),            # ansatz
                   sample_log_uniform(rng, 40, 0.3, 3.0)]             # cone
        batches += [b[3] for b in batches] + [batches[1].reshape(4, 10, 3)]
        for w in batches:
            dh, ddh = self.loop_derivatives(metric, w)
            assert np.array_equal(metric.dholo(w), dh)
            assert np.array_equal(metric.dmixed(w), ddh)


# ---------------------------------------------------------------------------
# the fiber-first contraction against the ambient einsum chain


def _ref_grad_alpha_dag(spec, w, h0, h1, dh0, dh1, da):
    at = np.swapaxes(np.asarray(spec.alpha(w), dtype=complex).conj(), -1, -2)
    dat = np.swapaxes(da.conj(), -1, -2)
    dh0_bar = np.swapaxes(dh0.conj(), -1, -2)
    dh1_bar = np.swapaxes(dh1.conj(), -1, -2)
    h0i = np.linalg.inv(h0)
    return (-np.einsum("ab,jbc,cd,de,ef->jaf", h0i, dh0_bar, h0i, at, h1)
            + np.einsum("ab,jbc,cd->jad", h0i, dat, h1)
            + np.einsum("ab,bc,jcd->jad", h0i, at, dh1_bar))


def _ref_grad_beta(spec, w, h1, h2, dh1, dh2, db):
    bt = np.swapaxes(np.asarray(spec.beta(w), dtype=complex).conj(), -1, -2)
    dbt = np.swapaxes(db.conj(), -1, -2)
    dh1_bar = np.swapaxes(dh1.conj(), -1, -2)
    dh2_bar = np.swapaxes(dh2.conj(), -1, -2)
    h1i, h2i = np.linalg.inv(h1), np.linalg.inv(h2)
    dbar_bdag = (-np.einsum("ab,jbc,cd,de,ef->jaf", h1i, dh1_bar, h1i, bt, h2)
                 + np.einsum("ab,jbc,cd->jad", h1i, dbt, h2)
                 + np.einsum("ab,bc,jcd->jad", h1i, bt, dh2_bar))
    xt = np.swapaxes(dbar_bdag.conj(), -1, -2)
    return np.einsum("ab,jbc,cd->jad", h2i, xt, h1)


def _ref_ambient_forms(spec, w):
    """Ambient (n, n, k1, k1) forms at one point, as the engine built them:
    h1 F1 - conj(grad_beta)^t h2 (beta beta^dag)^{-1} grad_beta
    + conj(grad_adag)^t h0 (alpha^dag alpha)^{-1} grad_adag."""
    n = spec.n

    def dmap(fn, dfn):
        if dfn is not None:
            return np.asarray(dfn(w), dtype=complex)
        return np.stack([fd_derivative(fn, w, j, "holo", mo.FD_STEP)
                         for j in range(n)], axis=0)

    h0, h1, h2 = (m.value(w) for m in (spec.h0, spec.h1, spec.h2))
    dh0, dh1, dh2 = (m.dholo(w) for m in (spec.h0, spec.h1, spec.h2))
    ddh1 = spec.h1.dmixed(w)
    h1i = np.linalg.inv(h1)
    corr = np.einsum("kab,bc,jcd->jkad", np.swapaxes(dh1.conj(), -1, -2), h1i, dh1)
    f1 = -np.einsum("ab,jkbc->jkac", h1i, ddh1 - corr)
    beta = np.asarray(spec.beta(w), dtype=complex)
    gb = _ref_grad_beta(spec, w, h1, h2, dh1, dh2, dmap(spec.beta, spec.dbeta))
    bbd_inv = np.linalg.inv(beta @ h1i @ beta.conj().T @ h2)
    mid = np.einsum("ab,bc,jcd->jad", h2, bbd_inv, gb)
    out = (np.einsum("ab,jkbc->jkac", h1, f1)
           - np.einsum("kab,jbc->jkac", np.swapaxes(gb.conj(), -1, -2), mid))
    if spec.k0 > 0:
        alpha = np.asarray(spec.alpha(w), dtype=complex)
        ga = _ref_grad_alpha_dag(spec, w, h0, h1, dh0, dh1, dmap(spec.alpha, spec.dalpha))
        ada_inv = np.linalg.inv(np.linalg.solve(h0, alpha.conj().T @ h1) @ alpha)
        mid3 = np.einsum("ab,bc,kcd->kad", h0, ada_inv, ga)
        out = out + np.einsum("jab,kbc->jkac", np.swapaxes(ga.conj(), -1, -2), mid3)
    return out


class TestFiberForms:
    """curvature_batch against the ambient forms projected by B^dag N B."""

    def case(self, name, rng):
        p = rng.standard_normal((12, 6))
        w = p[:, :3] + 1j * p[:, 3:]
        w[:, 0] += 1.5
        if name == "adhm":
            return adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1)), w[:, :2]
        if name == "cone":
            return cone_monad(), w
        if name == "twisted":
            return twisted_monad(400), w + np.array([0, 0, 400.0])
        if name == "fd_stripped":
            return adhm.strip_analytic_derivatives(ansatz_monad()), w
        return ansatz_monad(), w

    @pytest.mark.parametrize("name", ["adhm", "ansatz", "cone", "twisted", "fd_stripped"])
    def test_matches_ambient_reference(self, name, rng):
        spec, w = self.case(name, rng)
        data = mo.curvature_batch(spec, w)
        basis = data["basis"]
        raw = np.stack([
            np.einsum("ab,jkbc,cd->jkad", basis[i].conj().T,
                      _ref_ambient_forms(spec, w[i]), basis[i])
            for i in range(len(w))])
        mean = 2.0 * np.einsum("...jjab->...ab", raw)
        mean = 0.5 * (mean + np.swapaxes(mean.conj(), -1, -2))
        norm_mean = np.abs(np.linalg.eigvalsh(mean)).max(axis=-1)
        norm_form = np.sqrt(mo.form_norm_sq(np.moveaxis(raw, 0, -1)))
        scale = np.abs(raw).max()
        for got, ref in ((data["form_raw"], raw), (data["mean"], mean),
                         (data["norm_mean"], norm_mean),
                         (data["norm_form"], norm_form)):
            assert np.abs(got - ref).max() <= 1e-12 * scale


class TestDiagonalMetrics:
    """Every metric is a DiagPowerMetric and stays diagonal in the engine."""

    def test_constant_derivatives_are_skipped(self, rng):
        calls = []

        class Counted(mo.DiagPowerMetric):
            def _dlog(self, *args):
                calls.append(self)
                return super()._dlog(*args)

            def dholo(self, w):
                calls.append(self)
                return super().dholo(w)

            def dmixed(self, w):
                calls.append(self)
                return super().dmixed(w)

        def counted(spec):
            return dataclasses.replace(spec, **{
                key: Counted(m.consts, m.pow_rho, m.pow_r2, m.pow_z2)
                for key, m in (("h0", spec.h0), ("h1", spec.h1), ("h2", spec.h2))})

        spec, w = TestFrameBatch().case("adhm", rng)
        mo.curvature_batch(counted(spec), w)
        assert calls == []
        spec = counted(ansatz_monad())
        mo.curvature_batch(spec, TestFrameBatch().case("ansatz", rng)[1])
        assert calls and all(m is spec.h1 for m in calls)

    def test_constant_metric_forms(self):
        for k in (0, 1, 4):
            m = mo.constant_metric(2.0 * np.eye(k))
            assert isinstance(m, mo.DiagPowerMetric) and m.consts == (2.0,) * k
            assert m._diags(np.ones(3), 2)[1:] == [None, None]
            assert np.array_equal(m.value(np.ones((5, 3))),
                                  np.broadcast_to(2.0 * np.eye(k), (5, k, k)))
            assert np.array_equal(m.dmixed(np.ones(3)), np.zeros((3, 3, k, k)))

    @pytest.mark.parametrize("m", [[[2.0, 0.5j], [-0.5j, 1.0]],
                                   [[1.0, 0.0], [0.0, 1.0 + 1e-3j]]],
                             ids=["off-diagonal", "complex-diagonal"])
    def test_constant_metric_rejects_other_matrices(self, m):
        with pytest.raises(ValueError, match="real diagonal"):
            mo.constant_metric(np.array(m))

    @pytest.mark.parametrize("key", ["h0", "h1", "h2"])
    def test_monad_spec_rejects_other_metrics(self, key):
        spec = ansatz_monad()
        with pytest.raises(TypeError, match=f"{key} must be a DiagPowerMetric"):
            dataclasses.replace(spec, **{key: getattr(spec, key).value})


def _real_pair_norm_sq(f_raw, n):
    """Squared Frobenius norms of the real 2-form components over all pairs
    of the 2n real coordinates:
    sum_{a<b} 2|A_ab - A_ba|^2 + sum_{a != b} |A_ab + A_ba|^2 + 4 sum_a |A_aa|^2."""
    def fro2(m):
        return np.real(np.einsum("...ab,...ab->...", m, m.conj()))

    total = 0.0
    for a in range(n):
        total = total + 4.0 * fro2(f_raw[..., a, a, :, :])
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            s = f_raw[..., a, b, :, :] + f_raw[..., b, a, :, :]
            total = total + fro2(s)
            if a < b:
                d = f_raw[..., a, b, :, :] - f_raw[..., b, a, :, :]
                total = total + 2.0 * fro2(d)
    return total


def _points_last(raw):
    """Points-first forms (..., n, n, r, r) as form_norm_sq takes them,
    (n, n, r, r, ...)."""
    lead = raw.ndim - 4
    return np.moveaxis(raw, range(lead), range(-lead, 0))


class TestFormNorm:
    """form_norm_sq = 4 sum |A_jk|^2 against the real-pair sum it equals."""

    @pytest.mark.parametrize("name", ["ansatz", "adhm", "cone", "twisted"])
    def test_engine_forms(self, name, rng):
        spec, w = TestFrameBatch().case(name, rng)
        raw = mo.curvature_batch(spec, w)["form_raw"]
        ref = _real_pair_norm_sq(raw, spec.n)
        assert np.all(ref > 0)
        np.testing.assert_allclose(mo.form_norm_sq(_points_last(raw)), ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", [(7, 2, 2, 2, 2), (3, 4, 3, 3, 2, 2),
                                       (5, 3, 3, 3, 3)])
    def test_random_non_hermitian(self, shape, rng):
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = _real_pair_norm_sq(raw, shape[-3])
        np.testing.assert_allclose(mo.form_norm_sq(_points_last(raw)), ref, rtol=1e-13, atol=0)


def _matmul_count(fn):
    """(fn(), the number of `@` operations Python ran in it), counted by
    opcode tracing in every frame."""
    sites, count = {}, 0

    def matmuls(code):
        if code not in sites:
            sites[code] = {ins.offset for ins in dis.get_instructions(code)
                           if ins.opname in ("BINARY_MATRIX_MULTIPLY", "INPLACE_MATRIX_MULTIPLY")
                           or (ins.opname == "BINARY_OP" and ins.argrepr in ("@", "@="))}
        return sites[code]

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode" and frame.f_lasti in matmuls(frame.f_code):
            count += 1
        return trace

    sys.settrace(trace)
    try:
        out = fn()
    finally:
        sys.settrace(None)
    return out, count


def _hermitian_batch(rng, shape, r):
    m = rng.standard_normal(shape + (r, r)) + 1j * rng.standard_normal(shape + (r, r))
    return m + np.swapaxes(m.conj(), -1, -2)


class TestClosedForms:
    """The size-1 and size-2 rules of the engine against LAPACK references;
    the engine holds its matrices points last, (k, k, P), and the
    references take them points first."""

    def gram_batch(self, rng):
        # 1x1 Gram matrices beta beta^dag: real and positive up to rounding,
        # with a zero, tiny entries and non-finite ones
        g = (rng.random(200) * 10.0 ** rng.integers(-20, 3, 200)
             + 1j * 1e-18 * rng.standard_normal(200)).astype(complex)
        g[:6] = [0.0, np.inf, np.nan, complex(np.nan, 1.0), complex(1.0, np.inf), 1e-40]
        return g[:, None, None]

    def test_sigma_min_size_one(self, rng):
        g = self.gram_batch(rng)
        finite = np.isfinite(g).all(axis=(-2, -1))
        lam = np.linalg.eigvals(np.where(finite[:, None, None], g, 0.0)).real.min(axis=-1)
        ref = np.where(finite, np.sqrt(np.maximum(lam, 0.0)), np.nan)
        got = mo._sigma_min(np.moveaxis(g, 0, -1))
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0, equal_nan=True)
        assert np.array_equal(np.isnan(got), ~finite)
        # a NaN singular value is singular under the rule
        assert not np.any(got[~finite] > mo.SINGULAR_TOL)

    def test_sigma_min_larger_gram_keeps_lapack(self, rng):
        a = rng.standard_normal((50, 3, 2)) + 1j * rng.standard_normal((50, 3, 2))
        g = np.swapaxes(a.conj(), -1, -2) @ a
        g[0, 0, 1] = np.nan
        ref = np.sqrt(np.maximum(np.linalg.eigvalsh(g[1:]).min(axis=-1), 0.0))
        got = mo._sigma_min(np.moveaxis(g, 0, -1))
        assert np.isnan(got[0])
        np.testing.assert_allclose(got[1:], ref, rtol=1e-12)

    def test_gram_inverse_size_one(self, rng):
        g = self.gram_batch(rng)[6:]
        np.testing.assert_allclose(np.moveaxis(mo._inv(np.moveaxis(g, 0, -1)), -1, 0),
                                   np.linalg.inv(g), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_spectral_radius(self, rng, r):
        m = _hermitian_batch(rng, (300,), r)
        m[:4] *= np.array([0.0, 1e-30, 1e30, 1.0])[:, None, None]
        m[3] = np.diag(np.arange(r, dtype=float))  # a zero eigenvalue
        ref = np.abs(np.linalg.eigvalsh(m)).max(axis=-1)
        np.testing.assert_allclose(mo._spectral_radius(np.moveaxis(m, 0, -1)), ref,
                                   rtol=1e-14, atol=0)

    def test_spectral_radius_two_of_multiples_of_identity(self):
        # equal diagonal and no off-diagonal: the discriminant is 0
        m = np.array([[[-3.0, 0.0], [0.0, -3.0]], [[0.0, 0.0], [0.0, 0.0]]], dtype=complex)
        assert np.array_equal(mo._spectral_radius(np.moveaxis(m, 0, -1)), [3.0, 0.0])

    @pytest.mark.parametrize("make,shift", [
        (lambda: adhm.instanton_monad(adhm.ADHMData(1, 0.5j, -0.5j, 1)), 0.0),
        (ansatz_monad, 0.0), (cone_monad, 0.0), (flat_metric_cone_monad, 0.0),
        (lambda: twisted_monad(400), 400.0)],
        ids=["instanton", "ansatz", "cone", "flat-cone", "twisted"])
    def test_no_matmul_on_bundled_monads(self, rng, monkeypatch, make, shift):
        # the engine contracts its points-last blocks with _mm alone: no
        # matmul, whose per-point BLAS kernels chose the last bits of the
        # values on each CPU, and no LAPACK; `@` is found by opcode tracing
        spec = make()
        w = rng.standard_normal((50, spec.n)) + 1j * rng.standard_normal((50, spec.n)) + 0.5
        w[:, -1] += shift
        ref = mo.curvature_batch(spec, w)

        def refuse(*args, **kwargs):
            raise AssertionError("matmul or LAPACK called")
        for mod, name in ((np, "matmul"), (np, "dot"), (np, "einsum"), (np, "tensordot"),
                          (np.linalg, "inv"), (np.linalg, "eigvals"),
                          (np.linalg, "eigvalsh"), (np.linalg, "solve")):
            monkeypatch.setattr(mod, name, refuse)
        got, count = _matmul_count(lambda: mo.curvature_batch(spec, w))
        assert count == 0
        assert all(np.array_equal(got[key], ref[key]) for key in ref)

    def test_matmul_count_sees_the_operator(self):
        x = np.eye(2)
        assert _matmul_count(lambda: x @ x @ x)[1] == 2
        assert _matmul_count(lambda: mo.induced_metric(
            ansatz_monad(), [0.5, 1.0, -0.3], chart_frame("x")([0.5, 1.0, -0.3])))[1] > 0

    @pytest.mark.parametrize("make", [
        lambda: adhm.instanton_monad(adhm.ADHMData(1, 0.5j, -0.5j, 1)), ansatz_monad],
        ids=["instanton", "ansatz"])
    def test_no_lapack_on_bundled_monads(self, rng, monkeypatch, make):
        # every bundled monad has k0 <= 1, k2 = 1 and rank 2: the closed
        # forms must serve all of it, with no fall-back to LAPACK
        spec = make()
        w = rng.standard_normal((50, spec.n)) + 1j * rng.standard_normal((50, spec.n)) + 0.5
        ref = mo.curvature_batch(spec, w)

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")
        for name in ("inv", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        got = mo.curvature_batch(spec, w)
        assert all(np.array_equal(got[key], ref[key]) for key in ref)


class TestBlocks:
    """curvature_batch runs over blocks of BLOCK_POINTS points."""

    def test_blocks_are_bit_identical_to_one_block(self, monkeypatch):
        # charge's batch shape, (radial, polar, phase, phase, coordinate)
        spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
        r, nu, p1, p2 = np.meshgrid(np.linspace(0.1, 3.0, 12), np.linspace(0.1, 1.4, 10),
                                    np.linspace(0, 6, 10), np.linspace(0, 6, 10),
                                    indexing="ij")
        w = np.stack([r * np.cos(nu) * np.exp(1j * p1), r * np.sin(nu) * np.exp(1j * p2)],
                     axis=-1)
        assert w.shape == (12, 10, 10, 10, 2) and w[..., 0].size > 2 * mo.BLOCK_POINTS
        blocked = mo.curvature_batch(spec, w)
        monkeypatch.setattr(mo, "BLOCK_POINTS", w[..., 0].size)
        whole = mo.curvature_batch(spec, w)
        flat = mo.curvature_batch(spec, w.reshape(-1, 2))
        assert blocked["form_raw"].shape == (12, 10, 10, 10, 2, 2, 2, 2)
        assert blocked["norm_mean"].shape == (12, 10, 10, 10)
        for key in whole:
            assert np.array_equal(blocked[key], whole[key])
            assert np.array_equal(flat[key].reshape(whole[key].shape), whole[key])

    def test_zero_point_batch(self, main_spec):
        out = mo.curvature_batch(main_spec, np.zeros((0, 3)))
        assert out["basis"].shape == (0, 4, 2)
        assert out["form_raw"].shape == (0, 3, 3, 2, 2)
        assert out["mean"].shape == (0, 2, 2)
        assert out["norm_mean"].shape == out["norm_form"].shape == (0,)

    def test_single_point_keeps_its_shape(self, main_spec):
        out = mo.curvature_batch(main_spec, [0.3, 1.0, -0.2j])
        assert out["form_raw"].shape == (3, 3, 2, 2) and out["norm_mean"].shape == ()

    @pytest.mark.parametrize("make,first,second", [
        (ansatz_monad, [0, 0, 0], [0, 0, 0]),
        (cone_monad, [0, 0, 0], [0, 0, 0]),
        (lambda: twisted_monad(400), [1.0, 0, 0], [2.0, 1.0, 0])],
        ids=["ansatz-origin", "cone-origin", "twisted-z0"])
    def test_singular_points_in_two_blocks(self, rng, make, first, second):
        spec = make()
        n_pts = 3 * mo.BLOCK_POINTS
        w = rng.standard_normal((n_pts, 3)) + 1j * rng.standard_normal((n_pts, 3))
        w[:, 2] += 400.0 if spec.name.startswith("twisted") else 1.0
        w[mo.BLOCK_POINTS + 3], w[2 * mo.BLOCK_POINTS + 5] = first, second  # blocks 1, 2
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = mo.validate_monad(spec, first)
            # blocks of the flattened batch cross the first of its two axes
            with pytest.raises(mo.SingularPointError, match="2 singular point") as exc:
                mo.curvature_batch(spec, w.reshape(4, -1, 3))
        rep = exc.value.report
        assert not rep.regular
        np.testing.assert_array_equal(rep.point, first)
        np.testing.assert_array_equal([rep.sigma_min_alpha, rep.sigma_min_beta_dag],
                                      [ref.sigma_min_alpha, ref.sigma_min_beta_dag])

    def test_one_copy_of_the_record(self):
        # the selected fields grow with the batch, one block's working arrays
        # (its _values included) do not: from 3 to 12 blocks the peak grows
        # by the selected fields' growth, where a record gathered from
        # per-block parts, or inputs held for the whole batch, would add more
        spec = adhm.instanton_monad(adhm.ADHMData(1, 0, 0, 1))
        rng = np.random.default_rng(3)
        for fields in (mo.FIELDS, ("norm_form",)):
            sizes = {}
            for blocks in (3, 12):
                w = rng.standard_normal((blocks * mo.BLOCK_POINTS, 2)) + 1j
                tracemalloc.start()
                try:
                    data = mo.curvature_batch(spec, w, fields=fields)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                sizes[blocks] = (peak, sum(x.nbytes for x in data.values()))
            d_peak, d_record = np.subtract(sizes[12], sizes[3])
            assert d_record == 3 * sizes[3][1] > 0   # the record is linear in the points
            assert d_peak < 1.5 * d_record, fields

    @pytest.mark.parametrize("make,shift", [
        (lambda: adhm.instanton_monad(adhm.ADHMData(1, 0.5j, -0.5j, 1)), 0.0),
        (ansatz_monad, 0.0), (cone_monad, 0.0), (flat_metric_cone_monad, 0.0),
        (lambda: twisted_monad(400), 400.0)],
        ids=["instanton", "ansatz", "cone", "flat-cone", "twisted"])
    def test_selected_fields_are_the_full_record(self, rng, make, shift):
        spec = make()
        for size in (1, mo.BLOCK_POINTS - 1, 3 * mo.BLOCK_POINTS + 5):
            w = rng.standard_normal((size, spec.n)) + 1j * rng.standard_normal((size, spec.n))
            w[:, -1] += shift
            full = mo.curvature_batch(spec, w)
            assert tuple(full) == mo.FIELDS
            for key in mo.FIELDS:
                got = mo.curvature_batch(spec, w, fields=(key,))
                assert list(got) == [key] and np.array_equal(got[key], full[key])
        got = mo.curvature_batch(spec, w, fields=("norm_form", "basis"))
        assert list(got) == ["basis", "norm_form"]

    @pytest.mark.parametrize("fields", [(), ("norm", ), "norm_mean", ("mean", "raw")])
    def test_unknown_or_empty_selection_rejected(self, main_spec, fields):
        with pytest.raises(ValueError, match="fields"):
            mo.curvature_batch(main_spec, [0.3, 1.0, -0.2j], fields=fields)

    def test_largest_engine_runs_hold_one_number_per_point(self):
        # adhm.charge (96,000 nodes) and weight_ratio_sup (10^4 points) read
        # one field; tracemalloc peaks 12.7 and 17.2 MiB with the whole
        # record and whole-batch inputs, 3.4 and 6.4 MiB with one field
        for run, bound in ((lambda: adhm.charge(adhm.ADHMData(1, 0, 0, 1)), 5),
                           (lambda: weight_ratio_sup(10_000), 9)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20


class TestContraction:
    """_mm, the engine's stacked small products held points last, against
    numpy's matmul over the points."""

    @pytest.mark.parametrize("xs,ys", [
        ((4, 1, 9), (1, 4, 9)),                  # k = 1: an outer product
        ((1, 4, 9), (4, 1, 9)),                  # row @ column
        ((2, 4, 9), (4, 2, 9)),
        ((6, 4, 9), (4, 6, 9)),
        ((2, 4, 9), (4, 18, 9)),
        ((5, 2, 2, 4, 4, 3), (5, 1, 1, 4, 2, 3)),  # lead axes that broadcast
        ((2, 4, 0), (4, 2, 0)),                  # an empty batch
    ], ids=["outer", "row-column", "2x4-4x2", "6x4-4x6", "2x4-4x18", "multi-axis",
            "empty"])
    def test_matches_matmul(self, rng, xs, ys):
        x = rng.standard_normal(xs) + 1j * rng.standard_normal(xs)
        y = rng.standard_normal(ys) + 1j * rng.standard_normal(ys)

        def matmul(a, b):
            return np.moveaxis(np.moveaxis(a, -1, 0) @ np.moveaxis(b, -1, 0), 0, -1)
        got, ref = mo._mm(x, y), matmul(x, y)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        # relative to the sum of the magnitudes of the products
        assert np.all(np.abs(got - ref) <= 1e-13 * matmul(np.abs(x), np.abs(y)))
