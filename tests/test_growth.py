import numpy as np
import pytest
from hypothesis import given, strategies as st

from hymkit import growth
from hymkit.ansatz import _ball_nodes, ansatz_monad

T1, T2, T3 = (growth.KoszulSection.generator(i) for i in (1, 2, 3))


class TestPoly3:
    def test_arithmetic_and_eval(self, rng):
        x = growth.Poly3.monomial(1, 0, 0)
        y = growth.Poly3.monomial(0, 1, 0)
        p = (x + 2.0 * y) * (x - growth.Poly3.const(1.0))
        w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        expect = (w[:, 0] + 2 * w[:, 1]) * (w[:, 0] - 1.0)
        np.testing.assert_allclose(p(w), expect, atol=1e-12)

    def test_degree(self):
        z2 = growth.Poly3.monomial(0, 0, 2)
        assert z2.degree() == 2
        assert growth.Poly3().degree() == -1


class TestKoszulSections:
    def test_kernel_identity(self, rng):
        w = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        for s in (T1, T2, T3):
            kv = s.kernel_vector(w)
            dot = np.einsum("...j,...j->...", w, kv)
            assert np.abs(dot).max() <= 1e-12

    def test_monad_representative_in_ker_beta(self, rng):
        spec = ansatz_monad()
        w = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        for s in (T1, T2, T3):
            v = np.stack(np.broadcast_arrays(*s.monad_vector(w)), axis=-1)
            res = np.einsum("...ij,...j->...i", spec.beta(w), v)
            assert np.abs(res).max() <= 1e-12

    @given(seed=st.integers(0, 10**6))
    def test_koszul_relation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi = growth.Poly3({(1, 0, 0): coeffs[0], (0, 0, 1): coeffs[1],
                            (0, 1, 1): coeffs[2]})
        # (f, g, h) -> (f - y phi, g + x phi, h + z phi) changes nothing
        shifted = growth.KoszulSection(
            T3.f - growth.Poly3.monomial(0, 1, 0) * phi,
            T3.g + growth.Poly3.monomial(1, 0, 0) * phi,
            T3.h + growth.Poly3.monomial(0, 0, 1) * phi)
        pts = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        n1 = growth.section_norm_sq(T3, pts)
        n2 = growth.section_norm_sq(shifted, pts)
        assert np.abs(n1 - n2).max() <= 1e-12 * max(1.0, np.abs(n1).max())


# the eight radial strata of ansatz._ball_nodes: [0, 2^-7], [2^-7, 2^-6], ...,
# [1/2, 1]
BALL_EDGES = np.array([0.0] + [2.0**-k for k in range(7, -1, -1)])


class TestBallNodes:
    """The stratified unit-ball nodes shared by the growth integrals and the
    potential's weak-form check."""

    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_nodes_and_weights(self, n):
        unit, wts = _ball_nodes(np.random.default_rng(n), n)
        norms = np.linalg.norm(unit, axis=1)
        assert unit.shape == (len(wts), 6)
        assert wts.sum() == pytest.approx(1.0, abs=1e-12)
        assert norms.max() <= 1.0
        per_stratum, _ = np.histogram(norms, BALL_EDGES)
        assert per_stratum.sum() == len(unit)
        assert per_stratum.min() >= 8

    @staticmethod
    def _rel_stderr(n):
        # |w|^2 = r^2 t^(1/3) with t = |u|^6 uniform on each stratum [a, b];
        # the stratified estimate of the mean of t^(1/3) (exactly 3/4) has
        # variance sum over strata of share^2 var(t^(1/3)) / count
        a, b = BALL_EDGES[:-1] ** 6, BALL_EDGES[1:] ** 6
        share = b - a
        count = np.maximum((share * n).astype(int), 8)
        m1 = 0.75 * (b ** (4 / 3) - a ** (4 / 3)) / share
        m2 = 0.6 * (b ** (5 / 3) - a ** (5 / 3)) / share
        return np.sqrt(np.sum(share**2 * (m2 - m1**2) / count)) / 0.75

    @pytest.mark.parametrize("n", [8, 64, 4096])
    @pytest.mark.parametrize("seed", range(5))
    def test_ball_integral_of_squared_modulus(self, n, seed):
        # integral over B(r) of |w|^2 = pi^3 r^8 / 8 in R^6; the relative
        # error is the same at every radius (common scaled nodes), and
        # measured within 1.93 standard errors over 20 seeds at each n
        radii = np.array([0.5, 3.0])
        got = growth.ball_integral(lambda w: np.sum(np.abs(w) ** 2, axis=-1),
                                   radii, n, seed=seed)
        rel = got / (np.pi**3 * radii**8 / 8.0) - 1.0
        assert np.abs(rel).max() <= 4.0 * self._rel_stderr(n)
        assert rel[0] == pytest.approx(rel[1], abs=1e-12)


class TestSectionNorm:
    def test_t3_closed_form(self):
        # |t3|^2 = Q / (Q + 1) with Q = (|x|^2 + |y|^2)(1 + |w|^2)^{-1/2}
        w = np.array([[1.0, 0, 0], [0.3, -0.7, 1.1]], dtype=complex)
        sig = np.abs(w[:, 0]) ** 2 + np.abs(w[:, 1]) ** 2
        q = sig / np.sqrt(1.0 + np.sum(np.abs(w) ** 2, axis=-1))
        np.testing.assert_allclose(growth.section_norm_sq(T3, w), q / (q + 1.0),
                                   atol=1e-12)
        assert growth.section_norm_sq(T3, np.array([1.0, 0, 0])) == \
            pytest.approx(0.41421356, abs=1e-8)

    def test_t3_vanishes_on_axis(self):
        w = np.array([0, 0, 3.0], dtype=complex)
        assert growth.section_norm_sq(T3, w) == pytest.approx(0.0, abs=1e-15)

    def test_zero_section(self):
        zero = growth.KoszulSection(label="zero")
        w = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert zero.is_zero()
        assert growth.section_norm_sq(zero, w) == 0.0


class TestGrowthDegree:
    def test_t3_origin(self):
        rep = growth.growth_degree(T3, "origin")
        assert rep == pytest.approx(1.0, abs=0.05)

    def test_t3_infinity(self):
        rep = growth.growth_degree(T3, "infinity")
        assert rep == pytest.approx(0.0, abs=0.05)

    def test_monomial_shift(self):
        base = growth.growth_degree(T3, "infinity")
        for k, poly in ((1, growth.Poly3.monomial(0, 0, 1)),
                        (2, growth.Poly3.monomial(0, 0, 2))):
            shifted = growth.growth_degree(T3.times(poly, f"z{k}*t3"),
                                           "infinity")
            assert shifted - base == pytest.approx(float(k), abs=0.07)

    def test_zero_section_rejected(self):
        with pytest.raises(ValueError):
            growth.growth_degree(growth.KoszulSection(label="zero"), "origin")

    def test_symmetry_of_degrees(self, rng):
        # an SU(2) rotation permutes the generator span; degrees survive
        a, b = 0.6, 0.8
        rot = growth.KoszulSection(a * T1.f + b * T2.f, a * T1.g + b * T2.g,
                                   a * T1.h + b * T2.h, label="mix12")
        d0 = growth.growth_degree(rot, "origin")
        di = growth.growth_degree(rot, "infinity")
        assert d0 == pytest.approx(growth.growth_degree(T1, "origin"),
                                   abs=0.08)
        assert di == pytest.approx(growth.growth_degree(T1, "infinity"),
                                   abs=0.08)


class TestFiltration:
    def test_generator_family(self):
        tab = growth.filtration_table([T1, T2, T3])
        by = {r["label"]: r for r in tab["rows"]}
        assert by["t3"]["d_origin"] == pytest.approx(1.0, abs=0.05)
        assert by["t3"]["d_infinity"] == pytest.approx(0.0, abs=0.05)
        assert tab["filtrations_differ"]

    def test_shifted_pair(self):
        zt3 = T3.times(growth.Poly3.monomial(0, 0, 1), "z*t3")
        tab = growth.filtration_table([T3, zt3])
        rows = {r["label"]: r for r in tab["rows"]}
        assert rows["z*t3"]["d_origin"] - rows["t3"]["d_origin"] == \
            pytest.approx(1.0, abs=0.1)
        assert rows["z*t3"]["d_infinity"] - rows["t3"]["d_infinity"] == \
            pytest.approx(1.0, abs=0.1)

    def test_zero_section_excluded(self):
        with pytest.raises(ValueError, match="zero"):
            growth.filtration_table([T3, growth.KoszulSection(label="zero")])


class TestConvexity:
    def test_homogeneous_equality(self):
        # t3 is homogeneous for the cone metric: exact log-convexity equality
        res = growth.convexity_check(T3)
        assert abs(res["residual"]) <= max(2.0 * res["stderr"],
                                           1e-12 * res["scale"])

    def test_mixed_strictly_convex(self):
        mixed = growth.KoszulSection(
            growth.Poly3(), growth.Poly3(),
            growth.Poly3.const(1.0) + growth.Poly3.monomial(0, 0, 1),
            label="(1+z)t3")
        res = growth.convexity_check(mixed)
        assert res["residual"] > 2.0 * res["stderr"]

    def test_generator_nonnegative(self):
        res = growth.convexity_check(T1)
        assert res["residual"] >= -2.0 * res["stderr"]
