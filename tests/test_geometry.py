import numpy as np
import pytest
from hypothesis import given, strategies as st

from hymkit import monads as mo
from hymkit.geometry import fd_derivative, fd_mixed_second, lambda_contract


# Oracles of the conventions in hymkit.geometry, stated by their definitions;
# the engine states the adjoint once more in monads._lmul / _rmul / _inv.


def inner(a, b, h=None):
    """<a, b>_h = b^dag h a (linear in a, antilinear in b)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if h is None:
        return np.einsum("...i,...i->...", b.conj(), a)
    return np.einsum("...i,...ij,...j->...", b.conj(), np.asarray(h, dtype=complex), a)


def adjoint_wrt(m, h_src, h_dst):
    """Adjoint of M: (C^k, h_src) -> (C^m, h_dst), defined by
    <M u, v>_dst = <u, M^dag v>_src: M^dag = h_src^{-1} conj(M)^t h_dst."""
    m, h_src, h_dst = (np.asarray(x, dtype=complex) for x in (m, h_src, h_dst))
    if m.shape[-2] != h_dst.shape[-1] or m.shape[-1] != h_src.shape[-1]:
        raise ValueError(f"dimension mismatch: M {m.shape}, h_src {h_src.shape}, "
                         f"h_dst {h_dst.shape}")
    return np.linalg.solve(h_src, np.swapaxes(m.conj(), -1, -2) @ h_dst)


def check_hermitian(m, tol=1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    scale = max(np.abs(m).max(), 1.0)
    return bool(np.abs(m - np.swapaxes(m.conj(), -1, -2)).max() <= tol * scale)


def check_positive_definite(m, tol=1e-12) -> bool:
    m = np.asarray(m, dtype=complex)
    if not check_hermitian(m, tol=1e-8):
        return False
    ev = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m.conj(), -1, -2)))
    return bool(ev.min() > tol * max(ev.max(), 0.0))


def form_is_hermitian(c, tol=1e-10) -> bool:
    """c[j, k] = c[k, j]^dag in the endomorphism slot."""
    dev = np.abs(c - (c.conj().T if c.ndim == 2 else c.conj().transpose(1, 0, 3, 2))).max()
    return bool(dev <= tol * max(np.abs(c).max(), 1.0))


def rand_metric(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a.conj().T @ a + 0.5 * np.eye(n)


class TestLambdaContract:
    def test_single_diagonal_coefficient(self):
        # phi = i dx ^ dxbar on C^1
        c = np.zeros((1, 1), dtype=complex)
        c[0, 0] = 1.0
        assert lambda_contract(c) == pytest.approx(2.0)

    def test_off_diagonal_contracts_to_zero(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = 1.0  # i dx ^ dybar
        assert lambda_contract(c) == pytest.approx(0.0)

    def test_scalar_anchor_half_laplacian(self):
        # u = |x|^2 on C^3: i ddbar u has coefficient matrix diag(1, 0, 0),
        # so Lambda = 2 = (Delta u) / 2 with Delta u = 4
        c = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert lambda_contract(c) == pytest.approx(2.0)

    def test_polynomial_anchor_with_analytic_coefficients(self):
        # u = a|x|^2 + b|y|^2 + c|z|^2 + 2 Re(d x ybar)
        rng = np.random.default_rng(3)
        a, b, c = rng.random(3) + 0.5
        d = complex(*rng.standard_normal(2))
        coeff = np.array([[a, d, 0], [np.conj(d), b, 0], [0, 0, c]],
                         dtype=complex)
        lap_over_2 = 2.0 * (a + b + c)
        assert lambda_contract(coeff) == pytest.approx(lap_over_2, abs=1e-8)

    def test_linearity(self, rng):
        c1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = lambda_contract(2.0 * c1 + 3.0 * c2)
        assert lhs == pytest.approx(2 * lambda_contract(c1)
                                    + 3 * lambda_contract(c2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lambda_contract(np.zeros((2, 3)))

    def test_endomorphism_valued(self, rng):
        c = rng.standard_normal((2, 2, 3, 3)) * (1 + 0j)
        out = lambda_contract(c)
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out, 2.0 * (c[0, 0] + c[1, 1]))

    def test_hermitian_predicate(self):
        c = np.zeros((2, 2, 2, 2), dtype=complex)
        c[0, 1] = np.array([[1.0, 2j], [0.5, 1.0]])
        c[1, 0] = c[0, 1].conj().T
        c[0, 0] = np.eye(2)
        c[1, 1] = np.eye(2)
        assert form_is_hermitian(c)
        c[1, 0] = 2 * c[1, 0]
        assert not form_is_hermitian(c)


class TestAdjoint:
    def test_identity_with_identity_metrics(self):
        m = np.eye(3, dtype=complex)
        np.testing.assert_allclose(adjoint_wrt(m, np.eye(3), np.eye(3)), m)

    def test_printed_alpha_row(self):
        # alpha(1,0,0) of the main family with its diagonal weight
        alpha = np.array([[1.0], [0.0], [1.0], [0.0]], dtype=complex)
        h1 = np.diag([2**-0.5, 2**-0.5, 1.0, 1.0]).astype(complex)
        h0 = np.eye(1, dtype=complex)
        adag = adjoint_wrt(alpha, h0, h1)
        np.testing.assert_allclose(adag, [[2**-0.5, 0.0, 1.0, 0.0]], atol=1e-14)

    def test_printed_beta_column(self):
        beta = np.array([[0.0, 1.0, 0.0, 0.0]], dtype=complex)
        h1 = np.diag([2**-0.5, 2**-0.5, 1.0, 1.0]).astype(complex)
        h2 = np.eye(1, dtype=complex)
        bdag = adjoint_wrt(beta, h1, h2)
        np.testing.assert_allclose(bdag.ravel(), [0.0, 2**0.5, 0.0, 0.0], atol=1e-14)

    @given(seed=st.integers(0, 10**6))
    def test_adjoint_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        k, m = rng.integers(1, 5, size=2)
        mat = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        h_src, h_dst = rand_metric(rng, k), rand_metric(rng, m)
        mdag = adjoint_wrt(mat, h_src, h_dst)
        u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = inner(mat @ u, v, h_dst)
        rhs = inner(u, mdag @ v, h_src)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_singular_metric_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            adjoint_wrt(np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            adjoint_wrt(np.eye(2), np.eye(3), np.eye(2))

    @pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
    def test_engine_adjoint_matches_oracle(self, rng, diagonal):
        # the engine's M^dag = h_src^{-1} conj(M)^t h_dst on batched metrics
        # held points last, diagonal ones carried as columns (k, 1, P) as
        # monads._metric does
        batch, k, m = 5, 3, 2
        mat = rng.standard_normal((batch, m, k)) + 1j * rng.standard_normal((batch, m, k))
        if diagonal:
            h_src = rng.random((batch, k, 1)) + 0.5
            h_dst = rng.random((batch, m, 1)) + 0.5
            dense_src = h_src * np.eye(k)
            dense_dst = h_dst * np.eye(m)
        else:
            h_src = dense_src = np.stack([rand_metric(rng, k) for _ in range(batch)])
            h_dst = dense_dst = np.stack([rand_metric(rng, m) for _ in range(batch)])
        src, dst, m_last = (np.moveaxis(x, 0, -1) for x in (h_src, h_dst, mat))
        engine = np.moveaxis(mo._rmul(mo._lmul(mo._inv(src), mo._ct(m_last)), dst), -1, 0)
        np.testing.assert_allclose(engine, adjoint_wrt(mat, dense_src, dense_dst),
                                   rtol=1e-12, atol=1e-12)


class TestFiniteDifferences:
    def test_linear_holomorphic_exact(self):
        f = lambda w: w[0]
        assert fd_derivative(f, [0.3 + 0.2j, 0.0, 0.0], 0, "holo") == \
            pytest.approx(1.0, abs=1e-10)
        assert fd_derivative(f, [0.3 + 0.2j, 0.0, 0.0], 0, "anti") == \
            pytest.approx(0.0, abs=1e-10)

    def test_absolute_square(self):
        f = lambda w: abs(w[0]) ** 2
        val = fd_derivative(f, [1 + 1j, 0, 0], 0, "holo")
        assert val == pytest.approx(1 - 1j, abs=1e-6)

    def test_second_order_convergence(self):
        # smooth non-polynomial field with known Wirtinger derivative
        def f(w):
            return np.exp(w[0]) * np.conj(w[0]) ** 2

        p = np.array([0.4 + 0.3j, 0, 0])
        exact = np.exp(p[0]) * np.conj(p[0]) ** 2
        hs = np.array([1e-2, 5e-3, 2.5e-3])
        errs = [abs(fd_derivative(f, p, 0, "holo", h) - exact) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_mixed_second_derivative(self):
        # f = |x|^2 |y|^2: d_x dbar_y f = xbar y... check against analytic
        def f(w):
            return abs(w[0]) ** 2 * abs(w[1]) ** 2

        p = np.array([1.0 + 0.5j, 0.7 - 0.2j, 0.0])
        val = fd_mixed_second(f, p, 0, 1, h=1e-3)
        exact = np.conj(p[0]) * p[1]
        assert abs(val - exact) < 1e-6
        same = fd_mixed_second(f, p, 0, 0, h=1e-3)
        assert abs(same - abs(p[1]) ** 2) < 1e-6

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda w: w[0], [0, 0, 0], 0, "holo", h=0.0)
        with pytest.raises(ValueError):
            fd_derivative(lambda w: w[0], [0, 0, 0], 0, "sideways")


def test_positive_definite_checks(rng):
    h = rand_metric(rng, 3)
    assert check_hermitian(h)
    assert check_positive_definite(h)
    assert not check_positive_definite(-h)
    assert not check_positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]))
