"""Fixed conventions and low-level primitives on Euclidean C^n.

Every module in this package works with one set of conventions, pinned here:

* Complex coordinates w_1..w_n on C^n, identified with R^{2n} via
  w_j = u_j + i v_j.  The flat Kahler form is omega = (i/2) sum dw_j ^ dwbar_j.
* Hermitian pairings are linear in the first slot, antilinear in the second:
  <a, b>_h = b^dag h a for column vectors and a positive matrix h.  The Gram
  matrix of a frame (s_1..s_r) is G[a, b] = s_a^dag h s_b, so |v|^2 = v^dag G v
  for coefficient columns v.
* The adjoint of a linear map M: (C^k, h_src) -> (C^m, h_dst) is
  M^dag = h_src^{-1} conj(M)^t h_dst.
* A (1,1)-form is stored as its coefficient array c[j, k], (n, n) or
  (n, n, r, r), with phi = i * sum_{j,k} c[j, k] dw_j ^ dwbar_k (the curvature
  engine's ``form_raw``); the contraction against omega is
  lambda_contract(c) = 2 * sum_j c[j, j].  With this normalisation
  Lambda(i ddbar u) = (Delta u) / 2 where Delta is the full real Laplacian
  (sum of 2n second coordinate derivatives).
* The squared norm of such a form is |phi|^2 = 4 * sum_{j,k} |c[j, k]|^2
  (Frobenius norms for matrix-valued c).  By the parallelogram law this
  equals the sum of the squared real 2-form components over all pairs of
  real coordinates, sum_{j<k} 2|c_jk - c_kj|^2 + sum_{j != k} |c_jk + c_kj|^2
  + 4 sum_j |c_jj|^2; with it the unit ADHM instanton has charge one.
* The Chern curvature of a metric H in a holomorphic frame acts on
  coefficient columns as F = dbar(H^{-1} dH); its raw dw_j ^ dwbar_k
  coefficient is -d_{wbar_k}(H^{-1} d_{w_j} H).  For an abelian H = e^u this
  gives i Lambda F = -Delta u / 2.

Wirtinger derivatives: d_w = (d_u - i d_v)/2 and d_wbar = (d_u + i d_v)/2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coords",
    "lambda_contract",
    "fd_derivative",
    "fd_mixed_second",
    "DEFAULT_FD_STEP",
]

DEFAULT_FD_STEP = 1e-3


def coords(p, n: int = 3) -> np.ndarray:
    """A point or batch (..., n) as a complex array, its last axis checked."""
    w = np.asarray(p, dtype=complex)
    if w.ndim == 0 or w.shape[-1] != n:
        raise ValueError(f"expected {n} complex coordinates, got shape {w.shape}")
    return w


def lambda_contract(c) -> np.ndarray | complex:
    """Contract a (1,1)-form, given by its coefficients c, against the flat
    Kahler form.

    ``c`` is (n, n) for a scalar form or (n, n, r, r) for an endomorphism-
    valued one.  Returns 2 * sum_j c[j, j]; a scalar for scalar forms, an
    (r, r) matrix for endomorphism-valued ones.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim not in (2, 4) or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected (n,n[,r,r]) coefficients, got {c.shape}")
    n = c.shape[0]
    tr = sum(c[j, j] for j in range(n))
    return 2.0 * tr


def _shift(w: np.ndarray, dir: int, delta: complex) -> np.ndarray:
    """Copy of w with coordinate ``dir`` (last axis) moved by delta."""
    out = np.array(w, dtype=complex)
    out[..., dir] += delta
    return out


def fd_derivative(f, p, dir: int, kind: str = "holo", h: float = DEFAULT_FD_STEP):
    """Centered second-order Wirtinger derivative of a matrix-valued field.

    ``kind`` is "holo" for d_w = (d_u - i d_v)/2 or "anti" for
    d_wbar = (d_u + i d_v)/2.  ``f`` maps a complex coordinate array to a
    scalar or ndarray; evaluation failures at stencil points propagate.
    ``p`` may be a batch (..., n) when ``f`` accepts one.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    if kind not in ("holo", "anti"):
        raise ValueError(f"kind must be 'holo' or 'anti', got {kind!r}")
    w = np.asarray(p, dtype=complex)
    du = (np.asarray(f(_shift(w, dir, h)), dtype=complex)
          - np.asarray(f(_shift(w, dir, -h)), dtype=complex)) / (2.0 * h)
    dv = (np.asarray(f(_shift(w, dir, 1j * h)), dtype=complex)
          - np.asarray(f(_shift(w, dir, -1j * h)), dtype=complex)) / (2.0 * h)
    if kind == "holo":
        return 0.5 * (du - 1j * dv)
    return 0.5 * (du + 1j * dv)


def fd_mixed_second(f, p, j: int, k: int, h: float = DEFAULT_FD_STEP):
    """Centered approximation of d_{w_j} d_{wbar_k} f, error O(h^2).

    Built from the four real mixed second derivatives of the pair of real
    coordinate directions underlying w_j and w_k.
    """
    w = np.asarray(p, dtype=complex)

    def real_mixed(da: complex, db: complex):
        # second derivative along the real directions da (coord j), db (coord k)
        if j == k and abs(da - db) < 1e-30:
            fp = np.asarray(f(_shift(w, j, da)), dtype=complex)
            fm = np.asarray(f(_shift(w, j, -da)), dtype=complex)
            f0 = np.asarray(f(w), dtype=complex)
            return (fp + fm - 2.0 * f0) / (h * h)
        wpp = np.asarray(f(_shift(_shift(w, j, da), k, db)), dtype=complex)
        wpm = np.asarray(f(_shift(_shift(w, j, da), k, -db)), dtype=complex)
        wmp = np.asarray(f(_shift(_shift(w, j, -da), k, db)), dtype=complex)
        wmm = np.asarray(f(_shift(_shift(w, j, -da), k, -db)), dtype=complex)
        return (wpp - wpm - wmp + wmm) / (4.0 * h * h)

    duu = real_mixed(h, h)
    dvv = real_mixed(1j * h, 1j * h)
    if j == k:
        # d_w d_wbar = (duu + dvv)/4; the u-v cross terms cancel for smooth f
        return 0.25 * (duu + dvv)
    duv = real_mixed(h, 1j * h)
    dvu = real_mixed(1j * h, h)
    # (d_uj - i d_vj)(d_uk + i d_vk) / 4
    return 0.25 * (duu + dvv + 1j * duv - 1j * dvu)
