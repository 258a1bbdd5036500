"""Generic monad machinery.

A monad is a two-step complex of trivial Hermitian bundles over C^n

    C^{k0} --alpha--> C^{k1} --beta--> C^{k2},     beta(p) alpha(p) = 0,

with alpha fiberwise injective and beta fiberwise surjective away from a
singular locus.  Its cohomology bundle E (rank r = k1 - k0 - k2) is realised
fiberwise as V_p = ker beta(p) ∩ ker alpha^dag(p) inside C^{k1}, and carries
the metric and connection induced from h1.

The curvature of the induced connection, evaluated on harmonic representatives
s, s' in V_p, is

    <F_E s, s'> = <F_{E1} s, s'> - <(beta beta^dag)^{-1} (grad beta) s, (grad beta) s'>
                                 - <(alpha^dag alpha)^{-1} (grad alpha^dag) s, (grad alpha^dag) s'>

where grad alpha^dag = dbar(alpha^dag) is a (0,1)-form, grad beta =
(dbar beta^dag)^dag is a (1,0)-form, and F_{E1} is the Chern curvature of h1.
All pairings and adjoints follow the conventions of :mod:`hymkit.geometry`.

There is one fiber frame, one contraction and one result record.  The
h1-orthonormal basis B (k1 x r) of V_p is built by :func:`frame_batch`,
Gram-Schmidt over the projected standard basis.  :func:`curvature_batch`
returns a dict of arrays: the keys ``basis``, ``form_raw``, ``mean``,
``norm_mean`` and ``norm_form``, each with the batch axes of its input.
Every ingredient is multiplied by B before the forms are paired
(:func:`_fiber_forms`), so no (n, n, k1, k1) ambient form exists, and the
metrics and maps at a point are evaluated once for both (:func:`_values`).

The engine works points last: every working array of a block is
(..., rows, cols, P), its P points on the last, contiguous axis, so each
elementwise pass loops over the points.  The maps and the metrics are
evaluated once per block; each callable's points-first output is
transposed once (:func:`_points_last`), and an output that is the same at
every point (a constant metric, the derivative of an affine map) stays one
column (..., 1) that broadcasts.  The record keeps its points-first shapes:
each block is transposed into it once, for the fields asked for.

Metrics have one form: every metric is a :class:`DiagPowerMetric`
(:func:`constant_metric` of a real diagonal matrix included), and
:class:`MonadSpec` takes no other.  It stays diagonal through the engine
(:func:`_metric`): h and d h are diagonal columns, h^{-1} is their
reciprocal, and the Chern term h1 F1 of h1 is -h1 d dbar log h1 entry by
entry, from the closed-form log-Hessian; the derivatives of a constant
metric are None, so the terms they enter are dropped.  :func:`_lmul`,
:func:`_rmul` and :func:`_inv` take a diagonal column or a Gram matrix.

Stacked small products go through :func:`_mm`, a sum of outer products over
the contraction index taken in index order, where numpy's matmul would make
one BLAS call per point: the Gram matrices, the projector's columns, the
fiber columns of the derivatives and the pairings of the forms, which land
in the (n, n, r, r, P) layout of the raw form directly.  The bundled monads
make no BLAS call, and sums over an axis are taken in index order
(:func:`_sum0`), so a point's values do not depend on how many points share
its block.

One singular-point rule serves every entry point, in :func:`_rule`: a
point is singular when the smallest h-metric singular value of beta^dag or
alpha, the square root of the smallest eigenvalue of beta beta^dag or
alpha^dag alpha, is not above ``SINGULAR_TOL`` = 1e-8, or when either Gram
matrix is not finite.  :func:`_values` checks it before either is inverted
and raises one :class:`SingularPointError` that counts the singular points
and carries the :class:`ValidityReport` of the first; :func:`validate_monad`
reports the same numbers without raising.

Every bundled monad has k0 <= 1, k2 = 1 and rank 2: a 1x1 Gram matrix is
its own eigenvalue (:func:`_sigma_min`) and :func:`_inv` takes its reciprocal,
and i Lambda F has the closed-form 2x2 :func:`_spectral_radius`; larger
matrices keep LAPACK.  :func:`curvature_batch` works one block of
``BLOCK_POINTS`` points at a time, bit for bit the same as one block, and
writes each block into a record allocated once for the whole batch.  It
holds the record's selected fields (``fields``, every key by default) for
the whole batch and one block's working arrays, :func:`_values` included;
the singular-point rule still covers the whole batch.

Every bundled monad has maps affine in w; :func:`affine_maps` builds a map
and its derivative from one coefficient array, so the two cannot disagree.

Everything here accepts a single point (shape (n,)) or a batch (..., n).
The one-point entry points are batches of one: :func:`curvature` returns
the :func:`curvature_batch` record of a single point, with no batch axes,
and :func:`cohomology_frame` its (k1, r) basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import coords, fd_derivative

__all__ = [
    "DiagPowerMetric",
    "constant_metric",
    "MonadSpec",
    "affine_maps",
    "ValidityReport",
    "SingularPointError",
    "validate_monad",
    "cohomology_frame",
    "frame_batch",
    "induced_metric",
    "curvature",
    "curvature_batch",
    "curvature_fd_check",
    "form_norm_sq",
]

SINGULAR_TOL = 1e-8

FD_STEP = 1e-4  # centred finite-difference step for a derivative a monad omits

# points per curvature_batch block; one block's working arrays peak at
# 3.0 MiB for the ansatz monad (n = 3) and 1.4 MiB for the instanton (n = 2)
# by tracemalloc.  512 points were about 1.2x slower on adhm.charge; 2048
# about 8% faster there at twice the working set.
BLOCK_POINTS = 1024

# the keys of the curvature_batch record
FIELDS = ("basis", "form_raw", "mean", "norm_mean", "norm_form")


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class DiagPowerMetric:
    """Diagonal metric with entries  c_i (1+|w|^2)^a_i |w|^(2 b_i) |z|^(2 g_i).

    |w|^2 is the full squared norm of the base point and z its last
    coordinate.  Covers every bundled monad (constant, conical and the
    nonstandard diagonal weights) with closed-form first and mixed second
    derivatives.  The engine reads the entries and their log derivatives
    (``_diags``); ``value``, ``dholo`` and ``dmixed`` are h and its
    derivatives as matrices.
    """

    consts: tuple
    pow_rho: tuple
    pow_r2: tuple = None
    pow_z2: tuple = None

    def __post_init__(self):
        k = len(self.consts)
        for name in ("consts", "pow_rho", "pow_r2", "pow_z2"):
            v = getattr(self, name)
            object.__setattr__(self, name, tuple(map(float, (0.0,) * k if v is None else v)))
        if not (len(self.pow_rho) == len(self.pow_r2) == len(self.pow_z2) == k):
            raise ValueError("exponent tuples must match the number of entries")

    @property
    def dim(self) -> int:
        return len(self.consts)

    def _entries(self, wt: np.ndarray):
        """The entries (k, ...) at points wt held coordinates first (n, ...),
        with 1 + |w|^2, |w|^2 and |z|^2 (...)."""
        r2 = _sum0(np.abs(wt) ** 2)
        rho, z2 = 1.0 + r2, np.abs(wt[-1]) ** 2
        c, a, b, g = (np.reshape(t, (-1,) + (1,) * r2.ndim) for t in (
            self.consts, self.pow_rho, self.pow_r2, self.pow_z2))
        vals = (c * rho ** a
                * np.where(b != 0.0, r2, 1.0) ** b
                * np.where(g != 0.0, z2, 1.0) ** g)
        return vals, rho, r2, z2

    def _dlog(self, wt: np.ndarray, rho, r2, z2):
        """d_{w_j} log(entry_i) -> (n, k, ...)."""
        wb = wt.conj()[:, None]
        a, b, g = (np.reshape(t, (-1,) + (1,) * r2.ndim)
                   for t in (self.pow_rho, self.pow_r2, self.pow_z2))
        dlog = a * (wb / rho)
        if np.any(b != 0.0):
            dlog = dlog + b * (wb / r2)
        if np.any(g != 0.0):
            dlog[-1] += g * (1.0 / wt[-1])
        return dlog

    def _ddlog(self, wt: np.ndarray, rho, r2):
        """d_j d_kbar log(entry_i) as terms [(e, X)] summing to e_i X[j, k]:
        e the exponents (k, 1, ...) of 1 + |w|^2 and of |w|^2, the non-zero
        ones, and X (n, n, ...) their log-Hessians delta_jk / t - wbar_j w_k / t^2;
        the |z|^2 factor is log-pluriharmonic away from z = 0."""
        delta = np.eye(len(wt)).reshape(wt.shape[:1] * 2 + (1,) * r2.ndim)
        wbw = wt.conj()[:, None] * wt[None, :]
        return [(np.reshape(e, (-1,) + (1,) * r2.ndim), delta / t - wbw / t**2)
                for e, t in ((self.pow_rho, rho), (self.pow_r2, r2)) if any(e)]

    def _diags(self, wt: np.ndarray, order: int) -> list:
        """[h, d_j log h, d_j d_kbar log h][:order + 1] at the points wt,
        held coordinates first (n, ...): the entries (k, ...), their log
        gradients (n, k, ...) and the :meth:`_ddlog` terms, formed once from
        the same entries.  A constant metric (every exponent 0) gives its
        constants as a (k, 1, ...) column and None for the derivatives,
        meaning identically zero."""
        wt = np.asarray(wt, dtype=complex)
        if not any(self.pow_rho + self.pow_r2 + self.pow_z2):
            return [np.reshape(self.consts, (-1,) + (1,) * (wt.ndim - 1))] + [None] * order
        vals, rho, r2, z2 = self._entries(wt)
        out = [vals]
        if order:
            out.append(self._dlog(wt, rho, r2, z2))
        if order == 2:
            out.append(self._ddlog(wt, rho, r2))
        return out

    def _matrices(self, w, order: int) -> np.ndarray:
        """h (``order`` 0), d_j h (1) or d_j d_kbar h (2) at points w (..., n)
        as dense points-first matrices (..., [n, [n,]] k, k)."""
        w = np.asarray(w, dtype=complex)
        shape = w.shape[:-1] + w.shape[-1:] * order + (self.dim,)
        out = np.zeros(shape + shape[-1:], dtype=complex)
        d = self._diags(np.moveaxis(w, -1, 0), order)
        if order and d[1] is None:
            return out
        if order == 0:
            d = np.broadcast_to(d[0], shape[-1:] + w.shape[:-1])
        elif order == 1:
            d = d[0] * d[1]
        else:
            # d_j d_kbar h = h * (ddlog + dlog_j * conj(dlog_k))   [entries are real]
            ddlog = sum((e * x[:, :, None] for e, x in d[2]), 0.0)
            d = d[0] * (ddlog + d[1][:, None] * d[1].conj()[None, :])
        idx = np.arange(self.dim)
        out[..., idx, idx] = np.moveaxis(d, range(order + 1), range(-order - 1, 0))
        return out

    def value(self, w: np.ndarray) -> np.ndarray:
        return self._matrices(w, 0)

    def dholo(self, w: np.ndarray) -> np.ndarray:
        """d_{w_j} h -> (..., n, k, k)."""
        return self._matrices(w, 1)

    def dmixed(self, w: np.ndarray) -> np.ndarray:
        """d_{w_j} d_{wbar_k} h -> (..., n, n, k, k)."""
        return self._matrices(w, 2)


def constant_metric(m: np.ndarray) -> DiagPowerMetric:
    """The constant metric m, a real diagonal matrix, as a
    :class:`DiagPowerMetric` with every exponent 0; any other m raises
    ValueError."""
    m = np.asarray(m, dtype=complex)
    d = np.diagonal(m)
    if not np.array_equal(m, np.diag(d)) or np.any(d.imag):
        raise ValueError("a constant metric must be a real diagonal matrix")
    return DiagPowerMetric(consts=tuple(d.real), pow_rho=(0.0,) * len(d))


# ---------------------------------------------------------------------------
# stacked small matrices, points last


def _sum0(x):
    """x summed over its first axis in index order, whatever the number of
    points: np.sum may pair the terms differently for a single point."""
    out = x[0]
    for y in x[1:]:
        out = out + y
    return out


def _ct(x):
    """Conjugate transpose of stacked matrices (..., rows, cols, P)."""
    return np.swapaxes(x.conj(), -2, -3)


def _points_last(x):
    """A callable's points-first output (P, ...) as a contiguous complex
    array (..., P)."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=complex), 0, -1))


def _fd_jacobian(fn, w, n, step):
    """Centered FD holomorphic derivatives d_{w_j} fn, stacked as (..., n, a, b)."""
    return np.stack([fd_derivative(fn, w, j, "holo", step) for j in range(n)], axis=-3)


def _holo(fn, dfn, w):
    """d_{w_j} fn at the points w (P, n) stacked as (n, a, b, P): the
    analytic derivative ``dfn`` when given, otherwise centered finite
    differences of ``fn``.  A derivative that is the same at every point, a
    broadcast with stride 0 along the points, stays one column (n, a, b, 1)."""
    d = np.asarray(dfn(w) if dfn is not None
                   else _fd_jacobian(fn, w, w.shape[-1], FD_STEP), dtype=complex)
    return _points_last(d[:1] if d.strides[0] == 0 else d)


def _metric(metric, wt, order):
    """[h, d_j h, d_j d_kbar log h][:order + 1] at the points wt (n, P) as
    the engine carries them: diagonal columns (k, 1, P) and (n, k, 1, P),
    a constant h as a (k, 1, 1) column, and the log-Hessian as its terms
    [(e, X)], e a (k, 1, 1) column and X (n, n, P); None for derivatives
    that are identically zero."""
    d = metric._diags(wt, order)
    out = [d[0][:, None]]
    if order:
        out.append(None if d[1] is None else (d[0] * d[1])[:, :, None])
    if order == 2:
        out.append(None if d[2] is None else [(e[:, None], x) for e, x in d[2]])
    return out


def _mm(x, y):
    """x @ y of stacked matrices (..., a, c, P) and (..., c, b, P), as the
    sum over the contraction index i of the outer products
    x[..., :, i, None, :] y[..., None, i, :, :], taken in index order: a few
    elementwise passes, each looping over the points, in place of a BLAS
    call per point."""
    out = x[..., :, 0, None, :] * y[..., None, 0, :, :]
    for i in range(1, x.shape[-2]):
        out += x[..., :, i, None, :] * y[..., None, i, :, :]
    return out


def _lmul(h, x, adj=False):
    """h @ x (h^dag @ x with ``adj``) for h a diagonal column (..., k, 1, P)
    from :func:`_metric` or :func:`_inv`, which scales the rows of x, or a
    Gram matrix (..., k, k, P), which multiplies; at k = 1 they agree."""
    if h.shape[-2] == 1:
        return (h.conj() if adj else h) * x
    return _mm(_ct(h) if adj else h, x)


def _rmul(x, h, adj=False):
    """x @ h (x @ h^dag with ``adj``) for h a diagonal column, which scales
    the columns of x, or a Gram matrix, which multiplies."""
    if h.shape[-2] == 1:
        return x * np.swapaxes(h.conj() if adj else h, -2, -3)
    return _mm(x, _ct(h) if adj else h)


def _inv(h):
    """h^{-1}: the reciprocal of a diagonal column or of a 1x1 Gram matrix
    (those of the bundled monads), else the LAPACK inverse of a Gram matrix."""
    if h.shape[-2] == 1:
        return 1.0 / h
    return np.moveaxis(np.linalg.inv(np.moveaxis(h, -1, 0)), 0, -1)


# ---------------------------------------------------------------------------
# monad specification


@dataclass(frozen=True)
class MonadSpec:
    """A monad over C^n with metrics on all three bundles.

    ``alpha(w) -> (..., k1, k0)`` and ``beta(w) -> (..., k2, k1)`` must accept
    batched coordinates.  ``dalpha``/``dbeta`` give the holomorphic coordinate
    derivatives stacked along a leading axis, shape (..., n, k1, k0) resp.
    (..., n, k2, k1); when None the engine uses centered finite differences
    of step ``FD_STEP``.  ``h0``, ``h1`` and ``h2`` must be
    :class:`DiagPowerMetric`; any other metric raises TypeError.
    """

    name: str
    n: int
    k0: int
    k1: int
    k2: int
    alpha: Callable
    beta: Callable
    h0: DiagPowerMetric
    h1: DiagPowerMetric
    h2: DiagPowerMetric
    dalpha: Optional[Callable] = None
    dbeta: Optional[Callable] = None

    def __post_init__(self):
        for key in ("h0", "h1", "h2"):
            m = getattr(self, key)
            if not isinstance(m, DiagPowerMetric):
                raise TypeError(f"{self.name}: {key} must be a DiagPowerMetric, "
                                f"not {type(m).__name__}")

    @property
    def rank(self) -> int:
        return self.k1 - self.k0 - self.k2

    def point(self, p) -> np.ndarray:
        return coords(p, self.n)


def affine_maps(alpha_coeffs, beta_coeffs):
    """(alpha, beta, dalpha, dbeta) of a monad whose maps are affine in w.

    Each coefficient array is (n + 1, rows, cols): the constant term C_0, then
    the coefficients C_1 .. C_n of w_1 .. w_n.  The map is
    C_0 + sum_j w_j C_j and its derivative along w_j is C_j, both batched.
    The value is summed points last and returned as a points-first view;
    the derivative is a read-only broadcast of the coefficients.
    """
    def build(coeffs):
        c = np.asarray(coeffs, dtype=complex)

        def value(w):
            w = np.asarray(w, dtype=complex)
            tail = (1,) * (w.ndim - 1)
            out = np.broadcast_to(c[0].reshape(c.shape[1:] + tail),
                                  c.shape[1:] + w.shape[:-1]).copy()
            for j in range(1, c.shape[0]):
                out += w[..., j - 1] * c[j].reshape(c.shape[1:] + tail)
            return np.moveaxis(out, (0, 1), (-2, -1))

        def deriv(w):
            return np.broadcast_to(c[1:], np.shape(w)[:-1] + c[1:].shape)

        return value, deriv

    alpha, dalpha = build(alpha_coeffs)
    beta, dbeta = build(beta_coeffs)
    return alpha, beta, dalpha, dbeta


class SingularPointError(ValueError):
    """Raised at points where the monad degenerates; carries diagnostics."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


@dataclass(frozen=True)
class ValidityReport:
    point: np.ndarray
    sigma_min_alpha: float
    sigma_min_beta_dag: float
    beta_alpha_residual: float
    alpha_injective: bool
    beta_surjective: bool

    @property
    def regular(self) -> bool:
        return self.alpha_injective and self.beta_surjective


# ---------------------------------------------------------------------------
# pointwise maps


def _dbar_adjoint(m, dm, m_dag, hs_inv, ht, dhs, dht):
    """(0,1)-form dbar(m^dag) of m^dag = hs^{-1} conj(m)^t ht, along dwbar_j.

    dbar_j m^dag = hs^{-1} [conj(d_j m)^t ht + conj(m)^t (dbar_j ht)
                            - (dbar_j hs) m^dag],
    with dbar_j h = (d_j h)^dag for Hermitian h; shape (n, ks, kt, P).  A
    metric derivative that is None (identically zero) drops its term.
    """
    out = _rmul(_ct(dm), ht)
    if dht is not None:
        out = out + _rmul(_ct(m), dht, adj=True)
    if dhs is not None:
        out = out - _lmul(dhs, m_dag, adj=True)
    return _lmul(hs_inv, out)


def _sigma_min(gram):
    """Smallest h-metric singular values sqrt(lambda_min) of Gram matrices
    (k, k, P) (beta beta^dag or alpha^dag alpha); NaN where one is not
    finite.  A 1x1 Gram matrix is its own eigenvalue."""
    finite = np.isfinite(gram).all(axis=(-3, -2))
    gram = np.where(finite, gram, 0.0)
    lam = (gram[0, 0].real if gram.shape[-2] == 1
           else np.linalg.eigvals(np.moveaxis(gram, -1, 0)).real.min(axis=-1))
    return np.where(finite, np.sqrt(np.maximum(lam, 0.0)), np.nan)


def _report(spec, w, v, i):
    """The :class:`ValidityReport` of point ``i`` of the points w (P, n)
    from their :func:`_values` v."""
    res = (float(np.abs(v["beta"][..., i] @ v["alpha"][..., i]).max())
           if spec.k0 > 0 else 0.0)
    s_a, s_b = float(v["sigma_alpha"][i]), float(v["sigma_beta"][i])
    return ValidityReport(point=w[i], sigma_min_alpha=s_a, sigma_min_beta_dag=s_b,
                          beta_alpha_residual=res,
                          alpha_injective=s_a > SINGULAR_TOL,
                          beta_surjective=s_b > SINGULAR_TOL)


def _values(spec, w, rest=()):
    """The metrics with their derivatives, the maps and their adjoints at
    the points w (P, n), each evaluated once and held points last, the
    smallest h-metric singular values of alpha and beta^dag, and the
    inverses of h0, h1, (beta beta^dag) and (alpha^dag alpha).  If any
    point of w is singular it raises the module's
    :class:`SingularPointError` with the report of the first, counting also
    the singular points of the point arrays in ``rest`` (the rest of a
    batch, tested by the rule alone)."""
    out, singular = _rule(spec, w)
    if np.any(singular):
        count = sum(np.count_nonzero(_rule(spec, x)[1]) for x in rest)
        rep = _report(spec, w, out, int(np.flatnonzero(singular)[0]))
        raise SingularPointError(f"{spec.name}: {np.count_nonzero(singular) + count} "
                                 f"singular point(s), the first: {rep}", report=rep)
    out["bbd_inv"] = _inv(out.pop("bbd"))
    if spec.k0 > 0:
        out["ada_inv"] = _inv(out.pop("ada"))
    return out


def _rule(spec, w):
    """The :func:`_values` at w with the Gram matrices ``bbd`` (beta
    beta^dag) and ``ada`` (alpha^dag alpha) in place of their inverses, and
    the mask (P,) of singular points."""
    wt = np.ascontiguousarray(w.T)
    # a metric entry that is 0 or infinite at a singular point gives an
    # infinite or NaN Gram matrix: the rule, not a warning, reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        out = dict(zip(("h1", "dh1", "ddlog_h1"), _metric(spec.h1, wt, 2)))
        out.update(zip(("h2", "dh2"), _metric(spec.h2, wt, 1)))
        out["beta"] = _points_last(spec.beta(w))
        h1_inv = _inv(out["h1"])
        beta_dag = _rmul(_lmul(h1_inv, _ct(out["beta"])), out["h2"])
        out["bbd"] = _mm(out["beta"], beta_dag)
        sigma_beta = _sigma_min(out["bbd"])
        out.update(h1_inv=h1_inv, beta_dag=beta_dag, sigma_beta=sigma_beta,
                   sigma_alpha=np.full(sigma_beta.shape, np.inf))
        if spec.k0 > 0:
            out.update(zip(("h0", "dh0"), _metric(spec.h0, wt, 1)))
            out["alpha"] = _points_last(spec.alpha(w))
            out["h0_inv"] = _inv(out["h0"])
            out["alpha_dag"] = _rmul(_lmul(out["h0_inv"], _ct(out["alpha"])), out["h1"])
            out["ada"] = _mm(out["alpha_dag"], out["alpha"])
            out["sigma_alpha"] = _sigma_min(out["ada"])
    singular = ~(out["sigma_alpha"] > SINGULAR_TOL) | ~(out["sigma_beta"] > SINGULAR_TOL)
    return out, singular


def _pieces(spec, w, values):
    """All pointwise ingredients needed by the curvature formula.

    The :func:`_values` at w plus the derivatives of the maps:
    grad_alpha_dag = dbar(alpha^dag) has components along dwbar_j,
    (n, k0, k1, P); grad_beta = (dbar beta^dag)^dag along dw_j,
    (n, k2, k1, P).
    """
    out = dict(values)
    dbar_beta_dag = _dbar_adjoint(out["beta"], _holo(spec.beta, spec.dbeta, w),
                                  out["beta_dag"], out["h1_inv"], out["h2"],
                                  out["dh1"], out["dh2"])
    out["grad_beta"] = _rmul(_lmul(_inv(out["h2"]), _ct(dbar_beta_dag)), out["h1"])
    if spec.k0 > 0:
        out["grad_alpha_dag"] = _dbar_adjoint(
            out["alpha"], _holo(spec.alpha, spec.dalpha, w), out["alpha_dag"],
            out["h0_inv"], out["h1"], out["dh0"], out["dh1"])
    return out


# ---------------------------------------------------------------------------
# validity and fibers


def validate_monad(spec: MonadSpec, p) -> ValidityReport:
    """Check fiberwise injectivity/surjectivity and the complex identity at p.

    The report holds the numbers of the module's singular-point rule (in the
    h-metrics, so basis-independent); it does not raise at a singular point.
    """
    w = spec.point(p)[None]
    return _report(spec, w, _rule(spec, w)[0], 0)


def _projector(spec, values):
    """i -> P e_i (k1, 1, P), the columns of the h1-orthogonal projector P
    onto ker beta ∩ ker alpha^dag; the frame reads only the columns it takes
    as seeds, and the factors they share are formed once."""
    v = values
    terms = [(_rmul(v["beta_dag"], v["bbd_inv"]), v["beta"])]
    if spec.k0 > 0:
        terms.append((_rmul(v["alpha"], v["ada_inv"]), v["alpha_dag"]))
    eye = np.eye(spec.k1)

    def column(i):
        p = eye[:, i, None, None]
        for left, right in terms:
            p = p - _mm(left, right[:, i, None])
        return p

    return column


def cohomology_frame(spec: MonadSpec, p) -> np.ndarray:
    """The (k1, r) :func:`frame_batch` basis of the cohomology fiber at one
    regular point p, built as a batch of one."""
    return frame_batch(spec, _values(spec, spec.point(p)[None]))[0]


def frame_batch(spec: MonadSpec, values: dict) -> np.ndarray:
    """h1-orthonormal bases of the cohomology fibers, (P, k1, r).

    ``values`` are the :func:`_values` at the points.  At every point the
    seeds P e_1, ..., P e_{k1} (P the h1-orthogonal projector onto V_p) are
    taken in index order and orthogonalised by modified Gram-Schmidt in h1;
    a seed whose residual h1-norm is at most 1e-7 (an absolute threshold) is
    discarded.  A point left with fewer than r columns, or with a non-finite
    one, raises :class:`SingularPointError`.  The bases are built points
    last, (k1, r, P), and returned as a points-first view of that array.
    """
    h1, r = values["h1"], spec.rank
    npts = values["beta"].shape[-1]
    seed = _projector(spec, values)
    basis = np.zeros((spec.k1, r, npts), dtype=complex)
    count = np.zeros(npts, dtype=int)
    for i in range(spec.k1):
        v = seed(i)
        for c in range(min(i, r)):
            # a column not filled yet is zero and leaves v unchanged
            u = basis[:, c, None]
            v = v - u * _sum0(u.conj() * h1 * v)
        nrm = np.sqrt(np.real(_sum0(v.conj() * h1 * v)))[0]
        keep = (nrm > 1e-7) & (count < r)
        unit = v[:, 0] / np.where(keep, nrm, 1.0)
        # after seed i a point holds at most i + 1 columns
        for c in range(min(i + 1, r)):
            np.copyto(basis[:, c], unit, where=keep & (count == c))
        count += keep
        if np.all(count == r):
            break
    bad = np.count_nonzero((count < r) | ~np.isfinite(basis).all(axis=(0, 1)))
    if bad:
        raise SingularPointError(
            f"{spec.name}: fiber rank deficient or non-finite at {bad} point(s)")
    return np.moveaxis(basis, -1, 0)


def induced_metric(spec: MonadSpec, p, sections) -> np.ndarray:
    """Gram matrix of ker-beta representatives after projecting off Im alpha.

    ``sections`` is a list of k1-vectors (or an array (..., k1, m) of columns)
    annihilated by beta at p.  Returns G[a, b] = <s'_a, s'_b>_{h1} with
    s' = s - alpha (alpha^dag alpha)^{-1} alpha^dag s.
    """
    w = spec.point(p)
    if isinstance(sections, (list, tuple)):
        s = np.stack([np.asarray(v, dtype=complex) for v in sections], axis=-1)
    else:
        s = np.asarray(sections, dtype=complex)
    h1 = spec.h1.value(w)
    b = np.asarray(spec.beta(w), dtype=complex)
    res = np.abs(b @ s)
    scale = max(float(np.abs(s).max()) * max(float(np.abs(b).max()), 1.0), 1e-30)
    if res.max() > 1e-10 * scale:
        raise ValueError(f"section not in ker beta: residual {res.max():.3e}")
    if spec.k0 > 0:
        h0 = spec.h0.value(w)
        a = np.asarray(spec.alpha(w), dtype=complex)
        ad = np.linalg.solve(h0, a.conj().T @ h1)      # alpha^dag
        s = s - a @ np.linalg.solve(ad @ a, ad @ s)
    return np.swapaxes(s.conj(), -1, -2) @ h1 @ s


# ---------------------------------------------------------------------------
# curvature


def _fiber_forms(spec, w, basis, values):
    """Raw dw_j ^ dwbar_k coefficients N[j,k] of the induced curvature in the
    fiber basis B (k1, r, P), as (n, n, r, r, P), with
    <F s, s'> = s'^dag N[j,k] s.

    With G_j = grad_beta_j B and A_j = grad_alpha_dag_j B,

        N[j,k] = B^dag h1 F1[j,k] B - G_k^dag h2 (beta beta^dag)^{-1} G_j
                 + A_j^dag h0 (alpha^dag alpha)^{-1} A_k,

    the ambient form of the module docstring restricted to V_p.  For the
    diagonal h1, h1 F1[j,k] = (d_k h1)^dag h1^{-1} (d_j h1) - d_j d_kbar h1
    is -h1 d_j d_kbar log h1 entry by entry, which the :meth:`DiagPowerMetric._ddlog`
    terms give in closed form, so B^dag h1 F1 B = -sum_(e, X) X[j,k] B^dag (e h1) B.
    """
    pc = _pieces(spec, w, values)
    # G_j, (n, k2, r, P), paired as x[k, a, p] with y[j, p, b]
    g = _mm(pc["grad_beta"], basis)
    out = _mm(_ct(g)[None], -_mm(_lmul(pc["h2"], pc["bbd_inv"]), g)[:, None])
    if pc["ddlog_h1"] is not None:
        for e, x in pc["ddlog_h1"]:
            out = out - x[:, :, None, None] * _mm(_ct(basis), _lmul(e * pc["h1"], basis))
    if spec.k0 > 0:
        # A_j, (n, k0, r, P), paired as x[j, a, p] with y[k, p, b]
        a = _mm(pc["grad_alpha_dag"], basis)
        out = out + _mm(_ct(a)[:, None], _mm(_lmul(pc["h0"], pc["ada_inv"]), a)[None])
    return out


def form_norm_sq(f_raw: np.ndarray) -> np.ndarray:
    """Squared norm 4 sum_{j,k} |A[j,k]|^2 of a (1,1)-form from its raw
    coefficients (n, n, r, r, ...), the form norm of :mod:`hymkit.geometry`,
    summed over the coefficients in index order."""
    sq = f_raw.real**2 + f_raw.imag**2
    return 4.0 * _sum0(sq.reshape((int(np.prod(sq.shape[:4])),) + sq.shape[4:]))


def _curvature_data(spec, w, basis, values):
    """Raw form, i Lambda F and the two norms in the fiber basis B
    (k1, r, P), points last."""
    raw = _fiber_forms(spec, w, basis, values)
    mean = 2.0 * sum(raw[j, j] for j in range(spec.n))      # i Lambda F
    mean = 0.5 * (mean + _ct(mean))
    return raw, mean, _spectral_radius(mean), np.sqrt(form_norm_sq(raw))


def _spectral_radius(m):
    """The largest |eigenvalue| of Hermitian matrices (r, r, P).  At r = 2
    it is |tr| / 2 + sqrt(((m00 - m11) / 2)^2 + |m01|^2), exactly and
    without cancellation; other ranks take LAPACK's eigvalsh."""
    if m.shape[-2] != 2:
        return np.abs(np.linalg.eigvalsh(np.moveaxis(m, -1, 0))).max(axis=-1)
    m00, m11, m01 = m[0, 0].real, m[1, 1].real, m[0, 1]
    return 0.5 * np.abs(m00 + m11) + np.sqrt((0.5 * (m00 - m11)) ** 2
                                             + (m01.real**2 + m01.imag**2))


def curvature(spec: MonadSpec, p) -> dict:
    """The :func:`curvature_batch` record at one regular point p (n,), with
    no batch axes."""
    return curvature_batch(spec, spec.point(p))


def curvature_batch(spec: MonadSpec, W: np.ndarray, fields=FIELDS) -> dict:
    """Curvature data at regular points W (..., n), the engine's one record.

    The record's keys: ``basis`` (..., k1, r), the :func:`frame_batch`
    bases; the raw form coefficients ``form_raw`` (..., n, n, r, r) in those
    bases, with i F = i sum raw[j,k] dw_j ^ dwbar_k; ``mean`` (..., r, r),
    the Hermitian i Lambda F; ``norm_mean``, its spectral norm; and
    ``norm_form``, |F|.  Only the keys named in ``fields`` are kept.

    The batch is flattened and worked one block of ``BLOCK_POINTS`` points
    at a time, from the inputs (:func:`_values`) to the record, so the call
    holds the selected fields for the whole batch plus one block's working
    arrays.  The singular-point rule still sees the whole batch: a block
    with a singular point raises one :class:`SingularPointError` that
    counts the singular points of every block and reports the first.
    """
    if isinstance(fields, str) or not fields or not set(fields) <= set(FIELDS):
        raise ValueError(f"fields must be a non-empty collection of {FIELDS}, got {fields!r}")
    w = np.asarray(W, dtype=complex)
    lead = w.shape[:-1]
    w = w.reshape(-1, w.shape[-1])
    out = {}
    for lo in range(0, max(len(w), 1), BLOCK_POINTS):
        wb = w[lo:lo + BLOCK_POINTS]
        v = _values(spec, wb, rest=(w[k:k + BLOCK_POINTS] for k in
                                    range(lo + BLOCK_POINTS, len(w), BLOCK_POINTS)))
        basis = np.moveaxis(frame_batch(spec, v), 0, -1)
        block = (basis,) + _curvature_data(spec, wb, basis, v)
        for key, x in zip(FIELDS, block):
            if key in fields:
                x = np.moveaxis(x, -1, 0)
                if key not in out:   # the first block sizes the whole record
                    out[key] = np.empty((len(w),) + x.shape[1:], dtype=x.dtype)
                out[key][lo:lo + BLOCK_POINTS] = x
    return {key: x.reshape(lead + x.shape[1:]) for key, x in out.items()}


def curvature_fd_check(spec: MonadSpec, p, frame, h: float = 1e-3) -> float:
    """Relative gap between the curvature formula and its definition.

    ``frame`` maps coordinates to a (k1, m) column stack of holomorphic
    ker-beta representatives valid on the FD stencil around p.  The Chern
    curvature of the induced Gram metric, F = dbar(G^{-1} dG) computed by
    centered differences, is compared against :func:`curvature` transported
    into the same frame.  Returns the max relative entry error over all
    (j, k) components.
    """
    w = spec.point(p)
    n = spec.n

    def gram(q):
        return induced_metric(spec, q, frame(q))

    g0 = gram(w)

    def theta(q, j):
        # G^{-1} d_j G at q, via one more FD level
        gq = gram(q)
        dg = fd_derivative(gram, q, j, "holo", h)
        return np.linalg.inv(gq) @ dg

    fd_raw = np.empty((n, n) + g0.shape, dtype=complex)
    for j in range(n):
        for k in range(n):
            fd_raw[j, k] = -fd_derivative(lambda q, jj=j: theta(q, jj), w, k, "anti", h)

    rep = curvature(spec, w)
    # transport: columns of the frame expand in the orthonormal basis as T;
    # B^dag h1 alpha = (h0 alpha^dag B)^dag = 0, so no projection off Im alpha
    t = rep["basis"].conj().T @ spec.h1.value(w) @ np.asarray(frame(w), dtype=complex)
    engine_raw = np.linalg.inv(t) @ rep["form_raw"] @ t

    scale = max(float(np.abs(engine_raw).max()), 1e-14)
    return float(np.abs(fd_raw - engine_raw).max() / scale)
