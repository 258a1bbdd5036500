"""The reflexive-sheaf monad family over C^3 and its diagnostics.

The central object is the monad

    C --(x, y, 1, 0)^t--> C^4 --(-y, x, 0, z)--> C

with the nonstandard diagonal weight
h1 = diag((1+|w|^2)^{-1/2}, (1+|w|^2)^{-1/2}, 1, 1) on the middle bundle.
Its cohomology is a rank-2 bundle away from the origin (the kernel sheaf of
(x, y, z): C^3 -> C), and the induced connection has mean curvature decaying
like the weight function :func:`curvature_weight`.

Also here: the twisted monad family near the z-axis, the Fueter map into the
framed one-instanton moduli space, the conical kernel monad whose weight
diag(1/|w|, 1/|w|, 1/|w|) makes the induced connection exactly
Hermitian-Yang-Mills, and sampling diagnostics for all the decay and
cancellation bounds used downstream.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import adhm as adhm_mod
from . import monads as mo
from .geometry import coords

__all__ = [
    "ansatz_monad",
    "cone_monad",
    "flat_metric_cone_monad",
    "twisted_monad",
    "curvature_weight",
    "cancellation",
    "decay_slope",
    "chart_frame",
    "chart_gram",
    "induced_pairing",
    "instanton_comparison",
    "fueter_map",
    "cone_hym_residual",
    "sample_log_uniform",
    "weight_ratio_sup",
]


# ---------------------------------------------------------------------------
# monad constructors


def ansatz_monad() -> mo.MonadSpec:
    """The rank-2 reflexive family over C^3; singular only at the origin.

    alpha = (x, y, 1, 0)^t and beta = (-y, x, 0, z); the coefficient tables
    list the entries of each map for the constant term, x, y and z.
    """
    alpha, beta, dalpha, dbeta = mo.affine_maps(
        np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])[..., None],
        np.array([[0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]])[:, None])
    return mo.MonadSpec(
        name="ansatz",
        n=3, k0=1, k1=4, k2=1,
        alpha=alpha, beta=beta,
        h0=mo.constant_metric(np.eye(1)),
        h1=mo.DiagPowerMetric(consts=(1, 1, 1, 1), pow_rho=(-0.5, -0.5, 0, 0)),
        h2=mo.constant_metric(np.eye(1)),
        dalpha=dalpha, dbeta=dbeta,
    )


def _zero(c) -> bool:
    """Whether c is a structural zero: a scalar equal to 0."""
    return np.isscalar(c) and c == 0


def _dot(u, v):
    """sum_i conj(u_i) v_i over the terms free of a structural zero."""
    return sum(np.conj(a) * b for a, b in zip(u, v) if not (_zero(a) or _zero(b)))


def induced_pairing(w, s, t):
    """s^dag h1 t - conj(alpha^dag h1 s) (alpha^dag h1 t) / (alpha^dag h1 alpha).

    The Gram entry G[s, t] in the metric :func:`ansatz_monad` induces on
    ker beta, the h1 pairing after projecting off Im alpha, batched over w
    (..., 3): h1 = diag(q, q, 1, 1), q = (1+|w|^2)^{-1/2}, alpha = (x, y, 1, 0)^t.
    s and t are 4-tuples of components, arrays or scalars; a scalar 0 costs nothing.
    """
    pair, alpha, alpha_sq = _h1_pairing(w)
    return pair(s, t) - np.conj(pair(alpha, s)) * pair(alpha, t) / alpha_sq


def _h1_pairing(w):
    """(pair, alpha, alpha^dag h1 alpha) at w (..., 3), with q and
    |x|^2 + |y|^2 formed once: pair(u, v) = u^dag h1 v on 4-tuples."""
    w = np.asarray(w, dtype=complex)
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    sig = np.abs(x) ** 2 + np.abs(y) ** 2
    q = (1.0 + sig + np.abs(z) ** 2) ** -0.5

    def pair(u, v):
        head, tail = _dot(u[:2], v[:2]), _dot(u[2:], v[2:])
        return tail if _zero(head) else q * head + tail

    return pair, (x, y, 1, 0), q * sig + 1.0


def cone_monad() -> mo.MonadSpec:
    """Kernel monad 0 -> C^3 --(x,y,z)--> C with weight |w|^{-1} I.

    The scale-invariant weight exactly cancels the Einstein constant of the
    underlying projective cotangent geometry: i Lambda F = 0 at every
    regular point.  alpha is empty and beta = (x, y, z): constant term 0,
    then the coefficient rows of x, y and z.
    """
    alpha, beta, dalpha, dbeta = mo.affine_maps(np.zeros((4, 3, 0)),
                                                np.eye(4, 3, k=-1)[:, None])
    return mo.MonadSpec(
        name="cone",
        n=3, k0=0, k1=3, k2=1,
        alpha=alpha, beta=beta,
        h0=mo.constant_metric(np.zeros((0, 0))),
        h1=mo.DiagPowerMetric(consts=(1, 1, 1), pow_rho=(0, 0, 0),
                              pow_r2=(-0.5, -0.5, -0.5)),
        h2=mo.constant_metric(np.eye(1)),
        dalpha=dalpha, dbeta=dbeta,
    )


def flat_metric_cone_monad() -> mo.MonadSpec:
    """Negative control: same kernel monad with the constant metric."""
    return replace(cone_monad(), name="cone-flat", h1=mo.constant_metric(np.eye(3)))


def twisted_monad(zeta: complex, root: complex | None = None) -> mo.MonadSpec:
    """U(1)-twisted monad adapted to the z-axis near (0, 0, zeta), |zeta| >= 1.

    Maps are (x, y, c, 0)^t and (-y, x, 0, c) with c = zeta^{1/2} (principal
    root unless given), tabled like :func:`ansatz_monad`'s, and the middle
    metric is
    diag(1, 1, (1+|w|^2)^{1/2}/|zeta|, |zeta| (1+|w|^2)^{1/2}/|z|^2),
    defined for z != 0.
    """
    if abs(zeta) < 1.0:
        raise ValueError("twisted monad requires |zeta| >= 1")
    c = complex(np.sqrt(complex(zeta))) if root is None else complex(root)
    if abs(c * c - zeta) > 1e-9 * abs(zeta):
        raise ValueError("root is not a square root of zeta")
    az = abs(zeta)
    alpha, beta, dalpha, dbeta = mo.affine_maps(
        np.array([[0, 0, c, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])[..., None],
        np.array([[0, 0, 0, c], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])[:, None])
    h1 = mo.DiagPowerMetric(
        consts=(1.0, 1.0, 1.0 / az, az),
        pow_rho=(0, 0, 0.5, 0.5),
        pow_z2=(0, 0, 0, -1.0),
    )
    return mo.MonadSpec(
        name=f"twisted(zeta={zeta:.6g})",
        n=3, k0=1, k1=4, k2=1,
        alpha=alpha, beta=beta,
        h0=mo.constant_metric(np.eye(1)), h1=h1, h2=mo.constant_metric(np.eye(1)),
        dalpha=dalpha, dbeta=dbeta,
    )


# ---------------------------------------------------------------------------
# weights


def curvature_weight(p) -> np.ndarray | float:
    """The decay weight bounding |i Lambda F|:

        1 / ((|x|^2 + |y|^2 + |z|) |w|)   for |w| >= 1,
        1 / |w|^2                          for |w| < 1,

    a fixed representative of its uniform-equivalence class (hard switch at
    |w| = 1).  Accepts a single point or an array (..., 3).
    """
    w = np.asarray(p, dtype=complex)
    sq = np.abs(w) ** 2
    sigma = sq[..., 0] + sq[..., 1]
    if np.any(sigma + sq[..., 2] == 0.0):
        raise ValueError("weight undefined at the origin")
    val = _weight(sigma, sq[..., 2])
    return float(val) if w.ndim == 1 else val


def _weight(sigma, z_sq):
    """:func:`curvature_weight` from sigma = |x|^2 + |y|^2 and |z|^2."""
    r2 = sigma + z_sq
    r = np.sqrt(r2)
    return np.where(r >= 1.0, 1.0 / ((sigma + np.sqrt(z_sq)) * r), 1.0 / r2)


def cancellation(p):
    """The two sides of the inverse-factor cancellation inequality.

    lhs = (1+|w|^2)^{-1} (alpha^dag alpha)^{-1} - (beta beta^dag)^{-1},
    rhs = 1 / (beta beta^dag * sqrt(1+|w|^2));  |lhs| <= C rhs with a
    moderate constant uniformly on C^3 \\ {0}.
    """
    w = coords(p, 3)
    v = mo._values(ansatz_monad(), w[None])
    ada = np.real(mo._mm(v["alpha_dag"], v["alpha"]))[0, 0, 0]
    bbd = np.real(mo._mm(v["beta"], v["beta_dag"]))[0, 0, 0]
    rho = 1.0 + np.sum(np.abs(w) ** 2)
    lhs = 1.0 / (rho * ada) - 1.0 / bbd
    rhs = 1.0 / (bbd * np.sqrt(rho))
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# sampling helpers


def sample_log_uniform(rng: np.random.Generator, n: int, r_min: float,
                       r_max: float) -> np.ndarray:
    """n points of C^3 with log-uniform radius in [r_min, r_max]."""
    g = rng.standard_normal((n, 6))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = np.exp(rng.uniform(np.log(r_min), np.log(r_max), size=n))
    pts = g * r[:, None]
    return pts[:, :3] + 1j * pts[:, 3:]


def _ball_nodes(rng: np.random.Generator, n: int):
    """Unit-ball nodes stratified over eight dyadic radial shells, those of
    the growth integrals and of the potential's weak-form check.

    Per-stratum counts are proportional to shell volume; returns nodes and
    the constant overall density 1/vol(B_1) absorbed into equal weights.
    """
    edges = np.concatenate([[0.0], 0.5 ** np.arange(7, 0, -1), [1.0]])
    vols = edges[1:] ** 6 - edges[:-1] ** 6
    counts = np.maximum((vols * n).astype(int), 8)
    pts = []
    wts = []
    for (lo, hi), cnt in zip(zip(edges[:-1], edges[1:]), counts):
        d = rng.standard_normal((cnt, 6))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        u = rng.random(cnt)
        rad = (lo**6 + u * (hi**6 - lo**6)) ** (1.0 / 6.0)
        pts.append(rad[:, None] * d)
        wts.append(np.full(cnt, (hi**6 - lo**6) / cnt))
    return np.concatenate(pts), np.concatenate(wts)


def weight_ratio_sup(n_points: int = 10_000, seed: int = 0) -> float:
    """sup of |i Lambda F| / weight over radii log-uniform in [1e-2, 1e3]."""
    rng = np.random.default_rng(seed)
    pts = sample_log_uniform(rng, n_points, 1e-2, 1e3)
    spec = ansatz_monad()
    data = mo.curvature_batch(spec, pts, fields=("norm_mean",))
    ell = curvature_weight(pts)
    return float(np.max(data["norm_mean"] / ell))


def _chart_sections(chart: str):
    """w (..., 3) -> the chart frame's two sections, as 4-tuples of components:
    x-chart (0,0,1,0), (0, -z/x, 0, 1); y-chart (0,0,1,0), (z/y, 0, 0, 1).
    A point whose chart coordinate is 0 raises ValueError."""
    if chart not in ("x", "y"):
        raise ValueError("chart must be 'x' or 'y'")

    def sections(w):
        if np.any(w[..., "xy".index(chart)] == 0):
            raise ValueError(f"the {chart} chart frame needs {chart} != 0")
        return ((0, 0, 1, 0), (0, -w[..., 2] / w[..., 0], 0, 1) if chart == "x"
                else (w[..., 2] / w[..., 1], 0, 0, 1))

    return sections


def chart_frame(chart: str):
    """Holomorphic ker-beta frame q (..., 3) -> the chart's sections as the
    columns of a (..., 4, 2) matrix; chart coordinate 0 raises ValueError."""
    sections = _chart_sections(chart)

    def frame(q):
        q = np.asarray(q, dtype=complex)
        out = np.zeros(q.shape[:-1] + (4, 2), dtype=complex)
        for k, section in enumerate(sections(q)):
            for i, c in enumerate(section):
                out[..., i, k] = c
        return out

    return frame


def chart_gram(w, chart: str) -> np.ndarray:
    """Gram matrix (..., 2, 2) of the chart frame at w (..., 3) under
    :func:`induced_pairing`, with a real diagonal; q, |x|^2 + |y|^2 and
    alpha^dag h1 s for each section s are formed once; chart coordinate 0
    raises ValueError."""
    w = np.asarray(w, dtype=complex)
    sections = _chart_sections(chart)(w)
    pair, alpha, alpha_sq = _h1_pairing(w)
    proj = [pair(alpha, s) for s in sections]

    def entry(i, j):
        return pair(sections[i], sections[j]) - np.conj(proj[i]) * proj[j] / alpha_sq

    g = np.empty(w.shape[:-1] + (2, 2), dtype=complex)
    g[..., 0, 0] = entry(0, 0).real
    g[..., 0, 1] = entry(0, 1)
    g[..., 1, 0] = g[..., 0, 1].conj()
    g[..., 1, 1] = entry(1, 1).real
    return g


def decay_slope(ray, r_values) -> float:
    """Least-squares slope of log |F| against log r along a ray direction."""
    ray = np.asarray(ray, dtype=complex)
    ray = ray / np.sqrt(np.sum(np.abs(ray) ** 2))
    rs = np.asarray(r_values, dtype=float)
    pts = rs[:, None] * ray[None, :]
    data = mo.curvature_batch(ansatz_monad(), pts, fields=("norm_form",))
    return float(np.polyfit(np.log(rs), np.log(data["norm_form"]), 1)[0])


# ---------------------------------------------------------------------------
# bubbling region


def instanton_comparison(zeta: complex, seed: int = 0) -> dict:
    """Scaled gap between the twisted family and its model instanton.

    Samples the disc |x| + |y| <= |zeta|^{1/2} on the slice z = zeta and
    compares gauge-invariant curvature data of the twisted monad against the
    instanton with parameters (zeta^{1/2}, 0, 0, zeta^{1/2}).  The instanton
    lives on the transverse C^2, so the comparison restricts both curvatures
    to the slice: per-component singular values over the (x, y) form block
    plus the mean-curvature norms.  (The mixed dz components of the twisted
    curvature carry the slow parameter variation along the axis and decay
    at the slower rate |z|^{-3/2}; they are reported separately.)
    Returns sup over 24 points of the transverse gap times |zeta|^2.
    """
    if abs(zeta) < 100.0:
        raise ValueError("comparison region requires |zeta| >= 100")
    c = complex(np.sqrt(complex(zeta)))
    tw = twisted_monad(zeta, root=c)
    inst = adhm_mod.instanton_monad(adhm_mod.ADHMData(c, 0, 0, c))
    rng = np.random.default_rng(seed)
    n_samples = 24
    g = rng.standard_normal((n_samples, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rad = np.sqrt(abs(zeta)) * rng.random(n_samples) ** 0.25
    xy = (g[:, :2] + 1j * g[:, 2:]) * rad[:, None] / np.sqrt(2.0)
    pts3 = np.concatenate([xy, np.full((n_samples, 1), zeta, dtype=complex)], axis=1)
    d_tw = mo.curvature_batch(tw, pts3)
    d_in = mo.curvature_batch(inst, xy)
    gaps = np.zeros(n_samples)
    for j in range(2):
        for k in range(2):
            sv_t = np.linalg.svd(d_tw["form_raw"][:, j, k], compute_uv=False)
            sv_i = np.linalg.svd(d_in["form_raw"][:, j, k], compute_uv=False)
            gaps += np.abs(sv_t - sv_i).sum(axis=-1)
    gaps += np.abs(d_tw["norm_mean"] - d_in["norm_mean"])
    axial = np.zeros(n_samples)
    for j in range(3):
        for k in range(3):
            if j < 2 and k < 2:
                continue
            sv_t = np.linalg.svd(d_tw["form_raw"][:, j, k], compute_uv=False)
            axial += sv_t.sum(axis=-1)
    return {"scaled_sup": float(np.max(gaps) * abs(zeta) ** 2),
            "axial_sup": float(np.max(axial))}


def fueter_map(zeta: complex, root: complex | None = None) -> adhm_mod.FramedModuliPoint:
    """zeta -> (zeta^{1/2}, 0) in C^2/Z_2, independent of the chosen root."""
    if zeta == 0:
        raise ValueError("the map is defined away from zeta = 0")
    c = complex(np.sqrt(complex(zeta))) if root is None else complex(root)
    if abs(c * c - zeta) > 1e-9 * abs(zeta):
        raise ValueError("root is not a square root of zeta")
    return adhm_mod.framed_moduli_point(adhm_mod.ADHMData(c, 0, 0, c))


def cone_hym_residual(points) -> np.ndarray:
    """|i Lambda F| of the conical kernel monad at an array of points."""
    pts = np.asarray(points, dtype=complex)
    return mo.curvature_batch(cone_monad(), pts, fields=("norm_mean",))["norm_mean"]
