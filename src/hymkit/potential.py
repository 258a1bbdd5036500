"""Barrier potential for the mean-curvature source weight.

G(p) = integral over C^3 of  weight(x') / |p - x'|^4  dVol(x'),

with the decay weight of :func:`hymkit.ansatz.curvature_weight` as source.
Since 1/|u|^4 is (up to the constant -4 pi^3) the fundamental solution of the
R^6 Laplacian, G solves  Lap G = -4 pi^3 * weight  away from the origin and
obeys the envelope

    |G| <= C |p|^{-1} max(log(|p| / (|x|+|y|+|z|^{1/2})), 1),   |p| >= 1.

The integral is estimated by stratified Monte Carlo over dyadic radial
shells.  Within a shell the sampler is an equal-weight mixture of a
source-adapted component (log-uniform shell radius, log-uniform transverse
fraction t = (|x'|^2+|y'|^2)/r^2 concentrating near the z-axis where the
weight is large) and a kernel-adapted component (log-uniform distance from p,
uniform direction), so both singular structures carry bounded importance
weights.  The core |x' - p| < delta = 10^-3 |p| is excluded.

The shells are [2^k, 2^(k+1)] for k from floor(log2 |p|) - 7 to
max(floor(log2 |p|), 0) + 7: seven dyadic scales below |p| and seven above
max(|p|, 1), which keeps the log-divergent region |p| < |x'| < 1 for |p| < 1.

The weak-form check of Lap G = -4 pi^3 weight against a radial bump takes
both of its sides on the bump's support ball, on the stratified ball nodes
of the growth degrees (:func:`hymkit.ansatz._ball_nodes`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .ansatz import _ball_nodes, _weight, curvature_weight

__all__ = [
    "MCParams",
    "GValue",
    "eval_G",
    "bump",
    "bump_laplacian",
    "bump_pairing",
    "laplacian_weak_check",
    "barrier_envelope_check",
    "LAPLACIAN_CONSTANT",
]

# Lap(1/|u|^4) = (2 - 6) * area(S^5) * delta_0 = -4 pi^3 delta_0 on R^6
LAPLACIAN_CONSTANT = -4.0 * np.pi**3

_OMEGA5 = np.pi**3        # area of the unit 5-sphere
_OMEGA3 = 2.0 * np.pi**2  # area of the unit 3-sphere
_T_MIN = 1e-6
_MIN_SAMPLES = 8  # eval_G draws in fifths of a shell
_CORE_REL = 1e-3  # excluded core radius over |p|
_REPLICAS = 4     # independent replicas of the weak-form ratio
# least bump radius over eps |centre|: below it the nodes c + radius u round
# to a few floats about c.  Reading Psi at radius |u| keeps the ratio at
# 1.00003 even at 0.1 eps |c| (centre (10, 0, 0), seed 3; |x' - c| of the
# rounded points read 1.76 at 0.45), but the guard keeps to resolved bumps
_RADIUS_RESOLVED = 8.0


@dataclass(frozen=True)
class MCParams:
    """Samples per dyadic shell and seed of :func:`eval_G`; the weak check
    reads ``samples_per_shell`` as ball nodes per replica and ignores ``seed``."""

    samples_per_shell: int = 4000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("samples_per_shell", _MIN_SAMPLES), ("seed", 0)):
            v = getattr(self, name)
            is_int = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            if not (is_int and v >= least):
                raise ValueError(f"{name} must be an int >= {least}, got {v!r}")


def _shell_range(p_norm: float) -> tuple[int, int]:
    """First and last k of the dyadic shells [2^k, 2^(k+1)] sampled about |p|."""
    base = int(np.floor(np.log2(p_norm)))
    return base - 7, max(base, 0) + 7


@dataclass(frozen=True)
class GValue:
    estimate: float
    stderr: float
    shells: tuple           # (k, contribution, stderr) per dyadic shell


# mixture weights: generic shell coverage / axis-adapted / kernel-adapted
_W_GEN, _W_AXIS, _W_KER = 0.4, 0.2, 0.4

# Points are complex (n, 3) arrays.  The samplers fill, and _sq_moduli reads,
# their real view v = pts.view(float): v[:, 2j] = Re w_j, v[:, 2j+1] = Im w_j.
_ONES6 = np.ones(6)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def _sphere_points(rng, v, radii, centre=np.zeros(6)):
    """Fill v with centre + radii times uniform directions of C^3 = R^6: coordinate
    j is g[j] + i g[3+j] for a Gaussian g (drawn after the radii) scaled to |g| = radius."""
    g = rng.standard_normal((len(radii), 6))
    scale = radii / np.sqrt((g * g) @ _ONES6)
    for col, j in enumerate((0, 3, 1, 4, 2, 5)):
        v[:, col] = g[:, j] * scale + centre[col]


def _shell_points(rng, v, n_gen, r1, r2):
    """Fill v with n_gen generic then axis-adapted draws from the shell [r1, r2].

    Generic: log-uniform radius, uniform direction.  Axis-adapted: log-uniform
    radius and t = sigma/r^2, uniform (x, y) = (g0 + i g2, g1 + i g3) and z phase.
    """
    _sphere_points(rng, v[:n_gen], _log_uniform(rng, r1, r2, n_gen))
    va = v[n_gen:]
    n_axis = len(va)
    r = _log_uniform(rng, r1, r2, n_axis)
    t = _log_uniform(rng, _T_MIN, 1.0, n_axis)
    g = rng.standard_normal((n_axis, 4))
    phase = rng.uniform(0.0, 2 * np.pi, n_axis)
    rho = r * np.sqrt(t) / np.sqrt((g * g) @ _ONES6[:4])
    for col, j in enumerate((0, 2, 1, 3)):
        np.multiply(g[:, j], rho, out=va[:, col])
    z = r * np.sqrt(1.0 - t) * np.exp(1j * phase)
    va[:, 4], va[:, 5] = z.real, z.imag


def _sq_moduli(v, centre):
    """|x'|^2, sigma = |x|^2 + |y|^2, |z|^2 and |x' - centre|^2 from the real
    view v of the points; ``centre`` is its real view tiled to v.size."""
    sq = v * v
    sigma = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]
    r_sq = sigma + sq[:, 4] + sq[:, 5]
    u = v.ravel() - centre
    u *= u
    return r_sq, sigma, sq[:, 4] + sq[:, 5], u.reshape(v.shape) @ _ONES6


def _shell_density(in_shell, r_sq, sigma):
    """_W_GEN q_gen + _W_AXIS q_axis for one dyadic shell, w.r.t. Lebesgue dV."""
    t = sigma / r_sq
    log_r_span = np.log(2.0)
    c_gen = _W_GEN / (_OMEGA5 * log_r_span)
    c_axis = _W_AXIS * 2.0 / (log_r_span * -np.log(_T_MIN) * _OMEGA3 * 2 * np.pi)
    q = np.where(t >= _T_MIN, c_axis / (t * t), 0.0)
    q += c_gen
    q /= r_sq * r_sq * r_sq
    return np.where(in_shell, q, 0.0)


def _radial_density(s_sq, lo, hi):
    """Density of the log-uniform-distance component about a centre."""
    with np.errstate(divide="ignore"):
        q = 1.0 / (_OMEGA5 * np.log(hi / lo) * (s_sq * s_sq * s_sq))
    return np.where((s_sq >= lo * lo) & (s_sq <= hi * hi), q, 0.0)


def eval_G(p, mc: MCParams = MCParams()) -> GValue:
    """Stratified Monte Carlo estimate of G(p) for finite |p| >= ~2.5e-49.

    The core |x' - p| < 1e-3 |p| is excluded, and so is the region beyond
    the outer shell.
    """
    w = np.array(p, dtype=complex).reshape(3)
    p_norm = float(np.sqrt(np.sum(np.abs(w) ** 2)))
    if not 0.0 < p_norm < np.inf:
        raise ValueError(f"potential needs a finite point other than the origin, got {w}")
    delta = _CORE_REL * p_norm
    if delta**6 < np.finfo(float).tiny:
        # the kernel density divides by delta^6, which must stay a normal float
        raise ValueError(f"potential point {w} too close to the origin: core radius "
                         f"{delta:.3g}, whose sixth power is below the normal floats")
    lo, hi = _shell_range(p_norm)
    base = mc.samples_per_shell // 5
    n = 5 * base  # component counts 2:1:2 realise the mixture weights exactly
    w_tiled = np.tile(w.view(float), n)
    shells = []
    for k in range(lo, hi + 1):
        r1, r2 = 2.0**k, 2.0 ** (k + 1)
        u_max = p_norm + 2.0 * r2
        rng = np.random.default_rng([mc.seed, k - lo, 2654435761])
        pts = np.empty((n, 3), dtype=complex)
        v = pts.view(float)
        _shell_points(rng, v[:3 * base], 2 * base, r1, r2)
        _sphere_points(rng, v[3 * base:], _log_uniform(rng, delta, u_max, 2 * base),
                       w.view(float))
        r_sq, sigma, z_sq, s_sq = _sq_moduli(v, w_tiled)
        in_shell = (r_sq >= r1 * r1) & (r_sq <= r2 * r2)
        q = _shell_density(in_shell, r_sq, sigma)
        q += _W_KER * _radial_density(s_sq, delta, u_max)
        idx = np.flatnonzero(in_shell & (s_sq >= delta * delta))
        wgt = np.zeros(n)
        wgt[idx] = _weight(sigma[idx], z_sq[idx]) / (s_sq[idx] ** 2 * q[idx])
        shells.append((k, float(wgt.mean()), float(np.sqrt(wgt.var() / n))))
    return GValue(estimate=sum(c for _, c, _ in shells),
                  stderr=float(np.sqrt(sum(e * e for _, _, e in shells))),
                  shells=tuple(shells))


# ---------------------------------------------------------------------------
# weak-form Laplacian check


def bump(s: np.ndarray) -> np.ndarray:
    """psi(s) = exp(-1/(1-s^2)) for |s| < 1, 0 outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def bump_laplacian(s: np.ndarray, radius: float) -> np.ndarray:
    """R^6 Laplacian of x -> psi(|x - c| / radius) as a function of s = |x-c|/radius."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    psi = np.exp(-1.0 / (1.0 - si**2))
    one = 1.0 - si**2
    dpsi = psi * (-2.0 * si / one**2)
    d2psi = psi * (4.0 * si**2 / one**4 - 2.0 / one**2 - 8.0 * si**2 / one**3)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(si > 1e-12, 5.0 * dpsi / np.where(si > 1e-12, si, 1.0),
                          5.0 * (-2.0 * psi))
    out[inside] = (d2psi + radial) / radius**2
    return out


@cache
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1] as read-only (nodes,
    weights), computed on first use in a process."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _sphere_kernel_mean(a_vals, d_vals):
    """Spherical mean of |y - x'|^{-4} over |y - c| = a at distance d = |x' - c|.

    Exact two-centre reduction in R^6 by 96-node Gauss-Legendre in the polar angle;
    the integrand stays bounded even when the sphere passes through x'.
    Returns an array of shape (len(a_vals), len(d_vals)).
    """
    th, wth = _gauss_legendre(96)
    theta = 0.5 * np.pi * (th + 1.0)
    wtheta = 0.5 * np.pi * wth
    sin4 = np.sin(theta) ** 4
    m2cos = -2.0 * np.cos(theta)
    a = np.asarray(a_vals, dtype=float)
    d = np.asarray(d_vals, dtype=float)
    out = np.empty((len(a), len(d)))
    # blocks of 16 d-columns keep the (a, d, theta) integrand in L2
    for j in range(0, len(d), 16):
        db = d[j:j + 16]
        q = np.multiply.outer(np.multiply.outer(a, db), m2cos)
        q += (a[:, None] ** 2 + db**2)[:, :, None]
        q *= q
        np.divide(sin4, q, out=q)
        q *= wtheta
        out[:, j:j + 16] = q.sum(axis=-1)
    return (8.0 / (3.0 * np.pi)) * out


def bump_pairing(d_vals, radius: float) -> np.ndarray:
    """Psi(d) = integral of |x - x'|^{-4} Lap phi(x) dx for the radial bump.

    Computed by exact quadrature (64-node radial Gauss-Legendre times the two-centre
    spherical mean), with no closed-form potential theory assumed.  The
    fundamental-solution identity predicts Psi(d) = -4 pi^3 phi(d); the weak
    check measures how well that holds.
    """
    xa, wa = _gauss_legendre(64)
    a = 0.5 * radius * (xa + 1.0)
    w = 0.5 * radius * wa
    lap = bump_laplacian(a / radius, radius)
    mean_k = _sphere_kernel_mean(a, np.asarray(d_vals))
    return np.einsum("a,ad->d", w * lap * _OMEGA5 * a**5, mean_k)


def laplacian_weak_check(center, radius: float, mc: MCParams = MCParams(),
                         seed: int = 0) -> dict:
    """Ratio of integral(G * Lap phi) to -4 pi^3 integral(weight * phi).

    phi is the smooth radial bump at ``center`` (support must avoid the
    origin).  By Fubini the numerator is integral(weight(x') Psi(|x' - c|))
    with Psi the bump pairing, quadratured on [0, radius) and 0 for
    d >= radius: the kernel K = |x - x'|^-4 is then harmonic in x on the
    support ball, so by Green's identity integral(K Lap phi) =
    integral(phi Lap K) = 0.  A quadrature there leaves about
    6e-9 (radius/d)^4, against a denominator of order radius^6.

    So both integrals are over the support ball.  Each of four replicas
    takes them on the same ``mc.samples_per_shell`` stratified ball nodes u
    (:func:`hymkit.ansatz._ball_nodes`, drawn from ``[seed, replica, 7919]``;
    ``mc.seed`` is not read) at c + radius u, with Psi and phi read at
    radius |u|.  The ratio is 1 up to the linear interpolation of Psi (below
    1e-3); stderr is the standard error of the four replicas' mean.

    A radius below 8 eps |centre|, which the centre's floats cannot
    resolve, raises ValueError.
    """
    c = np.array(center, dtype=complex).reshape(3)
    c_norm = float(np.sqrt(np.sum(np.abs(c) ** 2)))
    if not 0.0 < radius < c_norm < np.inf:
        raise ValueError("bump centre must be finite and its support avoid the origin")
    if min(radius, 1.0) ** 6 < np.finfo(float).tiny:
        # the pairing's radial quadrature weights a^5 da on [0, radius], of
        # order radius^6, which must stay a normal float
        raise ValueError(f"bump radius {radius:.3g} has a sixth power below the "
                         "normal floats")
    least = _RADIUS_RESOLVED * np.finfo(float).eps * c_norm
    if radius < least:
        raise ValueError(f"bump radius {radius:.3g} is below {least:.3g}, "
                         f"{_RADIUS_RESOLVED:g} eps |centre|: the centre's floats "
                         "cannot resolve it")
    grid = np.linspace(0.0, radius, 301)  # spacing radius / 300
    psi = np.append(bump_pairing(grid[:-1], radius), 0.0)
    ratios = []
    for rep in range(_REPLICAS):
        unit, wts = _ball_nodes(np.random.default_rng([seed, rep, 7919]),
                                mc.samples_per_shell)
        s = np.linalg.norm(unit, axis=1)
        wtd = wts * curvature_weight(c + radius * (unit[:, :3] + 1j * unit[:, 3:]))
        ratios.append((wtd @ np.interp(radius * s, grid, psi))
                      / (LAPLACIAN_CONSTANT * (wtd @ bump(s))))
    return {"ratio": float(np.mean(ratios)),
            "stderr": float(np.std(ratios, ddof=1) / np.sqrt(_REPLICAS))}


def barrier_envelope_check(points, mc: MCParams = MCParams()) -> dict:
    """sup over points of G |w| / max(1, log(|w| / (|x|+|y|+|z|^{1/2}))).

    All points must satisfy |w| >= 1.  Also reports the minimum G sampled
    (positivity check).
    """
    pts = np.asarray(points, dtype=complex).reshape(-1, 3)
    norms = np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1))
    if not np.all((norms >= 1.0) & (norms < np.inf)):
        raise ValueError("envelope calibrated for finite points with |w| >= 1")
    ratios = np.empty(len(pts))
    g_min = np.inf
    for i, p in enumerate(pts):
        gv = eval_G(p, replace(mc, seed=mc.seed + 104729 * i))
        g_min = min(g_min, gv.estimate)
        denom = abs(p[0]) + abs(p[1]) + np.sqrt(abs(p[2]))
        env = max(1.0, float(np.log(norms[i] / denom)))
        ratios[i] = gv.estimate * norms[i] / env
    return {"sup": float(ratios.max()), "g_min": float(g_min)}
