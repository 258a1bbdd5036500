"""Barrier potential for the mean-curvature source weight.

G(p) = integral over C^3 of  weight(x') / |p - x'|^4  dVol(x'),

with the decay weight of :func:`hymkit.ansatz.curvature_weight` as source.
Since 1/|u|^4 is (up to the constant -4 pi^3) the fundamental solution of the
R^6 Laplacian, G solves  Lap G = -4 pi^3 * weight  away from the origin and
obeys the envelope

    |G| <= C |p|^{-1} max(log(|p| / (|x|+|y|+|z|^{1/2})), 1),   |p| >= 1.

The integral is estimated by stratified Monte Carlo over dyadic radial
shells.  Within a shell the sampler mixes, in proportions 2:1:2, a generic
component (log-uniform shell radius, uniform direction), an axis-adapted one
(log-uniform radius and transverse fraction t = (|x'|^2+|y'|^2)/r^2,
concentrating near the z-axis where the weight is large) and a kernel-adapted
one (log-uniform distance from p, uniform direction), so both singular
structures carry bounded importance weights.  The core |x' - p| < delta =
10^-3 |p| is excluded.

Points share the draws that do not depend on them.  :func:`eval_G_batch`
draws shell k's generic and axis components once, from an SFC64 generator
keyed by [seed, k + 256, 2654435761], and weighs that cloud against every
point whose shells include k; row i draws its kernel component, shell after
shell, from its own generator keyed by [seed, i, 2246822519].  Weighting each
sample by the whole mixture density is the balance heuristic of Veach &
Guibas (SIGGRAPH 1995), unbiased at each point whatever the points share.
A shell's cloud meets ``BLOCK_POINTS`` rows at a time in coordinate-major
(6, ...) arrays, with |x' - p|^2 taken from coordinate differences.  Memory
is one block's arrays plus about 4 KiB per row for its generator and shells:
2.9 MiB by tracemalloc for the potential suite's 255-point envelope at 6000
samples per shell.  :func:`eval_G` is the batch of one.

The shells are [2^k, 2^(k+1)] for k from floor(log2 |p|) - 7 to
max(floor(log2 |p|), 0) + 7: seven dyadic scales below |p| and seven above
max(|p|, 1), which keeps the log-divergent region |p| < |x'| < 1 for |p| < 1.

The weak-form check of Lap G = -4 pi^3 weight against a radial bump takes
both of its sides on the bump's support ball, on the stratified ball nodes
of the growth degrees (:func:`hymkit.ansatz._ball_nodes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .ansatz import _ball_nodes, _weight, curvature_weight

__all__ = [
    "MCParams",
    "GValue",
    "eval_G",
    "eval_G_batch",
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


# the outer shell [2^k, 2^(k+1)] has k = floor(log2 |p|) + 7 for |p| >= 1, and
# _shell_density divides by |x'|^6 up to 2^(6 (k + 1)), which must stay a
# finite float: |p| < 2^163, about 1.17e49.  (|x' - p|^4 overflows only past
# about 1e77.)
_P_MAX = 2.0 ** ((np.finfo(float).maxexp - 1) // 6 - 7)


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

# generator keys: a shell's cloud is drawn from [seed, k + _K_SHIFT, _CLOUD_TAG]
# and a row's kernel draws, shell after shell, from [seed, row, _KERNEL_TAG].
# The origin guard keeps |p| >= 2.5e-49, so every shell has k >= -169
_CLOUD_TAG, _KERNEL_TAG = 2654435761, 2246822519
_K_SHIFT = 256

# point rows per block against one shell's cloud: at 6000 samples per shell a
# one-point call peaks at 0.8 MiB by tracemalloc.  8 rows were no faster and
# 16 about 1.3x slower
BLOCK_POINTS = 4


def _rng(*key):
    return np.random.Generator(np.random.SFC64(list(key)))


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def _scale_to(g, radii):
    """Scale the Gaussian columns g (dims, ...) to lengths ``radii`` in place."""
    sq = g * g
    g *= radii / np.sqrt(sq.sum(axis=0))


def _moduli(sq):
    """|x'|^2, sigma = |x|^2 + |y|^2 and |z|^2 from the squares of coordinate-major
    points (6, ...), whose rows are Re x, Im x, Re y, Im y, Re z, Im z."""
    sigma = sq[:4].sum(axis=0)
    z_sq = sq[4] + sq[5]
    return sigma + z_sq, sigma, z_sq


def _shell_density(r_sq, sigma):
    """_W_GEN q_gen + _W_AXIS q_axis w.r.t. Lebesgue dV, for points in the shell."""
    t = sigma / r_sq
    log_r_span = np.log(2.0)
    c_gen = _W_GEN / (_OMEGA5 * log_r_span)
    c_axis = _W_AXIS * 2.0 / (log_r_span * -np.log(_T_MIN) * _OMEGA3 * 2 * np.pi)
    q = np.where(t >= _T_MIN, c_axis / (t * t), 0.0)
    q += c_gen
    q /= r_sq * r_sq * r_sq
    return q


def _cloud(seed, k, base):
    """One shell's p-independent draws: 2 base generic then base axis-adapted
    points (6, 3 base), their source weights (0 off the shell) and their
    density.

    Generic: log-uniform radius, uniform direction.  Axis-adapted: log-uniform
    radius and t = sigma/r^2, uniform (x, y) direction and z phase.
    """
    r1, r2 = 2.0**k, 2.0 ** (k + 1)
    rng = _rng(seed, k + _K_SHIFT, _CLOUD_TAG)
    v = np.empty((6, 3 * base))
    radii = _log_uniform(rng, r1, r2, 2 * base)
    g = rng.standard_normal((6, 2 * base))
    _scale_to(g, radii)
    v[:, :2 * base] = g
    r = _log_uniform(rng, r1, r2, base)
    t = _log_uniform(rng, _T_MIN, 1.0, base)
    g = rng.standard_normal((4, base))
    _scale_to(g, r * np.sqrt(t))
    v[:4, 2 * base:] = g
    phase = rng.uniform(0.0, 2 * np.pi, base)
    z_mod = r * np.sqrt(1.0 - t)
    np.multiply(z_mod, np.cos(phase), out=v[4, 2 * base:])
    np.multiply(z_mod, np.sin(phase), out=v[5, 2 * base:])
    r_sq, sigma, z_sq = _moduli(v * v)
    f = _weight(sigma, z_sq)
    f[(r_sq < r1 * r1) | (r_sq > r2 * r2)] = 0.0
    return v, f, _shell_density(r_sq, sigma)


def _point_rows(points) -> np.ndarray:
    """The points as an (m, 3) complex array; ValueError unless they form a
    non-empty (..., 3) array."""
    w = np.asarray(points, dtype=complex)
    if w.ndim == 0 or w.shape[-1] != 3 or w.size == 0:
        raise ValueError(f"points must be a non-empty (..., 3) array, got shape {w.shape}")
    return np.ascontiguousarray(w.reshape(-1, 3))


def _block_weights(k, cloud, f_cloud, q_cloud, centres, norms, rngs, n):
    """Importance weights (rows, n) of one block of points on shell k: the
    shared cloud first, then each row's kernel draws from its generator."""
    r1, r2 = 2.0**k, 2.0 ** (k + 1)
    delta, u_max = _CORE_REL * norms, norms + 2.0 * r2
    n_cloud = cloud.shape[1]
    wgt = np.zeros((len(rngs), n))
    # the kernel density's constant; it is on at every cloud point outside
    # the core, since |x' - p| <= |p| + r2 < u_max there
    c_ker = (_W_KER / _OMEGA5) / np.log(u_max / delta)
    # |x' - p|^2 from coordinate differences
    s_sq = cloud[0] - centres[0][:, None]
    s_sq *= s_sq
    for row, c in zip(cloud[1:], centres[1:]):
        d = row - c[:, None]
        d *= d
        s_sq += d
    with np.errstate(divide="ignore"):
        denom = c_ker[:, None] / s_sq
    denom += s_sq * s_sq * q_cloud
    np.divide(f_cloud, denom, out=wgt[:, :n_cloud], where=s_sq >= (delta * delta)[:, None])
    # kernel draws: log-uniform distance |x' - p| in [delta, u_max], uniform direction
    dist = np.empty((len(rngs), n - n_cloud))
    v = np.empty((len(rngs), 6, n - n_cloud))
    for j, rng in enumerate(rngs):
        dist[j] = _log_uniform(rng, delta[j], u_max[j], n - n_cloud)
        v[j] = rng.standard_normal((6, n - n_cloud))
    v = v.transpose(1, 0, 2)
    _scale_to(v, dist)
    v += centres[:, :, None]
    v *= v
    r_sq, sigma, z_sq = _moduli(v)
    j, i = np.nonzero((r_sq >= r1 * r1) & (r_sq <= r2 * r2))
    d_sq = dist[j, i]
    d_sq *= d_sq
    wgt[j, n_cloud + i] = _weight(sigma[j, i], z_sq[j, i]) / (
        d_sq * d_sq * _shell_density(r_sq[j, i], sigma[j, i]) + c_ker[j] / d_sq)
    return wgt


def eval_G_batch(points, mc: MCParams = MCParams()) -> list[GValue]:
    """Stratified Monte Carlo estimates of G at each row of a non-empty
    (..., 3) point array, each |p| >= ~2.5e-49 and below 2^163 (``_P_MAX``);
    any other point raises ValueError before a draw.

    Every shell draws its generic and axis components once, shared by all
    points, and each row its kernel component under its own key (module
    docstring).  Rows are worked ``BLOCK_POINTS`` at a time against one
    shell's cloud; each row's value is the same bit for bit whatever block
    holds it.  The core |x' - p| < 1e-3 |p| is excluded, and so is the
    region beyond the outer shell.
    """
    w = _point_rows(points)
    with np.errstate(over="ignore"):   # a norm past 1.3e154 overflows: the bound says so
        norms = np.sqrt(np.sum(np.abs(w) ** 2, axis=-1))
    for p, p_norm in zip(w, norms):
        if not (np.isfinite(p).all() and p_norm > 0.0):
            raise ValueError(f"potential needs a finite point other than the origin, got {p}")
        if not p_norm < _P_MAX:
            raise ValueError(f"potential point {p} beyond |p| < 2^163 ({_P_MAX:.3g}): the "
                             "outer shell's |x'|^6 would overflow")
        if (_CORE_REL * p_norm) ** 6 < np.finfo(float).tiny:
            # the kernel density divides by delta^6, which must stay a normal float
            raise ValueError(f"potential point {p} too close to the origin: core radius "
                             f"{_CORE_REL * p_norm:.3g}, whose sixth power is below the "
                             "normal floats")
    ranges = np.array([_shell_range(p_norm) for p_norm in norms])
    centres = w.view(float).T  # coordinate-major (6, m)
    base = mc.samples_per_shell // 5
    n = 5 * base  # component counts 2:1:2 realise the mixture weights exactly
    kernel_rngs = [_rng(mc.seed, row, _KERNEL_TAG) for row in range(len(w))]
    shells = [[] for _ in range(len(w))]
    for k in range(ranges[:, 0].min(), ranges[:, 1].max() + 1):
        cloud, f_cloud, q_cloud = _cloud(mc.seed, k, base)
        rows = np.flatnonzero((ranges[:, 0] <= k) & (k <= ranges[:, 1]))
        for lo in range(0, len(rows), BLOCK_POINTS):
            blk = rows[lo:lo + BLOCK_POINTS]
            wgt = _block_weights(k, cloud, f_cloud, q_cloud, centres[:, blk], norms[blk],
                                 [kernel_rngs[i] for i in blk], n)
            means = wgt.sum(axis=1) / n
            wgt -= means[:, None]
            wgt *= wgt
            errs = np.sqrt(wgt.sum(axis=1) / n / n)
            for row, m_row, e_row in zip(blk, means, errs):
                shells[row].append((k, float(m_row), float(e_row)))
    return [GValue(estimate=sum(c for _, c, _ in sh),
                   stderr=float(np.sqrt(sum(e * e for _, _, e in sh))),
                   shells=tuple(sh)) for sh in shells]


def eval_G(p, mc: MCParams = MCParams()) -> GValue:
    """G at one point of shape (3,): row 0 of :func:`eval_G_batch`, bit for bit."""
    w = np.asarray(p, dtype=complex)
    if w.shape != (3,):
        raise ValueError(f"eval_G takes one point of shape (3,), got shape {w.shape}")
    return eval_G_batch(w[None], mc)[0]


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

    ``points`` is a non-empty (..., 3) array of points with |w| >= 1, whose
    G comes from one :func:`eval_G_batch` call.  Also reports the minimum G
    sampled (positivity check).
    """
    pts = _point_rows(points)
    norms = np.sqrt(np.sum(np.abs(pts) ** 2, axis=-1))
    if not np.all((norms >= 1.0) & (norms < np.inf)):
        raise ValueError("envelope calibrated for finite points with |w| >= 1")
    g = np.array([gv.estimate for gv in eval_G_batch(pts, mc)])
    denom = np.abs(pts[:, 0]) + np.abs(pts[:, 1]) + np.sqrt(np.abs(pts[:, 2]))
    env = np.maximum(1.0, np.log(norms / denom))
    return {"sup": float((g * norms / env).max()), "g_min": float(g.min())}
