"""ADHM one-instanton family over C^2.

Data (a1, a2, b1, b2) satisfying a1 b1 + a2 b2 = 0 and |a|^2 = |b|^2 > 0
defines the monad

    C --(x, y, a1, a2)^t--> C^4 --(-y, x, b1, b2)--> C

with trivial metrics; the induced connection on the rank-2 cohomology bundle
is an anti-self-dual instanton of charge 1.  The framed moduli space is
C^2/Z_2, with the U(1) action
(a1, a2, b1, b2) -> (a1 e^{it}, a2 e^{it}, b1 e^{-it}, b2 e^{-it}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import monads as mo

__all__ = [
    "ADHMData",
    "FramedModuliPoint",
    "adhm_residual",
    "random_valid_data",
    "is_valid",
    "instanton_monad",
    "curvature_density",
    "charge",
    "curvature_scale",
    "framed_moduli_point",
]

VALID_TOL = 1e-12


@dataclass(frozen=True)
class ADHMData:
    a1: complex
    a2: complex
    b1: complex
    b2: complex

    @property
    def degenerate(self) -> bool:
        return max(abs(self.a1), abs(self.a2), abs(self.b1), abs(self.b2)) == 0.0

    def as_tuple(self):
        return (self.a1, self.a2, self.b1, self.b2)

    def rotated(self, theta: float) -> "ADHMData":
        """Apply the U(1) action by angle theta."""
        u = np.exp(1j * theta)
        return ADHMData(self.a1 * u, self.a2 * u, self.b1 / u, self.b2 / u)


@dataclass(frozen=True)
class FramedModuliPoint:
    """U(1)-normal form plus, for the sub-family (c,0,0,c), its C^2/Z_2 label."""

    normal_form: tuple
    z2_label: complex | None = None
    cone_point: bool = False


def adhm_residual(d: ADHMData):
    """(complex residual a1 b1 + a2 b2, real residual |a|^2 - |b|^2)."""
    cres = d.a1 * d.b1 + d.a2 * d.b2
    rres = (abs(d.a1) ** 2 + abs(d.a2) ** 2) - (abs(d.b1) ** 2 + abs(d.b2) ** 2)
    return cres, rres


def is_valid(d: ADHMData, tol: float = VALID_TOL) -> bool:
    cres, rres = adhm_residual(d)
    scale = max(abs(d.a1), abs(d.a2), abs(d.b1), abs(d.b2), 1.0) ** 2
    return abs(cres) <= tol * scale and abs(rres) <= tol * scale


def random_valid_data(rng: np.random.Generator) -> ADHMData:
    """Draw valid nondegenerate data: b = e^{i phi} (-a2, a1) solves both equations."""
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a *= 1.0 / np.linalg.norm(a) * (0.5 + rng.random())
    phi = rng.random() * 2 * np.pi
    b = np.exp(1j * phi) * np.array([-a[1], a[0]])
    return ADHMData(a[0], a[1], b[0], b[1])


def instanton_monad(d: ADHMData) -> mo.MonadSpec:
    """The monad of valid nondegenerate data: alpha = (x, y, a1, a2)^t and
    beta = (-y, x, b1, b2); each table lists the entries of its map for the
    constant term, x and y."""
    if d.degenerate:
        raise ValueError("degenerate ADHM data: the connection is flat, no monad")
    if not is_valid(d, tol=1e-9):
        raise ValueError(f"ADHM equations violated: residuals {adhm_residual(d)}")
    a1, a2, b1, b2 = d.as_tuple()
    return mo.MonadSpec(
        name=f"adhm({a1:.3g},{a2:.3g},{b1:.3g},{b2:.3g})",
        alpha_coeffs=np.array([[0, 0, a1, a2], [1, 0, 0, 0], [0, 1, 0, 0]])[..., None],
        beta_coeffs=np.array([[0, 0, b1, b2], [0, 1, 0, 0], [-1, 0, 0, 0]])[:, None],
        h1=mo.constant_metric(np.eye(4)),
    )


def curvature_density(d: ADHMData, points: np.ndarray) -> np.ndarray:
    """|F|^2 at an array of points (..., 2), via the batched curvature engine."""
    spec = instanton_monad(d)
    data = mo.curvature_batch(spec, np.asarray(points, dtype=complex),
                              fields=("norm_form",))
    return data["norm_form"] ** 2


def charge(d: ADHMData) -> float:
    """Instanton charge (1 / 8 pi^2) * integral of |F|^2 over |p| <= 20 s, with
    s = :func:`curvature_scale`.

    Dyadic radial panels from 0.25 s with 12 Gauss-Legendre nodes each, tensor
    angular rule on S^3 with 10 nodes per angle (Gauss-Legendre in the polar
    angle, trapezoid in both phases).  The charge-1 profile leaves out a tail
    of 3 / 20^4 ~ 1.9e-5 beyond 20 s.
    """
    if d.degenerate:
        return 0.0
    scale = curvature_scale(d)
    r_cut = 20.0 * scale
    edges = [0.0, 0.25 * scale]
    while edges[-1] < r_cut:
        edges.append(min(2 * edges[-1], r_cut))
    n_angular = 10
    xs, ws = np.polynomial.legendre.leggauss(12)
    nu_x, nu_w = np.polynomial.legendre.leggauss(n_angular)
    nu = 0.25 * np.pi * (nu_x + 1.0)
    nu_w = nu_w * 0.25 * np.pi
    phis = np.arange(n_angular) * 2 * np.pi / n_angular
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        rr = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
        rw = 0.5 * (hi - lo) * ws
        # (x, y) = r (cos nu e^{i p1}, sin nu e^{i p2}); dV = r^3 cos nu sin nu dr dnu dp1 dp2
        r_g, nu_g, p1_g, p2_g = np.meshgrid(rr, nu, phis, phis, indexing="ij")
        pts = np.stack([r_g * np.cos(nu_g) * np.exp(1j * p1_g),
                        r_g * np.sin(nu_g) * np.exp(1j * p2_g)], axis=-1)
        dens = curvature_density(d, pts)
        wgt = (r_g**3 * np.cos(nu_g) * np.sin(nu_g)
               * rw[:, None, None, None] * nu_w[None, :, None, None]
               * (2 * np.pi / n_angular) ** 2)
        total += float(np.sum(dens * wgt))
    return total / (8 * np.pi**2)


def curvature_scale(d: ADHMData) -> float:
    """The length scale sqrt(|a1|^2 + |a2|^2) of the instanton bump."""
    return float(np.sqrt(abs(d.a1) ** 2 + abs(d.a2) ** 2))


def _canonical_sign(c: complex) -> complex:
    """Pick the Z_2 representative with Re > 0 (Im >= 0 on the boundary)."""
    c = complex(c.real + 0.0, c.imag + 0.0)  # normalise -0.0
    if c.real > 0 or (c.real == 0 and c.imag >= 0):
        return c
    return complex(-c.real + 0.0, -c.imag + 0.0)


def framed_moduli_point(d: ADHMData) -> FramedModuliPoint:
    """U(1)-normal form with a1 rotated real >= 0 (a2 used when a1 = 0).

    On the sub-family U(1).(c, 0, 0, c) the C^2/Z_2 label (c, 0) mod +- is
    recovered from the invariant a1 b2 = c^2.
    """
    if d.degenerate:
        return FramedModuliPoint(normal_form=(0j, 0j, 0j, 0j), z2_label=0j,
                                 cone_point=True)
    if not is_valid(d, tol=1e-9):
        raise ValueError(f"ADHM equations violated: residuals {adhm_residual(d)}")
    anchor = d.a1 if abs(d.a1) > 0 else d.a2
    theta = -np.angle(anchor)
    nf = d.rotated(theta)
    label = None
    if abs(d.a2) <= 1e-12 * abs(d.a1) and abs(d.b1) <= 1e-12 * abs(d.b2):
        label = _canonical_sign(complex(np.sqrt(d.a1 * d.b2)))
    return FramedModuliPoint(
        normal_form=(complex(nf.a1), complex(nf.a2), complex(nf.b1), complex(nf.b2)),
        z2_label=label,
    )
