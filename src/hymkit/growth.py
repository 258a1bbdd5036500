"""Growth degrees of polynomial holomorphic sections at both ends.

Sections of the kernel sheaf ker((x, y, z): C^3 -> C) are written in the
Koszul generators

    t1 = (z, 0, -x),  t2 = (0, z, -y),  t3 = (y, -x, 0),

subject to the relation x t2 - y t1 + z t3 = 0.  A coefficient triple
(f, g, h) of polynomials defines w = f t1 + g t2 + h t3 and the monad
representative v = (-w2, w1, 0, w3), which lies in ker beta of the main
family identically.

The growth degree of a section at an end is

    d = (1/2) * slope of log integral_{B(r)} |s|^2 w.r.t. log r  -  3,

computed over geometric radius sequences by stratified ball Monte Carlo
with common sampling nodes across radii.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .ansatz import _ball_nodes, induced_pairing

__all__ = [
    "Poly3",
    "KoszulSection",
    "section_norm_sq",
    "cone_norm_sq",
    "ball_integral",
    "growth_degree",
    "filtration_table",
    "convexity_check",
]


class Poly3:
    """Sparse polynomial in (x, y, z) with complex coefficients.

    Monomials are stored as {(i, j, k): coeff}; evaluation broadcasts over
    coordinate arrays.
    """

    def __init__(self, terms=None):
        self.terms = {}
        for key, val in (terms or {}).items():
            if val != 0:
                self.terms[tuple(int(e) for e in key)] = complex(val)

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, i, j, k, c=1.0):
        return cls({(i, j, k): c})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, 0.0) + val
        return Poly3(out)

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, other):
        if not isinstance(other, Poly3):
            return Poly3({k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[key] = out.get(key, 0.0) + v1 * v2
        return Poly3(out)

    __rmul__ = __mul__

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        x, y, z = w[..., 0], w[..., 1], w[..., 2]
        out = np.zeros(w.shape[:-1], dtype=complex)
        for (i, j, k), c in self.terms.items():
            out = out + c * x**i * y**j * z**k
        return out

    def degree(self):
        return max((sum(k) for k in self.terms), default=-1)

    def __repr__(self):
        return f"Poly3({self.terms!r})"


def _det_seed(*parts) -> int:
    """Deterministic RNG seed from labels (independent of hash randomisation)."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class KoszulSection:
    """Coefficients (f, g, h) for w = f t1 + g t2 + h t3, with the kernel
    generators t1 = (z,0,-x), t2 = (0,z,-y), t3 = (y,-x,0)."""

    f: Poly3 = field(default_factory=Poly3)
    g: Poly3 = field(default_factory=Poly3)
    h: Poly3 = field(default_factory=Poly3)
    label: str = ""

    @classmethod
    def generator(cls, index: int) -> "KoszulSection":
        polys = [Poly3(), Poly3(), Poly3()]
        polys[index - 1] = Poly3.const(1.0)
        return cls(*polys, label=f"t{index}")

    def is_zero(self) -> bool:
        return not (self.f or self.g or self.h)

    def kernel_vector(self, w) -> np.ndarray:
        """w-components (3,) of f t1 + g t2 + h t3 at batched points."""
        w = np.asarray(w, dtype=complex)
        x, y, z = w[..., 0], w[..., 1], w[..., 2]
        fv, gv, hv = self.f(w), self.g(w), self.h(w)
        out = np.empty(w.shape[:-1] + (3,), dtype=complex)
        out[..., 0] = fv * z + hv * y
        out[..., 1] = gv * z - hv * x
        out[..., 2] = -fv * x - gv * y
        return out

    def monad_vector(self, w) -> tuple:
        """Representative (-w2, w1, 0, w3) in ker beta of the main family, as
        the 4-tuple of components :func:`hymkit.ansatz.induced_pairing` reads."""
        kv = self.kernel_vector(w)
        return (-kv[..., 1], kv[..., 0], 0, kv[..., 2])

    def times(self, p: Poly3, label: str | None = None) -> "KoszulSection":
        return KoszulSection(p * self.f, p * self.g, p * self.h,
                             label=label or f"({self.label})*poly")


def section_norm_sq(section: KoszulSection, w) -> np.ndarray:
    """Squared norm under the main-family metric at batched points:
    :func:`hymkit.ansatz.induced_pairing` of the monad representative."""
    v = section.monad_vector(w)
    return induced_pairing(w, v, v).real


def cone_norm_sq(section: KoszulSection, w) -> np.ndarray:
    """Squared norm under the conical tangent-cone metric |w|^{-1} I."""
    w = np.asarray(w, dtype=complex)
    kv = section.kernel_vector(w)
    r = np.sqrt(np.sum(np.abs(w) ** 2, axis=-1))
    return np.sum(np.abs(kv) ** 2, axis=-1) / r


def ball_integral(norm_sq_fn, radii, n_samples: int = 4096, seed: int = 0):
    """integral over B(r) of |s|^2 for each r, with common scaled nodes."""
    rng = np.random.default_rng(seed)
    unit, wts = _ball_nodes(rng, n_samples)
    vol1 = np.pi**3 / 6.0
    out = []
    for r in np.asarray(radii, dtype=float):
        pts = r * (unit[:, :3] + 1j * unit[:, 3:])
        vals = norm_sq_fn(pts)
        out.append(float(np.sum(vals * wts) * vol1 * r**6))
    return np.asarray(out)


def growth_degree(section: KoszulSection, end: str, n_samples: int = 4096,
                  seed: int = 0) -> float:
    """Fitted growth degree d = slope/2 - 3 at the origin (seven radii in
    [0.01, 0.3]) or infinity (seven in [10, 1000]), under the main-family
    metric."""
    if section.is_zero():
        raise ValueError("zero section has no growth degree")
    if end not in ("origin", "infinity"):
        raise ValueError("end must be 'origin' or 'infinity'")
    radii = (np.geomspace(0.01, 0.3, 7) if end == "origin"
             else np.geomspace(10.0, 1000.0, 7))
    ints = ball_integral(lambda w: section_norm_sq(section, w), radii, n_samples,
                         seed=_det_seed(section.label, end, seed))
    coeffs = np.polyfit(np.log(radii), np.log(ints), 1)
    return float(0.5 * coeffs[0] - 3.0)


def filtration_table(sections, n_samples: int = 4096, seed: int = 0) -> dict:
    """(d_origin, d_infinity) for a family, plus the multiset-difference flag.

    The multisets of degrees are compared after snapping each degree to the
    nearest multiple of 1/4.
    """
    rows = []
    for s in sections:
        if s.is_zero():
            raise ValueError(f"zero section in family: {s.label!r}")
        rows.append({"label": s.label,
                     "d_origin": growth_degree(s, "origin", n_samples, seed),
                     "d_infinity": growth_degree(s, "infinity", n_samples, seed)})

    def snap(v):
        return round(v / 0.25) * 0.25

    m0 = sorted(snap(r["d_origin"]) for r in rows)
    mi = sorted(snap(r["d_infinity"]) for r in rows)
    return {"rows": rows, "filtrations_differ": m0 != mi}


def convexity_check(section: KoszulSection, seed: int = 0) -> dict:
    """Residual I(r1) I(r3) - I(r2)^2 under the cone metric at the radii
    (r1, r2, r3) = (0.25, 0.5, 1), so r2 = sqrt(r1 r3), with 8192 nodes.

    For |s|^2 integrated against a conical structure, log I is convex in
    log r, so the residual is nonnegative (zero for homogeneous sections) up
    to Monte Carlo error.  Replicated for an error bar.
    """
    reps = []
    scales = []
    for k in range(4):
        ints = ball_integral(lambda w: cone_norm_sq(section, w),
                             [0.25, 0.5, 1.0], 8192,
                             seed=_det_seed(section.label, seed, k))
        reps.append(ints[0] * ints[2] - ints[1] ** 2)
        scales.append(ints[1] ** 2)
    reps = np.asarray(reps)
    return {"residual": float(reps.mean()),
            "stderr": float(reps.std(ddof=1) / 2.0),
            "scale": float(np.mean(scales))}
