"""Dirichlet heat flow for Hermitian metrics on a grid box in C^3.

The flow evolves a 2x2 positive Hermitian field H (the cohomology metric in
the x-chart holomorphic frame) on a box with Re(x) >= 1, keeping the
boundary pinned to the monad metric H0 (:func:`hymkit.ansatz.chart_gram`)
and driving the interior mean curvature to zero:

    H^{-1} dH/dt = -2 i Lambda F_H,
    i Lambda F_H = -2 sum_j H^{-1} (d_j dbar_j H - (dbar_j H) H^{-1} (d_j H)),

so the update is H <- H + dt (Lap6 H - 4 sum_j (dbar_j H) H^{-1} (d_j H))
with Lap6 the six-coordinate discrete Laplacian (explicit Euler, centered
differences).  In the abelian case H = e^u I this is the forward heat
equation du/dt = Lap u, which fixes both sign conventions and the CFL
limit: dt < 1 / (2 sum_axis 1/h_axis^2), i.e. h^2/12 on an isotropic grid.

The state is held by the Hermitian components of H, a = H00 and d = H11
real and b = H01 complex, on every node.  The bracket uses the explicit
inverse H^{-1} = [[d, -b], [-conj(b), a]] / (a d - |b|^2) and forms only
the real diagonal and the upper off-diagonal entry, so the update keeps H
Hermitian by construction.  A step keeps the bracket it took; :func:`run`
reads a monitored row's sup |i Lambda F| from the next step's bracket
instead of forming the same bracket a second time.

The second monitor, :func:`energy`, is the L^2 norm squared of the full
curvature F_H = -dbar(H^{-1} d H) over the nodes two layers in, formed from
the same components with the same explicit inverse.

Symmetry reduction (Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).
The quarter turns y -> iy and z -> iz generate a group of order 16.  H0 on
the default box is invariant under it,

    H(x, iy, z) = (a, d, -i b)(x, y, z),   H(x, y, iz) = (a, d, i b)(x, y, z),

and so is the centred stencil when each plane's two spacings are equal, so
the discrete flow keeps the symmetry.  :func:`step` then forms the bracket
and updates a, d, b only on one rectangular block: grid offsets >= 0 on
Re y, Im y, Re z and Im z, with the x axes whole (for odd resolutions the
axis lines are computed twice).  This applies when both planes have equal
spacings and a, d and b are invariant under both turns to 8 eps max |f|.
Any other state, such as an uneven box or a perturbed H0, runs on the
whole interior.

Both paths run on one stencil table of flat indices into the C-ordered
components, built where the components are set (:func:`initial_state` and
``FlowState.h``).  It holds the nodes a step updates and their twelve axis
neighbours, so the bracket gathers each component in two fancy indexes
instead of slicing 6-D views.  On the block it also holds the fill map:
each interior node outside the block, the block node it copies, and the
power of i that multiplies b there.  The map is the rotation rule applied
once to an index and a phase array.  Its first entries are the halo, the
nodes outside the block that are stencil neighbours of block nodes (512 of
3,840 at resolution 6, 3,888 of 43,740 at 8).  The fill contract: a step
fills only the halo, which is all the next step reads outside the block,
and the whole interior is filled once, on the first read of the full state
after a step (``FlowState.a``, ``d``, ``b`` and ``h``, so :func:`energy`,
the final positivity check, :func:`save_checkpoint`, :func:`barrier_check`
and whatever reads the state :func:`run` returns; the check every 50 steps
tests the table's nodes and reads the full state only when one fails).
:func:`energy` sums its density over orbit representatives, the block's
nodes two layers in, each weighted by its orbit's size over the number of
its members in the block: per plane 4 off the axes, 2 on an axis line and 1
at the centre, so 16 for every node at even resolutions.  On the interior
table the fill map is empty and every weight is 1.

Axis order of the real grid: (Re x, Im x, Re y, Im y, Re z, Im z).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ansatz import chart_gram

__all__ = [
    "FlowConfig",
    "FlowDomain",
    "FlowState",
    "CFL_COEFF",
    "build_domain",
    "initial_state",
    "DEFAULT_BOX",
    "default_box",
    "mean_curvature_field",
    "step",
    "run",
    "barrier_check",
    "attach_barrier_potentials",
    "energy",
    "save_checkpoint",
    "write_history_csv",
    "PositivityError",
]

# stability limit for the isotropic 6-axis explicit scheme is 1/12; keep a
# margin for the nonlinear term
CFL_COEFF = 1.0 / 16.0

NODE_BUDGET = 2_000_000


class PositivityError(RuntimeError):
    """Positive-definiteness lost during the flow; carries node diagnostics."""

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


DEFAULT_BOX = ((1.0, 2.0), (-0.5, 0.5), (-0.5, 0.5),
               (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5))


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and bool(np.isfinite(v)))


def _grid_spacings(box, resolution) -> np.ndarray:
    """Spacings (6,) of the grid with ``resolution`` nodes per box interval.

    Raises ValueError unless the box has six intervals inside the x-chart
    (Re x >= 1), the resolution is an integer >= 5 within the node budget, and
    every spacing is finite and positive with a square that does not
    underflow (a zero square makes the CFL dt 0 and the stencil divide by 0).
    """
    if len(box) != 6:
        raise ValueError("box must have six real intervals")
    if not _is_int(resolution) or resolution < 5:
        raise ValueError(f"resolution must be an integer >= 5, got {resolution!r}")
    n_nodes = int(resolution) ** 6
    if n_nodes > NODE_BUDGET:
        raise ValueError(f"node budget exceeded: {n_nodes} > {NODE_BUDGET}")
    if box[0][0] < 1.0:
        raise ValueError("x-chart frame requires Re(x) >= 1 on the box")
    spacings = np.array([(hi - lo) / (resolution - 1) for lo, hi in box])
    for (lo, hi), h in zip(box, spacings):
        if not (np.isfinite(h) and h > 0 and h * h > 0):
            raise ValueError(f"box interval [{lo!r}, {hi!r}] gives grid spacing "
                             f"{h!r}; it must be finite and positive with a "
                             "nonzero square")
    return spacings


@dataclass(frozen=True)
class FlowConfig:
    """JSON-loadable flow configuration; invalid values raise ValueError."""

    box: tuple = DEFAULT_BOX
    resolution: int = 7
    steps: int = 2000
    dt: float | None = None          # None -> CFL bound
    monitor_cadence: int = 10
    barrier_constant: float = 2.0
    seed: int = 0
    n_barrier_nodes: int = 12

    def __post_init__(self):
        least = {"steps": 1, "monitor_cadence": 1, "n_barrier_nodes": 1, "seed": 0}
        for name, lo in least.items():
            v = getattr(self, name)
            if not _is_int(v) or v < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")
        if self.dt is not None and not (_is_real(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be null or a finite number > 0, got {self.dt!r}")
        if not (_is_real(self.barrier_constant) and self.barrier_constant >= 0):
            raise ValueError("barrier_constant must be a finite number >= 0, "
                             f"got {self.barrier_constant!r}")
        _grid_spacings(self.box, self.resolution)
        most = (self.resolution - 2) ** 6  # the interior nodes
        if self.n_barrier_nodes > most:
            raise ValueError(f"n_barrier_nodes must be at most the {most} interior "
                             f"nodes, got {self.n_barrier_nodes!r}")

    @classmethod
    def from_json(cls, path) -> "FlowConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown flow config keys: {sorted(unknown)}")
        if "box" in raw:
            box = tuple(tuple(float(v) for v in iv) for iv in raw["box"])
            if len(box) != 6 or any(len(iv) != 2 for iv in box):
                raise ValueError("box must be six [lo, hi] intervals")
            raw["box"] = box
        return cls(**raw)


def default_box():
    return DEFAULT_BOX


@dataclass
class FlowDomain:
    """The grid box, its boundary metric H0 and the barrier check nodes.

    H0 is held once, by its Hermitian components (H00, H11, H01) on every
    node, as :class:`FlowState` holds H.  ``h0`` assembles the (..., 2, 2)
    matrix on read as a read-only array; assigning a matrix to ``h0``
    replaces the components (its lower off-diagonal entry is taken to be
    conj(H01)).
    """

    box: tuple
    shape: tuple
    spacings: np.ndarray          # (6,)
    interior: tuple               # slice tuple selecting interior nodes
    barrier_nodes: np.ndarray     # (m, 6) integer indices of check nodes
    _h0: tuple = field(repr=False)  # (H00, H11, H01) at every node
    barrier_g: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def h0(self) -> np.ndarray:
        return _assemble(*self._h0)

    @h0.setter
    def h0(self, value) -> None:
        self._h0 = _split(value)

    def grid_points(self, slab=slice(None)) -> np.ndarray:
        """Complex coordinates (..., 3) of every node, or of the nodes
        ``[slab]`` along the first axis (Re x)."""
        axes = [np.linspace(lo, hi, n).reshape((n,) + (1,) * (5 - k))
                for k, ((lo, hi), n) in enumerate(zip(self.box, self.shape))]
        axes[0] = axes[0][slab]
        return _complex_points(axes)

    def cfl_bound(self) -> float:
        return CFL_COEFF * float(self.spacings.min()) ** 2


def _complex_points(axes) -> np.ndarray:
    """Points (..., 3) with coordinate j = axes[2j] + i axes[2j+1], the six
    real coordinate arrays broadcast together."""
    pts = np.empty(np.broadcast_shapes(*(a.shape for a in axes)) + (3,), dtype=complex)
    for j in range(3):
        pts[..., j] = axes[2 * j] + 1j * axes[2 * j + 1]
    return pts


def build_domain(box=None, resolution: int = 7,
                 n_barrier_nodes: int = 12, seed: int = 0) -> FlowDomain:
    """Grid the box, fill the boundary metric, and pick barrier check nodes.

    H0 is :func:`hymkit.ansatz.chart_gram` at every node, formed one slab of
    the first grid axis at a time and written into its components, so the
    only whole-grid arrays are the components themselves.
    """
    box = tuple(tuple(map(float, iv)) for iv in (DEFAULT_BOX if box is None else box))
    spacings = _grid_spacings(box, resolution)
    most = (resolution - 2) ** 6
    if not 1 <= n_barrier_nodes <= most:
        raise ValueError(f"n_barrier_nodes must be between 1 and the {most} interior "
                         f"nodes, got {n_barrier_nodes!r}")
    shape = (resolution,) * 6
    h0 = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex))
    dom = FlowDomain(box=box, shape=shape, spacings=spacings,
                     interior=(slice(1, resolution - 1),) * 6,
                     barrier_nodes=None, _h0=h0)
    for i in range(resolution):
        g = chart_gram(dom.grid_points(i), "x")
        for f, entry in zip(h0, (g[..., 0, 0].real, g[..., 1, 1].real, g[..., 0, 1])):
            f[i] = entry
    rng = np.random.default_rng(seed)
    idx = rng.integers(1, resolution - 1, size=(n_barrier_nodes, 6))
    idx[0] = (resolution // 2,) * 6
    dom.barrier_nodes = idx
    return dom


def _split(h: np.ndarray):
    """Contiguous copies of the Hermitian components (H00, H11, H01) of h."""
    h = np.asarray(h)
    return (np.array(h[..., 0, 0].real, dtype=float),
            np.array(h[..., 1, 1].real, dtype=float),
            np.array(h[..., 0, 1], dtype=complex))


def _assemble(a, d, b) -> np.ndarray:
    """The Hermitian matrix (..., 2, 2) with diagonal (a, d) and upper entry
    b, as a read-only array: the inverse of :func:`_split`."""
    h = np.empty(np.shape(a) + (2, 2), dtype=complex)
    h[..., 0, 0] = a
    h[..., 1, 1] = d
    h[..., 0, 1] = b
    h[..., 1, 0] = np.conj(b)
    h.flags.writeable = False
    return h


class _Bracket(NamedTuple):
    """B = Lap6 H - 4 sum_j (dbar_j H) H^{-1} (d_j H) on the nodes of a table.

    Every field is 1-D over the table's ``nodes``.  ``a``, ``d``, ``b`` are
    the components there of the H it was computed from and
    ``det = a d - |b|^2``; ``p``, ``s`` are the real diagonal of B and ``q``
    its upper off-diagonal entry (B is Hermitian).
    """

    a: np.ndarray
    d: np.ndarray
    b: np.ndarray
    det: np.ndarray
    p: np.ndarray
    s: np.ndarray
    q: np.ndarray


class _Stencil(NamedTuple):
    """Flat indices into the C-ordered components: one state's stencil table.

    ``nodes`` are the nodes a step updates, in C order, and
    ``nbr[0 | 1, axis]`` their +1 and -1 neighbours along ``axis``.  The
    fill map: node ``dst[i]`` takes a and d from ``src[i]`` and b times
    ``phase[i]``.  Its first ``halo`` entries are the halo, the ``nbr``
    entries outside ``nodes`` and the boundary; both parts are in C order.
    :func:`energy` sums its density over ``reps`` with ``weights``; it forms
    theta on ``support`` from the neighbours ``support_nbr`` and differences
    it at ``reps`` through ``rep_nbr``, the positions in ``support`` of the
    reps' neighbours.
    """

    nodes: np.ndarray          # (N,)
    nbr: np.ndarray            # (2, 6, N)
    dst: np.ndarray            # (M,)
    src: np.ndarray            # (M,)
    phase: np.ndarray          # (M,) complex
    halo: int
    reps: np.ndarray           # (R,)
    weights: np.ndarray        # (R,)
    support: np.ndarray        # (S,)
    support_nbr: np.ndarray    # (2, 6, S)
    rep_nbr: np.ndarray        # (2, 6, R), indices into support


def _component(name: str) -> property:
    """A :class:`FlowState` component, whole on the interior when read or
    assigned: the stored field ``name`` after the fill map is applied."""
    def read(state):
        state._fill()
        return getattr(state, name)

    def write(state, value):
        state._fill()
        setattr(state, name, value)

    return property(read, write)


@dataclass
class FlowState:
    """The flowing metric, held by its Hermitian components on every node.

    ``a = H00`` and ``d = H11`` are real, ``b = H01`` is complex; this is the
    checkpoint layout.  ``h`` assembles the (..., 2, 2) matrix on read as a
    read-only array; assigning a matrix to ``h`` replaces the components
    (its lower off-diagonal entry is taken to be conj(H01)).

    ``table`` is the :class:`_Stencil` a step runs on: the symmetry block
    when the components are invariant under both quarter turns, else the
    whole interior.  It is built where the components are set, so set them
    through :func:`initial_state` or ``h``, never by writing into ``a``,
    ``d`` or ``b``.  A step on the block fills only the table's halo; the
    first read or assignment of ``a``, ``d``, ``b`` or ``h`` after it
    applies the whole fill map, so a reader always sees the whole interior.
    ``last_bracket`` is the bracket of the metric the last step started
    from, 1-D over the table's nodes: on the block its sup equals the
    interior sup, because every orbit meets the block.
    ``seconds`` holds the stage times of :func:`run`.
    """

    domain: FlowDomain
    _a: np.ndarray = field(repr=False)
    _d: np.ndarray = field(repr=False)
    _b: np.ndarray = field(repr=False)
    t: float = 0.0
    step_count: int = 0
    history: list = field(default_factory=list)  # (step, t, sup |iLamF|, energy)
    last_bracket: _Bracket | None = field(default=None, repr=False)
    seconds: dict = field(default_factory=dict, repr=False)
    table: _Stencil = field(init=False, repr=False)
    _whole: bool = field(default=True, init=False, repr=False)  # fill map applied

    def __post_init__(self):
        self.table = _stencil(self.domain, _symmetric(self.domain, self._comps()))
        self._whole = True

    def _comps(self):
        """The components as stored: after a block step, whole only on the
        block, the halo and the boundary."""
        return self._a, self._d, self._b

    def _fill(self) -> None:
        """Apply the table's whole fill map unless it is applied already."""
        if not self._whole:
            t = self.table
            for f, ph in zip(self._comps(), (1.0, 1.0, t.phase)):
                fl = f.reshape(-1)
                fl[t.dst] = ph * fl[t.src]
            self._whole = True

    a, d, b = _component("_a"), _component("_d"), _component("_b")

    @property
    def h(self) -> np.ndarray:
        return _assemble(self.a, self.d, self.b)

    @h.setter
    def h(self, value) -> None:
        self._a, self._d, self._b = _split(value)
        self.__post_init__()
        self.last_bracket = None


def initial_state(domain: FlowDomain) -> FlowState:
    return FlowState(domain, *(f.copy() for f in domain._h0))


# The symmetry planes: the axis pair of z and of y, and the factor of H01
# under the quarter turn (u, v) -> (-v, u) of the plane (H00, H11 keep).
_PLANES = (((4, 5), 1j), ((2, 3), -1j))


def _symmetric(domain: FlowDomain, comps) -> bool:
    """Whether both quarter turns keep the state.

    A turn keeps it when its plane's two spacings are equal and a, d and
    b / phase are invariant under ``np.rot90`` to 8 eps max |f|: H0's grid is
    symmetric only to the rounding of ``linspace``.  The turns leave the
    first axis alone, so they are compared one slab of it at a time.
    """
    if any(domain.spacings[i] != domain.spacings[j] for (i, j), _ in _PLANES):
        return False
    for k, f in enumerate(comps):
        tol = 8.0 * np.finfo(float).eps * np.max([np.abs(sl).max() for sl in f])
        for sl in f:
            for (i, j), phase in _PLANES:
                turned = np.rot90(sl, 1, (i - 1, j - 1))
                if not np.abs(sl - (phase * turned if k == 2 else turned)).max() <= tol:
                    return False
    return True


def _stencil(domain: FlowDomain, block: bool) -> _Stencil:
    """The stencil table of the symmetry block, or else of the whole interior.

    The fill map is the rotation rule applied once to an array of flat
    indices and an array of phases.  In offsets (p, q) from a plane's centre
    the block is p, q >= 0.  The quarter turn R fills {p < 0, q >= 0} from
    the block, then R^2 fills q < 0 from q >= 0: rot90(f, k)[n] is
    f(R^{-k} n), and the symmetry gives f(n) = phase^k f(R^{-k} n) for b and
    f(n) = f(R^{-k} n) for a and d.  The z plane is filled on the block's y
    rows, then the y plane on every interior z.  A rep's weight, its orbit's
    size over the number of its members in the block, is 2 to the number of
    y and z axes on which it is off the centre.
    """
    shape, n, inner = domain.shape, domain.shape[2], domain.interior
    region = inner[:2] + (slice(n // 2, n - 1),) * 4 if block else inner
    # the rotation rule runs on the interior box, which the turns keep, in
    # its own offsets: grid index i is box index i - 1
    dst = _flat(shape, inner)
    src, phase = dst.copy(), np.ones(dst.shape, dtype=complex)
    box = [slice(sl.start - 1, sl.stop - 1) for sl in region]
    for axes, ph in _PLANES if block else ():
        neg = slice(0, n // 2 - 1)
        for k, part in ((1, (neg, box[axes[1]])), (2, (slice(None), neg))):
            sl = list(box)
            sl[axes[0]], sl[axes[1]] = part
            sl = tuple(sl)
            src[sl] = np.rot90(src, k, axes)[sl]
            phase[sl] = ph**k * np.rot90(phase, k, axes)[sl]
        for ax in axes:
            box[ax] = slice(None)
    dst, src, phase = dst.ravel(), src.ravel(), phase.ravel()
    nodes = _flat(shape, region).ravel()
    nbr = _nbr(shape, nodes)
    near = np.zeros(domain.n_nodes, dtype=bool)
    near[nbr] = True
    moved = src != dst
    # the halo first, each part in C order
    order = np.argsort(~near[dst[moved]], kind="stable")
    dst, src, phase = (f[moved][order] for f in (dst, src, phase))
    halo = int(near[dst].sum())
    reps = _flat(shape, tuple(slice(max(sl.start, 2), n - 2) for sl in region)).ravel()
    off_centre = sum(2 * i != n - 1 for i in np.unravel_index(reps, shape)[2:])
    # sorted and distinct, like np.unique, which would import numpy.ma
    rep_nbr = _nbr(shape, reps)
    near[:] = False
    near[rep_nbr] = True
    support = np.flatnonzero(near)
    return _Stencil(nodes, nbr, dst, src, phase, halo, reps,
                    2.0**off_centre if block else np.ones(reps.size), support,
                    _nbr(shape, support), np.searchsorted(support, rep_nbr))


def _flat(shape, region) -> np.ndarray:
    """Flat C-order indices of the nodes ``region`` (a tuple of slices), an
    array of the region's shape."""
    idx = np.zeros((), dtype=np.intp)
    for sl, n, stride in zip(region, shape, _strides(shape)):
        idx = np.add.outer(idx, stride * np.arange(n)[sl])
    return idx


def _nbr(shape, idx) -> np.ndarray:
    """Flat indices (2, 6, N) of the +1 and -1 axis neighbours of the flat
    indices idx."""
    stride = _strides(shape)
    return idx + np.stack([stride, -stride])[..., None]


def _strides(shape) -> np.ndarray:
    """Element strides (6,) of the C-ordered grid."""
    return np.cumprod((1,) + shape[:0:-1])[::-1]


def _flow_bracket(state: FlowState, table: _Stencil) -> _Bracket:
    """The flow bracket B on the nodes of ``table``, by components.

    With M_j = X_j - i Y_j, the centred differences of H along Re w_j and
    Im w_j, d_j H = M_j / 2 and dbar_j H = M_j^dag / 2; with the explicit
    inverse H^{-1} = adj(H) / det, adj(H) = [[d, -b], [-conj(b), a]],

        B = Lap6 H - sum_j M_j^dag adj(H) M_j / det.

    Only the real diagonal and the upper off-diagonal entry are formed.  The
    update is H += dt B and the mean curvature is -H^{-1} B / 2.

    The state's own table reads no node outside its halo; any other table
    may, so the fill map is applied first.  Each ``.sum(axis=0)`` adds the
    rows in order, as a loop over the axes or over j would.
    """
    if table is not state.table:
        state._fill()
    sp = state.domain.spacings[:, None]
    sp_sq, sp_2 = sp**2, 2.0 * sp
    centre, laps, diffs = [], [], []  # diffs: (Re w_j, Im w_j) rows, each (3, N)
    for f in state._comps():
        fl = f.reshape(-1)
        c, g = fl[table.nodes], fl[table.nbr]
        centre.append(c)
        laps.append(((g[0] + g[1] - 2.0 * c) / sp_sq).sum(axis=0))
        df = (g[0] - g[1]) / sp_2
        diffs.append((df[0::2], df[1::2]))
    a, d, b = centre
    (xa, ya), (xd, yd), (xb, yb) = diffs
    m00 = xa - 1j * ya
    m11 = xd - 1j * yd
    m01 = xb - 1j * yb
    m10 = xb.conj() - 1j * yb.conj()
    u0 = d * m01 - b * m11          # column 1 of adj(H) M
    u1 = a * m11 - b.conj() * m01
    c00 = m00.conj()
    # diagonal and (0, 1) entry of sum_j M^dag adj(H) M
    tp = (d * (xa * xa + ya * ya) + a * (m10.real**2 + m10.imag**2)
          - 2.0 * (c00 * b * m10).real).sum(axis=0)
    ts = (m01.conj() * u0 + m11.conj() * u1).real.sum(axis=0)
    tq = 0.0
    for x, y in zip(c00 * u0, m10.conj() * u1):
        tq = tq + x + y
    det = a * d - (b.real**2 + b.imag**2)
    lap_a, lap_d, lap_b = laps
    return _Bracket(a, d, b, det, lap_a - tp / det, lap_d - ts / det, lap_b - tq / det)


def _sup_norm(br: _Bracket) -> float:
    """sup over the bracket's nodes of the spectral radius of -H^{-1} B / 2.

    That matrix is H-self-adjoint, so its eigenvalues are real; they follow
    from its trace and determinant.
    """
    tr = -0.5 * (br.d * br.p + br.a * br.s - 2.0 * (br.b * br.q.conj()).real) / br.det
    det = 0.25 * (br.p * br.s - (br.q.real**2 + br.q.imag**2)) / br.det
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return float((0.5 * (np.abs(tr) + disc)).max())


def mean_curvature_field(state: FlowState):
    """i Lambda F_H on interior nodes and its sup metric norm.

    Per node the 2x2 matrix chi = -H^{-1} B / 2 = -adj(H) B / (2 det) is
    H-self-adjoint with real eigenvalues; the norm is the spectral radius.
    Returns ``(chi, sup)`` with chi of shape (..., 2, 2) over the interior.
    """
    br = _flow_bracket(state, _stencil(state.domain, block=False))
    g = -0.5 / br.det
    chi = np.empty(br.det.shape + (2, 2), dtype=complex)
    chi[..., 0, 0] = g * (br.d * br.p - br.b * br.q.conj())
    chi[..., 0, 1] = g * (br.d * br.q - br.b * br.s)
    chi[..., 1, 0] = g * (br.a * br.q.conj() - br.b.conj() * br.p)
    chi[..., 1, 1] = g * (br.a * br.s - br.b.conj() * br.q)
    return chi.reshape(tuple(s - 2 for s in state.domain.shape) + (2, 2)), _sup_norm(br)


def step(state: FlowState, dt: float | None = None) -> FlowState:
    """One explicit Euler step; boundary nodes are never touched.

    The components are updated in place on the table's nodes, H00 and H11 by
    the real diagonal of the bracket and H01 by its upper entry, so H stays
    Hermitian by construction; the table's halo, the part of its fill map
    the next step reads, is then filled.  The rest of the interior is filled
    on the next read of ``state.a``, ``d``, ``b`` or ``h``.  The bracket is
    kept as ``state.last_bracket``.  A component that is not C-contiguous,
    whose ``reshape(-1)`` is a copy, is refused.
    """
    dom = state.domain
    bound = dom.cfl_bound()
    if dt is None:
        dt = bound
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt {dt:g} above CFL bound {bound:g}")
    t = state.table
    comps = state._comps()
    if not all(f.flags.c_contiguous for f in comps):
        raise ValueError("a, d and b must be C-contiguous: set them through h")
    br = _flow_bracket(state, t)
    dst, src = t.dst[:t.halo], t.src[:t.halo]
    for f, c, inc, ph in zip(comps, (br.a, br.d, br.b), (br.p, br.s, br.q),
                             (1.0, 1.0, t.phase[:t.halo])):
        fl = f.reshape(-1)
        fl[t.nodes] = c + dt * inc
        fl[dst] = ph * fl[src]
    if t.halo < t.dst.size:
        state._whole = False
    state.last_bracket = br
    state.t += dt
    state.step_count += 1
    return state


def _check_positivity(state: FlowState, whole: bool = True):
    """Raise PositivityError unless H00 > 0 and det H > 0 at every node.

    The test is written so that NaN components fail it too.  With ``whole``
    False it tests the table's nodes on the stored components, which decide
    the interior (the fill map copies a and d and turns b by a power of i),
    and scans the whole grid only when one fails, for the same first bad
    node; the boundary is left to a whole check.  The whole check scans one
    slab of the first grid axis at a time, in C order, so it names the
    first bad node.
    """
    if not whole:
        a, d, b = (f.reshape(-1)[state.table.nodes] for f in state._comps())
        if ((a > 0) & (a * d - (b.real**2 + b.imag**2) > 0)).all():
            return
    for i, (a, d, b) in enumerate(zip(state.a, state.d, state.b)):
        det = a * d - (b.real**2 + b.imag**2)
        bad = ~(a > 0) | ~(det > 0)
        if bad.any():
            at = int(np.argmax(bad))
            node = np.unravel_index(i * bad.size + at, state.domain.shape)
            raise PositivityError(
                f"positivity lost at node {node} (step {state.step_count}, "
                f"H00 {a.flat[at]:.3e}, det {det.flat[at]:.3e})", node=node)


def run(domain: FlowDomain, n_steps: int, dt: float | None = None,
        monitor_cadence: int = 10) -> FlowState:
    """Run the flow from H0, recording sup |i Lambda F| and interior energy.

    History row k holds the values after step k (row 0: at H0).  A step
    forms the bracket of the metric it starts from, so a monitored row takes
    its sup from the bracket of the following step; only the last row
    computes a bracket of its own, on ``state.table``.  ``state.seconds``
    holds the time spent in :func:`initial_state` (``table``), in
    :func:`energy`, in the positivity checks and in the rest (``steps``).
    """
    clock = time.perf_counter
    start = clock()
    state = initial_state(domain)
    sec = state.seconds
    sec.update(table=clock() - start, energy=0.0, positivity=0.0)

    def timed(name, fn):  # fn(state), its time added to sec[name]
        t = clock()
        out = fn(state)
        sec[name] += clock() - t
        return out

    pending = (0, 0.0, timed("energy", energy))  # row without its sup
    for k in range(1, n_steps + 1):
        step(state, dt)
        if pending is not None:
            k0, t0, e0 = pending
            state.history.append((k0, t0, _sup_norm(state.last_bracket), e0))
            pending = None
        if k % 50 == 0:
            timed("positivity", lambda st: _check_positivity(st, whole=False))
        if k % monitor_cadence == 0 or k == n_steps:
            pending = (k, state.t, timed("energy", energy))
    k0, t0, e0 = pending
    state.history.append((k0, t0, _sup_norm(_flow_bracket(state, state.table)), e0))
    timed("positivity", _check_positivity)
    sec["steps"] = clock() - start - sum(sec.values())
    return state


def energy(state: FlowState) -> float:
    """Interior L^2 curvature: midpoint-rule integral of |F_H|^2.

    The full (1,1) curvature F[j,k] = -dbar_k theta_j, theta_j = H^{-1} d_j H,
    is built from nested centered differences, so the integral runs over
    nodes at least two layers from the boundary.  theta_j is formed entry by
    entry from the components with H^{-1} = adj(H) / det; the derivative of
    H10 = conj(H01) is the conjugate of the derivative of H01 along the
    opposite complex direction, not conj(d_j H01).  The density is the form
    norm of :mod:`hymkit.geometry`, 4 sum_{p,q} |F_pq|^2_H, with the metric
    norm |N|^2_H = tr(N H^{-1} N^dag H) of each component.  It is formed at
    the table's representatives, theta only at their neighbours, and summed
    with the orbit weights.
    """
    dom, tab = state.domain, state.table
    sp2 = 2.0 * dom.spacings[:, None]
    comps = [f.reshape(-1) for f in (state.a, state.d, state.b)]
    da, dd, db = ((g[0] - g[1]) / sp2 for g in (f[tab.support_nbr] for f in comps))
    a, d, b = (f[tab.support] for f in comps)
    inv_det = 1.0 / (a * d - (b.real**2 + b.imag**2))
    re, im = slice(0, None, 2), slice(1, None, 2)  # the axes of Re w_j and Im w_j
    h00 = 0.5 * (da[re] - 1j * da[im])  # (3, S): d_j H per j
    h11 = 0.5 * (dd[re] - 1j * dd[im])
    h01 = 0.5 * (db[re] - 1j * db[im])
    h10 = 0.5 * (db[re].conj() - 1j * db[im].conj())
    theta = np.stack([(d * h00 - b * h10) * inv_det, (d * h01 - b * h11) * inv_det,
                      (a * h10 - b.conj() * h00) * inv_det,
                      (a * h11 - b.conj() * h01) * inv_det])  # (entry, j, S)
    g = theta[..., tab.rep_nbr]
    dtheta = (g[..., 0, :, :] - g[..., 1, :, :]) / sp2  # (entry, j, axis, R)
    f = -0.5 * (dtheta[:, :, re] + 1j * dtheta[:, :, im])  # (entry, j, k, R)

    a, d, b = (c[tab.reps] for c in comps)
    det = a * d - (b.real**2 + b.imag**2)

    def met_norm_sq(n00, n01, n10, n11):
        # tr(N H^{-1} N^dag H) = tr(adj(H) K) / det with K = N^dag H N
        k00 = (a * (n00.real**2 + n00.imag**2) + d * (n10.real**2 + n10.imag**2)
               + 2.0 * (n00.conj() * b * n10).real)
        k11 = (a * (n01.real**2 + n01.imag**2) + d * (n11.real**2 + n11.imag**2)
               + 2.0 * (n01.conj() * b * n11).real)
        k10 = n01.conj() * (a * n00 + b * n10) + n11.conj() * (b.conj() * n00 + d * n10)
        return (d * k00 + a * k11 - 2.0 * (b * k10).real) / det

    norms = met_norm_sq(*f)  # (j, k, R)
    dens = 4.0 * sum(norms[p, q] for p in range(3) for q in range(3))
    cell = float(np.prod(dom.spacings))
    return float((tab.weights * dens).sum() * cell)


def barrier_check(state: FlowState, c_barrier: float,
                  g_values: np.ndarray | None = None) -> dict:
    """Check e^{-cG} H0 <= H <= e^{cG} H0 at the domain's barrier nodes.

    The matrix inequality is tested through the eigenvalues of
    H0^{-1/2} H H0^{-1/2}; ``g_values`` defaults to the potentials cached on
    the domain by :func:`attach_barrier_potentials`.  H and H0 are
    assembled at those nodes only.
    """
    dom = state.domain
    if g_values is None:
        g_values = dom.barrier_g
    if g_values is None:
        raise ValueError("no barrier potentials: call attach_barrier_potentials")
    comps = (state.a, state.d, state.b)
    results = []
    worst = np.inf
    for (idx, g) in zip(dom.barrier_nodes, g_values):
        node = tuple(int(i) for i in idx)
        evals0, evecs0 = np.linalg.eigh(_assemble(*(f[node] for f in dom._h0)))
        inv_sqrt = evecs0 @ np.diag(evals0**-0.5) @ evecs0.conj().T
        m = inv_sqrt @ _assemble(*(f[node] for f in comps)) @ inv_sqrt
        ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        lo_band, hi_band = np.exp(-c_barrier * g), np.exp(c_barrier * g)
        ok = bool(ev.min() >= lo_band - 1e-12 and ev.max() <= hi_band + 1e-12)
        margin = min(ev.min() - lo_band, hi_band - ev.max())
        worst = min(worst, margin)
        results.append({"node": node, "eigs": ev.tolist(), "g": float(g),
                        "band": (float(lo_band), float(hi_band)), "pass": ok})
    return {"pass": all(r["pass"] for r in results), "worst_margin": float(worst),
            "nodes": results}


def attach_barrier_potentials(domain: FlowDomain, mc=None) -> np.ndarray:
    """Evaluate the barrier potential at the domain's check nodes and cache it.

    The nodes' coordinates are formed as :meth:`FlowDomain.grid_points`
    forms them, at those nodes only; node i is row i of one
    :func:`hymkit.potential.eval_G_batch` call.
    """
    from .potential import MCParams, eval_G_batch

    nodes = domain.barrier_nodes
    axes = [np.linspace(lo, hi, n)[nodes[:, k]]
            for k, ((lo, hi), n) in enumerate(zip(domain.box, domain.shape))]
    gvs = eval_G_batch(_complex_points(axes), mc or MCParams())
    domain.barrier_g = np.array([gv.estimate for gv in gvs])
    return domain.barrier_g


# ---------------------------------------------------------------------------
# IO: checkpoints and histories


def save_checkpoint(state: FlowState, path) -> None:
    """Flat little-endian float64 array, node-major, 8 reals per node.

    Layout per node: [H00.re, H11.re, H01.re, H01.im, 0, 0, 0, 0]; a JSON
    sidecar (same path + '.json') describes the grid.  The array is written
    one slab of the first grid axis at a time.
    """
    path = Path(path)
    out = np.zeros((state.a[0].size, 8), dtype="<f8")
    with open(path, "wb") as fh:
        for a, d, b in zip(state.a, state.d, state.b):
            out[:, 0] = a.reshape(-1)
            out[:, 1] = d.reshape(-1)
            out[:, 2:4] = b.reshape(-1, 1).view(float)  # (re, im) pairs
            out.tofile(fh)
    sidecar = {
        "box": [list(iv) for iv in state.domain.box],
        "shape": list(state.domain.shape),
        "spacings": state.domain.spacings.tolist(),
        "time": state.t,
        "step": state.step_count,
        "dtype": "<f8",
        "layout": "node-major, 8 reals per node: diag00, diag11, offdiag re, offdiag im, 4x pad",
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def write_history_csv(state: FlowState, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "sup_mean_curvature", "energy"])
        for row in state.history:
            writer.writerow([row[0], format(row[1], ".17g"),
                             format(row[2], ".17g"), format(row[3], ".17g")])
