import json
import tracemalloc

import numpy as np
import pytest

from hymkit import flow, monads as mo
from hymkit.ansatz import ansatz_monad, chart_gram


def matrix_bracket(h, spacings):
    """Reference B = Lap6 H - 4 sum_j (dbar_j H) H^{-1} (d_j H) on interior
    nodes, with batched 2x2 inverses and matrix products."""
    inner = (slice(1, -1),) * 6
    hc = h[inner]
    lap = np.zeros_like(hc)
    dre, dim = [], []
    for ax in range(6):
        slp, slm = [slice(1, -1)] * 6, [slice(1, -1)] * 6
        slp[ax] = slice(2, None)
        slm[ax] = slice(0, -2)
        hp, hm = h[tuple(slp)], h[tuple(slm)]
        sp = spacings[ax]
        lap += (hp + hm - 2 * hc) / sp**2
        (dre if ax % 2 == 0 else dim).append((hp - hm) / (2 * sp))
    hinv = np.linalg.inv(hc)
    nonlin = np.zeros_like(hc)
    for j in range(3):
        dj = 0.5 * (dre[j] - 1j * dim[j])
        nonlin += np.swapaxes(dj.conj(), -1, -2) @ hinv @ dj
    return lap - 4.0 * nonlin, hinv


def matrix_energy(state):
    """Reference interior L^2 curvature from the assembled (..., 2, 2) metric,
    with batched 2x2 inverses, matrix products and an einsum for the norms."""
    dom = state.domain
    h = state.h
    inner2 = (slice(2, -2),) * 6

    def d_axis(f, axis):
        sl_p = [slice(1, -1)] * 6
        sl_m = [slice(1, -1)] * 6
        sl_p[axis] = slice(2, None)
        sl_m[axis] = slice(0, -2)
        return (f[tuple(sl_p)] - f[tuple(sl_m)]) / (2.0 * dom.spacings[axis])

    theta = []
    for j in range(3):
        dj = 0.5 * (d_axis(h, 2 * j) - 1j * d_axis(h, 2 * j + 1))  # on 1-in grid
        theta.append(np.linalg.inv(h[(slice(1, -1),) * 6]) @ dj)
    f_raw = np.empty(tuple(s - 4 for s in dom.shape) + (3, 3, 2, 2), dtype=complex)
    for j in range(3):
        for k in range(3):
            dkb = 0.5 * (d_axis(theta[j], 2 * k) + 1j * d_axis(theta[j], 2 * k + 1))
            f_raw[..., j, k, :, :] = -dkb
    hc = h[inner2]
    hcinv = np.linalg.inv(hc)

    def met_norm_sq(m):
        return np.real(np.einsum("...ab,...bc,...cd,...da->...",
                                 m, hcinv, np.swapaxes(m.conj(), -1, -2), hc))

    dens = np.zeros(f_raw.shape[:6])
    for a in range(3):
        dens += 4.0 * met_norm_sq(f_raw[..., a, a, :, :])
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            dens += met_norm_sq(f_raw[..., a, b, :, :] + f_raw[..., b, a, :, :])
            if a < b:
                dens += 2.0 * met_norm_sq(f_raw[..., a, b, :, :] - f_raw[..., b, a, :, :])
    return float(dens.sum() * float(np.prod(dom.spacings)))


def perturbed_h0(domain):
    """H0 plus a smooth Hermitian perturbation with a large H01 part."""
    pts = domain.grid_points()
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    h = domain.h0.copy()
    h[..., 0, 0] += 0.1 * np.sin(2 * x.real + y.imag)
    h[..., 1, 1] += 0.1 * np.cos(x.imag - 3 * z.real)
    off = 0.2 * np.exp(1j * (y.real + 2 * z.imag)) * (x.real - 1.0)
    h[..., 0, 1] += off
    h[..., 1, 0] += off.conj()
    return h


def check_against_matrix_reference(dom, h, n_steps=5):
    """mean_curvature_field and n_steps of step from h, against matrix_bracket.
    h is not invariant under the quarter turns, so the step takes the whole
    interior."""
    det = np.real(h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0])
    assert det.min() > 0
    state = flow.initial_state(dom)
    state.h = h
    assert state.table.dst.size == 0
    bracket, hinv = matrix_bracket(h, dom.spacings)
    chi, _ = flow.mean_curvature_field(state)
    chi_ref = -0.5 * hinv @ bracket
    assert np.abs(chi - chi_ref).max() <= 1e-12 * np.abs(chi_ref).max()
    dt = dom.cfl_bound()
    h_ref = h.copy()
    for _ in range(n_steps):
        bracket, _ = matrix_bracket(h_ref, dom.spacings)
        h_ref[dom.interior] += dt * bracket
        flow.step(state, dt)
        assert np.abs(state.h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()


@pytest.fixture(scope="module")
def domain():
    return flow.build_domain(resolution=7)


class TestBuildDomain:
    def test_default_box_node_count(self, domain):
        assert domain.n_nodes == 7**6 == 117_649

    def test_resolution_nine_count(self):
        dom = flow.build_domain(resolution=9, n_barrier_nodes=4)
        assert dom.n_nodes == 9**6 == 531_441

    def test_chart_violation_rejected(self):
        bad = ((0.0, 1.0),) + flow.default_box()[1:]
        with pytest.raises(ValueError, match="Re\\(x\\)"):
            flow.build_domain(bad)

    def test_coarse_resolution_rejected(self):
        with pytest.raises(ValueError):
            flow.build_domain(resolution=4)

    def test_underflowing_spacing_rejected(self):
        # spacing squares of 0 would give a zero CFL dt and a NaN stencil
        box = flow.default_box()[:5] + ((0.0, 1e-300),)
        with pytest.raises(ValueError, match="spacing"):
            flow.build_domain(box, resolution=5)

    def test_box_taken_as_given(self):
        # an empty box used to run the default one, and an array box to raise
        # numpy's "truth value of an array is ambiguous"
        with pytest.raises(ValueError, match="box must have six real intervals"):
            flow.build_domain(box=(), resolution=5)
        dom = flow.build_domain(np.array(flow.DEFAULT_BOX), resolution=5)
        ref = flow.build_domain(flow.DEFAULT_BOX, resolution=5)
        assert dom.box == ref.box and np.array_equal(dom.spacings, ref.spacings)
        assert np.array_equal(dom.h0, ref.h0)
        assert np.array_equal(dom.barrier_nodes, ref.barrier_nodes)

    @pytest.mark.parametrize("resolution", [5, 6, 7, 8, 9])
    def test_grid_points_bit_identical_to_meshgrid(self, resolution):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=1)
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(dom.box, dom.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        ref = np.stack([mesh[2 * j] + 1j * mesh[2 * j + 1] for j in range(3)], axis=-1)
        assert np.array_equal(dom.grid_points().view(np.uint64), ref.view(np.uint64))
        for i in range(resolution):
            assert np.array_equal(dom.grid_points(i).view(np.uint64), ref[i].view(np.uint64))

    @pytest.mark.parametrize("resolution", [5, 6, 7, 8])
    def test_slab_h0_bit_identical_to_whole_grid_gram(self, resolution):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=1)
        ref = chart_gram(dom.grid_points(), "x")
        assert np.array_equal(dom.h0.view(np.uint64), ref.view(np.uint64))

    def test_h0_held_once(self):
        dom = flow.build_domain(resolution=5, n_barrier_nodes=1)
        h0 = dom.h0
        assert not h0.flags.writeable
        state = flow.initial_state(dom)
        for f, g in zip((state.a, state.d, state.b), dom._h0):
            assert np.array_equal(f, g) and not np.shares_memory(f, g)
        flow.step(state)
        assert np.array_equal(dom.h0, h0)
        dom.h0 = 2.0 * h0
        assert np.array_equal(dom.h0, 2.0 * h0) and dom._h0[0].flags.c_contiguous

    def test_barrier_node_count_bounded_by_interior(self):
        # resolution 5 has 3^6 = 729 interior nodes; 1e10 asked numpy for 447 GiB
        assert len(flow.build_domain(resolution=5, n_barrier_nodes=729).barrier_nodes) == 729
        for n in (730, 10_000_000_000, 0):
            with pytest.raises(ValueError, match="n_barrier_nodes"):
                flow.build_domain(resolution=5, n_barrier_nodes=n)
            with pytest.raises(ValueError, match="n_barrier_nodes"):
                flow.FlowConfig(resolution=5, n_barrier_nodes=n)

    def test_h0_positive_definite_everywhere(self, domain):
        h = domain.h0
        tr = np.real(h[..., 0, 0] + h[..., 1, 1])
        det = np.real(h[..., 0, 0] * h[..., 1, 1]
                      - h[..., 0, 1] * h[..., 1, 0])
        assert tr.min() > 0
        assert det.min() > 0

    def test_h0_matches_monad_gram(self, domain):
        from hymkit.ansatz import chart_frame
        spec = ansatz_monad()
        pts = domain.grid_points()
        node = (2, 4, 1, 5, 3, 0)
        g = mo.induced_metric(spec, pts[node], chart_frame("x")(pts[node]))
        np.testing.assert_allclose(domain.h0[node], g, atol=1e-12)


class TestMeanCurvatureField:
    def test_constant_metric_is_flat(self, domain):
        state = flow.initial_state(domain)
        state.h = np.broadcast_to(np.diag([2.0, 1.0]).astype(complex),
                                  domain.shape + (2, 2)).copy()
        chi, sup = flow.mean_curvature_field(state)
        assert sup == 0.0

    def test_abelian_bump_matches_half_laplacian(self, domain):
        # H = e^u I with u quadratic: i Lambda F = -Lap u / 2 + O(|grad u|^2)
        pts = domain.grid_points()
        u = 0.01 * (pts[..., 0].real - 1.5) ** 2 - 0.01 * pts[..., 0].imag ** 2
        state = flow.initial_state(domain)
        state.h = np.exp(u)[..., None, None] * np.eye(2, dtype=complex)
        chi, sup = flow.mean_curvature_field(state)
        # Lap u = 0.02 - 0.02 = 0 (discretely exact for quadratics), so the
        # residual is the nonlinear |grad u|^2 term, bounded by its sup
        grad_sq = (0.02 * 0.5) ** 2 + (0.02 * 0.5) ** 2
        assert sup <= 1.1 * grad_sq + 1e-12

    def test_matches_engine_on_h0(self, domain):
        spec = ansatz_monad()
        state = flow.initial_state(domain)
        chi, _ = flow.mean_curvature_field(state)
        pts = domain.grid_points()
        h2 = float(domain.spacings.min()) ** 2
        for node in [(3, 3, 3, 3, 3, 3), (2, 4, 3, 1, 5, 2), (1, 1, 1, 1, 1, 1)]:
            rep = mo.curvature(spec, pts[node])
            c = chi[tuple(i - 1 for i in node)]
            tr = np.real(np.trace(c))
            det = np.real(np.linalg.det(c))
            disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
            grid_norm = max(abs(0.5 * (tr + disc)), abs(0.5 * (tr - disc)))
            assert abs(grid_norm - rep["norm_mean"]) <= 5.0 * h2

    def test_refinement_second_order(self):
        # discrepancy against the engine shrinks like the squared spacing
        spec = ansatz_monad()
        errs = []
        for res in (5, 7, 9):
            dom = flow.build_domain(resolution=res, n_barrier_nodes=4)
            state = flow.initial_state(dom)
            chi, _ = flow.mean_curvature_field(state)
            pts = dom.grid_points()
            node = (res // 2,) * 6
            rep = mo.curvature(spec, pts[node])
            c = chi[tuple(i - 1 for i in node)]
            tr = np.real(np.trace(c))
            det = np.real(np.linalg.det(c))
            disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
            grid_norm = max(abs(0.5 * (tr + disc)), abs(0.5 * (tr - disc)))
            errs.append(abs(grid_norm - rep["norm_mean"]))
        hs = [1.0 / (res - 1) for res in (5, 7, 9)]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.4)


class TestStep:
    def test_boundary_untouched_single_step(self, domain):
        state = flow.initial_state(domain)
        flow.step(state)
        mask = np.ones(domain.shape, dtype=bool)
        mask[domain.interior] = False
        assert np.array_equal(state.h[mask], domain.h0[mask])

    def test_cfl_rejection(self, domain):
        state = flow.initial_state(domain)
        with pytest.raises(ValueError, match="CFL"):
            flow.step(state, dt=0.2 * float(domain.spacings.min()) ** 2)

    @pytest.mark.parametrize("name", ["a", "d", "b"])
    def test_non_contiguous_component_refused(self, name):
        # a step writes through reshape(-1), a copy of such an array, so the
        # update would be lost without an error
        state = flow.initial_state(flow.build_domain(resolution=5, n_barrier_nodes=1))
        setattr(state, name, np.asfortranarray(getattr(state, name)))
        before = [f.copy() for f in (state.a, state.d, state.b)]
        with pytest.raises(ValueError, match="C-contiguous"):
            flow.step(state)
        assert all(np.array_equal(f, g) for f, g in zip((state.a, state.d, state.b), before))
        assert state.step_count == 0

    def test_abelian_decay_and_diagonality(self):
        dom = flow.build_domain(resolution=7, n_barrier_nodes=4)
        dom.h0 = np.broadcast_to(np.eye(2, dtype=complex),
                                 dom.shape + (2, 2)).copy()
        state = flow.initial_state(dom)
        u = np.zeros(dom.shape)
        u[(slice(2, 5),) * 6] = 0.05
        state.h = np.exp(u)[..., None, None] * np.eye(2, dtype=complex)
        sups = [np.abs(np.log(state.h[..., 0, 0].real)).max()]
        for _ in range(30):
            flow.step(state)
            sups.append(np.abs(np.log(state.h[..., 0, 0].real)).max())
        assert all(np.diff(sups) <= 1e-14)
        assert sups[-1] < sups[0]
        assert np.abs(state.h[..., 0, 1]).max() == 0.0
        assert np.abs(state.h[..., 0, 0] - state.h[..., 1, 1]).max() <= 1e-12

    def test_abelian_matches_scalar_reference(self):
        # same grid, same discrete operators, scalar solver
        dom = flow.build_domain(resolution=7, n_barrier_nodes=4)
        dom.h0 = np.broadcast_to(np.eye(2, dtype=complex),
                                 dom.shape + (2, 2)).copy()
        state = flow.initial_state(dom)
        u = np.zeros(dom.shape)
        u[(slice(2, 5),) * 6] = 0.05
        state.h = np.exp(u)[..., None, None] * np.eye(2, dtype=complex)
        hs = np.exp(u)
        dt = dom.cfl_bound()
        inner = (slice(1, -1),) * 6
        for _ in range(20):
            flow.step(state, dt)
            hc = hs[inner]
            lap = np.zeros_like(hc)
            nl = np.zeros_like(hc)
            for ax in range(6):
                slp, slm = [slice(1, -1)] * 6, [slice(1, -1)] * 6
                slp[ax] = slice(2, None)
                slm[ax] = slice(0, -2)
                hp, hm = hs[tuple(slp)], hs[tuple(slm)]
                sp = dom.spacings[ax]
                lap += (hp + hm - 2 * hc) / sp**2
                nl += ((hp - hm) / (2 * sp)) ** 2
            out = hs.copy()
            out[inner] = hc + dt * (lap - nl / hc)
            hs = out
            assert np.abs(state.h[..., 0, 0].real - hs).max() <= 1e-8

    def test_nonabelian_matches_matrix_reference(self, domain):
        check_against_matrix_reference(domain, perturbed_h0(domain))

    def test_uneven_box_matches_matrix_reference(self):
        box = flow.DEFAULT_BOX[:3] + ((-0.5, 0.7),) + flow.DEFAULT_BOX[4:]
        dom = flow.build_domain(box, resolution=5, n_barrier_nodes=4)
        check_against_matrix_reference(dom, dom.h0)

    def test_symmetric_state_takes_the_block(self, domain):
        state = flow.initial_state(domain)
        flat = np.arange(domain.n_nodes).reshape(domain.shape)
        block = flat[domain.interior[:2] + (slice(3, 6),) * 4].ravel()
        assert np.array_equal(state.table.nodes, block)
        assert state.table.dst.size == 5**6 - block.size
        state.h = perturbed_h0(domain)
        assert np.array_equal(state.table.nodes, flat[domain.interior].ravel())
        assert state.table.dst.size == 0
        assert np.all(state.table.weights == 1.0)
        state.h = domain.h0
        assert np.array_equal(state.table.nodes, block)


def at_rotated(f, axes):
    """f at the node of (u, v) -> (-v, u) on the plane of the axis pair:
    entry [..., i, j, ...] is f[..., n-1-j, i, ...]."""
    return np.swapaxes(np.flip(f, axes[0]), *axes)


# the quarter-turn planes (z, then y) and the factor of H01 under each turn
PLANES = (((4, 5), 1j), ((2, 3), -1j))


def block_region(dom):
    n = dom.shape[2]
    return dom.interior[:2] + (slice(n // 2, n - 1),) * 4


def slice_bracket(comps, spacings, region):
    """The flow bracket (a, d, b, det, p, s, q) on a slice region, from
    shifted 6-D views of the components: the reference for the stencil
    tables, with the same arithmetic in the same order."""
    def shifted(axis, shift):
        sl = list(region)
        sl[axis] = slice(sl[axis].start + shift, sl[axis].stop + shift)
        return tuple(sl)

    centre = [f[region].copy() for f in comps]
    laps = [np.zeros_like(c) for c in centre]
    diffs = []
    for axis in range(6):
        up, dn = shifted(axis, 1), shifted(axis, -1)
        sp = spacings[axis]
        row = []
        for f, c, lap in zip(comps, centre, laps):
            fp, fm = f[up], f[dn]
            lap += (fp + fm - 2.0 * c) / sp**2
            row.append((fp - fm) / (2.0 * sp))
        diffs.append(row)
    a, d, b = centre
    tp, ts, tq = 0.0, 0.0, 0.0
    for j in range(3):
        (xa, xd, xb), (ya, yd, yb) = diffs[2 * j], diffs[2 * j + 1]
        m00 = xa - 1j * ya
        m11 = xd - 1j * yd
        m01 = xb - 1j * yb
        m10 = xb.conj() - 1j * yb.conj()
        u0 = d * m01 - b * m11
        u1 = a * m11 - b.conj() * m01
        tp = tp + (d * (xa * xa + ya * ya) + a * (m10.real**2 + m10.imag**2)
                   - 2.0 * (m00.conj() * b * m10).real)
        ts = ts + (m01.conj() * u0 + m11.conj() * u1).real
        tq = tq + m00.conj() * u0 + m10.conj() * u1
    det = a * d - (b.real**2 + b.imag**2)
    lap_a, lap_d, lap_b = laps
    return flow._Bracket(a, d, b, det, lap_a - tp / det, lap_d - ts / det, lap_b - tq / det)


def fill_by_rotation(comps, dom, region):
    """Fill the interior outside the block from rotated views of the block:
    the quarter turn fills {p < 0, q >= 0} of each plane, the half turn
    q < 0, b times phase^k; the z plane on the block's y rows first."""
    a, d, b = comps
    region = list(region)
    for axes, phase in PLANES:
        n = dom.shape[axes[0]]
        pos, neg = slice(n // 2, n - 1), slice(1, n // 2)
        for k, part in ((1, (neg, pos)), (2, (dom.interior[axes[0]], neg))):
            sl = list(region)
            sl[axes[0]], sl[axes[1]] = part
            sl = tuple(sl)
            for f in (a, d):
                f[sl] = np.rot90(f, k, axes)[sl]
            b[sl] = phase**k * np.rot90(b, k, axes)[sl]
        for ax in axes:
            region[ax] = dom.interior[ax]


def slice_steps(dom, h, region, n_steps):
    """n_steps explicit Euler steps from h on a slice region, filling the
    rest of the interior by rotation when the region is the block.  Returns
    the components and the last step's bracket."""
    comps = [np.array(c) for c in (h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1])]
    dt = dom.cfl_bound()
    br = None
    for _ in range(n_steps):
        br = slice_bracket(comps, dom.spacings, region)
        for f, inc in zip(comps, (br.p, br.s, br.q)):
            f[region] += dt * inc
        if region != dom.interior:
            fill_by_rotation(comps, dom, region)
    return comps, br


def interior_steps(dom, n_steps):
    """n_steps explicit Euler steps from H0 with the slice bracket on the
    whole interior: the general path, free of the symmetry block."""
    state = flow.initial_state(dom)
    (state.a, state.d, state.b), _ = slice_steps(dom, dom.h0, dom.interior, n_steps)
    return state


class TestSymmetry:
    def test_rotation_helper_matches_grid(self):
        pts = flow.build_domain(resolution=5, n_barrier_nodes=4).grid_points()
        for j, axes in ((1, (2, 3)), (2, (4, 5))):
            np.testing.assert_allclose(at_rotated(pts[..., j], axes), 1j * pts[..., j],
                                       atol=1e-15)

    def test_whole_interior_flow_keeps_the_symmetry(self):
        # H(x, iy, z) = (a, d, -i b), H(x, y, iz) = (a, d, i b) and
        # H(conj w) = conj H(w) after 100 steps of the general path
        state = interior_steps(flow.build_domain(resolution=5, n_barrier_nodes=4), 100)
        a, d, b = state.a, state.d, state.b
        assert np.abs(b).max() > 0.05
        for axes, phase in (((2, 3), -1j), ((4, 5), 1j)):
            assert np.abs(at_rotated(a, axes) - a).max() <= 1e-15
            assert np.abs(at_rotated(d, axes) - d).max() <= 1e-15
            assert np.abs(at_rotated(b, axes) - phase * b).max() <= 1e-15
        conj = (1, 3, 5)  # Im x, Im y, Im z -> their negatives
        assert np.abs(np.flip(a, conj) - a).max() <= 1e-15
        assert np.abs(np.flip(d, conj) - d).max() <= 1e-15
        assert np.abs(np.flip(b, conj) - b.conj()).max() <= 1e-15

    @pytest.mark.parametrize("resolution", [5, 6, 7])
    def test_block_path_matches_whole_interior(self, resolution):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        ref = interior_steps(dom, 100)
        state = flow.initial_state(dom)
        assert state.table.dst.size > 0
        for _ in range(100):
            flow.step(state)
        for f, g in ((state.a, ref.a), (state.d, ref.d), (state.b, ref.b)):
            assert np.abs(f - g).max() <= 1e-14
        mask = np.ones(dom.shape, dtype=bool)
        mask[dom.interior] = False
        assert np.array_equal(state.h[mask], dom.h0[mask])
        # every orbit meets the block, so the block bracket has the interior sup
        sup_block = flow._sup_norm(flow._flow_bracket(state, state.table))
        sup_inner = flow._sup_norm(flow._flow_bracket(state, flow._stencil(dom, False)))
        assert sup_block == pytest.approx(sup_inner, rel=1e-14, abs=0.0)


    @pytest.mark.parametrize("resolution", [5, 6, 7, 8])
    def test_default_box_takes_the_block(self, resolution):
        # H0 from ansatz.chart_gram is invariant under both quarter turns
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        assert flow.initial_state(dom).table.dst.size > 0

    @pytest.mark.parametrize("start", ["h0", "perturbed"])
    @pytest.mark.parametrize("resolution", [5, 6, 7])
    def test_tables_bit_identical_to_slices(self, resolution, start):
        # H0 takes the block and its fill map, the perturbed H0 the interior
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        h = dom.h0 if start == "h0" else perturbed_h0(dom)
        region = block_region(dom) if start == "h0" else dom.interior
        ref, ref_br = slice_steps(dom, h, region, 100)
        state = flow.initial_state(dom)
        state.h = h
        assert (state.table.dst.size > 0) == (start == "h0")
        for _ in range(100):
            flow.step(state)
        for f, g in zip((state.a, state.d, state.b), ref):
            assert np.array_equal(f, g)
        assert flow._sup_norm(state.last_bracket) == flow._sup_norm(ref_br)


def ref_stencil(domain, block):
    """The stencil table built on whole-grid index and phase arrays."""
    shape, n, inner = domain.shape, domain.shape[2], domain.interior
    flat = np.arange(domain.n_nodes).reshape(shape)
    region = inner[:2] + (slice(n // 2, n - 1),) * 4 if block else inner
    src, phase, filled = flat.copy(), np.ones(shape, dtype=complex), list(region)
    for axes, ph in flow._PLANES if block else ():
        neg = slice(1, n // 2)
        for k, part in ((1, (neg, region[axes[1]])), (2, (inner[axes[0]], neg))):
            sl = list(filled)
            sl[axes[0]], sl[axes[1]] = part
            sl = tuple(sl)
            src[sl] = np.rot90(src, k, axes)[sl]
            phase[sl] = ph**k * np.rot90(phase, k, axes)[sl]
        for ax in axes:
            filled[ax] = inner[ax]
    dst, src, phase = (f[inner].ravel() for f in (flat, src, phase))
    nodes = flat[region].ravel()
    nbr = flow._nbr(shape, nodes)
    near = np.zeros(domain.n_nodes, dtype=bool)
    near[nbr] = True
    moved = src != dst
    order = np.argsort(~near[dst[moved]], kind="stable")
    dst, src, phase = (f[moved][order] for f in (dst, src, phase))
    reps = flat[tuple(slice(max(sl.start, 2), n - 2) for sl in region)].ravel()
    off_centre = sum(2 * i != n - 1 for i in np.unravel_index(reps, shape)[2:])
    rep_nbr = flow._nbr(shape, reps)
    support = np.flatnonzero(np.bincount(rep_nbr.ravel(), minlength=domain.n_nodes))
    return flow._Stencil(nodes, nbr, dst, src, phase, int(near[dst].sum()), reps,
                         2.0**off_centre if block else np.ones(reps.size), support,
                         flow._nbr(shape, support), np.searchsorted(support, rep_nbr))


class TestHalo:
    @pytest.mark.parametrize("block", [True, False])
    @pytest.mark.parametrize("resolution", [5, 6, 7, 8])
    def test_stencil_bit_identical_to_whole_grid_reference(self, resolution, block):
        # the rotation rule runs on the interior box only; every index, phase
        # (signed zeros included) and weight stays the same
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=1)
        got, ref = flow._stencil(dom, block), ref_stencil(dom, block)
        for name, f, g in zip(flow._Stencil._fields, got, ref):
            if isinstance(g, np.ndarray):
                assert f.dtype == g.dtype and f.shape == g.shape, name
                assert np.array_equal(np.ascontiguousarray(f).view(np.uint8),
                                      np.ascontiguousarray(g).view(np.uint8)), name
            else:
                assert f == g, name

    @pytest.mark.parametrize("resolution,halo", [(5, 288), (6, 512), (7, 2700), (8, 3888)])
    def test_stencil_reads_block_boundary_and_halo_only(self, resolution, halo):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=1)
        table = flow._stencil(dom, block=True)
        assert table.halo == halo
        readable = np.ones(dom.shape, dtype=bool)  # the boundary,
        readable[dom.interior] = False
        readable = readable.reshape(-1)
        readable[table.nodes] = True                # the block
        readable[table.dst[:table.halo]] = True     # and the halo
        assert readable[table.nbr].all()
        # the halo holds only stencil neighbours, the rest of the map none
        near = np.zeros(dom.n_nodes, dtype=bool)
        near[table.nbr] = True
        assert near[table.dst[:table.halo]].all()
        assert not near[table.dst[table.halo:]].any()
        assert flow._stencil(dom, block=False).halo == 0

    @pytest.mark.parametrize("resolution,n_steps", [(6, 200), (7, 60)])
    def test_run_matches_slices_with_a_full_fill(self, resolution, n_steps):
        # run steps the block and fills only the halo between full-state
        # reads; the reference fills the whole interior after every step
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        region = block_region(dom)
        comps = [np.array(c) for c in flow._split(dom.h0)]
        probe = flow.initial_state(dom)  # energy's block table and weights
        dt, t, rows = dom.cfl_bound(), 0.0, []
        for k in range(n_steps + 1):
            br = slice_bracket(comps, dom.spacings, region)
            if k % 10 == 0 or k == n_steps:
                probe.a, probe.d, probe.b = (c.copy() for c in comps)
                rows.append((k, t, flow._sup_norm(br), flow.energy(probe)))
            if k == n_steps:
                break
            for f, inc in zip(comps, (br.p, br.s, br.q)):
                f[region] += dt * inc
            fill_by_rotation(comps, dom, region)
            t += dt
        state = flow.run(dom, n_steps, monitor_cadence=10)
        assert state.history == rows
        for f, g in zip((state.a, state.d, state.b), comps):
            assert np.array_equal(f, g)

    def test_readers_see_the_whole_interior(self):
        dom = flow.build_domain(resolution=6, n_barrier_nodes=1)
        state, ref = flow.initial_state(dom), flow.initial_state(dom)
        flow.step(state)
        flow.step(ref)
        assert ref.a is ref._comps()[0]  # a full-state read applies the fill map
        stored = state._comps()
        assert not np.array_equal(stored[0], ref._comps()[0])  # the halo only
        assert np.array_equal(state.h, ref.h)
        assert all(np.array_equal(f, g) for f, g in zip(stored, ref._comps()))


@pytest.fixture(scope="module")
def run_result():
    dom = flow.build_domain(resolution=5, n_barrier_nodes=4)
    return flow.run(dom, 400, monitor_cadence=10)


class TestRun:
    @pytest.fixture
    def result(self, run_result):
        return run_result

    def test_decay_monotone_after_transient(self, result):
        sups = [row[2] for row in result.history]
        floor = 1e-12 * sups[0]
        assert all(b <= a + floor for a, b in zip(sups[1:], sups[2:]))

    def test_strong_decay(self, result):
        sups = [row[2] for row in result.history]
        assert sups[-1] <= 0.1 * sups[0]

    def test_exponential_fit(self, result):
        sups = np.array([row[2] for row in result.history])
        steps = np.array([row[0] for row in result.history])
        mask = (sups > 1e-13 * sups[0]) & (steps >= 10)
        slope, intercept = np.polyfit(steps[mask], np.log(sups[mask]), 1)
        fit = slope * steps[mask] + intercept
        ss_res = np.sum((np.log(sups[mask]) - fit) ** 2)
        ss_tot = np.sum((np.log(sups[mask]) - np.log(sups[mask]).mean()) ** 2)
        assert slope < 0
        assert 1.0 - ss_res / ss_tot >= 0.9

    def test_energy_finite_and_stable(self, result):
        energies = [row[3] for row in result.history]
        assert all(np.isfinite(e) for e in energies)
        assert abs(energies[-1] / energies[0] - 1.0) <= 0.10

    def test_history_is_step_then_monitor(self):
        # run takes a monitored row's sup from the next step's bracket; the
        # rows must equal a plain loop of step and mean_curvature_field
        dom = flow.build_domain(resolution=5, n_barrier_nodes=4)
        state = flow.run(dom, 20, monitor_cadence=5)
        ref = flow.initial_state(dom)
        rows = [(0, 0.0, flow.mean_curvature_field(ref)[1])]
        for k in range(1, 21):
            flow.step(ref)
            if k % 5 == 0:
                rows.append((k, ref.t, flow.mean_curvature_field(ref)[1]))
        assert [row[:3] for row in state.history] == rows
        assert np.array_equal(state.h, ref.h)

    def test_periodic_positivity_check_reads_the_table_only(self):
        dom = flow.build_domain(resolution=6, n_barrier_nodes=1)
        state = flow.step(flow.initial_state(dom))
        flow._check_positivity(state, whole=False)
        assert not state._whole  # passed without applying the fill map

    @pytest.mark.parametrize("field,value", [("_a", -1.0), ("_b", np.nan)])
    def test_periodic_positivity_check_names_the_whole_checks_node(self, field, value):
        dom = flow.build_domain(resolution=6, n_barrier_nodes=1)
        states = [flow.step(flow.initial_state(dom)) for _ in range(2)]
        nodes = []
        for state, whole in zip(states, (False, True)):
            getattr(state, field).reshape(-1)[state.table.nodes[-1]] = value
            with pytest.raises(flow.PositivityError) as exc:
                flow._check_positivity(state, whole=whole)
            nodes.append(exc.value.node)
        assert nodes[0] == nodes[1]

    def test_whole_positivity_check_names_the_first_bad_node(self):
        # the check scans one slab at a time; the node it names is the first
        # in C order, in whichever slab it lies
        dom = flow.build_domain(resolution=5, n_barrier_nodes=1)
        state = flow.initial_state(dom)
        for node in ((3, 0, 0, 0, 0, 0), (2, 1, 3, 0, 4, 2), (2, 1, 3, 0, 4, 3)):
            state._a[node] = -1.0
        with pytest.raises(flow.PositivityError, match="H00 -1.000e") as exc:
            flow._check_positivity(state)
        assert exc.value.node == (2, 1, 3, 0, 4, 2)

    def test_final_positivity_check_covers_the_boundary(self):
        # a corner is no node's stencil neighbour: only the final whole-grid
        # check of run sees it
        dom = flow.build_domain(resolution=5, n_barrier_nodes=1)
        h0 = dom.h0.copy()
        h0[(0,) * 6] = -np.eye(2)
        dom.h0 = h0
        with pytest.raises(flow.PositivityError, match="step 50") as exc:
            flow.run(dom, 50)
        assert exc.value.node == (0,) * 6

    def test_positivity_along_flow(self, result):
        h = result.h
        tr = np.real(h[..., 0, 0] + h[..., 1, 1])
        det = np.real(h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0])
        assert tr.min() > 0 and det.min() > 0


class TestEnergy:
    def test_constant_field_zero(self, domain):
        state = flow.initial_state(domain)
        state.h = np.broadcast_to(np.diag([1.5, 0.5]).astype(complex),
                                  domain.shape + (2, 2)).copy()
        assert flow.energy(state) == 0.0

    def test_h0_energy_locked(self, domain):
        state = flow.initial_state(domain)
        e = flow.energy(state)
        assert e == pytest.approx(0.01193, rel=0.05)

    @pytest.mark.parametrize("resolution", [5, 6, 7])
    @pytest.mark.parametrize("n_steps", [0, 30])
    def test_matches_matrix_reference(self, resolution, n_steps):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        state = flow.initial_state(dom)
        for _ in range(n_steps):
            flow.step(state)
        assert np.abs(state.b).max() > 0.05  # a non-diagonal H
        ref = matrix_energy(state)
        assert ref > 0
        assert abs(flow.energy(state) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("resolution", [5, 6, 7, 8])
    def test_orbit_weights_cover_the_two_in_nodes(self, resolution):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        table = flow._stencil(dom, block=True)
        assert table.weights.sum() == (resolution - 4) ** 6
        factors = {16.0} if resolution % 2 == 0 else {1.0, 2.0, 4.0, 8.0, 16.0}
        assert set(table.weights) <= factors

    @pytest.mark.parametrize("resolution", [6, 7])
    def test_block_energy_matches_interior_table(self, resolution):
        dom = flow.build_domain(resolution=resolution, n_barrier_nodes=4)
        state = flow.initial_state(dom)
        for _ in range(30):
            flow.step(state)
        assert state.table.dst.size > 0
        e_block = flow.energy(state)
        state.table = flow._stencil(dom, block=False)
        e_inner = flow.energy(state)
        assert e_block == pytest.approx(e_inner, rel=1e-14, abs=0.0)

    def test_matches_matrix_reference_random_offdiagonal(self):
        dom = flow.build_domain(resolution=6, n_barrier_nodes=4)
        h = perturbed_h0(dom)
        rng = np.random.default_rng(11)
        noise = 0.05 * (rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape))
        h[..., 0, 1] += noise
        h[..., 1, 0] += noise.conj()
        det = np.real(h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0])
        assert h[..., 0, 0].real.min() > 0 and det.min() > 0
        state = flow.initial_state(dom)
        state.h = h
        ref = matrix_energy(state)
        assert abs(flow.energy(state) - ref) <= 1e-12 * ref


class TestBarrier:
    def test_zero_constant_with_h0_passes(self, domain):
        state = flow.initial_state(domain)
        res = flow.barrier_check(state, 0.0, g_values=np.zeros(len(domain.barrier_nodes)))
        assert res["pass"]
        assert res["worst_margin"] == pytest.approx(0.0, abs=1e-10)

    def test_doubled_metric_fails_tight_band(self, domain):
        state = flow.initial_state(domain)
        state.h = 2.0 * state.h
        g = np.full(len(domain.barrier_nodes), 0.1)
        res = flow.barrier_check(state, 1.0, g_values=g)  # band e^{+-0.1} < 2
        assert not res["pass"]
        failing = [r for r in res["nodes"] if not r["pass"]]
        assert failing

    def test_matches_whole_grid_reference(self):
        # H and H0 assembled at the barrier nodes only give the eigenvalues
        # that the whole assembled grids give, bit for bit
        dom = flow.build_domain(resolution=6, n_barrier_nodes=12, seed=3)
        state = flow.run(dom, 30)
        g = np.linspace(0.5, 3.0, 12)
        h, h0 = state.h, dom.h0
        nodes = []
        for idx, gv in zip(dom.barrier_nodes, g):
            node = tuple(int(i) for i in idx)
            evals0, evecs0 = np.linalg.eigh(h0[node])
            inv_sqrt = evecs0 @ np.diag(evals0**-0.5) @ evecs0.conj().T
            m = inv_sqrt @ h[node] @ inv_sqrt
            nodes.append(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).tolist())
        assert [r["eigs"] for r in flow.barrier_check(state, 0.01, g)["nodes"]] == nodes

    def test_potentials_at_the_grid_points(self):
        # node i is row i of one batch over the grid points
        from hymkit.potential import MCParams, eval_G_batch
        dom = flow.build_domain(resolution=6, n_barrier_nodes=3, seed=5)
        mc = MCParams(samples_per_shell=40, seed=2)
        pts = dom.grid_points()
        ref = [gv.estimate for gv in
               eval_G_batch([pts[tuple(idx)] for idx in dom.barrier_nodes], mc)]
        assert flow.attach_barrier_potentials(dom, mc).tolist() == ref

    def test_missing_potentials_raise(self, domain):
        state = flow.initial_state(domain)
        with pytest.raises(ValueError, match="barrier"):
            flow.barrier_check(state, 1.0)


def load_checkpoint(path):
    """The (..., 2, 2) metric and the sidecar of a checkpoint, read back
    by the layout :func:`flow.save_checkpoint` documents."""
    with open(f"{path}.json") as fh:
        sidecar = json.load(fh)
    raw = np.fromfile(path, dtype="<f8").reshape(-1, 8)
    h = np.empty((raw.shape[0], 2, 2), dtype=complex)
    h[:, 0, 0] = raw[:, 0]
    h[:, 1, 1] = raw[:, 1]
    h[:, 0, 1] = raw[:, 2] + 1j * raw[:, 3]
    h[:, 1, 0] = raw[:, 2] - 1j * raw[:, 3]
    return h.reshape(tuple(sidecar["shape"]) + (2, 2)), sidecar


class TestIO:
    def test_checkpoint_roundtrip(self, tmp_path, domain):
        state = flow.initial_state(domain)
        flow.step(state)
        path = tmp_path / "state.bin"
        flow.save_checkpoint(state, path)
        h, sidecar = load_checkpoint(path)
        np.testing.assert_allclose(h, state.h, atol=1e-15)
        assert sidecar["shape"] == list(domain.shape)
        assert sidecar["step"] == 1
        raw = np.fromfile(path, dtype="<f8")
        assert raw.size == domain.n_nodes * 8
        # written slab by slab, the bytes of the whole-grid layout
        ref = np.zeros((domain.n_nodes, 8), dtype="<f8")
        ref[:, 0], ref[:, 1] = state.a.reshape(-1), state.d.reshape(-1)
        ref[:, 2:4] = state.b.reshape(-1, 1).view(float)
        assert path.read_bytes() == ref.tobytes()

    def test_history_csv_format(self, tmp_path):
        dom = flow.build_domain(resolution=5, n_barrier_nodes=4)
        state = flow.run(dom, 20, monitor_cadence=5)
        path = tmp_path / "history.csv"
        flow.write_history_csv(state, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,time,sup_mean_curvature,energy"
        assert len(lines) == len(state.history) + 1

    def test_config_parsing(self, tmp_path):
        cfg_path = tmp_path / "flow.json"
        cfg_path.write_text(json.dumps({"resolution": 5, "steps": 10}))
        cfg = flow.FlowConfig.from_json(cfg_path)
        assert cfg.resolution == 5
        assert cfg.steps == 10
        cfg_path.write_text(json.dumps({"resolutoin": 5}))
        with pytest.raises(ValueError, match="unknown"):
            flow.FlowConfig.from_json(cfg_path)

    def test_default_config_matches_script(self):
        from pathlib import Path
        path = Path(__file__).parents[1] / "scripts" / "flow_default.json"
        assert flow.FlowConfig.from_json(path) == flow.FlowConfig()
        assert flow.FlowConfig().box == flow.default_box() == flow.DEFAULT_BOX


class TestMemory:
    def test_peak_per_node(self, tmp_path):
        # build, initial state, steps and checkpoint at resolution 7 (117,649
        # nodes): about 95 bytes per node at the peak, the components of H0
        # and of the state (64) included.  Building H0 over the whole grid,
        # holding it twice and writing the checkpoint through a padded
        # whole-grid copy peaked at about 193.
        tracemalloc.start()
        try:
            dom = flow.build_domain(resolution=7)
            state = flow.initial_state(dom)
            for _ in range(3):
                flow.step(state)
            flow.save_checkpoint(state, tmp_path / "state.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / dom.n_nodes < 125
