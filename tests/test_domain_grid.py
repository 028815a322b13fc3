"""Grid construction, quadrature weights, norms, interpolation, snapshots."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from neumannlab.constants import (
    I_alpha_of_one,
    ball_volume,
    constant_solution_kappa,
    make_params,
    sphere_area,
)
from neumannlab.domain_grid import (
    _CORNERS,
    _GAUSS_BLOCK,
    _LERP,
    _sin_power_segments,
    AxiGrid,
    Field,
    NormReport,
    build_grid,
    energy_operator,
    interpolate_instanton,
    load_field_snapshot,
    norm_gradients,
    norms,
    pole_distance,
    save_field_snapshot,
)
from neumannlab.errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    ResolutionError,
)
from neumannlab.instanton import CapQuadrature, InstantonParams, cap_gradient_integral, cap_integral
from neumannlab.nehari import NormTriple, big_I, project_t
from neumannlab.solver import _first_variation
from neumannlab.instanton import u_value


@pytest.fixture(scope="module")
def grid64():
    return build_grid(5, 1.0, 64, 64, 0.0)


@pytest.fixture(scope="module")
def grid64s():
    return build_grid(5, 1.0, 64, 64, stretch=2.0)


class TestBuildGrid:
    def test_volume_n5(self, grid64):
        # sum of weights must hit omega_5/5 (about 5.2638); the cell
        # construction telescopes, so demand far better than the 1e-8 contract
        vol = ball_volume(5, 1.0)
        assert vol == pytest.approx(5.263789013914324, rel=1e-12)
        assert abs(grid64.volume - vol) <= 1e-12 * vol

    def test_volume_radius_scaling(self):
        v1 = build_grid(5, 1.0, 32, 32, 0.0).volume
        v2 = build_grid(5, 2.0, 32, 32, 0.0).volume
        assert v2 == pytest.approx(2.0**5 * v1, rel=1e-12)

    def test_volume_exact_other_dims(self):
        for N in (5, 6, 7):
            g = build_grid(N, 1.3, 32, 48, stretch=1.0)
            assert g.volume == pytest.approx(ball_volume(N, 1.3), rel=1e-12)

    def test_weights_nonnegative_axis_zero(self, grid64s):
        # the node masses are strictly positive, axis nodes included
        assert np.all(grid64s.mass > 0.0)
        assert grid64s.mass.sum() == pytest.approx(ball_volume(5, 1.0), rel=1e-12)

    def test_subcell_weights_sum_to_volume(self, grid64s):
        # the Gauss weights are positive and, per cell, sum to its exact
        # measure, so in all to the ball's volume
        total = sum(float(w.sum()) for w in grid64s.gauss_w)
        assert total == pytest.approx(grid64s.volume, rel=1e-12)
        for w in grid64s.gauss_w:
            assert np.all(w > 0.0)

    def test_r_squared_subcell_rule(self):
        # the interpolant rule is sharper: r is linear on cells, so only
        # the in-cell weight split contributes error
        g = build_grid(5, 1.0, 256, 256, 0.0)
        exact = ball_volume(5, 1.0) * 5.0 / 7.0  # int r^2 = vol * N/(N+2)
        approx = g.power_masses(np.broadcast_to(g.r[:, None], g.mass.shape))[0][0]
        assert abs(approx - exact) / exact < 1e-8

    def test_nodes_cover_closed_ranges(self, grid64):
        assert grid64.r[0] == 0.0
        assert grid64.r[-1] == pytest.approx(1.0)
        assert grid64.theta[0] == 0.0
        assert grid64.theta[-1] == pytest.approx(np.pi)

    def test_stretch_clusters_towards_boundary(self, grid64s):
        dr = np.diff(grid64s.r)
        dth = np.diff(grid64s.theta)
        assert dr[-1] < dr[0]       # r packed at the boundary
        assert dth[0] < dth[-1]     # theta packed at the pole

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_grid(4, 1.0, 64, 64, 0.0)
        with pytest.raises(ConfigurationError):
            build_grid(5.0, 1.0, 64, 64, 0.0)
        with pytest.raises(ConfigurationError):
            build_grid(5, -1.0, 64, 64, 0.0)
        with pytest.raises(ConfigurationError):
            build_grid(5, 1.0, 31, 64, 0.0)
        with pytest.raises(ConfigurationError):
            build_grid(5, 1.0, 64, 16, 0.0)
        with pytest.raises(ConfigurationError):
            build_grid(5, 1.0, 64, 64, stretch=-0.5)

    def test_stretch_that_breaks_the_grid_rejected(self):
        # at 32 x 32 a stretch of 37.5 merges boundary nodes in floating
        # point (a zero node mass); 1000 overflows the node map itself
        g = build_grid(5, 1.0, 32, 32, stretch=36.0)
        assert np.all(g.mass > 0) and np.all(g.gauss_w > 0)
        for stretch in (37.5, 50.0, 1000.0):
            with pytest.raises(ConfigurationError, match=f"stretch {stretch}.*32 x 32"):
                build_grid(5, 1.0, 32, 32, stretch=stretch)

    @pytest.mark.parametrize("n_r, n_theta", [(64.0, 64), (64, 64.0), ("64", 64)])
    def test_non_integer_node_counts_rejected(self, n_r, n_theta):
        named = re.escape(f"n_r and n_theta >= 32 required, got {n_r!r}, {n_theta!r}")
        with pytest.raises(ConfigurationError, match=named):
            build_grid(5, 1.0, n_r, n_theta, 0.0)

    def test_numpy_integer_node_counts_accepted(self):
        g = build_grid(5, 1.0, np.int64(40), np.int32(36), 0.0)
        assert (g.n_r, g.n_theta) == (40, 36)
        assert type(g.n_r) is int and type(g.n_theta) is int
        assert g.mass.shape == (40, 36)

    @pytest.mark.parametrize("R", [1e-70, 1e40])
    def test_radius_that_breaks_the_grid_named(self, R):
        # at N = 5 the node masses R^5 underflow at 1e-70 and overflow at
        # 1e40: the radius is the cause, and the message names it
        with pytest.raises(ConfigurationError, match=re.escape(f"R {R} and stretch 3.0 break the 32 x 32")):
            build_grid(5, R, 32, 32, 3.0)

    def test_grid_immutable(self, grid64):
        with pytest.raises(ValueError):
            grid64.mass[3, 3] = 1.0
        with pytest.raises(ValueError):
            grid64.r[0] = 0.5
        for factor in grid64.radial + grid64.angular:
            for band in factor:
                with pytest.raises(ValueError):
                    band[0] = 1.0


class TestAxisFactors:
    """The grid is the product of its axes: one 1-D rule, and per-axis
    (main, off) bands whose outer products are the 2-D coefficients."""

    def test_cell_rule_is_the_tensor_square(self):
        g0, g1 = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)
        points = [(x, y) for x in (g0, g1) for y in (g0, g1)]
        explicit = np.array([[(1 - x) * (1 - y), (1 - x) * y, x * (1 - y), x * y] for x, y in points])
        assert np.array_equal(_GAUSS_BLOCK, np.kron(_LERP, _LERP))
        assert np.array_equal(_GAUSS_BLOCK, explicit)
        assert np.array_equal(_LERP.sum(axis=1), np.ones(2))

    @pytest.mark.parametrize("N, stretch", [(5, 0.0), (5, 3.0), (7, 2.0)])
    def test_coefficients_are_outer_products(self, N, stretch):
        g = build_grid(N, 1.0, 40, 36, stretch=stretch)
        (k_r, d_r3, m_r), (k_th, d_th, m_th) = g.radial, g.angular
        assert np.array_equal(g.r_edge_coeff, np.outer(-k_r[1], d_th[0]))
        assert np.array_equal(g.theta_edge_coeff, np.outer(d_r3[0], -k_th[1]))
        assert np.all(d_r3[1] == 0.0) and np.all(d_th[1] == 0.0)

        # each axis's 2-point weights written out: Gauss nodes x0 + x h,
        # renormalized to the segment's exact measure
        g0, g1 = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)
        hr, hth = np.diff(g.r), np.diff(g.theta)
        jr = np.stack([(g.r[:-1] + x * hr) ** (N - 1) for x in (g0, g1)])
        jth = np.stack([np.sin(g.theta[:-1] + y * hth) ** (N - 2) for y in (g0, g1)])
        seg_r = sphere_area(N - 1) * np.diff(g.r**N) / N
        seg_th = _sin_power_segments(g.theta, N - 2)
        wr = seg_r * jr / jr.sum(axis=0)
        wth = seg_th * jth / jth.sum(axis=0)
        for k, (x, y) in enumerate([(x, y) for x in (0, 1) for y in (0, 1)]):
            np.testing.assert_allclose(g.gauss_w[k], np.outer(wr[x], wth[y]), rtol=1e-13)
        # the consistent masses are the 1-D rule summed over the segments
        for (main, off), w in ((m_r, wr), (m_th, wth)):
            blocks = sum(np.outer(lam, lam)[:, :, None] * wk for lam, wk in zip(_LERP, w))
            want = np.zeros_like(main)
            want[:-1] += blocks[0, 0]
            want[1:] += blocks[1, 1]
            np.testing.assert_allclose(main, want, rtol=1e-13)
            np.testing.assert_allclose(off, blocks[0, 1], rtol=1e-13)

    @pytest.mark.parametrize(
        "shape, stretch",
        [((32, 40), 0.0), ((96, 96), 3.0), ((128, 128), 4.0), ((256, 256), 4.0),
         ((96, 96), 4.0), ((32, 32), 36.0), ((40, 36), 2.0)],
    )
    def test_energy_operator_is_the_kronecker_form(self, shape, stretch):
        # the CSC that splu factors, bit for bit, also where the mass term
        # is below the stiffness's rounding and at a second dimension
        for N, a in ((5, 1.3), (5, 1e-11), (7, 1.3)):
            g = build_grid(N, 1.0, *shape, stretch=stretch)
            q = energy_operator(g, a)
            want = _kron_energy_operator(g, a)
            assert q.format == "csc" and q.has_sorted_indices
            assert np.array_equal(q.indptr, want.indptr)
            assert np.array_equal(q.indices, want.indices)
            assert np.array_equal(q.data, want.data)

    def test_near_axis_bands_at_512(self):
        # stretch 4 at 512^2 packs theta so tightly at the axis that
        # D_theta falls below 1e-14; every band must stay finite, with
        # the sign its matrix needs
        g = build_grid(5, 1.0, 512, 512, stretch=4.0)
        assert g.angular[1][0].min() < 1e-14
        for stiffness, diagonal, mass in (g.radial, g.angular):
            for main, _ in (stiffness, diagonal, mass):
                assert np.all(np.isfinite(main)) and np.all(main > 0.0)
            assert np.all(np.isfinite(stiffness[1])) and np.all(stiffness[1] < 0.0)
            assert np.all(np.isfinite(mass[1])) and np.all(mass[1] > 0.0)


def _gauss_legendre_sin_power(lo, hi, m, points=64):
    """int_lo^hi sin^m per interval, by a Gauss-Legendre rule exact here
    to rounding."""
    x, w = np.polynomial.legendre.leggauss(points)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return half * (w * np.sin(mid[:, None] + half[:, None] * x) ** m).sum(axis=1)


class TestAngularMeasures:
    """Every angular measure keeps relative precision, also the tiny ones
    next to either pole."""

    @pytest.mark.parametrize(
        "N, shape, stretch", [(7, (40, 36), 2.0), (5, (64, 64), 4.0), (5, (48, 47), 0.0)]
    )
    def test_cells_and_segments_match_quadrature(self, N, shape, stretch):
        g = build_grid(N, 1.0, *shape, stretch=stretch)
        th = g.theta
        edges = np.concatenate(([0.0], 0.5 * (th[1:] + th[:-1]), [np.pi]))
        cells = _gauss_legendre_sin_power(edges[:-1], edges[1:], N - 2)
        np.testing.assert_allclose(g.angular[1][0], cells, rtol=1e-13)
        # each segment's Gauss weights sum to its measure times the radial
        # total, int_0^R r^{N-1} times the sphere area
        radial = sphere_area(N - 1) * g.R**N / N
        segments = g.gauss_w.sum(axis=(0, 1)) / radial
        want = _gauss_legendre_sin_power(th[:-1], th[1:], N - 2)
        np.testing.assert_allclose(segments, want, rtol=1e-13)


class TestField:
    def test_shape_mismatch(self, grid64):
        with pytest.raises(DomainError):
            Field(grid64, np.zeros((3, 3)))

    def test_nonfinite_rejected(self, grid64):
        vals = np.zeros((64, 64))
        vals[2, 2] = np.nan
        with pytest.raises(DomainError):
            Field(grid64, vals)

    def test_constant(self, grid64):
        f = Field.constant(grid64, 2.5)
        assert f.values.shape == (64, 64)
        assert np.all(f.values == 2.5)

    def test_compare_and_hash_by_identity(self, grid64):
        # == over the dataclass's arrays raised on the truth value of an
        # array, and hash(grid) on its unhashable fields
        twin = build_grid(5, 1.0, 64, 64, 0.0)
        f, g = Field.constant(grid64, 1.0), Field.constant(grid64, 1.0)
        assert grid64 == grid64 and grid64 != twin
        assert f == f and f != g
        assert f in [g, f] and Field.constant(twin, 1.0) not in [f, g]
        assert len({grid64, twin, grid64}) == 2 and len({f, g, f}) == 2


def _corner_loop(grid, values, qs):
    """Masses and nodal derivatives by an explicit loop over the four
    Gauss points and the four corners of every cell."""
    g0 = 0.5 - 0.5 / np.sqrt(3.0)
    g1 = 0.5 + 0.5 / np.sqrt(3.0)
    corners = (
        (slice(None, -1), slice(None, -1)),
        (slice(1, None), slice(None, -1)),
        (slice(None, -1), slice(1, None)),
        (slice(1, None), slice(1, None)),
    )
    masses = [0.0] * len(qs)
    derivs = [np.zeros_like(values) for _ in qs]
    points = [(xa, yb) for xa in (g0, g1) for yb in (g0, g1)]
    for (xa, yb), w in zip(points, grid.gauss_w):
        lam = ((1 - xa) * (1 - yb), xa * (1 - yb), (1 - xa) * yb, xa * yb)
        ug = sum(l * values[c] for l, c in zip(lam, corners))
        for k, q in enumerate(qs):
            masses[k] += float(np.sum(w * np.abs(ug) ** q))
            flux = w * q * np.abs(ug) ** (q - 1.0) * np.sign(ug)
            for l, c in zip(lam, corners):
                derivs[k][c] += l * flux
    return masses, derivs


def _sparse_gauss(grid):
    """G, the interpolant at every Gauss point as one sparse operator: row
    k * cells + c interpolates cell c at Gauss point k from its corners
    (i, j), (i, j+1), (i+1, j), (i+1, j+1)."""
    n_r, n_th = grid.n_r, grid.n_theta
    g0 = 0.5 - 0.5 / np.sqrt(3.0)
    g1 = 0.5 + 0.5 / np.sqrt(3.0)
    points = [(xa, yb) for xa in (g0, g1) for yb in (g0, g1)]
    lam = np.array([[(1 - xa) * (1 - yb), (1 - xa) * yb, xa * (1 - yb), xa * yb] for xa, yb in points])
    corner = np.arange(n_r * n_th).reshape(n_r, n_th)[:-1, :-1].ravel()
    cols = corner[:, None] + np.array([0, 1, n_th, n_th + 1])
    cells = corner.size
    return sparse.csr_matrix(
        (np.repeat(lam, cells, axis=0).ravel(), np.tile(cols, (4, 1)).ravel(),
         np.arange(0, 16 * cells + 1, 4)),
        shape=(4 * cells, n_r * n_th),
    )


def _edge_difference(m):
    """(m-1) x m matrix of plain successive differences."""
    return sparse.diags([-np.ones(m - 1), np.ones(m - 1)], [0, 1], shape=(m - 1, m)).tocsr()


def _sparse_energy_operator(grid, a):
    """Q as Kronecker-product edge stiffness plus G^T diag(a w) G."""
    n_r, n_th = grid.n_r, grid.n_theta
    e_r = sparse.kron(_edge_difference(n_r), sparse.identity(n_th), format="csr")
    e_th = sparse.kron(sparse.identity(n_r), _edge_difference(n_th), format="csr")
    gauss = _sparse_gauss(grid)
    q = (
        e_r.T @ sparse.diags(grid.r_edge_coeff.ravel()) @ e_r
        + e_th.T @ sparse.diags(grid.theta_edge_coeff.ravel()) @ e_th
        + gauss.T @ sparse.diags(a * grid.gauss_w.ravel()) @ gauss
    )
    return q.tocsr()


def _tridiagonal_matrix(band):
    main, off = band
    return sparse.diags([off, main, off], [-1, 0, 1])


def _kron_energy_operator(grid, a):
    """Q as a sum of Kronecker products of the grid's 1-D factors, in
    sorted CSC with no stored zeros; the mass term is (a M_r) (x) M_theta."""
    (k_r, d_r3, m_r), (k_th, d_th, m_th) = (
        [_tridiagonal_matrix(band) for band in factor] for factor in (grid.radial, grid.angular)
    )
    q = sparse.kron(k_r, d_th) + sparse.kron(d_r3, k_th) + sparse.kron(a * m_r, m_th)
    q = q.tocsc()
    q.eliminate_zeros()
    q.sort_indices()
    return q


def _unit_derivatives(grid, values):
    """The three mass derivatives one at a time, through unit weights."""
    return [grid.power_masses(values)[1](*np.eye(3)[k]) for k in range(3)]


def _callback_power_masses(grid, values, combine):
    """The power-mass pass as a callback: ``combine`` maps the masses to
    the weights of the derivative, which the pass takes itself."""
    N = grid.N
    corners = np.stack([values[c] for c in _CORNERS]).reshape(4, -1)
    ug = (_GAUSS_BLOCK @ corners).reshape(grid.gauss_w.shape)
    s = corners.reshape(ug.shape)
    if N == 5:
        np.multiply(ug, ug, out=s)
        np.cbrt(s, out=s)
    else:
        np.abs(ug, out=s)
        np.power(s, 2.0 / (N - 2), out=s)
    wu = grid.gauss_w * ug
    wus = np.multiply(wu, ug, out=ug)
    mass2 = float(wus.sum())
    trace = float(np.vdot(wus, s))
    wus *= s
    masses = (mass2, trace, float(np.vdot(wus, s)))
    k0, k1, k2 = combine(masses)
    q, p = 2.0 * (N - 1) / (N - 2), 2.0 * N / (N - 2)
    np.multiply(s, p * k2, out=wus)
    wus += q * k1
    wus *= s
    wus += 2.0 * k0
    wus *= wu
    np.matmul(_GAUSS_BLOCK.T, wus.reshape(4, -1), out=corners)
    deriv = np.zeros_like(values)
    for c, h in zip(_CORNERS, s):
        deriv[c] += h
    return masses, deriv


def _callback_pass(field, params, coefficients):
    """The kernel pass with its weights as a callback: ``coefficients``
    maps the pass's triple to (c_a, c_b, c_c), and the pass returns its
    report with the derivative c_a a_bar' + c_b b' + c_c c'."""
    g, u = field.grid, field.values
    dr = u[1:, :] - u[:-1, :]
    dt = u[:, 1:] - u[:, :-1]
    grad2 = float(np.sum(g.r_edge_coeff * dr * dr) + np.sum(g.theta_edge_coeff * dt * dt))
    rep = c_a = None

    def mass_weights(masses):
        nonlocal rep, c_a
        mass2, trace, critical = masses
        triple = NormTriple(grad2 + params.a * mass2, params.alpha * trace, critical, params.N)
        rep = NormReport(triple=triple, grad2=grad2, mass2=mass2, trace_mass=trace)
        c_a, c_b, c_c = coefficients(rep.triple)
        return params.a * c_a, params.alpha * c_b, c_c

    _, deriv = _callback_power_masses(g, u, mass_weights)
    fr = 2.0 * c_a * g.r_edge_coeff * (u[1:, :] - u[:-1, :])
    ft = 2.0 * c_a * g.theta_edge_coeff * (u[:, 1:] - u[:, :-1])
    deriv[1:, :] += fr
    deriv[:-1, :] -= fr
    deriv[:, 1:] += ft
    deriv[:, :-1] -= ft
    return rep, deriv


class TestPowerMasses:
    @pytest.mark.parametrize("N", [5, 7])
    def test_matches_corner_loop(self, N):
        g = build_grid(N, 1.0, 40, 36, stretch=2.5)
        p = make_params(N, 1.0, 1.0)
        qs = (2.0, float(p.exponents.two_tilde), float(p.exponents.two_star))
        u = np.random.default_rng(N).standard_normal((40, 36))
        masses, _ = g.power_masses(u)
        want_masses, want_derivs = _corner_loop(g, u, qs)
        assert masses == pytest.approx(want_masses, rel=1e-12)
        for got, want in zip(_unit_derivatives(g, u), want_derivs):
            assert got.shape == u.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        again, pullback = g.power_masses(u)
        pullback(1.0, 0.0, 0.0)
        assert again == masses

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_exponent_identity(self, N):
        # one power s = |u_g|^(2/(N-2)) stands in for |u_g|^(q-2) and
        # |u_g|^(2*-2); a signed field with a block of exact zeros probes
        # both signs and the power at 0
        g = build_grid(N, 1.0, 40, 36, stretch=2.5)
        p = make_params(N, 1.0, 1.0)
        qs = (2.0, float(p.exponents.two_tilde), float(p.exponents.two_star))
        assert qs[1] - 2.0 == pytest.approx(2.0 / (N - 2), rel=1e-15)
        assert qs[2] - 2.0 == pytest.approx(2.0 * (qs[1] - 2.0), rel=1e-15)
        rng = np.random.default_rng(100 + N)
        u = rng.standard_normal((40, 36))
        u[5:20, 10:30] = 0.0
        weights = rng.standard_normal(3)
        masses, pullback = g.power_masses(u)
        got = pullback(*weights)
        want_masses, want_derivs = _corner_loop(g, u, qs)
        assert masses == pytest.approx(want_masses, rel=1e-12)
        want = sum(k * d for k, d in zip(weights, want_derivs))
        assert np.all(want[6:19, 11:29] == 0.0) and np.all(got[6:19, 11:29] == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_gradient_pass_holds_three_gauss_planes(self):
        # one pass and its pullback allocate three Gauss-point planes and
        # a few nodal arrays at their peak, where five planes do not fit
        g = build_grid(5, 1.0, 128, 128, stretch=4.0)
        p = make_params(5, 1.0, 1.0)
        f = Field(g, 0.1 + np.random.default_rng(3).random((128, 128)))
        norm_gradients(f, p)[1](1.0, 1.0, 1.0)
        tracemalloc.start()
        try:
            norm_gradients(f, p)[1](1.0, 1.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        plane, nodal = g.gauss_w.nbytes, f.values.nbytes
        bound = 3 * plane + 4 * nodal
        assert bound < 5 * plane
        assert peak <= bound

    def test_operator_shape(self, grid64s):
        # one plane of weights per Gauss point, one per cell; the sparse
        # oracle G has four corners a row and reproduces a constant exactly
        g = grid64s
        cells = (g.n_r - 1) * (g.n_theta - 1)
        assert g.gauss_w.shape == (4, g.n_r - 1, g.n_theta - 1)
        gauss = _sparse_gauss(g)
        assert gauss.shape == (4 * cells, g.n_r * g.n_theta)
        assert np.all(np.diff(gauss.indptr) == 4)
        assert np.allclose(gauss @ np.ones(g.n_r * g.n_theta), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [5, 7])
    def test_matches_sparse_oracle(self, N):
        # the corner kernel's Gauss values and adjoint against G u and G^T h
        g = build_grid(N, 1.0, 40, 36, stretch=2.5)
        p = make_params(N, 1.0, 1.0)
        q, two_star = float(p.exponents.two_tilde), float(p.exponents.two_star)
        rng = np.random.default_rng(20 + N)
        u = rng.standard_normal((40, 36))
        k0, k1, k2 = rng.standard_normal(3)
        masses, pullback = g.power_masses(u)
        got = pullback(k0, k1, k2)

        gauss = _sparse_gauss(g)
        ug = gauss @ u.ravel()
        w = g.gauss_w.ravel()
        s = np.abs(ug) ** (2.0 / (N - 2))
        want_masses = [float(np.sum(w * ug**2 * s**k)) for k in range(3)]
        want = (gauss.T @ (w * ug * (2.0 * k0 + q * k1 * s + two_star * k2 * s**2))).reshape(u.shape)
        assert masses == pytest.approx(want_masses, rel=1e-15)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestOnePass:
    """``norm_gradients`` is the one kernel pass: its report is what
    ``norms`` returns, and its single-use pullback gives, to the bit, the
    derivative the pass once took through a weights callback."""

    @pytest.mark.parametrize("N", [5, 7])
    def test_pullback_matches_callback_pass(self, N):
        g = build_grid(N, 1.0, 40, 36, stretch=2.5)
        p = make_params(N, 1.3, 0.8)
        rng = np.random.default_rng(30 + N)
        f = Field(g, 0.6 + 0.25 * rng.standard_normal((40, 36)))
        for _ in range(3):
            weights = tuple(rng.standard_normal(3))
            rep, pullback = norm_gradients(f, p)
            want_rep, want = _callback_pass(f, p, lambda triple: weights)
            assert rep == want_rep
            assert np.array_equal(pullback(*weights), want)

    @pytest.mark.parametrize("N", [5, 7])
    def test_first_variation_matches_callback_pass(self, N):
        g = build_grid(N, 1.0, 40, 36, stretch=2.5)
        p = make_params(N, 1.0, 2.0)
        f = Field(g, 0.6 + 0.25 * np.random.default_rng(40 + N).standard_normal((40, 36)))

        def variation_weights(triple):
            t = project_t(triple)
            ts = float(triple.exponents.two_star)
            tt = float(triple.exponents.two_tilde)
            return t**2 / 2.0, t**tt / tt, -(t**ts) / ts

        rep, t, got = _first_variation(f, p)
        want_rep, want = _callback_pass(f, p, variation_weights)
        assert rep == want_rep and t == project_t(want_rep.triple)
        assert np.array_equal(got, want)

    def test_norms_is_the_pass_report(self, grid64s):
        p = make_params(5, 1.3, 0.8)
        f = Field(grid64s, 0.6 + 0.25 * np.random.default_rng(12).standard_normal((64, 64)))
        assert norms(f, p) == norm_gradients(f, p)[0]

    def test_pullbacks_are_single_use(self, grid64s):
        p = make_params(5, 1.3, 0.8)
        f = Field(grid64s, 0.6 + 0.25 * np.random.default_rng(13).standard_normal((64, 64)))
        _, pullback = norm_gradients(f, p)
        pullback(1.0, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="single-use"):
            pullback(1.0, 1.0, 1.0)
        _, mass_pullback = grid64s.power_masses(f.values)
        mass_pullback(1.0, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="single-use"):
            mass_pullback(1.0, 1.0, 1.0)


class TestNorms:
    def test_constant_field(self, grid64):
        p = make_params(5, 2.0, 0.7)
        rep = norms(Field.constant(grid64, 1.0), p)
        vol = grid64.volume
        assert rep.grad2 == 0.0
        assert rep.triple.a_bar == pytest.approx(2.0 * vol, rel=1e-13)
        assert rep.triple.b == pytest.approx(0.7 * vol, rel=1e-13)
        assert rep.triple.c == pytest.approx(vol, rel=1e-13)
        assert rep.mass2 == pytest.approx(vol, rel=1e-13)
        assert rep.trace_mass == pytest.approx(vol, rel=1e-13)

    def test_kappa_bridge(self, grid64):
        # level of the constant solution must equal the closed form
        for alpha in (0.0, 0.5, 1.7):
            p = make_params(5, 1.0, alpha)
            kap = constant_solution_kappa(p)
            rep = norms(Field.constant(grid64, kap), p)
            want = I_alpha_of_one(p, ball_volume(5, 1.0))
            assert big_I(rep.triple) == pytest.approx(want, rel=1e-8)

    def test_scale_invariance_of_level(self, grid64):
        # big_I is zero-homogeneous, so any constant gives the same level
        p = make_params(5, 1.0, 0.9)
        l1 = big_I(norms(Field.constant(grid64, 0.3), p).triple)
        l2 = big_I(norms(Field.constant(grid64, 42.0), p).triple)
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_zero_field_degenerate(self, grid64):
        with pytest.raises(DegenerateInputError):
            norms(Field.constant(grid64, 0.0), make_params(5, 1.0, 1.0))

    def test_dimension_mismatch(self, grid64):
        with pytest.raises(DomainError):
            norms(Field.constant(grid64, 1.0), make_params(6, 1.0, 1.0))

    def test_instanton_abar_against_cap(self):
        g = build_grid(5, 1.0, 512, 512, stretch=4.0)
        p = make_params(5, 1.0, 1.0)
        inst = InstantonParams(eps=0.05)
        rep = norms(interpolate_instanton(g, inst), p)
        quad = CapQuadrature(N=5, n_rho=200, n_theta=200, radius=1.0)
        grad = cap_gradient_integral(inst, quad)
        mass = cap_integral(inst, 2.0, quad)
        assert rep.triple.a_bar == pytest.approx(grad + 1.0 * mass, rel=0.02)
        # the separate pieces should individually be much closer than 2%
        assert rep.grad2 == pytest.approx(grad, rel=2e-3)
        assert rep.mass2 == pytest.approx(mass, rel=2e-3)

    def test_instanton_critical_mass_against_cap(self):
        g = build_grid(5, 1.0, 512, 512, stretch=4.0)
        p = make_params(5, 1.0, 1.0)
        inst = InstantonParams(eps=0.05)
        rep = norms(interpolate_instanton(g, inst), p)
        quad = CapQuadrature(N=5, n_rho=200, n_theta=200, radius=1.0)
        want = cap_integral(inst, float(p.exponents.two_star), quad)
        assert rep.triple.c == pytest.approx(want, rel=0.02)

    def test_refinement_order(self):
        # smooth field: measured convergence order of the norms >= 1.8
        p = make_params(5, 1.0, 1.0)

        def level(n):
            g = build_grid(5, 1.0, n, n, 0.0)
            vals = np.cos(g.r[:, None]) * (1.5 + np.cos(g.theta[None, :]))
            rep = norms(Field(g, vals), p)
            return np.array([rep.grad2, rep.mass2, rep.trace_mass, rep.triple.c])

        coarse, mid, fine = level(64), level(128), level(256)
        order = np.log2(np.abs(coarse - mid) / np.abs(mid - fine))
        assert np.all(order >= 1.8)

    def test_gateaux_derivatives_match_fd(self, grid64s):
        p = make_params(5, 1.3, 0.8)
        rng = np.random.default_rng(11)
        u = 0.6 + 0.25 * rng.standard_normal((64, 64))
        field = Field(grid64s, u)
        da, db, dc = (norm_gradients(field, p)[1](*np.eye(3)[k]) for k in range(3))
        h = 1e-6
        for _ in range(6):
            d = rng.standard_normal((64, 64))
            hi = norms(Field(grid64s, u + h * d), p)
            lo = norms(Field(grid64s, u - h * d), p)
            for got, f1, f0 in (
                (da, hi.triple.a_bar, lo.triple.a_bar),
                (db, hi.triple.b, lo.triple.b),
                (dc, hi.triple.c, lo.triple.c),
            ):
                fd = (f1 - f0) / (2.0 * h)
                assert float(np.sum(got * d)) == pytest.approx(fd, rel=1e-6, abs=1e-7)


class TestEnergyOperator:
    def test_quadratic_form_is_exact(self, grid64s):
        p = make_params(5, 1.7, 0.0)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((64, 64))
        rep = norms(Field(grid64s, u), p)
        q = energy_operator(grid64s, 1.7)
        x = u.ravel()
        assert float(x @ (q @ x)) == pytest.approx(rep.grad2 + 1.7 * rep.mass2, rel=1e-12)

    def test_symmetric_positive(self, grid64):
        q = energy_operator(grid64, 1.0).tocsr()
        assert abs(q - q.T).max() < 1e-12
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = rng.standard_normal(q.shape[0])
            assert float(x @ (q @ x)) > 0.0

    @pytest.mark.parametrize("shape, stretch", [((32, 40), 2.0), ((64, 64), 0.0), ((128, 128), 4.0)])
    def test_matches_sparse_oracle(self, shape, stretch):
        # the Kronecker assembly against kron stiffness plus G^T diag(a w) G
        g = build_grid(5, 1.0, *shape, stretch=stretch)
        q = energy_operator(g, 1.3).tocsr()
        want = _sparse_energy_operator(g, 1.3)
        q.sort_indices()
        want.sort_indices()
        assert np.array_equal(q.indptr, want.indptr)
        assert np.array_equal(q.indices, want.indices)
        assert np.abs(q.data - want.data).max() <= 1e-15 * np.abs(want.data).max()

    def test_bad_coefficient(self, grid64):
        with pytest.raises(DomainError):
            energy_operator(grid64, 0.0)


class TestSpikeCost:
    def test_single_node_spikes_are_expensive(self):
        # a one-node spike must never undercut the concentration level;
        # this is what rules out fake discrete minimizers
        from neumannlab.constants import sobolev_S

        g = build_grid(5, 1.0, 64, 64, stretch=3.0)
        p = make_params(5, 1.0, 1.0)
        limit = sobolev_S(5) / 2.0 ** (2.0 / 5.0)
        worst = np.inf
        for i in (63, 62, 60):
            for j in (0, 1, 3):
                for amp in (1.0, 30.0, 1000.0):
                    vals = np.zeros((64, 64))
                    vals[i, j] = amp
                    worst = min(worst, big_I(norms(Field(g, vals), p).triple))
        assert worst > limit

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("N", [
        5, 6, 7,
        # a known defect (CHANGES.md, FOUND): the origin row's nodes are
        # all the point r = 0, and from N = 8 a spike there undercuts the
        # limit (node (0, n - 1) reads 0.53 of it on 32^2, 0.62 on 64^2)
        pytest.param(8, marks=pytest.mark.xfail(strict=True, reason="origin-row spike from N = 8")),
    ])
    def test_origin_and_boundary_rows(self, N, n):
        # every one-node spike on the origin row (i = 0) and the boundary
        # row (i = n - 1) costs more than S / 2^(2/N); the level is
        # homogeneous of degree 0, so one amplitude stands for all
        from neumannlab.constants import sobolev_S

        g = build_grid(N, 1.0, n, n, stretch=3.0)
        p = make_params(N, 1.0, 1.0)
        limit = sobolev_S(N) / 2.0 ** (2.0 / N)
        levels = {}
        for i in (0, n - 1):
            for j in range(n):
                vals = np.zeros((n, n))
                vals[i, j] = 1.0
                levels[i, j] = big_I(norms(Field(g, vals), p).triple)
        assert min(levels.values()) > limit, min(levels, key=levels.get)


class TestInterpolateInstanton:
    def test_peak_value(self):
        g = build_grid(5, 1.0, 128, 128, 0.0)
        inst = InstantonParams(eps=0.1)
        f = interpolate_instanton(g, inst)
        # north-pole boundary node is (r=R, theta=0)
        assert f.values[-1, 0] == pytest.approx(0.1 ** (-1.5), rel=1e-12)

    def test_center_value_law_of_cosines(self):
        g = build_grid(5, 1.0, 128, 128, 0.0)
        inst = InstantonParams(eps=0.1)
        f = interpolate_instanton(g, inst)
        want = 0.1 ** (-1.5) * u_value(1.0 / 0.1, 5)
        assert f.values[0, 0] == pytest.approx(want, rel=1e-12)
        # every theta column agrees at r=0 (the center is one point)
        assert np.ptp(f.values[0, :]) < 1e-12 * abs(want)

    def test_south_pole_distance(self):
        g = build_grid(5, 1.0, 128, 128, 0.0)
        inst = InstantonParams(eps=0.2)
        f = interpolate_instanton(g, inst)
        want = 0.2 ** (-1.5) * u_value(2.0 / 0.2, 5)  # distance 2R across the ball
        assert f.values[-1, -1] == pytest.approx(want, rel=1e-10)

    def test_amplitude_scaling(self):
        g = build_grid(5, 1.0, 64, 64, 0.0)
        a1 = interpolate_instanton(g, InstantonParams(eps=0.3)).values
        a3 = interpolate_instanton(g, InstantonParams(eps=0.3, amplitude=3.0)).values
        assert np.allclose(a3, 3.0 * a1, rtol=1e-13)

    @pytest.mark.parametrize("n", [48, 128])
    @pytest.mark.parametrize("stretch", [0.0, 4.0])
    @pytest.mark.parametrize("south", [False, True])
    def test_pole_distance_of_one_node_is_the_nodal_entry(self, n, stretch, south):
        # a node's own scalars give its entry of the nodal array bit for bit,
        # so the fit's skip gate measures what the sampler does
        g = build_grid(5, 1.0, n, n, stretch=stretch)
        cos_theta = np.cos(g.theta)
        nodal = pole_distance(g, g.r[:, None], cos_theta, south)
        assert nodal.shape == (n, n)
        for i in range(n):
            for j in range(n):
                one = pole_distance(g, g.r[i], cos_theta[j], south)
                assert one.tobytes() == nodal[i, j].tobytes()
        # the poles themselves, and the center at distance R from both
        pole = (-1, -1) if south else (-1, 0)
        assert nodal[pole] == 0.0
        assert np.all(nodal[0] == 1.0)

    def test_unresolvable_eps(self):
        g = build_grid(5, 1.0, 64, 64, 0.0)
        floor = g.min_bubble_eps
        with pytest.raises(ResolutionError, match=re.escape(f"needs eps >= {floor:g}")):
            interpolate_instanton(g, InstantonParams(eps=floor / 4.0))
        # right at the floor is allowed
        interpolate_instanton(g, InstantonParams(eps=floor * 1.0001))


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        g = build_grid(5, 1.0, 32, 40, stretch=1.5)
        rng = np.random.default_rng(9)
        f = Field(g, rng.standard_normal((32, 40)))
        csv_path = tmp_path / "field.csv"
        json_path = tmp_path / "field.json"
        save_field_snapshot(f, csv_path, json_path)
        back = load_field_snapshot(csv_path, json_path)
        assert back.grid.n_r == 32 and back.grid.n_theta == 40
        assert back.grid.stretch == 1.5
        assert np.array_equal(back.values, f.values)  # %.17g reproduces doubles

    def test_header_contents(self, tmp_path):
        g = build_grid(6, 2.0, 32, 32, 0.0)
        f = Field.constant(g, 1.0)
        save_field_snapshot(f, tmp_path / "f.csv", tmp_path / "f.json")
        header = json.loads((tmp_path / "f.json").read_text())
        assert header == {"N": 6, "R": 2.0, "n_r": 32, "n_theta": 32, "stretch": 0.0}

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # the snapshot body is what a csv.writer loop over the nodes writes
        g = build_grid(5, 1.0, 32, 33, stretch=2.0)
        rng = np.random.default_rng(4)
        f = Field(g, rng.standard_normal((32, 33)) * 10.0 ** rng.integers(-20, 20, (32, 33)))
        f.values[0, 0] = -0.0
        save_field_snapshot(f, tmp_path / "f.csv", tmp_path / "f.json")
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "theta", "value"])
            for i in range(g.n_r):
                for j in range(g.n_theta):
                    writer.writerow(
                        ["%.17g" % g.r[i], "%.17g" % g.theta[j], "%.17g" % f.values[i, j]]
                    )
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_bytes_match_the_row_listcomp_writer(self, tmp_path):
        # the one-template-per-row body against the per-node formatting
        # it replaced, on a 256^2 field
        g = build_grid(5, 1.0, 256, 256, stretch=4.0)
        rng = np.random.default_rng(11)
        f = Field(g, rng.standard_normal((256, 256)) * 10.0 ** rng.integers(-30, 30, (256, 256)))
        f.values[3, :7] = -0.0
        save_field_snapshot(f, tmp_path / "f.csv", tmp_path / "f.json")
        th_txt = ["%.17g," % th for th in g.theta.tolist()]
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            fh.write("r,theta,value\r\n")
            for r, row in zip(g.r.tolist(), f.values.tolist()):
                r_txt = "%.17g," % r
                fh.write("".join([r_txt + t + "%.17g\r\n" % v for t, v in zip(th_txt, row)]))
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_truncated_csv_rejected(self, tmp_path):
        g = build_grid(5, 1.0, 32, 32, 0.0)
        save_field_snapshot(Field.constant(g, 1.0), tmp_path / "f.csv", tmp_path / "f.json")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        (tmp_path / "f.csv").write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DomainError):
            load_field_snapshot(tmp_path / "f.csv", tmp_path / "f.json")
