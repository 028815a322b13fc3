"""Grid construction, quadrature weights, norms, interpolation, snapshots."""

import json

import numpy as np
import pytest

from neumannlab.constants import (
    I_alpha_of_one,
    ball_volume,
    constant_solution_kappa,
    make_params,
)
from neumannlab.domain_grid import (
    AxiGrid,
    Field,
    build_grid,
    energy_operator,
    interpolate_instanton,
    load_field_snapshot,
    norm_gradients,
    norms,
    save_field_snapshot,
)
from neumannlab.errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    ResolutionError,
)
from neumannlab.instanton import CapQuadrature, InstantonParams, cap_gradient_integral, cap_integral
from neumannlab.nehari import big_I
from neumannlab.instanton import u_value


@pytest.fixture(scope="module")
def grid64():
    return build_grid(5, 1.0, 64, 64)


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
        v1 = build_grid(5, 1.0, 32, 32).volume
        v2 = build_grid(5, 2.0, 32, 32).volume
        assert v2 == pytest.approx(2.0**5 * v1, rel=1e-12)

    def test_volume_exact_other_dims(self):
        for N in (5, 6, 7):
            g = build_grid(N, 1.3, 32, 48, stretch=1.0)
            assert g.volume == pytest.approx(ball_volume(N, 1.3), rel=1e-12)

    def test_weights_nonnegative_axis_zero(self, grid64s):
        w = grid64s.weights
        assert np.all(w >= 0.0)
        assert np.all(w[0, :] == 0.0)   # r = 0
        assert np.all(w[:, 0] == 0.0)   # theta = 0
        assert np.all(w[:, -1] == 0.0)  # theta = pi
        assert np.all(grid64s.mass > 0.0)
        assert grid64s.mass.sum() == pytest.approx(grid64s.volume, rel=1e-12)

    def test_subcell_weights_sum_to_volume(self, grid64s):
        total = sum(float(w.sum()) for w in grid64s.subcell_w)
        assert total == pytest.approx(grid64s.volume, rel=1e-12)
        for w in grid64s.subcell_w:
            assert np.all(w > 0.0)

    def test_r_squared_quadrature(self):
        # nodal composite rule is second order; refinement reaches 1e-6
        exact = ball_volume(5, 1.0) * 5.0 / 7.0  # int r^2 = vol * N/(N+2)
        errs = []
        for n in (256, 1024):
            g = build_grid(5, 1.0, n, n)
            approx = g.integrate(g.r[:, None] ** 2 * np.ones_like(g.weights))
            errs.append(abs(approx - exact) / exact)
        assert errs[1] < 1e-6
        assert errs[1] < errs[0] / 8.0  # consistent with second order

    def test_r_squared_subcell_rule(self):
        # the interpolant rule is sharper: r is linear on cells, so only
        # the in-cell weight split contributes error
        g = build_grid(5, 1.0, 256, 256)
        exact = ball_volume(5, 1.0) * 5.0 / 7.0
        approx = g.power_masses(np.broadcast_to(g.r[:, None], g.weights.shape), (2.0,))[0]
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
            build_grid(4, 1.0, 64, 64)
        with pytest.raises(ConfigurationError):
            build_grid(5.0, 1.0, 64, 64)
        with pytest.raises(ConfigurationError):
            build_grid(5, -1.0, 64, 64)
        with pytest.raises(ConfigurationError):
            build_grid(5, 1.0, 31, 64)
        with pytest.raises(ConfigurationError):
            build_grid(5, 1.0, 64, 16)
        with pytest.raises(ConfigurationError):
            build_grid(5, 1.0, 64, 64, stretch=-0.5)

    def test_grid_immutable(self, grid64):
        with pytest.raises(ValueError):
            grid64.weights[3, 3] = 1.0
        with pytest.raises(ValueError):
            grid64.r[0] = 0.5


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
    for (xa, yb), w in zip(points, grid.subcell_w):
        lam = ((1 - xa) * (1 - yb), xa * (1 - yb), (1 - xa) * yb, xa * yb)
        ug = sum(l * values[c] for l, c in zip(lam, corners))
        for k, q in enumerate(qs):
            masses[k] += float(np.sum(w * np.abs(ug) ** q))
            flux = w * q * np.abs(ug) ** (q - 1.0) * np.sign(ug)
            for l, c in zip(lam, corners):
                derivs[k][c] += l * flux
    return masses, derivs


class TestPowerMasses:
    @pytest.mark.parametrize("N", [5, 7])
    def test_matches_corner_loop(self, N):
        g = build_grid(N, 1.0, 40, 36, stretch=2.5)
        p = make_params(N, 1.0, 1.0)
        qs = (2.0, float(p.exponents.two_tilde), float(p.exponents.two_star))
        u = np.random.default_rng(N).standard_normal((40, 36))
        masses, derivs = g.power_masses(u, qs, gradients=True)
        want_masses, want_derivs = _corner_loop(g, u, qs)
        assert masses == pytest.approx(want_masses, rel=1e-12)
        for got, want in zip(derivs, want_derivs):
            assert got.shape == u.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert g.power_masses(u, qs) == masses

    def test_operator_shape(self, grid64s):
        g = grid64s
        cells = (g.n_r - 1) * (g.n_theta - 1)
        assert g.gauss.shape == (4 * cells, g.n_r * g.n_theta)
        assert np.all(np.diff(g.gauss.indptr) == 4)
        # each row interpolates, so a constant field is reproduced exactly
        assert np.allclose(g.gauss @ np.ones(g.n_r * g.n_theta), 1.0, rtol=0, atol=1e-15)
        assert g.gauss_w.shape == (4 * cells,)
        assert all(np.shares_memory(w, g.gauss_w) for w in g.subcell_w)


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
            g = build_grid(5, 1.0, n, n)
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
        _, da, db, dc = norm_gradients(Field(grid64s, u), p)
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
        q = energy_operator(grid64, 1.0)
        assert abs(q - q.T).max() < 1e-12
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = rng.standard_normal(q.shape[0])
            assert float(x @ (q @ x)) > 0.0

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


class TestInterpolateInstanton:
    def test_peak_value(self):
        g = build_grid(5, 1.0, 128, 128)
        inst = InstantonParams(eps=0.1)
        f = interpolate_instanton(g, inst)
        # north-pole boundary node is (r=R, theta=0)
        assert f.values[-1, 0] == pytest.approx(0.1 ** (-1.5), rel=1e-12)

    def test_center_value_law_of_cosines(self):
        g = build_grid(5, 1.0, 128, 128)
        inst = InstantonParams(eps=0.1)
        f = interpolate_instanton(g, inst)
        want = 0.1 ** (-1.5) * u_value(1.0 / 0.1, 5)
        assert f.values[0, 0] == pytest.approx(want, rel=1e-12)
        # every theta column agrees at r=0 (the center is one point)
        assert np.ptp(f.values[0, :]) < 1e-12 * abs(want)

    def test_south_pole_distance(self):
        g = build_grid(5, 1.0, 128, 128)
        inst = InstantonParams(eps=0.2)
        f = interpolate_instanton(g, inst)
        want = 0.2 ** (-1.5) * u_value(2.0 / 0.2, 5)  # distance 2R across the ball
        assert f.values[-1, -1] == pytest.approx(want, rel=1e-10)

    def test_amplitude_scaling(self):
        g = build_grid(5, 1.0, 64, 64)
        a1 = interpolate_instanton(g, InstantonParams(eps=0.3)).values
        a3 = interpolate_instanton(g, InstantonParams(eps=0.3, amplitude=3.0)).values
        assert np.allclose(a3, 3.0 * a1, rtol=1e-13)

    def test_unresolvable_eps(self):
        g = build_grid(5, 1.0, 64, 64)
        floor = 2.0 * g.min_boundary_spacing
        with pytest.raises(ResolutionError) as err:
            interpolate_instanton(g, InstantonParams(eps=floor / 4.0))
        assert err.value.min_resolvable == pytest.approx(floor)
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
        g = build_grid(6, 2.0, 32, 32)
        f = Field.constant(g, 1.0)
        save_field_snapshot(f, tmp_path / "f.csv", tmp_path / "f.json")
        header = json.loads((tmp_path / "f.json").read_text())
        assert header == {"N": 6, "R": 2.0, "n_r": 32, "n_theta": 32, "stretch": 0.0}

    def test_truncated_csv_rejected(self, tmp_path):
        g = build_grid(5, 1.0, 32, 32)
        save_field_snapshot(Field.constant(g, 1.0), tmp_path / "f.csv", tmp_path / "f.json")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        (tmp_path / "f.csv").write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DomainError):
            load_field_snapshot(tmp_path / "f.csv", tmp_path / "f.json")
