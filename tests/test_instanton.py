"""Bubble profile, exact radial integrals, cap quadrature, expansions."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab.constants import (
    Exponents,
    curvature_A,
    make_params,
    sobolev_S,
    sphere_area,
    talenti_B,
)
from neumannlab.errors import AccuracyError, ConfigurationError, DomainError
from neumannlab.instanton import (
    CapQuadrature,
    ExpansionRecord,
    InstantonParams,
    bubble_scale,
    cap_gradient_integral,
    cap_integral,
    expansion_suite,
    grad_u_norm,
    radial_gradient_integral,
    radial_integral,
    scaling_exponent_probe,
    translation_mode,
    trial_energy,
    u_laplacian,
    u_radial_derivative,
    u_value,
)

B5 = 844.36026476273856  # S(5)^{5/2}, frozen from the constants oracle


def closed_radial(q, N):
    """Beta-function form of the whole-space integral of the profile^q."""
    K = N * (N - 2)
    half = q * (N - 2) / 2.0
    return (
        sphere_area(N)
        * K ** (N / 2.0)
        * math.gamma(N / 2.0)
        * math.gamma(half - N / 2.0)
        / (2.0 * math.gamma(half))
    )


class TestProfile:
    def test_worked_values(self):
        assert u_value(0.0, 5) == 1.0
        # (15/30)^{3/2} at |x| = sqrt(15)
        assert u_value(math.sqrt(15.0), 5) == pytest.approx(2.0 ** -1.5, rel=1e-14)
        assert u_value(0.0, 3) == 1.0  # pointwise formulas allow N >= 3

    def test_decreasing_and_decay(self):
        r = np.linspace(0.0, 50.0, 400)
        vals = u_value(r, 7)
        assert np.all(np.diff(vals) < 0)
        # tail behaves like K^{(N-2)/2} r^{-(N-2)}
        K = bubble_scale(7)
        r_far = 1e6
        assert u_value(r_far, 7) * r_far**5 == pytest.approx(K**2.5, rel=1e-5)

    def test_translation_mode_origin_limit(self):
        for N in (5, 6, 9):
            K = bubble_scale(N)
            assert translation_mode(0.0, N) == pytest.approx((N - 2) / K, rel=1e-13)
            assert translation_mode(1e-8, N) == pytest.approx((N - 2) / K, rel=1e-9)

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            u_value(1.0, 2)
        with pytest.raises(DomainError):
            bubble_scale(5.5)


class TestSymbolicResiduals:
    """Derivative identities checked against an independent symbolic route."""

    @pytest.mark.parametrize("N", [5, 6, 7])
    def test_laplacian_matches_sympy(self, N):
        r = sp.symbols("r", positive=True)
        K = sp.Integer(N * (N - 2))
        U = (K / (K + r**2)) ** sp.Rational(N - 2, 2)
        lap = sp.diff(U, r, 2) + (N - 1) / r * sp.diff(U, r)
        for rv in (0.1, 1.0, 10.0):
            want = float(lap.subs(r, rv))
            assert u_laplacian(rv, N) == pytest.approx(want, rel=1e-10)
        # angular degeneration at the origin: N * u''(0)
        upp0 = float(sp.limit(sp.diff(U, r, 2), r, 0))
        assert u_laplacian(0.0, N) == pytest.approx(N * upp0, rel=1e-12)

    @pytest.mark.parametrize("N", [5, 6, 7])
    def test_pde_residual(self, N):
        ts = float(Exponents(5).two_star) if N == 5 else 2.0 * N / (N - 2)
        for rv in (0.1, 1.0, 10.0):
            lhs = -u_laplacian(rv, N)
            rhs = u_value(rv, N) ** (ts - 1.0)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-30)

    @pytest.mark.parametrize("N", [5, 6])
    def test_translation_eigenfunction_residual(self, N):
        # phi = g(r) x_i with g = -u'/r solves the linearized equation:
        # -lap(phi) = (2*-1) u^{2*-2} phi, where lap(g x_i) has radial
        # factor g'' + (N+1) g'/r.
        r = sp.symbols("r", positive=True)
        K = sp.Integer(N * (N - 2))
        U = (K / (K + r**2)) ** sp.Rational(N - 2, 2)
        g = -sp.diff(U, r) / r
        lap_factor = sp.diff(g, r, 2) + (N + 1) / r * sp.diff(g, r)
        ts = 2.0 * N / (N - 2)
        for rv in (0.3, 1.0, 3.0):
            lhs = -float(lap_factor.subs(r, rv))
            rhs = (ts - 1.0) * u_value(rv, N) ** (ts - 2.0) * float(g.subs(r, rv))
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
        # and the packaged radial factor agrees with the symbolic g
        assert translation_mode(1.0, N) == pytest.approx(float(g.subs(r, 1.0)), rel=1e-12)

    def test_gradient_norm_is_derivative_magnitude(self):
        for rv in (0.0, 0.7, 4.0):
            assert grad_u_norm(rv, 6) == pytest.approx(abs(u_radial_derivative(rv, 6)), abs=1e-16)


class TestRadialIntegrals:
    def test_critical_mass_is_B(self):
        assert radial_integral(float(Exponents(5).two_star), 5) == pytest.approx(B5, rel=1e-9)
        assert radial_integral(float(Exponents(5).two_star), 5) == pytest.approx(
            sobolev_S(5) ** 2.5, rel=1e-9
        )

    def test_trace_exponent_mass(self):
        ex = Exponents(5)
        want = float(ex.two_tilde) * talenti_B(5)  # equals (8/3) B(5) at N=5
        assert radial_integral(float(ex.two_tilde), 5) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(B5 * 8.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("N", [5, 6, 7])
    def test_gradient_equals_critical_mass(self, N):
        ts = 2.0 * N / (N - 2)
        assert radial_gradient_integral(N) == pytest.approx(radial_integral(ts, N), rel=1e-7)

    @pytest.mark.parametrize("q,N", [(2.5, 5), (3.0, 5), (4.2, 5), (2.0, 7), (3.1, 7)])
    def test_beta_function_oracle(self, q, N):
        assert radial_integral(q, N) == pytest.approx(closed_radial(q, N), rel=1e-9)

    def test_nonintegrable_rejected(self):
        with pytest.raises(DomainError):
            radial_integral(5.0 / 3.0, 5)  # exactly N/(N-2)
        with pytest.raises(DomainError):
            radial_integral(1.2, 5)


class TestCapQuadrature:
    def test_validation(self):
        with pytest.raises(DomainError):
            InstantonParams(eps=0.0)
        with pytest.raises(DomainError):
            InstantonParams(eps=0.1, amplitude=-1.0)
        with pytest.raises(ConfigurationError):
            CapQuadrature(N=5, n_theta=8)
        with pytest.raises(ConfigurationError):
            CapQuadrature(N=5, domain="torus")
        with pytest.raises(ConfigurationError):
            CapQuadrature(N=5, radius=-2.0)

    @pytest.mark.parametrize("qname", ["two_tilde", "two_star"])
    def test_half_space_halving(self, qname):
        ex = Exponents(5)
        q = float(getattr(ex, qname))
        quad = CapQuadrature(N=5, domain="half_space")
        whole = radial_integral(q, 5)
        for eps in (0.3, 0.04, 0.002):
            got = cap_integral(InstantonParams(eps), q, quad)
            want = 0.5 * whole * eps ** (5.0 - q * 1.5)
            assert got == pytest.approx(want, rel=1e-6)

    def test_half_space_gradient_halving(self):
        quad = CapQuadrature(N=5, domain="half_space")
        want = 0.5 * radial_gradient_integral(5)
        for eps in (0.1, 0.01):
            assert cap_gradient_integral(InstantonParams(eps), quad) == pytest.approx(
                want, rel=1e-6
            )

    def test_amplitude_scaling(self):
        quad = CapQuadrature(N=5)
        q = 3.0
        base = cap_integral(InstantonParams(0.02), q, quad)
        big = cap_integral(InstantonParams(0.02, amplitude=2.0), q, quad)
        assert big == pytest.approx(2.0**q * base, rel=1e-12)

    def test_node_doubling_stability(self):
        coarse = CapQuadrature(N=5, n_rho=24, n_theta=24)
        fine = CapQuadrature(N=5, n_rho=48, n_theta=48)
        p = InstantonParams(0.01)
        for q in (2.0, 8.0 / 3.0, 10.0 / 3.0):
            a = cap_integral(p, q, coarse)
            b = cap_integral(p, q, fine)
            assert a == pytest.approx(b, rel=1e-11)

    def test_ball_trace_mass_limit(self):
        # value/eps approaches (two_tilde/2) B(N) linearly in eps
        ex = Exponents(5)
        tt = float(ex.two_tilde)
        quad = CapQuadrature(N=5)
        lim = tt / 2.0 * talenti_B(5)
        err = []
        for eps in (2e-4, 1e-4):
            v = cap_integral(InstantonParams(eps), tt, quad)
            err.append(abs(v / eps / lim - 1.0))
        assert err[-1] <= 1e-3
        assert err[0] / err[1] == pytest.approx(2.0, rel=0.2)

    def test_ball_critical_mass_limit(self):
        ts = float(Exponents(5).two_star)
        quad = CapQuadrature(N=5)
        half = 0.5 * talenti_B(5)
        v1 = cap_integral(InstantonParams(2e-4), ts, quad)
        v2 = cap_integral(InstantonParams(1e-4), ts, quad)
        assert abs(v2 - half) < abs(v1 - half)
        assert v2 == pytest.approx(half, rel=1e-3)

    @settings(max_examples=15, deadline=None)
    @given(q=st.floats(min_value=2.1, max_value=4.0))
    def test_monotone_in_exponent(self, q):
        # eps^{q(N-2)/2} * cap integrates a function <= 1, so raising the
        # power shrinks it (the raw cap mass is not monotone: the rescaled
        # amplitude exceeds 1)
        quad = CapQuadrature(N=5)
        p = InstantonParams(0.05)

        def compensated(qq):
            return cap_integral(p, qq, quad) * p.eps ** (qq * 1.5)

        assert compensated(q + 0.05) < compensated(q)


class TestScalingProbe:
    def test_geometric_validation(self):
        with pytest.raises(DomainError):
            scaling_exponent_probe(2.0, 5, [1e-4, 2e-4, 5e-4, 1e-3])  # uneven ratios
        with pytest.raises(DomainError):
            scaling_exponent_probe(2.0, 5, [1e-4, 2e-4, 4e-4])  # too few
        with pytest.raises(DomainError):
            scaling_exponent_probe(2.0, 5, [0.05, 0.1, 0.2, 0.4])  # exceeds cap

    def test_log_flag_must_match_regime(self):
        with pytest.raises(DomainError):
            scaling_exponent_probe(1.5, 6, [1e-4, 2e-4, 4e-4, 8e-4])
        with pytest.raises(DomainError):
            scaling_exponent_probe(2.0, 5, [1e-4, 2e-4, 4e-4, 8e-4], log_factor=True)

    def test_supercritical_regime(self):
        # N=5, q=2 > N/(N-2): exponent N - q(N-2)/2 = 2
        slope = scaling_exponent_probe(2.0, 5, [1e-4, 2e-4, 4e-4, 8e-4])
        assert abs(slope - 2.0) <= 0.05

    def test_subcritical_regime(self):
        # N=7, q=1 < N/(N-2): exponent q(N-2)/2 = 2.5
        slope = scaling_exponent_probe(1.0, 7, [2.5e-4, 5e-4, 1e-3, 2e-3])
        assert abs(slope - 2.5) <= 0.05

    def test_borderline_log_regime(self):
        # N=6, q=N/(N-2)=1.5: exponent N/2 = 3 after dividing |log eps|
        slope = scaling_exponent_probe(
            1.5, 6, [1.5625e-6, 3.125e-6, 6.25e-6, 1.25e-5], log_factor=True
        )
        assert abs(slope - 3.0) <= 0.05


EPS_FIT = [0.00078125, 0.0015625, 0.003125, 0.00625, 0.0125]


class TestExpansionSuite:
    def test_ball_records(self):
        rep = expansion_suite(5, 1.0, EPS_FIT)
        names = [r.name for r in rep.records]
        assert names == [
            "gradient_mass",
            "critical_mass",
            "trace_mass",
            "level_ratio",
            "delta",
        ]
        root_k = math.sqrt(bubble_scale(5))
        by = {r.name: r for r in rep.records}
        assert by["gradient_mass"].abscissa_scale == pytest.approx(root_k)
        assert by["critical_mass"].abscissa_scale == pytest.approx(root_k)
        assert by["trace_mass"].abscissa_scale == 1.0
        assert by["delta"].abscissa_scale == 1.0
        for rec in rep.records:
            assert rec.rel_error_c0 <= 1e-3
        assert by["gradient_mass"].rel_error_c1 <= 0.02
        assert by["critical_mass"].rel_error_c1 <= 0.02
        assert by["trace_mass"].rel_error_c1 <= 0.02
        assert by["level_ratio"].rel_error_c1 <= 0.03
        assert by["delta"].rel_error_c1 <= 0.03

    def test_expected_values_come_from_constants(self):
        rep = expansion_suite(5, 1.0, EPS_FIT)
        by = {r.name: r for r in rep.records}
        assert by["gradient_mass"].expected_c0 == pytest.approx(B5 / 2.0, rel=1e-12)
        assert by["level_ratio"].expected_c0 == pytest.approx(
            sobolev_S(5) / 2.0**0.4, rel=1e-12
        )
        want_ratio_slope = -(2.0**0.6) * sobolev_S(5) * curvature_A(5)
        assert by["level_ratio"].expected_c1 == pytest.approx(want_ratio_slope, rel=1e-12)

    def test_radius_linearity(self):
        # curvature coefficients are linear in H = 1/R
        c1 = expansion_suite(5, 1.0, EPS_FIT).record("gradient_mass").c1
        c2 = expansion_suite(5, 2.0, EPS_FIT).record("gradient_mass").c1
        assert c1 / c2 == pytest.approx(2.0, rel=0.03)

    def test_half_space_flat_boundary(self):
        rep = expansion_suite(5, 1.0, EPS_FIT, domain="half_space")
        by = {r.name: r for r in rep.records}
        # curvature terms die, trace and delta slopes become exact
        assert abs(by["gradient_mass"].c1) <= 1e-6 * by["gradient_mass"].c0
        assert abs(by["critical_mass"].c1) <= 1e-6 * by["critical_mass"].c0
        assert abs(by["level_ratio"].c1) <= 1e-6 * by["level_ratio"].c0
        assert by["trace_mass"].c1 == pytest.approx(by["trace_mass"].expected_c1, rel=1e-9)
        assert by["delta"].c1 == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_report_lookup(self):
        rep = expansion_suite(5, 1.0, [0.0015625, 0.003125, 0.00625, 0.0125])
        assert isinstance(rep.record("delta"), ExpansionRecord)
        with pytest.raises(KeyError):
            rep.record("no_such_series")

    def test_validation(self):
        with pytest.raises(DomainError):
            expansion_suite(5, -1.0, EPS_FIT)
        with pytest.raises(DomainError):
            expansion_suite(5, 1.0, EPS_FIT, domain="strip")
        with pytest.raises(DomainError):
            expansion_suite(5, 1.0, [0.02, 0.04, 0.08, 0.16])  # beyond 0.05 R

    def test_nonconvergent_data_raises(self, monkeypatch):
        import neumannlab.instanton as mod

        junk = iter([1.0, 100.0, 1.0, 100.0, 1.0, 100.0, 1.0, 100.0, 1.0, 100.0])

        def noisy(params, quad):
            return next(junk)

        monkeypatch.setattr(mod, "cap_gradient_integral", noisy)
        with pytest.raises(AccuracyError):
            mod.expansion_suite(5, 1.0, EPS_FIT)


class TestTrialEnergy:
    def test_below_limit_for_small_alpha(self):
        lim = sobolev_S(5) / 2.0**0.4
        quad = CapQuadrature(N=5)
        for alpha in (0.0, 0.4):
            prob = make_params(5, a=1.0, alpha=alpha)
            vals = [
                trial_energy(prob, InstantonParams(eps), quad)[0]
                for eps in (0.02, 0.01, 0.005)
            ]
            assert all(v < lim for v in vals)
            # approaches the limit from below as eps shrinks
            assert vals[0] < vals[1] < vals[2] < lim

    def test_large_alpha_exceeds_limit(self):
        lim = sobolev_S(5) / 2.0**0.4
        quad = CapQuadrature(N=5)
        prob = make_params(5, a=1.0, alpha=5.0)
        val, triple = trial_energy(prob, InstantonParams(0.05), quad)
        assert val > lim
        assert triple.b > 0

    def test_monotone_in_alpha(self):
        quad = CapQuadrature(N=5)
        p = InstantonParams(0.01)
        vals = [
            trial_energy(make_params(5, a=1.0, alpha=al), p, quad)[0]
            for al in (0.0, 0.4, 5.0)
        ]
        assert vals[0] < vals[1] < vals[2]
