import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab import constants as C
from neumannlab import nehari as NE
from neumannlab.errors import DomainError

# frozen via a 40-digit mpmath evaluation of the same Gamma reductions
S5 = 14.811911720005936
B5 = 844.36026476273856
OMEGA5 = 26.318945069571623
OMEGA4 = 19.739208802178716
A5 = 0.50929581789406507
CBAR1_5 = 645.04372745938240
CBAR2_5 = 358.35762636632356


def test_gamma_small_values():
    assert C.gamma_fn(1.0) == 1.0
    assert math.isclose(C.gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-15)
    assert math.isclose(C.gamma_fn(5.0), 24.0, rel_tol=1e-15)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        C.gamma_fn(0.0)
    with pytest.raises(DomainError):
        C.gamma_fn(-3.0)


def test_gamma_accuracy_against_mpmath():
    mp.mp.dps = 30
    for x in np.linspace(0.5, 50.0, 199):
        ref = float(mp.gamma(mp.mpf(float(x))))
        assert abs(C.gamma_fn(float(x)) - ref) <= 1e-13 * ref


def test_sphere_area_known_dimensions():
    assert math.isclose(C.sphere_area(2), 2 * math.pi, rel_tol=1e-15)
    assert math.isclose(C.sphere_area(3), 4 * math.pi, rel_tol=1e-15)
    assert math.isclose(C.sphere_area(4), OMEGA4, rel_tol=1e-14)
    assert math.isclose(C.sphere_area(5), OMEGA5, rel_tol=1e-14)
    with pytest.raises(DomainError):
        C.sphere_area(1)


def test_sphere_area_ratio_identity():
    # omega_{N-1} / omega_N = Gamma(N/2) / (sqrt(pi) Gamma((N-1)/2))
    for N in range(5, 13):
        lhs = C.sphere_area(N - 1) / C.sphere_area(N)
        rhs = C.gamma_fn(N / 2) / (math.sqrt(math.pi) * C.gamma_fn((N - 1) / 2))
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_sobolev_value_and_alternate_reduction():
    assert math.isclose(C.sobolev_S(5), S5, rel_tol=1e-13)
    for N in range(5, 13):
        alt = math.pi * N * (N - 2) * (C.gamma_fn(N / 2) / C.gamma_fn(N)) ** (2.0 / N)
        assert abs(C.sobolev_S(N) - alt) <= 1e-12 * alt


def test_talenti_equals_sobolev_power():
    assert math.isclose(C.talenti_B(5), B5, rel_tol=1e-13)
    for N in range(5, 13):
        S, B = C.sobolev_S(N), C.talenti_B(N)
        assert abs(B - S ** (N / 2.0)) <= 1e-12 * B


def test_curvature_factor():
    assert math.isclose(C.curvature_A(5), A5, rel_tol=1e-14)
    assert math.isclose(C.curvature_A(5), 1.6 / math.pi, rel_tol=1e-14)
    values = [C.curvature_A(N) for N in range(5, 13)]
    assert all(v > 0 for v in values)
    assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(DomainError):
        C.curvature_A(4)


def test_cbar_values_and_curvature_scaling():
    c1, c2 = C.cbar_coefficients(5, 1.0)
    assert math.isclose(c1, CBAR1_5, rel_tol=1e-13)
    assert math.isclose(c2, CBAR2_5, rel_tol=1e-13)
    d1, d2 = C.cbar_coefficients(5, 2.0)
    assert d1 == pytest.approx(2 * c1, rel=1e-15)
    assert d2 == pytest.approx(2 * c2, rel=1e-15)
    assert C.cbar_coefficients(7, 0.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        C.cbar_coefficients(4, 1.0)


def test_cbar_combination_matches_curvature_slope():
    # c1 - (2/two_star) c2 collapses to A(N) B(N) H; this is what makes the
    # first-order term of the concentrated level come out proportional to A.
    for N in range(5, 10):
        for H in (0.5, 1.0, 2.0):
            c1, c2 = C.cbar_coefficients(N, H)
            lhs = c1 - (N - 2) / N * c2
            rhs = C.curvature_A(N) * C.talenti_B(N) * H
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_cbar_slope_of_level_ratio():
    # finite-difference slope of (B/2 - c1 e) / (B/2 - c2 e)^{2/two_star}
    # at e = 0 must equal -2^{(N-2)/N} S A H
    N, H = 5, 1.0
    c1, c2 = C.cbar_coefficients(N, H)
    B, S, A = C.talenti_B(N), C.sobolev_S(N), C.curvature_A(N)
    p = (N - 2) / N

    def f(e):
        return (B / 2 - c1 * e) / (B / 2 - c2 * e) ** p

    h = 1e-6
    slope = (f(h) - f(-h)) / (2 * h)
    assert math.isclose(slope, -(2.0**p) * S * A * H, rel_tol=1e-4)


def test_exponent_identities_exact():
    for N in range(5, 31):
        ex = C.Exponents(N)
        ts, tt = ex.two_star, ex.two_tilde
        assert tt - 2 == (ts - 2) / 2
        assert Fraction(1, 1) == (1 + ts / 2) / tt
        assert tt == 1 + ts / 2
        assert Fraction(4, 1) / ts + Fraction(2, N) * 2 / tt == Fraction(4, 1) / tt
    with pytest.raises(DomainError):
        C.Exponents(4)
    with pytest.raises(DomainError):
        C.Exponents(31)


def test_params_validation():
    with pytest.raises(DomainError):
        C.make_params(5, 0.0, 1.0)
    with pytest.raises(DomainError):
        C.make_params(5, 1.0, -0.5)
    with pytest.raises(DomainError):
        C.make_params(5, 1.0, 0.0, radius=0.0)
    # the radius is checked, not stored: every R the solver uses is its grid's
    p = C.make_params(5, 1.0, 0.25, radius=2.0)
    assert [f.name for f in dataclasses.fields(p)] == ["exponents", "a", "alpha"]
    assert (p.N, p.a, p.alpha) == (5, 1.0, 0.25)


@pytest.mark.parametrize("key", ["a", "alpha", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_nonfinite(key, value):
    kw = dict(N=5, a=1.0, alpha=1.0, radius=1.0)
    kw[key] = value
    with pytest.raises(DomainError, match=rf"finite {key} "):
        C.make_params(**kw)


def _kappa_by_bisection(N, a, alpha):
    ex = C.Exponents(N)
    ts, tt = float(ex.two_star), float(ex.two_tilde)

    def g(k):
        return a * k + alpha * k ** (tt - 1) - k ** (ts - 1)

    lo, hi = 1e-8, 1.0
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_kappa_closed_form():
    assert math.isclose(C.constant_solution_kappa(C.make_params(6, 16.0, 0.0)), 16.0, rel_tol=1e-14)
    assert C.constant_solution_kappa(C.make_params(5, 1.0, 0.0)) == 1.0
    golden = ((1 + math.sqrt(5)) / 2) ** 1.5
    assert math.isclose(C.constant_solution_kappa(C.make_params(5, 1.0, 1.0)), golden, rel_tol=1e-14)
    assert math.isclose(C.constant_solution_kappa(C.make_params(5, 1.0, 1.0)), 2.0581710272714923, rel_tol=1e-14)


def test_kappa_solves_equation_in_bulk():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        N = int(rng.integers(5, 9))
        a = float(10.0 ** rng.uniform(-3, 1))
        alpha = float(rng.uniform(0.0, 10.0))
        ex = C.Exponents(N)
        ts, tt = float(ex.two_star), float(ex.two_tilde)
        k = C.constant_solution_kappa(C.make_params(N, a, alpha))
        resid = a * k + alpha * k ** (tt - 1) - k ** (ts - 1)
        scale = a * k + alpha * k ** (tt - 1) + k ** (ts - 1)
        assert abs(resid) <= 1e-12 * scale


@given(
    a=st.floats(min_value=1e-3, max_value=10.0),
    alpha=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_kappa_equation_property(a, alpha):
    k = C.constant_solution_kappa(C.make_params(5, a, alpha))
    resid = a * k + alpha * k ** (5.0 / 3.0) - k ** (7.0 / 3.0)
    assert abs(resid) <= 1e-11 * (a * k + alpha * k ** (5.0 / 3.0) + k ** (7.0 / 3.0))


def test_kappa_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        N = int(rng.integers(5, 8))
        a = float(10.0 ** rng.uniform(-2, 1))
        alpha = float(rng.uniform(0.0, 5.0))
        k_closed = C.constant_solution_kappa(C.make_params(N, a, alpha))
        k_bis = _kappa_by_bisection(N, a, alpha)
        assert math.isclose(k_closed, k_bis, rel_tol=1e-10)


def test_constant_energy_unit_case():
    p = C.make_params(5, 1.0, 0.0)
    assert math.isclose(C.constant_solution_energy(p, 1.0), 0.2, rel_tol=1e-14)
    assert math.isclose(C.I_alpha_of_one(p, 1.0), 1.0, rel_tol=1e-14)


def test_constant_energy_level_relation():
    rng = np.random.default_rng(3)
    for _ in range(200):
        N = int(rng.integers(5, 9))
        p = C.make_params(N, float(10.0 ** rng.uniform(-1, 1)), float(rng.uniform(0, 4)))
        vol = float(10.0 ** rng.uniform(-1, 1))
        phi = C.constant_solution_energy(p, vol)
        lvl = C.I_alpha_of_one(p, vol)
        assert math.isclose(lvl, (N * phi) ** (2.0 / N), rel_tol=1e-12)


def test_level_volume_scaling_and_monotonicity():
    p = C.make_params(5, 1.0, 0.7)
    base = C.I_alpha_of_one(p, 1.0)
    assert math.isclose(C.I_alpha_of_one(p, 32.0), base * 32.0**0.4, rel_tol=1e-13)
    levels = [C.I_alpha_of_one(C.make_params(5, 1.0, al), 2.0) for al in np.linspace(0, 5, 40)]
    assert all(x < y for x, y in zip(levels, levels[1:]))
    with pytest.raises(DomainError):
        C.I_alpha_of_one(p, 0.0)
    with pytest.raises(DomainError):
        C.constant_solution_energy(p, -1.0)


def test_level_of_one_is_reduced_level_of_volume_triple():
    # the constant function's level must agree with the scalar reduction
    # applied to its norm triple (a vol, alpha vol, vol)
    rng = np.random.default_rng(19)
    for _ in range(200):
        N = int(rng.integers(5, 9))
        a = float(10.0 ** rng.uniform(-1, 1))
        alpha = float(rng.uniform(0, 4))
        vol = float(10.0 ** rng.uniform(-1, 1))
        p = C.make_params(N, a, alpha)
        lhs = C.I_alpha_of_one(p, vol)
        rhs = NE.big_I(NE.NormTriple(a * vol, alpha * vol, vol, N))
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_snapshot_contents():
    snap = C.snapshot(5, 1.0)
    assert set(snap) == {"N", "S", "B", "A", "cbar1", "cbar2", "omega_N"}
    assert snap["N"] == 5
    assert math.isclose(snap["S"], S5, rel_tol=1e-13)
    assert math.isclose(snap["cbar1"], CBAR1_5, rel_tol=1e-13)


def test_ball_volume():
    assert math.isclose(C.ball_volume(5, 1.0), OMEGA5 / 5.0, rel_tol=1e-14)
    assert math.isclose(C.ball_volume(5, 2.0), OMEGA5 / 5.0 * 32.0, rel_tol=1e-14)
