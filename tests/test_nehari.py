import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab import nehari as NE
from neumannlab.errors import DegenerateInputError, DomainError


def random_triples(seed, count, n_choices=(5, 6, 7, 8)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        N = int(rng.choice(n_choices))
        a_bar = float(10.0 ** rng.uniform(-2, 2))
        b = float(10.0 ** rng.uniform(-3, 2)) if rng.random() < 0.8 else 0.0
        c = float(10.0 ** rng.uniform(-2, 2))
        out.append(NE.NormTriple(a_bar, b, c, N))
    return out


def test_worked_triple_dimension_six():
    tr = NE.NormTriple(3.0, 2.0, 1.0, 6)
    assert NE.project_t(tr) == pytest.approx(9.0, rel=1e-14)
    assert NE.psi(tr) == pytest.approx(72.9, rel=1e-13)
    assert NE.big_I(tr) == pytest.approx(7.5908939877157432, rel=1e-13)
    assert tr.delta == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    assert NE.lower_bound(tr) == pytest.approx(5.7712812921102037, rel=1e-13)
    assert tr.beta <= NE.lower_bound(tr) <= NE.big_I(tr)


def test_unit_triple_dimension_five():
    tr = NE.NormTriple(1.0, 0.0, 1.0, 5)
    assert NE.project_t(tr) == 1.0
    assert NE.psi_from_projection(tr) == pytest.approx(0.2, rel=1e-14)
    assert NE.big_I(tr) == pytest.approx(1.0, rel=1e-14)
    assert NE.big_I_product_form(tr) == pytest.approx(1.0, rel=1e-14)


def test_degenerate_and_domain_errors():
    with pytest.raises(DegenerateInputError):
        NE.NormTriple(1.0, 0.0, 0.0, 5)
    with pytest.raises(DegenerateInputError):
        NE.NormTriple(0.0, 0.0, 1.0, 5)
    with pytest.raises(DegenerateInputError):
        NE.NormTriple(1.0, -0.1, 1.0, 5)
    with pytest.raises(DomainError):
        NE.NormTriple(1.0, 0.0, 1.0, 4)


def test_energy_routes_agree_in_bulk():
    for tr in random_triples(101, 2000):
        direct = NE.psi_from_projection(tr)
        bracket = NE.psi(tr)
        dform = NE.psi_delta_form(tr)
        assert abs(bracket - direct) <= 1e-10 * abs(direct)
        assert abs(dform - bracket) <= 1e-12 * abs(bracket)
        level = NE.big_I(tr)
        assert abs(NE.big_I_product_form(tr) - level) <= 1e-12 * level


def test_level_bounds_in_bulk():
    for tr in random_triples(202, 2000):
        level = NE.big_I(tr)
        cbar = NE.upper_bound_constant(tr.N)
        tt = float(tr.exponents.two_tilde)
        lb = NE.lower_bound(tr)
        ub = tr.beta * (1.0 + 4.0 / tt * tr.delta + cbar * tr.delta**2)
        assert NE.upper_bound(tr) == ub
        assert tr.beta <= level * (1 + 1e-14)
        assert lb <= level * (1 + 1e-12)
        assert level <= ub * (1 + 1e-12)


def test_projection_stationarity_by_central_difference():
    for tr in random_triples(303, 2000):
        t = NE.project_t(tr)
        ts = float(tr.exponents.two_star)
        tt = float(tr.exponents.two_tilde)

        def free_energy(s):
            return 0.5 * tr.a_bar * s**2 + tr.b * s**tt / tt - tr.c * s**ts / ts

        h = 1e-5
        fd = (free_energy(t * (1 + h)) - free_energy(t * (1 - h))) / (2 * h * t)
        scale = tr.a_bar * t**2 + tr.b * t**tt + tr.c * t**ts
        assert abs(fd) * t <= 1e-9 * scale


def test_scale_invariance_of_level():
    rng = np.random.default_rng(404)
    for tr in random_triples(505, 500):
        level = NE.big_I(tr)
        for _ in range(4):
            s = float(10.0 ** rng.uniform(-3, 3))
            assert abs(NE.big_I(tr.scaled(s)) - level) <= 1e-12 * level


@given(
    a_bar=st.floats(min_value=1e-2, max_value=1e2),
    b=st.floats(min_value=0.0, max_value=1e2),
    c=st.floats(min_value=1e-2, max_value=1e2),
    N=st.integers(min_value=5, max_value=8),
)
@settings(max_examples=300, deadline=None)
def test_projection_solves_constraint_equation(a_bar, b, c, N):
    tr = NE.NormTriple(a_bar, b, c, N)
    t = NE.project_t(tr)
    ts = float(tr.exponents.two_star)
    tt = float(tr.exponents.two_tilde)
    lhs = a_bar * t + b * t ** (tt - 1)
    rhs = c * t ** (ts - 1)
    assert abs(lhs - rhs) <= 1e-10 * (lhs + rhs)


def test_level_monotone_in_trace_mass():
    for N in (5, 8):
        levels = [NE.big_I(NE.NormTriple(2.0, b, 3.0, N)) for b in np.linspace(0.0, 5.0, 60)]
        assert all(x < y for x, y in zip(levels, levels[1:]))


def test_energy_over_beta_expansion():
    for N in (5, 6, 7, 8):
        tt = 2.0 * (N - 1) / (N - 2)
        assert NE.energy_over_beta(0.0, N) == pytest.approx(1.0, rel=1e-14)
        h = 1e-6
        first = (NE.energy_over_beta(h, N) - NE.energy_over_beta(0.0, N)) / h
        assert first == pytest.approx(4.0 / tt, rel=1e-5)
        h = 1e-4
        second = (NE.energy_over_beta(2 * h, N) - 2 * NE.energy_over_beta(h, N) + 1.0) / h**2
        expected = (4.0 / tt) * (2.0 * N - 3.0) / (N - 1.0)
        assert second == pytest.approx(expected, rel=1e-3)
    with pytest.raises(DomainError):
        NE.energy_over_beta(-0.5, 5)
    arr = NE.energy_over_beta(np.linspace(0, 2, 7), 5)
    assert arr.shape == (7,)


def test_upper_bound_constant_dominates_everywhere():
    rng = np.random.default_rng(606)
    for N in (5, 6, 7, 8):
        cbar = NE.upper_bound_constant(N)
        tt = 2.0 * (N - 1) / (N - 2)
        asymptote = 4.0 / tt ** (2.0 / N)
        assert cbar > asymptote
        deltas = 10.0 ** rng.uniform(-6, 3, size=25000)
        lam = NE.energy_over_beta(deltas, N)
        bound = 1.0 + 4.0 / tt * deltas + cbar * deltas**2
        assert int(np.sum(lam > bound)) == 0
        assert NE.upper_bound_constant(N) == cbar  # cached, deterministic


def test_h_function_domain_and_special_cases():
    hp = NE.HParams(2.0, 0.5, 1.0, 0.25, 5)
    with pytest.raises(DomainError):
        NE.h_function(hp, -0.01)
    with pytest.raises(DomainError):
        NE.h_function(hp, 1.01)
    with pytest.raises(DomainError):
        NE.HParams(2.0, 0.5, 1.0, 1.5, 5)
    with pytest.raises(DegenerateInputError):
        NE.HParams(0.0, 0.5, 1.0, 0.5, 5)

    # nu_mass = 0 must drop the concentration term even when mu_mass > 0
    base = NE.HParams(2.0, 0.5, 3.0, 0.0, 5)
    plain = NE.HParams(2.0, 0.5, 0.0, 0.0, 5)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(NE.h_function(base, xs), NE.h_function(plain, xs), rtol=0, atol=0)


def test_h_function_pure_norm_closed_form():
    # gamma_bar = 0 and no concentration: h collapses to
    # 2^N beta^{N/2} x^{(N-2)/2} (1 + two_star/2)
    rng = np.random.default_rng(707)
    for _ in range(100):
        N = int(rng.integers(5, 9))
        ts = 2.0 * N / (N - 2)
        beta_bar = float(10.0 ** rng.uniform(-1, 1))
        hp = NE.HParams(beta_bar, 0.0, 0.0, 0.0, N)
        x = float(rng.uniform(0, 1))
        expected = 2.0**N * beta_bar ** (N / 2.0) * x ** ((N - 2) / 2.0) * (1.0 + ts / 2.0)
        assert NE.h_function(hp, x) == pytest.approx(expected, rel=1e-12)


def test_h_at_one_matches_reduced_level():
    # with all mass kept by the weak limit, the candidate level
    # h(1)^{2/N} / (4 two_tilde^{2/N}) is exactly the reduced level of
    # the triple (beta_bar, gamma_bar, 1)
    rng = np.random.default_rng(808)
    for _ in range(300):
        N = int(rng.integers(5, 9))
        tt = 2.0 * (N - 1) / (N - 2)
        beta_bar = float(10.0 ** rng.uniform(-1, 1))
        gamma_bar = float(10.0 ** rng.uniform(-2, 1))
        hp = NE.HParams(beta_bar, gamma_bar, 0.0, 0.0, N)
        tr = NE.NormTriple(beta_bar, gamma_bar, 1.0, N)
        lhs = NE.h_function(hp, 1.0) ** (2.0 / N) / (4.0 * tt ** (2.0 / N))
        assert lhs == pytest.approx(NE.big_I(tr), rel=1e-10)


def test_h_minimum_sits_at_an_endpoint():
    rng = np.random.default_rng(909)
    for _ in range(100):
        N = int(rng.integers(5, 9))
        hp = NE.HParams(
            float(10.0 ** rng.uniform(-1, 1)),
            float(10.0 ** rng.uniform(-2, 1)) if rng.random() < 0.7 else 0.0,
            float(10.0 ** rng.uniform(-1, 1)),
            float(rng.uniform(0.0, 1.0)),
            N,
        )
        ok, argmin = NE.h_endpoint_minimum_check(hp, 2048)
        assert ok, (hp, argmin)
        assert argmin in (0.0, 1.0) or argmin < 2e-3 or argmin > 1 - 2e-3
    with pytest.raises(DomainError):
        NE.h_endpoint_minimum_check(hp, 999)


def test_calculus_inequality_holds_and_is_tight():
    rng = np.random.default_rng(111)
    etas = np.concatenate([rng.uniform(2.0 + 1e-6, 8.0, 40), [7.0 / 3.0, 3.0, 4.0]])
    for eta in etas:
        z = np.concatenate([rng.uniform(-1.0, 10.0, 3000), [-1.0, 0.0, 1e-12]])
        lhs, rhs = NE.calculus_inequality(float(eta), z)
        assert int(np.sum(lhs > rhs + 1e-12 * np.maximum(1.0, np.abs(rhs)))) == 0
    lhs0, rhs0 = NE.calculus_inequality(3.0, 0.0)
    assert lhs0 == rhs0 == 1.0
    lhs1, rhs1 = NE.calculus_inequality(3.0, -1.0)
    assert lhs1 == pytest.approx(rhs1, abs=1e-15)
    with pytest.raises(DomainError):
        NE.calculus_inequality(2.0, 0.5)
    with pytest.raises(DomainError):
        NE.calculus_inequality(3.0, -1.5)


def test_bernoulli_inequality_holds():
    rng = np.random.default_rng(222)
    for eta in np.concatenate([rng.uniform(1e-3, 8.0, 40), [0.4, 1.0, 2.0]]):
        z = np.concatenate([rng.uniform(-1.0, 10.0, 3000), [-1.0, 0.0]])
        lhs, rhs = NE.bernoulli_inequality(float(eta), z)
        assert int(np.sum(lhs < rhs - 1e-12 * np.maximum(1.0, np.abs(rhs)))) == 0
    lhs, rhs = NE.bernoulli_inequality(2.5, 0.0)
    assert lhs == rhs == 1.0
    with pytest.raises(DomainError):
        NE.bernoulli_inequality(0.0, 0.5)
    with pytest.raises(DomainError):
        NE.bernoulli_inequality(1.0, -2.0)
