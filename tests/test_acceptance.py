"""Package acceptance gates.

One test per advertised guarantee, each at its stated tolerance and,
where stated, its runtime ceiling.  The expensive variational battery
(256 x 256 grid, 21-point sweep, threshold bisection) runs once in a
module fixture; its sub-checks each read the shared result so the whole
file stays within the half-hour budget.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from neumannlab.constants import (
    Exponents,
    I_alpha_of_one,
    ball_volume,
    cbar_coefficients,
    constant_solution_energy,
    constant_solution_kappa,
    curvature_A,
    gamma_fn,
    make_params,
    sobolev_S,
    sphere_area,
    talenti_B,
)
from neumannlab.domain_grid import Field, build_grid, norms
from neumannlab.instanton import (
    expansion_suite,
    radial_gradient_integral,
    radial_integral,
)
from neumannlab.nehari import (
    HParams,
    NormTriple,
    bernoulli_inequality,
    big_I,
    calculus_inequality,
    h_endpoint_minimum_check,
    lower_bound,
    project_t,
    psi,
    psi_delta_form,
    psi_from_projection,
    upper_bound_constant,
)
from neumannlab.solver import (
    SolveConfig,
    _energy_solver,
    estimate_alpha0,
    evaluate_I,
    gradient_I,
    minimize,
    sweep_alpha,
)

LIMIT5 = sobolev_S(5) / 2.0 ** (2.0 / 5.0)
EPS_LADDER = [0.00078125, 0.0015625, 0.003125, 0.00625, 0.0125]


def test_criterion_1_constant_identities():
    t0 = time.perf_counter()
    for N in range(5, 13):
        S = sobolev_S(N)
        assert talenti_B(N) == pytest.approx(S ** (N / 2.0), rel=1e-12)
        # curvature_A already cross-checks its two Gamma reductions
        # internally at 1e-12; recompute one of them here so the
        # agreement is asserted in this file, not just trusted
        reduced = (
            (N - 1)
            / N
            / math.sqrt(math.pi)
            * gamma_fn((N - 3) / 2.0)
            / gamma_fn((N - 2) / 2.0)
        )
        raw = (
            2.0
            / N
            * (sphere_area(N - 1) / sphere_area(N))
            * gamma_fn((N + 1) / 2.0)
            * gamma_fn((N - 3) / 2.0)
            / (gamma_fn(N / 2.0) * gamma_fn((N - 2) / 2.0))
        )
        assert raw == pytest.approx(reduced, rel=1e-12)
        assert curvature_A(N) == pytest.approx(reduced, rel=1e-12)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_radial_quadrature_oracle():
    t0 = time.perf_counter()
    S52 = sobolev_S(5) ** 2.5
    ex = Exponents(5)
    assert radial_integral(float(ex.two_star), 5) == pytest.approx(S52, rel=1e-7)
    assert radial_gradient_integral(5) == pytest.approx(S52, rel=1e-7)
    tt = float(ex.two_tilde)
    assert radial_integral(tt, 5) == pytest.approx(tt * talenti_B(5), rel=1e-7)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_expansion_recovery():
    t0 = time.perf_counter()
    report = expansion_suite(5, 1.0, EPS_LADDER)
    c1_expected = {
        "gradient_mass": -cbar_coefficients(5, 1.0)[0],
        "critical_mass": -cbar_coefficients(5, 1.0)[1],
        "trace_mass": float(Exponents(5).two_tilde) / 2.0 * talenti_B(5),
        "level_ratio": -(2.0 ** (3.0 / 5.0)) * sobolev_S(5) * curvature_A(5),
    }
    for name, want in c1_expected.items():
        got = report.record(name).c1
        tol = 0.03 if name == "level_ratio" else 0.02
        assert abs(got - want) <= tol * abs(want), (name, got, want)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_nehari_algebra_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(414)
    sandwich_violations = 0
    for N in (5, 6, 7, 8):
        ex = Exponents(N)
        ts, tt = float(ex.two_star), float(ex.two_tilde)
        cbar = upper_bound_constant(N)
        a_bars = 10.0 ** rng.uniform(-2, 2, 10_000)
        cs = 10.0 ** rng.uniform(-2, 2, 10_000)
        bs = 10.0 ** rng.uniform(-3, 1, 10_000)
        bs[rng.random(10_000) < 0.1] = 0.0
        scales = 10.0 ** rng.uniform(-1, 1, 10_000)
        for a_bar, b, c, s in zip(a_bars, bs, cs, scales):
            triple = NormTriple(float(a_bar), float(b), float(c), N)
            t = project_t(triple)
            resid = a_bar * t**2 + b * t**tt - c * t**ts
            assert abs(resid) <= 1e-9 * max(a_bar * t**2, c * t**ts)
            p = psi(triple)
            assert psi_delta_form(triple) == pytest.approx(p, rel=1e-10)
            assert psi_from_projection(triple) == pytest.approx(p, rel=1e-10)
            level = big_I(triple)
            lb = lower_bound(triple)
            ub = triple.beta * (1.0 + (4.0 / tt) * triple.delta + cbar * triple.delta**2)
            if level < lb * (1.0 - 1e-12) or level > ub * (1.0 + 1e-12):
                sandwich_violations += 1
            assert big_I(triple.scaled(float(s))) == pytest.approx(level, rel=1e-12)
    assert sandwich_violations == 0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_analytic_lemma_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(515)

    calculus_violations = 0
    for eta in rng.uniform(2.0 + 1e-9, 8.0, 100):
        z = np.concatenate([rng.uniform(-1.0, 10.0, 500), 10.0 ** rng.uniform(-6, 2, 500)])
        lhs, rhs = calculus_inequality(float(eta), z)
        calculus_violations += int(np.sum(lhs > rhs + 1e-12 * np.maximum(1.0, np.abs(rhs))))
    assert calculus_violations == 0

    bernoulli_violations = 0
    for eta in rng.uniform(1e-3, 10.0, 100):
        z = np.concatenate([rng.uniform(-1.0, 10.0, 500), 10.0 ** rng.uniform(-6, 2, 500)])
        lhs, rhs = bernoulli_inequality(float(eta), z)
        bernoulli_violations += int(np.sum(lhs < rhs - 1e-12 * np.maximum(1.0, np.abs(rhs))))
    assert bernoulli_violations == 0

    endpoint_violations = 0
    for _ in range(1000):
        hp = HParams(
            float(10.0 ** rng.uniform(-1, 1)),
            float(10.0 ** rng.uniform(-2, 1)) if rng.random() < 0.7 else 0.0,
            float(10.0 ** rng.uniform(-1, 1)),
            float(rng.uniform(0.0, 1.0)),
            int(rng.integers(5, 9)),
        )
        ok, _ = h_endpoint_minimum_check(hp, 10_000)
        endpoint_violations += int(not ok)
    assert endpoint_violations == 0
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    grid = build_grid(5, 1.0, 48, 48, 2.0)
    rng = np.random.default_rng(616)
    checked = 0
    for fi in range(10):
        p = make_params(5, 1.0, float(rng.uniform(0.0, 3.0)))
        u = (0.5 + rng.random((48, 48))) * 10.0 ** rng.uniform(-1, 1)
        field = Field(grid, u)
        g = gradient_I(field, p)[1]
        h = 1e-5 * float(np.sqrt(np.mean(u**2)))
        for di in range(10):
            d = rng.standard_normal((48, 48))
            plus = evaluate_I(Field(grid, u + h * d), p)
            minus = evaluate_I(Field(grid, u - h * d), p)
            fd = (plus - minus) / (2.0 * h)
            an = float(np.sum(g * d))
            assert abs(an - fd) <= 1e-5 * max(abs(fd), 1e-12), (fi, di)
            checked += 1
    assert checked == 100
    assert time.perf_counter() - t0 < 60.0


@pytest.fixture(scope="module")
def battery():
    """The full variational run: 21-point sweep plus threshold bisection."""
    t0 = time.perf_counter()
    grid = build_grid(5, 1.0, 256, 256, 4.0)
    assert grid.n_r >= 256 and grid.n_theta >= 256
    params = make_params(5, 1.0, 0.0)
    config = SolveConfig(max_iters=500, grad_tol=1e-4, n_starts=4, seed=0)
    alphas = [float(a) for a in np.linspace(0.0, 3.5, 21)]
    swept = sweep_alpha(params, alphas, config, grid)
    a0 = estimate_alpha0(params, config, grid, (2.0, 3.5))
    return SimpleNamespace(
        grid=grid,
        params=params,
        config=config,
        alphas=alphas,
        swept=swept,
        a0=a0,
        wall=time.perf_counter() - t0,
    )


def test_criterion_7a_alpha_zero_below_limit(battery):
    s0 = battery.swept.results[0].S_alpha_est
    assert s0 <= LIMIT5 * (1.0 - 0.001)


def test_criterion_7b_sweep_nondecreasing(battery):
    assert len(battery.swept.results) == 21
    assert battery.swept.monotone_violations == ()


def test_criterion_7c_saturation_at_large_alpha(battery):
    s_end = battery.swept.results[-1].S_alpha_est
    assert abs(s_end - LIMIT5) <= 0.01 * LIMIT5


def test_criterion_7d_threshold_certificate_and_bounds(battery):
    a0 = battery.a0
    lo_a, lo_s = a0.certificate_below
    hi_a, hi_s = a0.certificate_above
    assert lo_a < hi_a
    assert lo_s < a0.threshold <= hi_s
    assert lo_a <= a0.alpha_hat <= hi_a
    # reported analytic bounds against independent evaluations
    assert a0.analytic_curvature_bound == pytest.approx(curvature_A(5) * 1.0, rel=1e-12)
    vol = ball_volume(5, 1.0)
    amax = brentq(
        lambda al: I_alpha_of_one(make_params(5, 1.0, al), vol) - LIMIT5, 1.0, 3.5
    )
    assert a0.analytic_amax_bound == pytest.approx(amax, rel=1e-9)


def test_criterion_7e_boundary_concentration_near_threshold(battery):
    step = battery.alphas[1] - battery.alphas[0]
    witness = None
    for alpha, res in zip(battery.alphas, battery.swept.results):
        if alpha > battery.a0.alpha_hat and res.diagnostics.boundary_flag:
            witness = (alpha, res)
            break
    assert witness is not None, "no boundary-concentrating minimizer past alpha_hat"
    alpha_w, res_w = witness
    # concentration sets in within two sweep steps of the crossing
    assert alpha_w - battery.a0.alpha_hat <= 2.0 * step + 1e-9
    d = res_w.diagnostics
    assert d.fit is not None
    rep = norms(res_w.minimizer, make_params(5, 1.0, alpha_w))
    assert d.w_norm <= 0.2 * math.sqrt(rep.triple.a_bar)


def test_criterion_7_runtime(battery):
    assert battery.wall < 1800.0


def test_criterion_8_constant_solution_checks():
    t0 = time.perf_counter()
    grid = build_grid(5, 1.0, 64, 64, 2.0)
    vol = ball_volume(5, 1.0)
    # a fixed tolerance, well below the solver's default grad_tol, so the
    # bound below stays 1e-5
    default_tol = 1e-6
    for alpha in (0.3, 1.2, 2.0):
        p = make_params(5, 1.0, alpha)
        kap = constant_solution_kappa(p)
        ts, tt = float(p.exponents.two_star), float(p.exponents.two_tilde)
        resid = p.a * kap - kap ** (ts - 1.0) + alpha * kap ** (tt - 1.0)
        assert abs(resid) <= 1e-12 * p.a * kap
        f = Field.constant(grid, kap)
        rep = norms(f, p)
        phi_grid = rep.triple.a_bar / 2.0 + rep.triple.b / tt - rep.triple.c / ts
        assert phi_grid == pytest.approx(constant_solution_energy(p, vol), rel=1e-8)
        g = gradient_I(f, p)[1]
        solve = _energy_solver(grid, p.a)
        dual = float(np.sqrt(max(np.sum(g * solve(g)), 0.0)))
        assert dual <= 10.0 * default_tol
    assert time.perf_counter() - t0 < 10.0
