"""Descent machinery: gradients, multistart minimization, sweeps, threshold."""

import numpy as np
import pytest

from neumannlab.constants import (
    I_alpha_of_one,
    ball_volume,
    constant_solution_kappa,
    curvature_A,
    make_params,
    sobolev_S,
)
from neumannlab.domain_grid import AxiGrid, Field, build_grid, interpolate_instanton, norms
from neumannlab.errors import (
    BracketError,
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    NumericalFailure,
)
from neumannlab.instanton import CapQuadrature, InstantonParams, trial_energy
from neumannlab.nehari import project_t
from neumannlab.solver import (
    SolveConfig,
    _descend,
    _energy_solver,
    estimate_alpha0,
    euler_lagrange_residual,
    evaluate_I,
    fit_instanton,
    gradient_I,
    minimize,
    sweep_alpha,
)

LIMIT5 = sobolev_S(5) / 2.0 ** (2.0 / 5.0)  # 11.225329987851262


@pytest.fixture(scope="module")
def grid48():
    return build_grid(5, 1.0, 48, 48, stretch=2.0)


@pytest.fixture(scope="module")
def grid64():
    return build_grid(5, 1.0, 64, 64, stretch=3.0)


def quick_config(**kw):
    base = dict(max_iters=200, grad_tol=3e-4, n_starts=4, seed=0)
    base.update(kw)
    return SolveConfig(**base)


class TestConfigValidation:
    def test_good(self):
        SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=1, seed=3)

    def test_bad(self):
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=0, grad_tol=1e-5, n_starts=1, seed=0)
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=0.0, n_starts=1, seed=0)
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=0, seed=0)
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=1, seed=0, threshold_slack=0.5)


    def test_negative_seed(self):
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=1, seed=-1)


def count_kernel_passes(monkeypatch):
    calls = []
    real = AxiGrid.power_masses

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("gradients", False))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(AxiGrid, "power_masses", counted)
    return calls


class TestKernelPasses:
    def test_gradient_is_one_pass(self, grid48, monkeypatch):
        p = make_params(5, 1.0, 2.0)
        f = interpolate_instanton(grid48, InstantonParams(0.3))
        calls = count_kernel_passes(monkeypatch)
        gradient_I(f, p)
        assert calls == [True]

    def test_residual_is_one_pass(self, grid48, monkeypatch):
        p = make_params(5, 1.0, 2.0)
        f = interpolate_instanton(grid48, InstantonParams(0.3))
        solve = _energy_solver(grid48, p.a)
        calls = count_kernel_passes(monkeypatch)
        euler_lagrange_residual(f, p, solve)
        assert calls == [True]


class TestDescentBlowup:
    def test_nonfinite_direction(self, grid48):
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        with pytest.raises(NumericalFailure, match="direction"):
            _descend(start, p, quick_config(), lambda arr: np.full_like(arr, np.inf))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_trial(self, grid48):
        # a finite direction so large that the trial step overflows
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        with pytest.raises(NumericalFailure, match="trial"):
            _descend(start, p, quick_config(), lambda arr: 1e300 * arr / np.abs(arr).max())


class TestEvaluateI:
    def test_constant_matches_closed_form(self, grid48):
        p = make_params(5, 1.0, 0.8)
        got = evaluate_I(Field.constant(grid48, 1.0), p)
        assert got == pytest.approx(I_alpha_of_one(p, ball_volume(5, 1.0)), rel=1e-12)

    def test_scaling_invariance(self, grid48):
        p = make_params(5, 1.0, 0.8)
        rng = np.random.default_rng(0)
        u = 0.5 + rng.random((48, 48))
        lvl1 = evaluate_I(Field(grid48, u), p)
        lvl7 = evaluate_I(Field(grid48, 7.0 * u), p)
        assert lvl7 == pytest.approx(lvl1, rel=1e-12)

    def test_small_eps_instanton_below_limit(self):
        # boundary bubble at alpha = 0 must undercut the half-space level
        g = build_grid(5, 1.0, 128, 128, stretch=3.0)
        p = make_params(5, 1.0, 0.0)
        f = interpolate_instanton(g, InstantonParams(eps=0.05))
        assert evaluate_I(f, p) < LIMIT5

    def test_zero_field(self, grid48):
        with pytest.raises(DegenerateInputError):
            evaluate_I(Field.constant(grid48, 0.0), make_params(5, 1.0, 0.0))


class TestGradientI:
    def test_matches_finite_differences(self, grid48):
        p = make_params(5, 1.0, 0.7)
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = 0.6 + 0.3 * rng.random((48, 48))
            f = Field(grid48, u)
            ga = gradient_I(f, p).values
            base_scale = float(np.sqrt(np.mean(u**2)))
            h = 1e-5 * base_scale
            for _ in range(5):
                d = rng.standard_normal((48, 48))
                fp = evaluate_I(Field(grid48, u + h * d), p)
                fm = evaluate_I(Field(grid48, u - h * d), p)
                fd = (fp - fm) / (2.0 * h)
                an = float(np.sum(ga * d))
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_homogeneity_direction_annihilated(self, grid48):
        # I is degree-0 homogeneous, so the derivative along u vanishes
        p = make_params(5, 1.0, 1.2)
        rng = np.random.default_rng(8)
        u = 0.5 + rng.random((48, 48))
        ga = gradient_I(Field(grid48, u), p).values
        scale = float(np.sqrt(np.sum(ga**2) * np.sum(u**2)))
        assert abs(float(np.sum(ga * u))) <= 1e-10 * max(scale, 1.0)

    def test_constant_solution_is_critical(self, grid48):
        p = make_params(5, 1.0, 0.9)
        kap = constant_solution_kappa(p)
        f = Field.constant(grid48, kap)
        ga = gradient_I(f, p).values
        solve = _energy_solver(grid48, p.a)
        dual = float(np.sqrt(max(np.sum(ga * solve(ga)), 0.0)))
        assert dual <= 10.0 * 1e-6


class TestMinimize:
    def test_alpha0_constant_wins(self, grid64):
        p = make_params(5, 1.0, 0.0)
        res = minimize(p, quick_config(), grid64)
        want = I_alpha_of_one(p, ball_volume(5, 1.0))
        assert res.S_alpha_est <= want * (1.0 + 1e-12)
        assert res.S_alpha_est < LIMIT5 * (1.0 + 1e-3)
        assert res.converged
        assert res.S_alpha_est == pytest.approx(want, rel=1e-9)

    def test_dominates_every_start(self, grid64):
        for alpha in (0.0, 3.0):
            res = minimize(make_params(5, 1.0, alpha), quick_config(), grid64)
            assert res.S_alpha_est <= min(res.start_values) * (1.0 + 1e-12)

    def test_upper_bound_chain(self, grid64):
        # discrete minimum under the constant level exactly, and under the
        # continuum trial curve up to quadrature error of the coarse grid
        p = make_params(5, 1.0, 3.0)
        res = minimize(p, quick_config(), grid64)
        assert res.S_alpha_est <= I_alpha_of_one(p, ball_volume(5, 1.0)) + 1e-12
        quad = CapQuadrature(N=5, n_rho=80, n_theta=80, radius=1.0)
        floor = 2.0 * grid64.min_boundary_spacing
        for frac in (0.3, 0.1, 0.03):
            eps = max(frac * 1.0, floor)
            level, _ = trial_energy(p, InstantonParams(eps=eps), quad)
            assert res.S_alpha_est <= level * 1.02

    def test_result_invariant_level_of_triple(self, grid64):
        from neumannlab.nehari import big_I

        res = minimize(make_params(5, 1.0, 1.0), quick_config(), grid64)
        assert res.S_alpha_est == pytest.approx(big_I(res.triple), rel=1e-13)

    def test_el_residual_small_when_converged(self, grid64):
        cfg = quick_config()
        res = minimize(make_params(5, 1.0, 3.0), cfg, grid64)
        if res.converged:
            assert res.el_residual <= 10.0 * cfg.grad_tol

    def test_nonconvergence_flagged_not_raised(self, grid64):
        cfg = quick_config(max_iters=2, grad_tol=1e-14)
        res = minimize(make_params(5, 1.0, 3.0), cfg, grid64)
        assert not res.converged
        assert np.isfinite(res.S_alpha_est)

    def test_deterministic(self, grid64):
        cfg = quick_config(max_iters=60)
        p = make_params(5, 1.0, 2.6)
        r1 = minimize(p, cfg, grid64)
        r2 = minimize(p, cfg, grid64)
        assert r1.S_alpha_est == r2.S_alpha_est  # bit identical

    def test_threads_agree_with_serial(self, grid64):
        cfg = quick_config(max_iters=60)
        p = make_params(5, 1.0, 2.6)
        r1 = minimize(p, cfg, grid64, threads=1)
        r2 = minimize(p, cfg, grid64, threads=3)
        assert r1.S_alpha_est == r2.S_alpha_est

    def test_concentration_diagnostics(self, grid64):
        res = minimize(make_params(5, 1.0, 3.0), quick_config(), grid64)
        d = res.diagnostics
        assert d.boundary_flag
        assert d.delta_M == pytest.approx(d.M ** (-2.0 / 3.0), rel=1e-13)
        assert d.M > 10.0  # concentrating, far above the constant branch
        assert d.fit is not None and d.w_norm >= 0.0


class TestSweep:
    def test_validation(self, grid48):
        cfg = quick_config()
        base = make_params(5, 1.0, 0.0)
        with pytest.raises(DomainError):
            sweep_alpha(base, [], cfg, grid48)
        with pytest.raises(DomainError):
            sweep_alpha(base, [1.0, 0.5], cfg, grid48)
        with pytest.raises(DomainError):
            sweep_alpha(base, [-0.5, 1.0], cfg, grid48)
        with pytest.raises(DomainError):
            sweep_alpha(base, [0.5, 0.5], cfg, grid48)

    def test_short_sweep_monotone(self, grid64):
        cfg = quick_config()
        sw = sweep_alpha(make_params(5, 1.0, 0.0), [0.0, 0.8, 1.6, 2.8], cfg, grid64)
        assert sw.monotone_violations == ()
        levels = sw.levels()
        assert np.all(np.diff(levels) >= -1e-6)
        # alpha = 0 entry must reproduce a cold minimize at alpha = 0
        cold = minimize(make_params(5, 1.0, 0.0), cfg, grid64)
        assert levels[0] == pytest.approx(cold.S_alpha_est, rel=1e-10)


class TestFitInstanton:
    def test_self_fit(self):
        g = build_grid(5, 1.0, 128, 128, stretch=3.0)
        f = interpolate_instanton(g, InstantonParams(eps=0.05))
        fit = fit_instanton(f)
        assert fit.params is not None
        assert fit.params.amplitude == pytest.approx(1.0, abs=1e-3)
        assert fit.params.eps == pytest.approx(0.05, abs=1e-3)
        assert fit.w_norm <= 1e-6 * np.sqrt(g.gradient_energy(f.values))

    def test_noisy_fit(self):
        g = build_grid(5, 1.0, 128, 128, stretch=3.0)
        f = interpolate_instanton(g, InstantonParams(eps=0.05))
        rng = np.random.default_rng(13)
        noisy = Field(g, f.values * (1.0 + 0.01 * rng.standard_normal(f.values.shape)))
        fit = fit_instanton(noisy)
        assert fit.params is not None
        assert fit.params.amplitude == pytest.approx(1.0, abs=2e-2)

    def test_interior_maximum_skipped(self, grid48):
        vals = np.ones((48, 48))
        vals[20, 20] = 5.0
        fit = fit_instanton(Field(grid48, vals))
        assert fit.params is None
        assert not fit.boundary
        assert np.isnan(fit.w_norm)
        assert "skipped" in fit.message

    def test_south_pole_mirrored(self):
        g = build_grid(5, 1.0, 128, 128)
        f = interpolate_instanton(g, InstantonParams(eps=0.08))
        mirrored = Field(g, f.values[:, ::-1])
        fit = fit_instanton(mirrored)
        assert fit.params is not None
        assert fit.params.eps == pytest.approx(0.08, abs=1e-3)


class TestEulerLagrange:
    def test_constant_solution_residual_zero(self, grid48):
        p = make_params(5, 1.0, 0.6)
        kap = constant_solution_kappa(p)
        res = euler_lagrange_residual(Field.constant(grid48, kap), p)
        assert res <= 1e-10

    def test_scaling_insensitive(self, grid48):
        # residual is evaluated at the Nehari rescaling, so the input scale
        # must not matter
        p = make_params(5, 1.0, 0.6)
        rng = np.random.default_rng(2)
        u = 0.5 + rng.random((48, 48))
        r1 = euler_lagrange_residual(Field(grid48, u), p)
        r2 = euler_lagrange_residual(Field(grid48, 5.0 * u), p)
        assert r1 == pytest.approx(r2, rel=1e-8)


@pytest.fixture(scope="module")
def alpha0_run(grid64):
    cfg = quick_config(max_iters=300)
    return estimate_alpha0(make_params(5, 1.0, 0.0), cfg, grid64, (2.0, 3.5))


class TestEstimateAlpha0:
    def test_bracket_certificate(self, alpha0_run):
        out = alpha0_run
        lo_a, lo_s = out.certificate_below
        hi_a, hi_s = out.certificate_above
        assert lo_s < out.threshold <= hi_s
        assert lo_a <= out.alpha_hat <= hi_a
        assert hi_a - lo_a <= 1.1e-3 * out.alpha_hat
        assert out.threshold == pytest.approx(0.99 * LIMIT5, rel=1e-14)
        # analytic lower bounds reported alongside
        assert out.analytic_curvature_bound == pytest.approx(curvature_A(5), rel=1e-12)
        assert out.analytic_amax_bound == pytest.approx(2.4586, abs=2e-3)
        assert len(out.evaluations) >= 8

    def test_alpha_hat_in_expected_window(self, alpha0_run):
        # biased-low estimate still lands between the curvature bound and
        # a bit past the constant-trial bound
        assert curvature_A(5) < alpha0_run.alpha_hat < alpha0_run.analytic_amax_bound + 0.3

    def test_amax_bound_matches_independent_crossing(self, alpha0_run):
        # recompute the constant-function bound by root finding on the
        # closed-form level
        from scipy.optimize import brentq

        vol = ball_volume(5, 1.0)

        def excess(alpha):
            return I_alpha_of_one(make_params(5, 1.0, alpha), vol) - LIMIT5

        want = brentq(excess, 0.0, 10.0, xtol=1e-12)
        assert alpha0_run.analytic_amax_bound == pytest.approx(want, rel=1e-9)

    def test_bad_brackets(self, grid48):
        cfg = quick_config(max_iters=60)
        base = make_params(5, 1.0, 0.0)
        with pytest.raises(DomainError):
            estimate_alpha0(base, cfg, grid48, (2.0, 1.0))
        with pytest.raises(BracketError):
            estimate_alpha0(base, cfg, grid48, (0.1, 0.6))  # both sides below
