"""Descent machinery: gradients, multistart minimization, sweeps, threshold."""

import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.sparse.linalg import splu

from neumannlab.constants import (
    I_alpha_of_one,
    ball_volume,
    constant_solution_kappa,
    curvature_A,
    make_params,
    sobolev_S,
)
from neumannlab.domain_grid import (
    AxiGrid,
    Field,
    build_grid,
    energy_operator,
    interpolate_instanton,
    norms,
)
from neumannlab.errors import (
    BracketError,
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    NumericalFailure,
    ResolutionError,
)
from neumannlab.instanton import CapQuadrature, InstantonParams, trial_energy, u_value
from neumannlab.nehari import project_t, psi_from_projection
from neumannlab import solver
from neumannlab.solver import (
    Descent,
    SolveConfig,
    TIE_RTOL,
    P_SPECTRUM,
    Q_RTOL,
    _amax_bound,
    _descend,
    _dual_norm,
    _energy_solver,
    _lbfgs_direction,
    _minimize_over_starts,
    _separable_inverse,
    estimate_alpha0,
    euler_lagrange_residual,
    evaluate_I,
    fit_instanton,
    gradient_I,
    minimize,
    sweep_alpha,
)

LIMIT5 = sobolev_S(5) / 2.0 ** (2.0 / 5.0)  # 11.225329987851262

# a one-thread stand-in for the run's worker pool
SERIAL = SimpleNamespace(map=map)


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
        SolveConfig(max_iters=np.int64(10), grad_tol=np.float64(1e-5), seed=np.int32(3))

    def test_bad(self):
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=0, grad_tol=1e-5, n_starts=1, seed=0)
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=0.0, n_starts=1, seed=0)
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=0, seed=0)
        with pytest.raises(ConfigurationError, match="tau"):
            SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=1, seed=0, tau=0.5)
        with pytest.raises(ConfigurationError, match="threads"):
            SolveConfig(threads=0)
        # types, not only ranges: an infinite tolerance would mark every
        # start converged at once, and a float cap never stops a descent
        for key, value in (
            ("grad_tol", float("inf")),
            ("grad_tol", float("nan")),
            ("max_iters", 1.5),
            ("threads", True),
            ("n_starts", 2.5),
            ("seed", 1.5),
            ("tau", "0.01"),
        ):
            with pytest.raises(ConfigurationError, match=key):
                SolveConfig(**{key: value})


    def test_negative_seed(self):
        with pytest.raises(ConfigurationError):
            SolveConfig(max_iters=10, grad_tol=1e-5, n_starts=1, seed=-1)


def count_kernel_passes(monkeypatch):
    """One entry per power-mass pass, in order: False when the pass is
    made, True once its pullback is taken."""
    calls = []
    real = AxiGrid.power_masses

    def counted(self, values):
        masses, pullback = real(self, values)
        k = len(calls)
        calls.append(False)

        def taken(*weights):
            calls[k] = True
            return pullback(*weights)

        return masses, taken

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

    def test_gradient_pass_is_one_product_each_way(self, grid48, monkeypatch):
        # one power gives the three masses; the first variation is linear
        # in their derivatives, so the gradient pass needs no other
        p = make_params(5, 1.0, 2.0)
        log = []
        for name in ("cbrt", "power"):
            real = getattr(np, name)
            monkeypatch.setattr(
                np, name, lambda *a, real=real, name=name, **k: log.append(name) or real(*a, **k)
            )
        values = interpolate_instanton(grid48, InstantonParams(0.3)).values
        got = gradient_I(Field(grid48, values), p)[1]
        assert log == ["cbrt"]
        log.clear()
        norms(Field(grid48, values), p)
        assert log == ["cbrt"]
        monkeypatch.undo()
        assert np.array_equal(got, gradient_I(Field(grid48, values), p)[1])

    def test_descent_start_is_one_pass(self, grid48, monkeypatch):
        # every descent pass is a derivative pass, one per evaluated point:
        # the clipped start and each line-search trial go through gradient_I
        # once, and an accepted trial's gradient is rescaled, not recomputed
        p = make_params(5, 1.0, 2.0)
        f = interpolate_instanton(grid48, InstantonParams(0.3))
        solve = _energy_solver(grid48, p.a)
        points = []
        real = solver.gradient_I
        monkeypatch.setattr(
            solver, "gradient_I", lambda field, params: points.append(field) or real(field, params)
        )
        calls = count_kernel_passes(monkeypatch)
        out = _descend(f, p, quick_config(max_iters=5), solve)
        assert out.iterations == 5
        assert len(points) > out.iterations
        assert calls == [True] * len(points)

    def test_descent_makes_no_norms_pass(self, grid48, monkeypatch):
        p = make_params(5, 1.0, 2.0)
        f = interpolate_instanton(grid48, InstantonParams(0.3))
        solve = _energy_solver(grid48, p.a)

        def refuse(*args, **kwargs):
            raise AssertionError("the descent called norms")

        monkeypatch.setattr(solver, "norms", refuse)
        out = _descend(f, p, quick_config(max_iters=5), solve)
        assert out.iterations == 5


class TestDescentBlowup:
    def test_nonfinite_direction(self, grid48):
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        with pytest.raises(NumericalFailure, match="direction"):
            _descend(start, p, quick_config(), lambda arr: np.full_like(arr, np.inf))

    def test_nonfinite_lbfgs_direction(self, grid48, monkeypatch):
        # Q^{-1} g is finite, but the two-loop recursion's product is not
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        calls = []

        def direction(garr, zarr, history):
            calls.append(zarr)
            return np.full_like(zarr, np.inf)

        monkeypatch.setattr(solver, "_lbfgs_direction", direction)
        with pytest.raises(NumericalFailure, match="descent direction is not finite at iteration 1"):
            _descend(start, p, quick_config(), _energy_solver(grid48, p.a))
        assert len(calls) == 1 and np.all(np.isfinite(calls[0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("scale", [1e300, 1e150, 1e60], ids=["1e300", "1e150", "1e60"])
    def test_overflowing_trial(self, grid48, scale):
        # a finite direction so large that the trial step overflows (1e300)
        # fails the descent; one whose trial moves are finite but whose
        # powers overflow gives trials with no finite level, which the line
        # search rejects, and the descent stops where it started
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        solve = lambda arr: scale * arr / np.abs(arr).max()
        if scale == 1e300:
            with pytest.raises(NumericalFailure, match="trial"):
                _descend(start, p, quick_config(), solve)
            return
        out = _descend(start, p, quick_config(), solve)
        assert (out.stop_reason, out.iterations) == ("line_search", 0)
        assert out.level == out.start_level

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_nonfinite_start_stops_before_any_solve(self, grid48):
        # at alpha 1e200 the constant start's level is inf and its gradient
        # NaN; the descent names its start and hands nothing to Q^{-1}
        calls = []

        def counting_solve(arr):
            calls.append(arr)
            return arr

        with pytest.raises(NumericalFailure, match="descent start is not finite: level inf"):
            _descend(Field.constant(grid48, 1.0), make_params(5, 1.0, 1e200), quick_config(),
                     counting_solve)
        assert calls == []


class TestLineSearchRetry:
    """A search that fails while the L-BFGS history holds pairs clears the
    history and searches again along z = Q^{-1} g; a second failure stops
    the start with ``line_search``."""

    @staticmethod
    def reverse_once_history_holds_pairs(monkeypatch, on_reverse=lambda: None):
        # the real direction, made an ascent one at the first iteration
        # whose history is not empty; logs each call's history and a copy
        # of the pairs it held then
        calls = []
        real = solver._lbfgs_direction

        def direction(garr, zarr, history):
            calls.append((history, list(history)))
            d = real(garr, zarr, history)
            if history and not any(pairs for _, pairs in calls[:-1]):
                on_reverse()
                return -d
            return d

        monkeypatch.setattr(solver, "_lbfgs_direction", direction)
        return calls

    def test_retry_along_z_is_accepted(self, grid48, monkeypatch):
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        calls = self.reverse_once_history_holds_pairs(monkeypatch)
        out = _descend(start, p, quick_config(max_iters=5), _energy_solver(grid48, p.a))
        # every iteration asked for one direction and made its step: the
        # ascent's search failed, and the retry along z was accepted
        assert (out.stop_reason, out.iterations) == ("max_iters", 5)
        assert len(calls) == 5
        k = next(i for i, (_, pairs) in enumerate(calls) if pairs)
        # the pairs the ascent saw were cleared, and the descent went on
        # to collect new ones
        reversed_pairs, later = calls[k][1], calls[k + 1][1]
        assert not any(old is new for old in reversed_pairs for new in later)
        assert calls[-1][1]
        assert out.level < out.start_level

    def test_failed_retry_stops_the_start(self, grid48, monkeypatch):
        # from the ascent on no trial meets the Armijo rule, along z either
        p = make_params(5, 1.0, 2.0)
        start = interpolate_instanton(grid48, InstantonParams(0.3))
        trials = []
        real_gradient = solver.gradient_I
        monkeypatch.setattr(
            solver, "gradient_I", lambda field, params: trials.append(field) or real_gradient(field, params)
        )
        switch = []

        def refuse_every_trial():
            switch.append(len(trials))
            monkeypatch.setattr(solver, "SUFFICIENT_DECREASE", math.inf)

        calls = self.reverse_once_history_holds_pairs(monkeypatch, refuse_every_trial)
        out = _descend(start, p, quick_config(max_iters=5), _energy_solver(grid48, p.a))
        assert (out.stop_reason, out.iterations) == ("line_search", 1)
        assert [len(pairs) for _, pairs in calls] == [0, 1]
        assert len(calls[-1][0]) == 0  # the history, cleared for the retry
        # the ascent has no descending trial, so the trials after it are the
        # retry's along z, and none was accepted
        assert len(trials) > switch[0]
        assert out.level < out.start_level


class TestLBFGSDirection:
    def test_matches_dense_bfgs(self):
        # the one-solve two-loop recursion against the dense inverse-Hessian
        # product, H0 = gamma Q^{-1}, built from the same pairs
        g32 = build_grid(5, 1.0, 32, 32, stretch=2.0)
        p = make_params(5, 1.0, 2.0)
        q_dense = energy_operator(g32, p.a).toarray()
        solve = _energy_solver(g32, p.a)
        rng = np.random.default_rng(11)
        shape = (32, 32)
        curvature = q_dense + np.diag(rng.random(q_dense.shape[0]))
        history = []
        for _ in range(5):
            s = rng.standard_normal(shape)
            y = (curvature @ s.ravel()).reshape(shape)
            history.append((s, y, solve(y), 1.0 / float(np.sum(s * y))))
        garr = gradient_I(Field(g32, 0.5 + rng.random(shape)), p)[1]
        got = _lbfgs_direction(garr, solve(garr), history)

        s, y, dz, _ = history[-1]
        h = float(np.sum(s * y)) / float(np.sum(y * dz)) * np.linalg.inv(q_dense)
        eye = np.eye(h.shape[0])
        for s, y, _, rho in history:
            sv, yv = s.ravel(), y.ravel()
            h = (eye - rho * np.outer(sv, yv)) @ h @ (eye - rho * np.outer(yv, sv))
            h += rho * np.outer(sv, sv)
        want = h @ garr.ravel()
        assert np.linalg.norm(got.ravel() - want) <= 1e-10 * np.linalg.norm(want)

    def test_empty_history_is_riesz_gradient(self, grid48):
        p = make_params(5, 1.0, 2.0)
        garr = gradient_I(interpolate_instanton(grid48, InstantonParams(0.3)), p)[1]
        zarr = _energy_solver(grid48, p.a)(garr)
        assert np.array_equal(_lbfgs_direction(garr, zarr, []), zarr)


class TestDescentIterations:
    # accepted steps to grad_tol 3e-4 that the steepest descent in the
    # Q-metric took from each bubble start, 64^2 grid, stretch 3, alpha 3
    STEEPEST = {0.3: 312, 0.1: 304, 0.03: 262}

    @pytest.mark.parametrize("eps", sorted(STEEPEST))
    def test_bubble_starts_converge_in_a_third(self, grid64, eps):
        p = make_params(5, 1.0, 3.0)
        start = interpolate_instanton(grid64, InstantonParams(max(eps, grid64.min_bubble_eps)))
        out = _descend(start, p, quick_config(max_iters=400), _energy_solver(grid64, p.a))
        assert out.stop_reason == "converged"
        assert out.iterations <= self.STEEPEST[eps] // 3
        assert out.grad_norm <= 3e-4
        assert out.level < out.start_level


class TestStarts:
    def test_tie_goes_to_earliest_start(self, grid48, monkeypatch):
        # two identical starts whose descents end one ulp apart: the first
        # listed wins, not the last bit
        p = make_params(5, 1.0, 2.0)
        vals = interpolate_instanton(grid48, InstantonParams(0.3)).values
        starts = [Field(grid48, vals), Field(grid48, vals.copy())]
        outcome = {id(starts[0]): (0, 11.5), id(starts[1]): (1, float(np.nextafter(11.5, 0.0)))}

        def fake(start, params, config, solve_q):
            k, level = outcome[id(start)]
            return Descent(start, level, k, 12.0, 0.0, "converged", norms(start, params).triple)

        monkeypatch.setattr(solver, "_descend", fake)
        res = _minimize_over_starts(p, quick_config(), starts, SERIAL, _energy_solver(grid48, p.a))
        assert res.minimizer is starts[0]
        assert res.iterations == 0

    def test_max_iters_reason(self, grid64):
        cfg = quick_config(max_iters=2, grad_tol=1e-14)
        res = minimize(make_params(5, 1.0, 3.0), cfg, grid64)
        assert len(res.starts) == cfg.n_starts
        # the constant is critical up to round-off, which no trial can
        # decrease, so its line search fails where it stands
        const = res.starts[0]
        assert const.stop_reason == "line_search" and const.iterations == 0
        assert cfg.grad_tol < const.grad_norm < 1e-12
        assert const.level == res.start_values[0]
        for rec, start_level in zip(res.starts[1:], res.start_values[1:]):
            assert rec.stop_reason == "max_iters"
            assert rec.iterations == 2
            assert rec.grad_norm > cfg.grad_tol
            assert rec.level < start_level

    def test_constant_start_converges_at_once(self, grid64):
        cfg = quick_config()
        res = minimize(make_params(5, 1.0, 0.0), cfg, grid64)
        rec = res.starts[0]
        assert rec.stop_reason == "converged"
        assert rec.iterations == 0
        assert rec.grad_norm <= cfg.grad_tol
        assert rec.level == res.start_values[0]

    def test_start_level_is_one_pass(self, grid48, monkeypatch):
        # the constant converges at once: its one start pass gives its
        # start value, the winner's triple and the gradient, whose dual
        # norm is also the residual
        p = make_params(5, 1.0, 0.0)
        starts = [Field.constant(grid48, 1.0)]
        solve = _energy_solver(grid48, p.a)
        want = evaluate_I(starts[0], p)
        calls = count_kernel_passes(monkeypatch)
        res = _minimize_over_starts(p, quick_config(), starts, SERIAL, solve)
        assert calls == [True]
        assert res.start_values == (want,)

    def test_winner_triple_is_the_descents(self, grid48, monkeypatch):
        # the winner's triple is its last accepted trial's, rescaled by
        # homogeneity, and its residual is its final dual norm: the solve
        # adds no pass to the descent
        p = make_params(5, 1.0, 2.0)
        starts = [interpolate_instanton(grid48, InstantonParams(0.3))]
        solve = _energy_solver(grid48, p.a)
        cfg = quick_config(max_iters=5)
        calls = count_kernel_passes(monkeypatch)
        out = _descend(starts[0], p, cfg, solve)
        descent_calls, calls[:] = list(calls), []
        res = _minimize_over_starts(p, cfg, starts, SERIAL, solve)
        assert out.iterations == 5
        assert calls == descent_calls
        want = norms(res.minimizer, p).triple
        assert res.triple.c == pytest.approx(1.0, rel=1e-13)
        for got, exact in zip(
            (res.triple.a_bar, res.triple.b, res.triple.c), (want.a_bar, want.b, want.c)
        ):
            assert got == pytest.approx(exact, rel=1e-12)
        assert res.S_alpha_est == pytest.approx(evaluate_I(res.minimizer, p), rel=1e-12)

    def test_resolvable_bubble_clamps_to_the_grid_floor(self, grid48):
        # the clamp and the sampler's floor are one number, min_bubble_eps
        floor = grid48.min_bubble_eps
        clamped = solver._resolvable_bubble(grid48, 1e-9)
        at_floor = interpolate_instanton(grid48, InstantonParams(floor))
        assert clamped.values.tobytes() == at_floor.values.tobytes()
        with pytest.raises(ResolutionError):
            interpolate_instanton(grid48, InstantonParams(np.nextafter(floor, 0.0)))

    @pytest.mark.parametrize("n_starts, bubbles", [(1, 0), (2, 1), (5, 3)])
    def test_default_starts_build_only_kept_bubbles(self, grid48, monkeypatch, n_starts, bubbles):
        cfg = quick_config(n_starts=n_starts)
        # the starts of building all three bubbles, then truncating
        rng = np.random.default_rng(cfg.seed)
        want = [Field.constant(grid48, 1.0)]
        want += [solver._resolvable_bubble(grid48, f) for f in (0.3, 0.1, 0.03)]
        want += [Field(grid48, 0.2 + rng.random((48, 48))) for _ in range(n_starts - 4)]
        calls = []
        real = solver.interpolate_instanton
        monkeypatch.setattr(
            solver, "interpolate_instanton", lambda *args: calls.append(args) or real(*args)
        )
        starts = solver.default_starts(cfg, grid48)
        assert len(calls) == bubbles
        assert len(starts) == n_starts
        for got, exact in zip(starts, want):
            assert np.array_equal(got.values, exact.values)


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
            ga = gradient_I(f, p)[1]
            base_scale = float(np.sqrt(np.mean(u**2)))
            h = 1e-5 * base_scale
            for _ in range(5):
                d = rng.standard_normal((48, 48))
                fp = evaluate_I(Field(grid48, u + h * d), p)
                fm = evaluate_I(Field(grid48, u - h * d), p)
                fd = (fp - fm) / (2.0 * h)
                an = float(np.sum(ga * d))
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_rescaled_field_gradient(self, grid48):
        # I has degree 0, so grad I(u / m) = m grad I(u): the descent pins
        # an accepted trial by this identity instead of a second pass
        p = make_params(5, 1.0, 1.2)
        rng = np.random.default_rng(9)
        u = 0.5 + rng.random((48, 48))
        for m in (0.37, 2.9, 41.0):
            want = gradient_I(Field(grid48, u / m), p)[1]
            got = m * gradient_I(Field(grid48, u), p)[1]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_returns_the_triple(self, grid48):
        p = make_params(5, 1.0, 1.2)
        f = interpolate_instanton(grid48, InstantonParams(0.3))
        tr, _ = gradient_I(f, p)
        assert tr == norms(f, p).triple

    def test_homogeneity_direction_annihilated(self, grid48):
        # I is degree-0 homogeneous, so the derivative along u vanishes
        p = make_params(5, 1.0, 1.2)
        rng = np.random.default_rng(8)
        u = 0.5 + rng.random((48, 48))
        ga = gradient_I(Field(grid48, u), p)[1]
        scale = float(np.sqrt(np.sum(ga**2) * np.sum(u**2)))
        assert abs(float(np.sum(ga * u))) <= 1e-10 * max(scale, 1.0)

    def test_constant_solution_is_critical(self, grid48):
        p = make_params(5, 1.0, 0.9)
        kap = constant_solution_kappa(p)
        f = Field.constant(grid48, kap)
        ga = gradient_I(f, p)[1]
        solve = _energy_solver(grid48, p.a)
        dual = float(np.sqrt(max(np.sum(ga * solve(ga)), 0.0)))
        assert dual <= 10.0 * 1e-6


class TestMinimize:
    def test_record_carries_its_alpha(self, grid48):
        res = minimize(make_params(5, 1.0, 1.25), quick_config(n_starts=1, max_iters=20), grid48)
        assert res.alpha == 1.25

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
        floor = grid64.min_bubble_eps
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
        # the calling thread and a pool of three give the same bits
        p = make_params(5, 1.0, 2.6)
        r1 = minimize(p, quick_config(max_iters=60, threads=1), grid64)
        r2 = minimize(p, quick_config(max_iters=60, threads=3), grid64)
        assert r1.S_alpha_est == r2.S_alpha_est
        assert r1.minimizer.values.tobytes() == r2.minimizer.values.tobytes()
        # repr round-trips every double, signed zeros included
        assert len(r1.starts) == 4
        assert repr(r1.starts) == repr(r2.starts)
        assert repr(r1.start_values) == repr(r2.start_values)

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
        levels = np.array([r.S_alpha_est for r in sw.results])
        assert np.all(np.diff(levels) >= -1e-6)
        # alpha = 0 entry must reproduce a cold minimize at alpha = 0
        cold = minimize(make_params(5, 1.0, 0.0), cfg, grid64)
        assert levels[0] == pytest.approx(cold.S_alpha_est, rel=1e-10)

    def test_level_is_the_winning_descents(self, grid48):
        # each solve reports the level its winning start's record holds and
        # the tie rule compared, bit for bit, not a second evaluation of it
        sw = sweep_alpha(make_params(5, 1.0, 0.0), [0.5, 1.5, 2.25, 3.0], quick_config(n_starts=2), grid48)
        for res in sw.results:
            lowest = min(r.level for r in res.starts)
            winner = next(r for r in res.starts if r.level <= lowest + TIE_RTOL * abs(lowest))
            assert res.S_alpha_est == winner.level
            assert res.converged == (winner.stop_reason == "converged")


    def test_each_record_carries_its_alpha(self, grid48):
        alphas = [0.5, 1.5, 3.0]
        sw = sweep_alpha(make_params(5, 1.0, 0.0), alphas, quick_config(n_starts=1, max_iters=20), grid48)
        assert [res.alpha for res in sw.results] == alphas
        assert not hasattr(sw, "alphas") and not hasattr(sw, "levels")


class TestNonfiniteAlphas:
    def test_rejected_before_any_solve(self, grid48, monkeypatch):
        # NaN fails no ordering test, and inf passes lo < hi: each is
        # refused before a Q^{-1} solver is made or a start descends
        counts = {"solvers": 0, "solves": 0}
        real_solver, real_solves = solver._energy_solver, solver._minimize_over_starts

        def energy_solver(*args):
            counts["solvers"] += 1
            return real_solver(*args)

        def solves(*args):
            counts["solves"] += 1
            return real_solves(*args)

        monkeypatch.setattr(solver, "_energy_solver", energy_solver)
        monkeypatch.setattr(solver, "_minimize_over_starts", solves)
        base, cfg = make_params(5, 1.0, 0.0), quick_config(n_starts=1, max_iters=5)
        with pytest.raises(DomainError, match="finite"):
            sweep_alpha(base, [0.5, math.nan], cfg, grid48)
        with pytest.raises(DomainError, match="finite"):
            estimate_alpha0(base, cfg, grid48, (2.0, math.inf))
        assert counts == {"solvers": 0, "solves": 0}


class TestContinuation:
    @pytest.fixture
    def counts(self, monkeypatch):
        # pools opened and factorizations made during one call
        seen = {"pools": 0, "factorizations": 0}
        real_pool, real_solver = solver.ThreadPoolExecutor, solver._energy_solver

        def pool(*args, **kwargs):
            seen["pools"] += 1
            return real_pool(*args, **kwargs)

        def energy_solver(*args):
            seen["factorizations"] += 1
            return real_solver(*args)

        monkeypatch.setattr(solver, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(solver, "_energy_solver", energy_solver)
        return seen

    def test_sweep_is_one_run(self, counts):
        grid = build_grid(5, 1.0, 32, 32, stretch=2.0)
        sw = sweep_alpha(make_params(5, 1.0, 0.0), [0.0, 1.0, 2.0], quick_config(threads=2), grid)
        assert len(sw.results) == 3
        assert counts == {"pools": 1, "factorizations": 1}

    def test_alpha0_is_one_run(self, counts):
        grid = build_grid(5, 1.0, 32, 32, stretch=2.0)
        out = estimate_alpha0(make_params(5, 1.0, 0.0), quick_config(max_iters=150), grid, (2.0, 3.5))
        assert len(out.evaluations) >= 8
        assert counts == {"pools": 0, "factorizations": 1}

    def test_one_worker_descends_in_the_calling_thread(self, counts, monkeypatch, grid48):
        threads = []
        real_descend = solver._descend

        def descend(*args):
            threads.append(threading.get_ident())
            return real_descend(*args)

        monkeypatch.setattr(solver, "_descend", descend)
        res = minimize(make_params(5, 1.0, 2.0), quick_config(max_iters=5, threads=1), grid48)
        assert len(res.starts) == 4
        assert threads == [threading.get_ident()] * 4
        assert counts == {"pools": 0, "factorizations": 1}

    def test_constant_warm_start_drops_the_constant_start(self, monkeypatch, grid48):
        # a constant warm start is the constant start's own ray: the solve
        # descends from it and the restarts only, and its result has the
        # bits of the solve with the constant start listed too
        p, cfg = make_params(5, 1.0, 1.5), quick_config()
        restarts = (solver._resolvable_bubble(grid48, 0.05),)
        warm = minimize(make_params(5, 1.0, 1.0), quick_config(n_starts=1), grid48).minimizer
        assert np.ptp(warm.values) == 0.0
        bubble = interpolate_instanton(grid48, InstantonParams(0.3))
        descended, real_descend = [], solver._descend

        def descend(start, *args):
            descended.append(start)
            return real_descend(start, *args)

        monkeypatch.setattr(solver, "_descend", descend)
        with solver._continuation(p, cfg, grid48, restarts) as solve:
            res = solve(p.alpha, warm)
            assert len(descended) == 1 + len(restarts) and descended[0] is warm
            descended.clear()
            solve(p.alpha, bubble)
        assert len(descended) == 2 + len(restarts)
        assert descended[0] is bubble and np.all(descended[1].values == 1.0)
        forced = _minimize_over_starts(
            p, cfg, [warm, Field.constant(grid48, 1.0), *restarts], SERIAL, _energy_solver(grid48, p.a)
        )
        assert res.S_alpha_est == forced.S_alpha_est
        assert res.el_residual == forced.el_residual
        assert np.array_equal(res.minimizer.values.view(np.uint64), forced.minimizer.values.view(np.uint64))

    def test_reported_residual_is_independent_residual(self, grid48):
        # read from the winner's final dual norm, the residual agrees with
        # the independent evaluation on the reported minimizer, converged
        # or not
        p = make_params(5, 1.0, 2.0)
        res = minimize(p, quick_config(max_iters=3), grid48)
        want = euler_lagrange_residual(res.minimizer, p)
        assert res.el_residual == pytest.approx(want, rel=1e-10)


def _q_norm(q, v):
    v = v.ravel()
    return float(np.sqrt(v @ (q @ v)))


class TestEnergySolver:
    """_energy_solver is an exact Q^{-1}: a Chebyshev iteration in the
    angular eigenbasis, preconditioned with the stacked radial
    tridiagonals P~, where that is certified, to the accuracy of a direct
    solve, and the direct solve itself where it is not."""

    @pytest.mark.parametrize(
        "N, shape, stretch, a",
        [
            (5, (32, 40), 0.0, 1.0),
            (5, (64, 64), 4.0, 8.0),
            (5, (128, 128), 4.0, 1.0),
            (5, (256, 256), 8.0, 1.0),
            (7, (40, 36), 2.0, 1.0),
            (5, (32, 32), 15.0, 1.0),
            (5, (32, 32), 16.0, 1.0),
            (5, (128, 128), 14.0, 1.0),
            # a large a on a coarse grid widens the interval: 13 applies
            (5, (32, 32), 4.0, 50.0),
            # strong stretches: the tridiagonal solves' rounding widens the
            # interval, to 15 applies at stretch 30
            (5, (32, 32), 17.0, 1.0),
            (5, (32, 32), 20.0, 1.0),
            (5, (32, 32), 30.0, 1.0),
            (5, (128, 128), 16.0, 1.0),
        ],
    )
    def test_matches_direct_solve(self, N, shape, stretch, a):
        g = build_grid(N, 1.0, *shape, stretch=stretch)
        assert _separable_inverse(g, a) is not None
        q = energy_operator(g, a)
        b = np.random.default_rng(5).standard_normal(shape)
        want = splu(q.tocsc()).solve(b.ravel()).reshape(shape)
        got = _energy_solver(g, a)(b)
        assert got.shape == b.shape
        assert _q_norm(q, got - want) <= 1e-10 * _q_norm(q, want)

    @pytest.mark.parametrize("n", [96, 128, 256])
    def test_benchmark_grids_are_certified(self, n):
        assert _separable_inverse(build_grid(5, 1.0, n, n, stretch=4.0), 1.0) is not None

    def test_matches_manufactured_solution_at_512(self):
        # min D_theta is 7e-16 here, so the scaling D^{-1/2} reaches 4e7;
        # a manufactured solution stands in for a direct solve of this size
        g = build_grid(5, 1.0, 512, 512, stretch=4.0)
        assert g.angular[1][0].min() < 1e-15
        q = energy_operator(g, 1.0)
        x = np.random.default_rng(6).standard_normal((512, 512))
        got = _energy_solver(g, 1.0)((q @ x.ravel()).reshape(x.shape))
        assert _q_norm(q, got - x) <= 1e-10 * _q_norm(q, x)

    def test_preconditioner_inverts_the_separable_operator(self):
        # P~^{-1} between the two changes of basis is the nodal P^{-1}
        g = build_grid(5, 1.0, 32, 40, stretch=3.0)
        (k_r, d_r3, m_r), (k_th, d_th, _) = g.radial, g.angular

        def band(main_off):
            main, off = main_off
            return sparse.diags([off, main, off], [-1, 0, 1])

        p_mat = sparse.kron(band(k_r) + 1.5 * band(m_r), band(d_th)) + sparse.kron(
            band(d_r3), band(k_th)
        )
        y = np.random.default_rng(7).standard_normal((32, 40))
        want = splu(p_mat.tocsc()).solve(y.ravel()).reshape(y.shape)
        modes = _separable_inverse(g, 1.5)
        got = (modes.w @ modes.p_inv((y @ modes.w).T)).T
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())

    @staticmethod
    def _preconditioned_spectrum(modes, n):
        unit = np.eye(n * n).reshape(-1, n, n)
        p_inv = np.stack([modes.p_inv(e).ravel() for e in unit], axis=1)
        q = np.stack([modes.q(e).ravel() for e in unit], axis=1)
        return np.linalg.eigvals(p_inv @ q)

    @pytest.mark.parametrize("stretch, a", [(16.0, 1.0), (4.0, 50.0)])
    def test_certified_spectrum_holds(self, stretch, a):
        # the premise of the step count, checked on the whole spectrum of
        # the computed P~^{-1} Q': at a strong stretch, and with a large a,
        # where Q and P differ most
        g = build_grid(5, 1.0, 32, 32, stretch=stretch)
        modes = _separable_inverse(g, a)
        ev = self._preconditioned_spectrum(modes, 32)
        assert np.abs(ev.imag).max() <= 1e-8
        assert modes.lo <= ev.real.min() <= ev.real.max() <= modes.hi
        assert P_SPECTRUM[0] <= modes.lo <= modes.hi <= P_SPECTRUM[1]

    def test_certified_spectrum_holds_at_the_strongest_stretch(self):
        # at 32^2 stretch 30 the tridiagonal solves' rounding, bounded by
        # delta = 5 u kappa, is 0.12 of P~, and Q' spans 27 decades, so the
        # realized P~^{-1} Q' is no longer symmetric to working precision:
        # its eigenvalues leave the real axis by 4e-4, far inside the
        # certified interval, whose ends moved out by delta
        g = build_grid(5, 1.0, 32, 32, stretch=30.0)
        modes = _separable_inverse(g, 1.0)
        ev = self._preconditioned_spectrum(modes, 32)
        assert np.abs(ev.imag).max() <= 1e-3
        assert modes.lo <= ev.real.min() <= ev.real.max() <= modes.hi
        assert P_SPECTRUM[0] <= modes.lo <= modes.hi <= P_SPECTRUM[1]

    @pytest.mark.parametrize("n, want", [(96, 4), (128, 4), (256, 3)])
    def test_apply_count_is_certified(self, n, want, monkeypatch):
        # every solve makes the m P~^{-1} applies, one tridiagonal solve
        # each, that the certified interval gives, whatever its right-hand side
        g = build_grid(5, 1.0, n, n, stretch=4.0)
        modes = _separable_inverse(g, 1.0)
        calls = []
        real_dpttrs = solver.dpttrs

        def counted(*args):
            calls.append(1)
            return real_dpttrs(*args)

        monkeypatch.setattr(solver, "dpttrs", counted)
        solve = _energy_solver(g, 1.0)
        counts = []
        for seed in range(3):
            calls.clear()
            solve(np.random.default_rng(seed).standard_normal((n, n)))
            counts.append(len(calls))
        sigma = (modes.hi + modes.lo) / (modes.hi - modes.lo)
        m = max(1, math.ceil(math.acosh(1.0 / (Q_RTOL - modes.eta)) / math.acosh(sigma)))
        assert counts == [m, m, m]
        assert m == want

    def test_certified_grid_assembles_no_operator(self, monkeypatch):
        def refused(*args):
            raise AssertionError("energy_operator assembled on a certified grid")

        g = build_grid(5, 1.0, 96, 96, stretch=4.0)
        monkeypatch.setattr(solver, "energy_operator", refused)
        solve = _energy_solver(g, 1.0)
        assert np.all(np.isfinite(solve(np.ones((96, 96)))))

    @pytest.mark.parametrize("shape, stretch", [((96, 96), 4.0), ((128, 128), 16.0)])
    def test_solve_is_symmetric_and_linear(self, shape, stretch):
        # the premises of the L-BFGS identity dz = Q^{-1} y and of the
        # dual norm g . Q^{-1} g, on a benchmark grid and on a strong
        # stretch
        g = build_grid(5, 1.0, *shape, stretch=stretch)
        assert _separable_inverse(g, 1.0) is not None
        solve = _energy_solver(g, 1.0)
        u, v = np.random.default_rng(9).standard_normal((2, *shape))
        su, sv = solve(u), solve(v)
        scale = math.sqrt(np.vdot(u, su) * np.vdot(v, sv))
        assert abs(np.vdot(u, sv) - np.vdot(v, su)) <= 1e-12 * scale
        q = energy_operator(g, 1.0)
        combined = solve(2.0 * u - 3.0 * v)
        assert _q_norm(q, combined - (2.0 * su - 3.0 * sv)) <= 1e-12 * _q_norm(q, combined)

    def test_zero_right_hand_side(self, grid48):
        assert not _energy_solver(grid48, 1.0)(np.zeros((48, 48))).any()

    @pytest.mark.parametrize(
        "shape, stretch",
        [((32, 32), 32.0), ((64, 64), 30.0), ((128, 128), 32.0), ((32, 32), 36.0), ((96, 96), 35.5)],
    )
    def test_too_stretched_grid_gets_the_direct_solve(self, shape, stretch):
        # stretches build_grid accepts but whose tridiagonal solves lose
        # too much to rounding, or whose radial pencil is not numerically
        # definite: no certificate, so the solve is splu's own
        g = build_grid(5, 1.0, *shape, stretch=stretch)
        assert _separable_inverse(g, 1.0) is None
        q = energy_operator(g, 1.0)
        b = np.random.default_rng(8).standard_normal(shape)
        want = splu(q.tocsc()).solve(b.ravel()).reshape(shape)
        np.testing.assert_array_equal(_energy_solver(g, 1.0)(b), want)

    @pytest.mark.parametrize("shape, stretch, a", [((96, 96), 4.0, 1e-11), ((32, 32), 0.0, 1e-13)])
    def test_small_a_gets_the_direct_solve(self, shape, stretch, a):
        # a basis whose defect, relative to the small eigenvalues a makes,
        # exceeds Q_RTOL / 10 is rejected: a mode-coordinate solve there
        # is off by far more than a direct solve
        g = build_grid(5, 1.0, *shape, stretch=stretch)
        assert _separable_inverse(g, a) is None
        q = energy_operator(g, a)
        b = np.random.default_rng(8).standard_normal(shape)
        want = splu(q.tocsc()).solve(b.ravel()).reshape(shape)
        np.testing.assert_array_equal(_energy_solver(g, a)(b), want)

    def test_nan_right_hand_side_is_not_finite(self, grid48):
        # the descent's riesz step turns this into a NumericalFailure
        b = np.ones((48, 48))
        b[3, 4] = np.nan
        assert not np.all(np.isfinite(_energy_solver(grid48, 1.0)(b)))


def _least_squares_fit(field: Field):
    """(C, eps, w_norm) by a bounded 2-parameter least_squares fit with a
    2-point Jacobian, the fit fit_instanton made before C was projected
    out.  The bubble is centred at the north pole, where each field this
    oracle is given peaks."""
    grid = field.grid
    delta_M = float(field.values.max()) ** (-2.0 / (grid.N - 2))
    eps_floor = max(grid.min_bubble_eps, 1e-12)
    w_r, w_theta = np.sqrt(grid.r_edge_coeff), np.sqrt(grid.theta_edge_coeff)

    def residual(x):
        C, eps = x
        bubble = interpolate_instanton(grid, InstantonParams(max(eps, eps_floor), amplitude=max(C, 1e-12)))
        diff = field.values - bubble.values
        return np.concatenate(
            [(w_r * np.diff(diff, axis=0)).ravel(), (w_theta * np.diff(diff, axis=1)).ravel()]
        )

    sol = optimize.least_squares(
        residual,
        np.array([1.0, max(delta_M, eps_floor)]),
        bounds=([0.0, eps_floor], [np.inf, grid.R]),
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
    )
    return max(sol.x[0], 1e-12), max(sol.x[1], eps_floor), float(np.linalg.norm(sol.fun))


def _south_pole_bubble(grid: AxiGrid, eps: float) -> Field:
    """The unit bubble of scale eps centred at the south-pole boundary
    point (r, theta) = (R, pi)."""
    r = grid.r[:, None]
    dist = np.sqrt(np.maximum(r**2 + grid.R**2 + 2.0 * r * grid.R * np.cos(grid.theta), 0.0))
    return Field(grid, eps ** (-(grid.N - 2) / 2.0) * u_value(dist / eps, grid.N))


def _fit_oracle_field(kind):
    g = build_grid(5, 1.0, 128, 128, stretch=3.0)
    f = interpolate_instanton(g, InstantonParams(eps=0.05))
    if kind == "self":
        return f
    if kind == "noisy":
        rng = np.random.default_rng(13)
        return Field(g, f.values * (1.0 + 0.01 * rng.standard_normal(f.values.shape)))
    # a minimizer on the bubble branch, rescaled onto the Nehari manifold
    # as the run fits it
    g = build_grid(5, 1.0, 96, 96, stretch=4.0)
    res = minimize(make_params(5, 1.0, 3.0), SolveConfig(), g)
    return Field(g, project_t(res.triple) * res.minimizer.values)


class TestFitInstanton:
    @pytest.mark.parametrize("stretch", [0.0, 3.0, 4.0])
    def test_south_bubble_is_the_oracle(self, stretch):
        g = build_grid(5, 1.0, 128, 128, stretch=stretch)
        got = interpolate_instanton(g, InstantonParams(0.08), south=True).values
        assert got.tobytes() == _south_pole_bubble(g, 0.08).values.tobytes()

    def test_fit_samples_through_interpolate_instanton(self, grid48, monkeypatch):
        # every bubble the search evaluates is interpolate_instanton's, so
        # a trace of that name counts the fit's bubbles; a skipped fit
        # evaluates none
        g = build_grid(5, 1.0, 128, 128, stretch=3.0)
        f = interpolate_instanton(g, InstantonParams(eps=0.05))
        calls = []
        real = solver.interpolate_instanton

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "interpolate_instanton", counting)
        assert fit_instanton(f).fit is not None
        assert len(calls) >= 10
        calls.clear()
        vals = np.ones((48, 48))
        vals[20, 20] = 5.0
        assert fit_instanton(Field(grid48, vals)).fit is None
        assert calls == []

    def test_skipped_fit_allocates_no_plane(self):
        # the skip gate reads the peak's own distance, so a skipped fit
        # of a 256^2 field allocates less than one nodal plane (512 KiB)
        field = Field.constant(build_grid(5, 1.0, 256, 256, stretch=4.0), 1.0)
        tracemalloc.start()
        try:
            fit = fit_instanton(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.fit is None
        assert peak < 256 * 256 * 8

    def test_self_fit(self):
        g = build_grid(5, 1.0, 128, 128, stretch=3.0)
        f = interpolate_instanton(g, InstantonParams(eps=0.05))
        fit = fit_instanton(f)
        assert fit.fit is not None
        assert fit.fit.amplitude == pytest.approx(1.0, abs=1e-3)
        assert fit.fit.eps == pytest.approx(0.05, abs=1e-3)
        assert fit.w_norm <= 1e-6 * np.sqrt(norms(f, make_params(5, 1.0, 0.0)).grad2)

    def test_noisy_fit(self):
        g = build_grid(5, 1.0, 128, 128, stretch=3.0)
        f = interpolate_instanton(g, InstantonParams(eps=0.05))
        rng = np.random.default_rng(13)
        noisy = Field(g, f.values * (1.0 + 0.01 * rng.standard_normal(f.values.shape)))
        fit = fit_instanton(noisy)
        assert fit.fit is not None
        assert fit.fit.amplitude == pytest.approx(1.0, abs=2e-2)

    def test_interior_maximum_skipped(self, grid48):
        vals = np.ones((48, 48))
        vals[20, 20] = 5.0
        fit = fit_instanton(Field(grid48, vals))
        assert fit.fit is None
        assert not fit.boundary_flag
        assert np.isnan(fit.w_norm)

    @pytest.mark.parametrize(
        "stretch, eps", [(0.0, 0.08), (3.0, 0.08), (3.0, 0.2), (4.0, 0.08), (4.0, 0.2)]
    )
    def test_south_pole_mirrored(self, stretch, eps):
        # a stretched grid's theta nodes are not symmetric about pi/2, so
        # the bubble must be centred at the south pole, not mirrored there
        g = build_grid(5, 1.0, 128, 128, stretch=stretch)
        fit = fit_instanton(_south_pole_bubble(g, eps))
        assert fit.fit is not None
        assert fit.fit.eps == pytest.approx(eps, abs=1e-3)
        assert fit.fit.amplitude == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("kind", ["self", "noisy", "minimizer"])
    def test_matches_least_squares_oracle(self, kind):
        field = _fit_oracle_field(kind)
        C, eps, w_norm = _least_squares_fit(field)
        fit = fit_instanton(field)
        assert fit.fit is not None
        # at an exact fit both distances are round-off, which the floor,
        # 1e-12 of the field's own seminorm, absorbs
        floor = 1e-12 * np.sqrt(norms(field, make_params(field.grid.N, 1.0, 0.0)).grad2)
        assert fit.w_norm <= max(w_norm, floor) * (1.0 + 1e-10)
        assert fit.fit.eps == pytest.approx(eps, rel=1e-6)
        assert fit.fit.amplitude == pytest.approx(C, rel=1e-6)


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

    def test_residual_is_scaled_gradient(self, grid48):
        # both read one first variation: the residual is the dual norm of
        # gradient_I over its envelope prefactor and the multiplier t
        p = make_params(5, 1.0, 2.0)
        rng = np.random.default_rng(3)
        f = Field(grid48, 0.5 + rng.random((48, 48)))
        solve = _energy_solver(grid48, p.a)
        g = gradient_I(f, p)[1]
        tr = norms(f, p).triple
        pref = 2.0 * (5.0 * psi_from_projection(tr)) ** (-3.0 / 5.0)
        want = np.sqrt(np.sum(g * solve(g))) / (pref * project_t(tr))
        assert euler_lagrange_residual(f, p, solve) == pytest.approx(want, rel=1e-12)


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

    def test_certificates_are_evaluated_solves(self, alpha0_run):
        # the bracket ends are solved first, and each certificate is one
        # evaluation's (alpha, level), read from that solve's record
        evals = alpha0_run.evaluations
        assert [a for a, _, _ in evals[:2]] == [2.0, 3.5]
        for alpha, level in (alpha0_run.certificate_below, alpha0_run.certificate_above):
            assert (alpha, level) in [(a, s) for a, s, _ in evals]
        below, above = alpha0_run.certificate_below[0], alpha0_run.certificate_above[0]
        assert alpha0_run.alpha_hat == 0.5 * (below + above)

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


# u -> lam^{-(N-2)/2} u(./lam) maps the problem (R, a, alpha) to
# (lam R, a / lam^2, alpha / lam) and keeps every level: a run at any R
# is the R = 1 run, with its lengths times R and its alphas over R
SCALED_RADII = (1e-13, 1e-8, 1e8)


def _scaled_problem(R):
    return make_params(5, 1.0 / R**2, 3.0 / R, R), build_grid(5, R, 32, 32, stretch=3.0)


class TestScaleSymmetry:
    def test_minimize_is_scale_free(self):
        def run(R):
            params, grid = _scaled_problem(R)
            return minimize(params, SolveConfig(), grid)

        ref = run(1.0)
        for R in SCALED_RADII:
            res = run(R)
            assert [s.iterations for s in res.starts] == [s.iterations for s in ref.starts]
            for s, s1 in zip(res.starts, ref.starts):
                assert s.level == pytest.approx(s1.level, rel=1e-12)
            diag, diag1 = res.diagnostics, ref.diagnostics
            assert diag.boundary_flag == diag1.boundary_flag
            assert diag.fit.eps / R == pytest.approx(diag1.fit.eps, rel=1e-7)

    def test_alpha0_is_scale_free(self):
        def run(R):
            params, grid = _scaled_problem(R)
            return estimate_alpha0(params, SolveConfig(), grid, (2.0 / R, 3.5 / R))

        def scaled(out, R):
            return [
                out.alpha_hat * R,
                out.certificate_below[0] * R,
                out.certificate_above[0] * R,
                out.analytic_amax_bound * R,
                out.analytic_curvature_bound * R,
            ] + [level for _, level, _ in out.evaluations]

        want = scaled(run(1.0), 1.0)
        for R in SCALED_RADII:
            got = scaled(run(R), R)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("N, radii", [(5, (1e-34, 1e-8, 1e8, 1e34)), (30, (1e-4, 1e5))])
    def test_amax_bound_finite_at_every_radius(self, N, radii):
        # the extremes are the powers of ten that a 32 x 32, stretch 3 grid
        # accepts; the bound is bracketed in closed form, with no cap
        def bound(R):
            grid = build_grid(N, R, 32, 32, stretch=3.0)
            return _amax_bound(make_params(N, 1.0 / R**2, 0.0, R), grid) * R

        want = bound(1.0)
        for R in radii:
            assert bound(R) == pytest.approx(want, rel=1e-12)


class TestDualNorm:
    def test_lost_positivity_is_a_failure(self):
        # Q is positive definite, so g . Q^{-1} g < 0 is a failed solve,
        # not a zero gradient; an exact zero is still a zero gradient
        g = np.linspace(1.0, 2.0, 12).reshape(3, 4)
        with pytest.raises(NumericalFailure, match="Q\\^-1"):
            _dual_norm(g, -g)
        with pytest.raises(NumericalFailure):
            _dual_norm(g, np.full_like(g, np.nan))
        assert _dual_norm(g, np.zeros_like(g)) == 0.0
        assert _dual_norm(g, g) == math.sqrt(float(np.sum(g * g)))
