"""Scale-invariant minimization of the reduced level over grid fields.

The functional minimized is the degree-0 homogeneous I of the field's
norm triple, so no Nehari-manifold retraction is needed; the projection
onto the manifold is absorbed into the closed-form t(u).  Descent
directions are Q^{-1} applied to the nodal derivative, with Q the
energy operator (stiffness plus consistent mass): the Riesz
representative of the derivative in the energy metric.  Plain nodal
derivatives chase the fine boundary cells of a stretched mesh and stall.
The stopping rule is the dual norm of the derivative in the same metric.

Each accepted step clips to the nonnegative cone (every term of the
functional is even in u except the positivity the ground state wants)
and renormalizes the critical mass to 1 to pin the scale direction.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.sparse.linalg import splu

from .constants import I_alpha_of_one, curvature_A, sobolev_S
from .domain_grid import AxiGrid, Field, energy_operator, interpolate_instanton, norm_gradients, norms
from .errors import (
    BracketError,
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    NumericalFailure,
    ResolutionError,
)
from .instanton import InstantonParams
from .nehari import NormTriple, big_I, project_t, psi_from_projection


# Armijo backtracking: first trial step, shrink factor per rejected
# trial, sufficient-decrease constant, and trials before giving up.
INITIAL_STEP = 1.0
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 400
    grad_tol: float = 1e-6
    n_starts: int = 5
    seed: int = 0
    threshold_slack: float = 0.01

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ConfigurationError(f"grad_tol > 0 required, got {self.grad_tol}")
        if not 0 < self.threshold_slack < 0.1:
            raise ConfigurationError(
                f"threshold_slack in (0, 0.1) required, got {self.threshold_slack}"
            )
        if self.max_iters < 1 or self.n_starts < 1:
            raise ConfigurationError("max_iters >= 1 and n_starts >= 1 required")
        if self.seed < 0:
            raise ConfigurationError(f"seed >= 0 required, got {self.seed}")


@dataclass(frozen=True)
class InstantonFit:
    params: Optional[InstantonParams]
    w_norm: float
    boundary: bool
    message: str


@dataclass(frozen=True)
class BlowupDiagnostics:
    M: float
    delta_M: float
    P: tuple
    fit: Optional[InstantonParams]
    w_norm: float
    boundary_flag: bool


@dataclass(frozen=True)
class SolveResult:
    S_alpha_est: float
    minimizer: Field
    triple: NormTriple
    iterations: int
    converged: bool
    diagnostics: BlowupDiagnostics
    el_residual: float
    start_values: tuple


@dataclass(frozen=True)
class SweepResult:
    alphas: tuple
    results: tuple
    monotone_violations: tuple

    def levels(self) -> np.ndarray:
        return np.array([r.S_alpha_est for r in self.results])


@dataclass(frozen=True)
class Alpha0Result:
    alpha_hat: float
    certificate_below: tuple      # (alpha, S_est) strictly under the threshold
    certificate_above: tuple      # (alpha, S_est) at or over the threshold
    threshold: float
    analytic_curvature_bound: float
    analytic_amax_bound: float
    evaluations: tuple


def evaluate_I(field: Field, params) -> float:
    return big_I(norms(field, params).triple)


def gradient_I(field: Field, params) -> Field:
    """Nodal derivative of I via the envelope theorem.

    I = (N Psi)^{2/N} with Psi evaluated at the manifold projection t(u)u;
    the inner t is stationary, so only the explicit dependence on the
    triple differentiates.
    """
    rep, d_abar, d_b, d_c = norm_gradients(field, params)
    tr = rep.triple
    t = project_t(tr)
    psi = psi_from_projection(tr)
    ex = params.exponents
    ts = float(ex.two_star)
    tt = float(ex.two_tilde)
    pref = 2.0 * (tr.N * psi) ** ((2.0 - tr.N) / tr.N)
    arr = pref * (t**2 / 2.0 * d_abar + t**tt / tt * d_b - t**ts / ts * d_c)
    return Field(field.grid, arr)


def _normalized(field: Field, params) -> Field:
    c = norms(field, params).triple.c
    return Field(field.grid, field.values / c ** (1.0 / float(params.exponents.two_star)))


def _energy_solver(grid: AxiGrid, a: float):
    """Factorized action of Q^{-1} for the descent metric."""
    # Q is symmetric, so a minimum-degree ordering of Q^T + Q keeps the
    # LU factors sparser than the default column ordering
    lu = splu(energy_operator(grid, a).tocsc(), permc_spec="MMD_AT_PLUS_A")

    def solve(arr: np.ndarray) -> np.ndarray:
        return lu.solve(arr.ravel()).reshape(arr.shape)

    return solve


def _dual_norm(garr: np.ndarray, solved: np.ndarray) -> float:
    return float(math.sqrt(max(np.sum(garr * solved), 0.0)))


def _descend(start: Field, params, config: SolveConfig, solve_q):
    grid = start.grid
    ts = float(params.exponents.two_star)
    u = _normalized(Field(grid, np.maximum(start.values, 0.0)), params)
    f = evaluate_I(u, params)
    step = INITIAL_STEP
    iters = 0
    converged = False
    for iters in range(1, config.max_iters + 1):
        garr = gradient_I(u, params).values
        direction = solve_q(garr)
        if not np.all(np.isfinite(direction)):
            raise NumericalFailure(f"descent direction is not finite at iteration {iters}")
        gnorm = _dual_norm(garr, direction)
        if gnorm <= config.grad_tol:
            converged = True
            iters -= 1
            break
        accepted = False
        s = step
        for _ in range(MAX_BACKTRACKS):
            trial_vals = np.maximum(u.values - s * direction, 0.0)
            if not np.any(trial_vals > 0.0):
                s *= BACKTRACK
                continue
            move2 = float(np.sum(grid.mass * (trial_vals - u.values) ** 2))
            if not math.isfinite(move2):
                raise NumericalFailure(f"descent trial blew up at iteration {iters}")
            # the level is scaling-invariant, so judge the raw trial and
            # only rescale to |u|_{2*} = 1 once it is accepted
            trep = norms(Field(grid, trial_vals), params)
            f_try = big_I(trep.triple)
            if f_try <= f - SUFFICIENT_DECREASE / s * move2:
                u = Field(grid, trial_vals / trep.triple.c ** (1.0 / ts))
                f = f_try
                step = min(s * 2.0, 64.0)
                accepted = True
                break
            s *= BACKTRACK
        if not accepted:
            break
    return u, f, iters, converged


def euler_lagrange_residual(field: Field, params, solve_q=None) -> float:
    """Weak residual of the rescaled field on the natural constraint.

    At v = t(u) u criticality of the free energy means
    (1/2) a_bar'(v) + (1/two_tilde) b'(v) - (1/two_star) c'(v) = 0 nodally;
    this evaluates those derivatives directly, independent of the
    envelope chain used inside gradient_I, and measures them in the same
    dual norm the descent uses for its stopping rule.  One kernel pass
    at u gives them at v = t u, since a_bar, b and c are homogeneous of
    degree 2, two_tilde and two_star.
    """
    rep, d_abar, d_b, d_c = norm_gradients(field, params)
    t = project_t(rep.triple)
    ts = float(params.exponents.two_star)
    tt = float(params.exponents.two_tilde)
    res = 0.5 * t * d_abar + t ** (tt - 1.0) / tt * d_b - t ** (ts - 1.0) / ts * d_c
    if solve_q is None:
        solve_q = _energy_solver(field.grid, params.a)
    return _dual_norm(res, solve_q(res))


def fit_instanton(field: Field) -> InstantonFit:
    """Least-squares bubble fit (C, eps) at the field's boundary maximum.

    The distance minimized is the gradient seminorm of the difference,
    the same distance the blow-up diagnostics quote.  The center is
    pinned to the north-pole boundary point; an interior (or off-axis)
    maximum means the field is not concentrating there, and the fit is
    skipped with a message instead of forced.
    """
    grid = field.grid
    i, j = np.unravel_index(int(np.argmax(field.values)), field.values.shape)
    boundary = i == grid.n_r - 1
    M = float(field.values[i, j])
    delta_M = M ** (-2.0 / (grid.N - 2))
    # the argmax of a noisy concentrating profile wanders within the
    # bubble core (many stretched nodes fit inside it), so gate on the
    # physical distance from the peak to the nearer pole corner, scaled
    # by the blow-up length
    r_i, th_j = float(grid.r[i]), float(grid.theta[j])
    cross = 2.0 * r_i * grid.R * math.cos(th_j)
    d2_north = r_i**2 + grid.R**2 - cross
    d2_south = r_i**2 + grid.R**2 + cross
    dist = math.sqrt(min(d2_north, d2_south))
    if dist > min(max(2.0 * delta_M, 4.0 * grid.min_boundary_spacing), 0.2 * grid.R):
        return InstantonFit(
            params=None,
            w_norm=float("nan"),
            boundary=boundary,
            message="maximum not at an axis boundary point; fit skipped",
        )
    if d2_south < d2_north:
        # mirror so the peak sits at theta = 0
        field = Field(grid, field.values[:, ::-1])
    eps_floor = max(2.0 * grid.min_boundary_spacing, 1e-12)

    def residual(x):
        C, eps = x
        bubble = interpolate_instanton(grid, InstantonParams(max(eps, eps_floor), amplitude=max(C, 1e-12)))
        return grid.gradient_seminorm_parts(field.values - bubble.values)

    x0 = np.array([1.0, max(delta_M, eps_floor)])
    sol = optimize.least_squares(
        residual,
        x0,
        bounds=([0.0, eps_floor], [np.inf, grid.R]),
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
    )
    C_fit, eps_fit = sol.x
    w_norm = float(np.linalg.norm(sol.fun))
    return InstantonFit(
        params=InstantonParams(eps=float(max(eps_fit, eps_floor)), amplitude=float(max(C_fit, 1e-12))),
        w_norm=w_norm,
        boundary=boundary,
        message="ok",
    )


def _diagnostics(field: Field, params) -> BlowupDiagnostics:
    grid = field.grid
    tr = norms(field, params).triple
    v = Field(grid, project_t(tr) * field.values)
    i, j = np.unravel_index(int(np.argmax(v.values)), v.values.shape)
    M = float(v.values[i, j])
    fit = fit_instanton(v)
    return BlowupDiagnostics(
        M=M,
        delta_M=M ** (-2.0 / (grid.N - 2)),
        P=(float(grid.r[i]), float(grid.theta[j])),
        fit=fit.params,
        w_norm=fit.w_norm,
        boundary_flag=bool(i == grid.n_r - 1),
    )


def default_starts(params, config: SolveConfig, grid: AxiGrid):
    """Constant + three bubbles (clamped to resolvable scale) + random."""
    starts = [Field.constant(grid, 1.0)]
    floor = 2.0 * grid.min_boundary_spacing
    for frac in (0.3, 0.1, 0.03):
        eps = max(frac * grid.R, floor)
        try:
            starts.append(interpolate_instanton(grid, InstantonParams(eps)))
        except ResolutionError:
            continue
    rng = np.random.default_rng(config.seed)
    while len(starts) < config.n_starts:
        starts.append(Field(grid, 0.2 + rng.random((grid.n_r, grid.n_theta))))
    return starts[: config.n_starts]


def _minimize_over_starts(params, config: SolveConfig, grid: AxiGrid, starts, threads, solve_q):
    start_values = tuple(evaluate_I(s, params) for s in starts)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(lambda s: _descend(s, params, config, solve_q), starts))

    best = min(range(len(outcomes)), key=lambda k: outcomes[k][1])
    u, f, iters, converged = outcomes[best]
    tr = norms(u, params).triple
    return SolveResult(
        S_alpha_est=big_I(tr),
        minimizer=u,
        triple=tr,
        iterations=iters,
        converged=converged,
        diagnostics=_diagnostics(u, params),
        el_residual=euler_lagrange_residual(u, params, solve_q),
        start_values=start_values,
    )


def minimize(params, config: SolveConfig, grid: AxiGrid, threads: int = 1) -> SolveResult:
    """Best-of-multistart descent on I_alpha."""
    starts = default_starts(params, config, grid)
    return _minimize_over_starts(params, config, grid, starts, threads, _energy_solver(grid, params.a))


def sweep_alpha(base_params, alphas, config: SolveConfig, grid: AxiGrid, threads: int = 1) -> SweepResult:
    """Solve along an ascending alpha list, warm-starting from the last
    minimizer; monotonicity violations are flagged, never corrected."""
    alphas = [float(a) for a in alphas]
    if len(alphas) == 0:
        raise DomainError("alpha list must be nonempty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alpha list must be strictly ascending")
    if any(a < 0 for a in alphas):
        raise DomainError("alpha values must be nonnegative")

    results = []
    prev: Optional[Field] = None
    floor = 2.0 * grid.min_boundary_spacing
    solve_q = _energy_solver(grid, base_params.a)
    for a in alphas:
        params = replace(base_params, alpha=a)
        if prev is None:
            starts = default_starts(params, config, grid)
        else:
            starts = [prev, Field.constant(grid, 1.0)]
            try:
                starts.append(
                    interpolate_instanton(grid, InstantonParams(max(0.05 * grid.R, floor)))
                )
            except ResolutionError:
                pass
        res = _minimize_over_starts(params, config, grid, starts, threads, solve_q)
        results.append(res)
        prev = res.minimizer
    levels = [r.S_alpha_est for r in results]
    violations = tuple(
        i for i in range(1, len(levels)) if levels[i] < levels[i - 1] - 1e-6
    )
    return SweepResult(alphas=tuple(alphas), results=tuple(results), monotone_violations=violations)


def _amax_bound(base_params, grid: AxiGrid) -> float:
    """The alpha at which the constant trial alone reaches the limiting
    level; below it the constant function certifies S_alpha below the
    threshold, so alpha_0 can be no smaller."""
    vol = grid.volume
    limit = sobolev_S(grid.N) / 2.0 ** (2.0 / grid.N)

    def excess(a):
        return I_alpha_of_one(replace(base_params, alpha=float(a)), vol) - limit

    if excess(0.0) >= 0.0:
        return 0.0
    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 1e8:
            return float("inf")
    return float(optimize.brentq(excess, 0.0, hi, xtol=1e-10))


def estimate_alpha0(base_params, config: SolveConfig, grid: AxiGrid, bracket, threads: int = 1) -> Alpha0Result:
    """Bisect for the smallest alpha whose level saturates the limit.

    The crossing is detected against (1 - tau) S / 2^{2/N}; tau absorbs
    the mesh-limited bias of the discrete infimum near concentration.
    The returned estimate is biased low on the restricted space and is
    reported with two analytic lower bounds rather than asserted against
    them.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    tau = config.threshold_slack
    threshold = (1.0 - tau) * sobolev_S(grid.N) / 2.0 ** (2.0 / grid.N)

    evals = []
    solve_q = _energy_solver(grid, base_params.a)

    def level_at(a, warm):
        params = replace(base_params, alpha=a)
        if warm is None:
            starts = default_starts(params, config, grid)
        else:
            starts = [warm, Field.constant(grid, 1.0)]
        res = _minimize_over_starts(params, config, grid, starts, threads, solve_q)
        evals.append((a, res.S_alpha_est))
        return res

    res_lo = level_at(lo, None)
    if res_lo.S_alpha_est >= threshold:
        raise BracketError(
            f"S_est({lo}) = {res_lo.S_alpha_est:.6f} is not below the threshold "
            f"{threshold:.6f}; move the lower bracket down"
        )
    res_hi = level_at(hi, res_lo.minimizer)
    if res_hi.S_alpha_est < threshold:
        raise BracketError(
            f"S_est({hi}) = {res_hi.S_alpha_est:.6f} never reaches the threshold "
            f"{threshold:.6f}; move the upper bracket up"
        )

    warm = res_lo.minimizer
    while hi - lo > 1e-3 * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        res_mid = level_at(mid, warm)
        if res_mid.S_alpha_est < threshold:
            lo, warm = mid, res_mid.minimizer
        else:
            hi = mid
    s_lo = next(s for a, s in reversed(evals) if a == lo)
    s_hi = next(s for a, s in reversed(evals) if a == hi)
    return Alpha0Result(
        alpha_hat=0.5 * (lo + hi),
        certificate_below=(lo, s_lo),
        certificate_above=(hi, s_hi),
        threshold=threshold,
        analytic_curvature_bound=curvature_A(grid.N) / grid.R,
        analytic_amax_bound=_amax_bound(base_params, grid),
        evaluations=tuple(evals),
    )
