"""Scale-invariant minimization of the reduced level over grid fields.

The functional minimized is the degree-0 homogeneous I of the field's
norm triple, so no Nehari-manifold retraction is needed; the projection
onto the manifold is absorbed into the closed-form t(u).

Descent is projected L-BFGS in the energy metric.  Q, the energy
operator (stiffness plus consistent mass), is the Riesz map of that
metric: z = Q^{-1} g is the gradient of I as a field, and the stopping
rule is the dual norm sqrt(g . z) of the nodal derivative g.  Plain
nodal derivatives chase the fine boundary cells of a stretched mesh and
stall.  The two-loop recursion applies the limited-memory inverse
Hessian, seeded with gamma Q^{-1}, gamma = s.y / y.Q^{-1}y from the
newest pair, to g.  Q^{-1} is linear, so Q^{-1} of the recursion's
dual combination g - sum a_k y_k is the same combination
z - sum a_k dz_k of primal vectors, dz_k = Q^{-1} y_k = z_{k+1} - z_k.
Each pair therefore keeps its dz, and an iteration makes exactly one
Q^{-1} solve, the one for the new gradient.

A trial takes the unit step along that direction and clips to the
nonnegative cone (every term of the functional is even in u except the
positivity the ground state wants); it is accepted under the Armijo
rule on the projected path, f(trial) <= f + c g . (trial - u), with a
decrease beyond the level's rounding, and the step is halved
otherwise.  Pairs with s.y <= 0 are dropped.  When the
line search fails the history is cleared and the search retried along
z; a second failure stops the descent.  Each point visited, the start
and every trial, costs one kernel pass: gradient_I gives its triple, so
its level, with its gradient as an array, and a trial whose level is not
finite fails the Armijo test.  Only an accepted trial is rescaled to
critical mass 1, pinning the scale direction; I having degree 0, its
triple and gradient follow by homogeneity: the step adds one Q^{-1} solve.

Q^{-1} is solved exactly, with no factorization where the grid allows:
conjugate gradients on Q, preconditioned with the inverse of its
separable neighbour P = (K_r + a M_r) (x) D_theta + D_r3 (x) K_theta,
which lumps the angular mass of the a-term.  Each axis's pencil is one
symmetric tridiagonal eigenproblem, so P^{-1} is four dense products
(fast diagonalization: Lynch, Rice & Thomas 1964; Deville, Fischer &
Mund 2002).  The spectrum of P^{-1} Q hugs 1, so a solve takes three or
four iterations to the accuracy of a sparse LU.  The solver certifies
that spectrum once per run; on a grid stretched so far that the
eigenproblems lose their small eigenvalues, the certificate fails and
the run solves with a sparse LU of Q instead.

A run is one continuation: one such solver and one worker pool serve
all its solves at fixed alpha.  A solve reports its winning descent's level
and stop reason, and reads its Euler-Lagrange residual from that descent's
final dual norm; arithmetic overflow in a descent is a NumericalFailure.
A run on one worker opens no pool: its descents run in the calling thread,
one after another, and give the same bytes a pool does.  One SolveConfig
holds all of a run's settings, the worker count included; its fields and
defaults are those of the CLI's solver config keys.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np
from scipy import optimize
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from .constants import I_alpha_of_one, curvature_A, sobolev_S
from .domain_grid import AxiGrid, Field, energy_operator, interpolate_instanton, norm_gradients, norms
from .errors import BracketError, ConfigurationError, DomainError, NumericalFailure
from .instanton import InstantonParams
from .nehari import NormTriple, big_I, project_t, psi_from_projection


# Armijo backtracking: first trial step, shrink factor per rejected
# trial, sufficient-decrease constant, and trials before giving up.
INITIAL_STEP = 1.0
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 40
# a trial must also lower the level by more than this relative amount,
# the rounding of its evaluation: at a critical point the gradient is
# round-off, and a decrease of a few ulps is noise, not a step
LEVEL_RTOL = 8.0 * float(np.finfo(float).eps)
# L-BFGS memory: curvature pairs kept for the two-loop recursion
HISTORY = 5
# starts whose final levels agree to this relative tolerance tie, and
# the earliest listed one wins
TIE_RTOL = 1e-12
# A Q^{-1} solve stops once its residual's P^{-1}-norm is CG_RTOL of the
# right-hand side's, the accuracy of a sparse LU.  That bounds the Q-norm
# error by CG_RTOL sqrt(hi / lo) when the spectrum of P^{-1} Q, as
# computed, is certified to lie in [lo, hi]; a grid whose certified
# interval leaves CG_SPECTRUM gets a direct solve instead.  Inside it,
# CG_MAX_ITERS iterations suffice, and a solve that needs more raises
CG_RTOL = 1e-11
CG_SPECTRUM = (0.5, 2.0)
CG_MAX_ITERS = 30


@dataclass(frozen=True)
class SolveConfig:
    """A run's solver settings.  The fields are the solver subcommands'
    config keys, under the same names and with the same defaults:
    iteration cap and dual-norm stopping tolerance of each descent,
    number of starts, seed of the random starts, the alpha_0 threshold
    slack tau, and the number of workers the starts run on.  Each is
    checked for its type (a bool is no int) and its range."""
    max_iters: int = 400
    grad_tol: float = 1e-4
    n_starts: int = 4
    seed: int = 0
    tau: float = 0.01
    threads: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": numbers.Integral, "float": numbers.Real}[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
        if not 0 < self.grad_tol < math.inf:
            raise ConfigurationError(f"finite grad_tol > 0 required, got {self.grad_tol}")
        if not 0 < self.tau < 0.1:
            raise ConfigurationError(f"tau in (0, 0.1) required, got {self.tau}")
        for key in ("max_iters", "n_starts", "threads"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigurationError(f"{key} >= 1 required, got {value}")
        if self.seed < 0:
            raise ConfigurationError(f"seed >= 0 required, got {self.seed}")


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
    starts: tuple                 # one StartRecord per start, in start order


@dataclass(frozen=True)
class StartRecord:
    """What one start's descent did: accepted steps, final level, final
    dual gradient norm, and why it stopped (``converged``, ``max_iters``
    or ``line_search``)."""
    iterations: int
    level: float
    grad_norm: float
    stop_reason: str


class Descent(NamedTuple):
    field: Field
    level: float
    iterations: int
    start_level: float
    grad_norm: float
    stop_reason: str
    triple: NormTriple            # the final field's, exact by homogeneity


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
    evaluations: tuple            # (alpha, S_est, converged) per solve, in order


def evaluate_I(field: Field, params) -> float:
    return big_I(norms(field, params).triple)


def _first_variation(field: Field, params):
    """The field's NormReport, its projection multiplier t, and the nodal
    first variation dPsi = t^2/2 a_bar' + t^tt/tt b' - t^ts/ts c' of the
    reduced energy Psi(u) = E(t(u) u), all from one kernel pass.

    The inner t is stationary, so only the explicit u differentiates; by
    homogeneity of degrees 2, two_tilde and two_star, dPsi = t E'(t u).
    gradient_I scales dPsi by its envelope prefactor, and the
    Euler-Lagrange residual measures dPsi / t.
    """
    rep, pullback = norm_gradients(field, params)
    t = project_t(rep.triple)
    ts = float(rep.triple.exponents.two_star)
    tt = float(rep.triple.exponents.two_tilde)
    return rep, t, pullback(t**2 / 2.0, t**tt / tt, -(t**ts) / ts)


def _envelope_prefactor(tr: NormTriple) -> float:
    """dI/dPsi = 2 (N Psi)^((2-N)/N) for I = (N Psi)^{2/N}."""
    return 2.0 * (tr.N * psi_from_projection(tr)) ** ((2.0 - tr.N) / tr.N)


def gradient_I(field: Field, params) -> tuple[NormTriple, np.ndarray]:
    """The field's triple and the nodal derivative of I, an array, from one pass.

    I = (N Psi)^{2/N} with Psi evaluated at the manifold projection t(u)u;
    the inner t is stationary, so only the explicit dependence on the
    triple differentiates.
    """
    rep, _, d_psi = _first_variation(field, params)
    return rep.triple, _envelope_prefactor(rep.triple) * d_psi


def _axis_eigenpairs(main, off, measure):
    """Eigenvalues and measure-orthonormal eigenvectors of one axis's
    pencil (A, D): A the symmetric tridiagonal (main, off), D the
    diagonal ``measure``, through the D^{-1/2}-scaled tridiagonal."""
    s = 1.0 / np.sqrt(measure)
    lam, vecs = eigh_tridiagonal(main * s * s, off * s[:-1] * s[1:])
    return lam, s[:, None] * vecs


def _scaled_form(main, off, vecs, scale):
    """diag(scale) V^T A V diag(scale) for the symmetric tridiagonal
    A = (main, off) and the columns V of ``vecs``."""
    av = main[:, None] * vecs
    av[:-1] += off[:, None] * vecs[1:]
    av[1:] += off[:, None] * vecs[:-1]
    return (vecs.T @ av) * scale[:, None] * scale


def _separable_inverse(grid: AxiGrid, a: float):
    """P^{-1} for P = (K_r + a M_r) (x) D_theta + D_r3 (x) K_theta, or None
    when the spectrum of the computed P^{-1} Q is not certified to lie
    in CG_SPECTRUM.

    With (K_r + a M_r) V = D_r3 V diag(lam) and K_theta W = D_theta W
    diag(mu), both bases orthonormal in their measures,
    P^{-1} X = V [(V^T X W) / (lam_i + mu_j)] W^T.

    The certificate multiplies two ranges of Rayleigh quotients.
    - Q / P: Q - P = a M_r (x) E, E = M_theta - D_theta.  In the
      eigenbases a M_r is at most sigma I, sigma = a max eig(M_r, D_r3),
      and at most diag(lam); so where g_lo <= G <= g_hi for
      G = sigma (mu + sigma)^{-1/2} W^T E W (mu + sigma)^{-1/2}, Q / P
      lies in [1 + min(g_lo, 0), 1 + max(g_hi, 0)].
    - P against the inverse of the computed P^{-1}: the eigensolver works
      on D^{-1/2}-scaled bands, whose entries grow like the inverse of
      the smallest cells, and strong stretches cost it the small
      eigenvalues.  The defects of V^T (K_r + a M_r) V against diag(lam),
      relative to lam, and of W^T K_theta W against diag(mu), relative
      to mu + min lam, sum (in Frobenius norm) to delta, and the quotient
      lies in [1 - delta, 1 + delta].  The scaled eigenvectors are
      orthonormal to working precision, so the measures add rounding only.
    """
    (k_r, d_r3, m_r), (k_th, d_th, m_th) = grid.radial, grid.angular
    a_main, a_off = k_r[0] + a * m_r[0], k_r[1] + a * m_r[1]
    lam, v = _axis_eigenpairs(a_main, a_off, d_r3[0])
    mu, w = _axis_eigenpairs(k_th[0], k_th[1], d_th[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        lam_s, mu_s = 1.0 / np.sqrt(lam), 1.0 / np.sqrt(mu + lam.min())
        delta = np.linalg.norm(_scaled_form(a_main, a_off, v, lam_s) - np.diag(lam * lam_s**2))
        delta += np.linalg.norm(_scaled_form(k_th[0], k_th[1], w, mu_s) - np.diag(mu * mu_s**2))
    # NaN when some lam or mu + min lam is not positive
    if not delta < 1.0:
        return None
    s, top = 1.0 / np.sqrt(d_r3[0]), grid.n_r - 1
    sigma = a * eigh_tridiagonal(
        m_r[0] * s * s, m_r[1] * s[:-1] * s[1:], eigvals_only=True, select="i", select_range=(top, top)
    )[0]
    g = np.linalg.eigvalsh(
        sigma * _scaled_form(m_th[0] - d_th[0], m_th[1], w, 1.0 / np.sqrt(mu + sigma))
    )
    lo, hi = (1.0 - delta) * (1.0 + min(g[0], 0.0)), (1.0 + delta) * (1.0 + max(g[-1], 0.0))
    if not CG_SPECTRUM[0] <= lo <= hi <= CG_SPECTRUM[1]:
        return None
    denom = lam[:, None] + mu

    def apply(x: np.ndarray) -> np.ndarray:
        return v @ ((v.T @ x @ w) / denom) @ w.T

    return apply


def _energy_solver(grid: AxiGrid, a: float):
    """Exact action of Q^{-1} for the descent metric: conjugate gradients
    on Q, preconditioned with the separable P^{-1}, or a sparse LU of Q
    on a grid too stretched for P^{-1} to be certified.

    Raises NumericalFailure when a CG solve does not reach CG_RTOL
    within CG_MAX_ITERS iterations.
    """
    q = energy_operator(grid, a)
    p_inv = _separable_inverse(grid, a)
    if p_inv is None:
        lu = splu(q.tocsc())
        return lambda arr: lu.solve(arr.ravel()).reshape(arr.shape)
    shape = (grid.n_r, grid.n_theta)

    def solve(arr: np.ndarray) -> np.ndarray:
        b = arr.reshape(shape)
        x = np.zeros(shape)
        r = b.copy()
        z = p_inv(r)
        rz = rz0 = float(np.vdot(r, z))
        p = z
        iters = 0
        # written so that a NaN quadratic form runs into the cap; b = 0 gives 0
        while not rz <= CG_RTOL**2 * rz0:
            if iters == CG_MAX_ITERS:
                raise NumericalFailure(
                    f"Q^{{-1}} solve did not reach {CG_RTOL:g} in {CG_MAX_ITERS} CG iterations"
                )
            qp = (q @ p.ravel()).reshape(shape)
            alpha = rz / float(np.vdot(p, qp))
            x += alpha * p
            r -= alpha * qp
            z = p_inv(r)
            rz_next = float(np.vdot(r, z))
            p *= rz_next / rz
            p += z
            rz = rz_next
            iters += 1
        return x.reshape(arr.shape)

    return solve


def _dual_norm(garr: np.ndarray, solved: np.ndarray) -> float:
    return float(math.sqrt(max(np.sum(garr * solved), 0.0)))


def _lbfgs_direction(garr: np.ndarray, zarr: np.ndarray, history) -> np.ndarray:
    """H g by the two-loop recursion, H0 = gamma Q^{-1}, with no solve.

    ``zarr`` is Q^{-1} g and ``history`` holds (s, y, dz, rho) oldest
    first, dz = Q^{-1} y and rho = 1 / s.y.  The first loop carries the
    dual vector q = g - sum a_k y_k beside its primal image
    z - sum a_k dz_k = Q^{-1} q.  An empty history gives z itself.
    """
    if not history:
        return zarr
    q, zq = garr.copy(), zarr.copy()
    coeffs = []
    for s, y, dz, rho in reversed(history):
        a = rho * float(np.vdot(s, q))
        q -= a * y
        zq -= a * dz
        coeffs.append(a)
    s, y, dz, rho = history[-1]
    r = zq
    r *= float(np.vdot(s, y)) / float(np.vdot(y, dz))
    for (s, y, _, rho), a in zip(history, reversed(coeffs)):
        r += (a - rho * float(np.vdot(y, r))) * s
    return r


def _descend(start: Field, params, config: SolveConfig, solve_q) -> Descent:
    grid = start.grid
    ts = float(params.exponents.two_star)

    def pinned(values, tr, garr):
        # u / m, m = c^(1/ts), has |u|_{2*} = 1; its triple follows from tr
        # by homogeneity and, I having degree 0, its gradient is m grad I(u),
        # with no further pass
        m = tr.c ** (1.0 / ts)
        return values / m, tr.scaled(1.0 / m), m * garr

    def riesz(garr, k):
        zarr = solve_q(garr)
        if not np.all(np.isfinite(zarr)):
            raise NumericalFailure(f"descent direction is not finite at iteration {k}")
        return zarr

    def line_search(u, f, garr, direction, k):
        s = INITIAL_STEP
        for _ in range(MAX_BACKTRACKS):
            trial_vals = np.maximum(u - s * direction, 0.0)
            s *= BACKTRACK
            move = trial_vals - u
            if not math.isfinite(float(np.sum(grid.mass * move**2))):
                raise NumericalFailure(f"descent trial blew up at iteration {k}")
            slope = float(np.vdot(garr, move))
            if not slope < 0.0 or not trial_vals.any():
                continue
            # the level is scaling-invariant, so judge the raw trial and
            # only rescale to |u|_{2*} = 1 once it is accepted
            ttr, tg = gradient_I(Field(grid, trial_vals), params)
            f_try = big_I(ttr)
            if f_try <= min(f + SUFFICIENT_DECREASE * slope, f - LEVEL_RTOL * f):
                return pinned(trial_vals, ttr, tg), f_try
        return None

    # one pass over the clipped start gives its level, its gradient and
    # the scale that pins |u|_{2*} = 1
    clipped = np.maximum(start.values, 0.0)
    tr, g = gradient_I(Field(grid, clipped), params)
    f = f_start = big_I(tr)
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise NumericalFailure(f"descent start is not finite: level {f:g}")
    u, tr, garr = pinned(clipped, tr, g)
    zarr = riesz(garr, 1)
    history = deque(maxlen=HISTORY)
    iters = 0
    while True:
        gnorm = _dual_norm(garr, zarr)
        if gnorm <= config.grad_tol:
            reason = "converged"
            break
        if iters == config.max_iters:
            reason = "max_iters"
            break
        direction = _lbfgs_direction(garr, zarr, history)
        if not np.all(np.isfinite(direction)):
            raise NumericalFailure(f"descent direction is not finite at iteration {iters + 1}")
        found = line_search(u, f, garr, direction, iters + 1)
        if found is None and history:
            history.clear()
            found = line_search(u, f, garr, zarr, iters + 1)
        if found is None:
            reason = "line_search"
            break
        (u_new, tr_new, g_new), f = found
        iters += 1
        z_new = riesz(g_new, iters + 1)
        s, y = u_new - u, g_new - garr
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            history.append((s, y, z_new - zarr, 1.0 / sy))
        u, tr, garr, zarr = u_new, tr_new, g_new, z_new
    return Descent(Field(grid, u), f, iters, f_start, gnorm, reason, tr)


def euler_lagrange_residual(field: Field, params, solve_q=None) -> float:
    """Weak residual of the rescaled field on the natural constraint.

    At v = t(u) u criticality of the free energy means E'(v) =
    (1/2) a_bar'(v) + (1/two_tilde) b'(v) - (1/two_star) c'(v) = 0 nodally.
    E'(v) is dPsi / t, the first variation that gradient_I scales by its
    envelope prefactor, so the residual equals the dual norm of
    gradient_I divided by that prefactor and t.  It is measured in the
    dual norm the descent uses for its stopping rule.
    """
    _, t, d_psi = _first_variation(field, params)
    res = d_psi / t
    if solve_q is None:
        # a direct solve, independent of the descent's iterative one
        lu = splu(energy_operator(field.grid, params.a).tocsc())
        return _dual_norm(res, lu.solve(res.ravel()).reshape(res.shape))
    return _dual_norm(res, solve_q(res))


def fit_instanton(field: Field) -> BlowupDiagnostics:
    """Blow-up diagnostics of the field: its maximum M at P, the blow-up
    length delta_M = M^{-2/(N-2)}, whether P is a boundary node, and the
    least-squares bubble fit (C, eps) there.

    Each trial bubble is interpolate_instanton's, centred at the boundary
    pole nearer the peak; the field is never mirrored, so either pole
    fits alike on a stretched grid.  The distance minimized is the
    gradient seminorm of the difference, quoted as w_norm: the residual is
    the difference's edge differences, weighted by the square roots of
    the edge coefficients.  It is linear in C, so C is projected out in
    closed form, <t, b> / <b, b> for the edge parts t of the field and b
    of the unit bubble, and a bounded search in log eps, taken about the
    blow-up length so that its tolerance is absolute and clamped to the
    resolvable scale, minimizes the rest (variable projection: Golub &
    Pereyra 1973).  A peak far from both poles means the field is not
    concentrating there, and the fit is skipped, not forced: ``fit`` and
    ``w_norm`` are None and nan, and no grid-sized array is built.
    """
    grid = field.grid
    i, j = np.unravel_index(int(np.argmax(field.values)), field.values.shape)
    M = float(field.values[i, j])
    delta_M = M ** (-2.0 / (grid.N - 2))
    skipped = BlowupDiagnostics(
        M=M,
        delta_M=delta_M,
        P=(float(grid.r[i]), float(grid.theta[j])),
        fit=None,
        w_norm=float("nan"),
        boundary_flag=bool(i == grid.n_r - 1),
    )
    # the argmax of a noisy concentrating profile wanders within the
    # bubble core (many stretched nodes fit inside it), so gate on the
    # physical distance from the peak to the nearer pole, scaled by the
    # blow-up length; the arithmetic is interpolate_instanton's at (i, j)
    r = grid.r[i]
    cross = 2.0 * r * grid.R * np.cos(grid.theta)[j]
    south = bool(cross < 0.0)
    dist = math.sqrt(max(r**2 + grid.R**2 - abs(cross), 0.0))
    if dist > min(max(2.0 * delta_M, 4.0 * grid.min_boundary_spacing), 0.2 * grid.R):
        return skipped
    eps_floor = max(2.0 * grid.min_boundary_spacing, 1e-12)
    w_r, w_theta = np.sqrt(grid.r_edge_coeff), np.sqrt(grid.theta_edge_coeff)

    def edges(values):
        return np.concatenate(
            [(w_r * np.diff(values, axis=0)).ravel(), (w_theta * np.diff(values, axis=1)).ravel()]
        )

    target = edges(field.values)

    def projected(x):  # x = log(eps / delta_M), eps kept resolvable
        eps = max(delta_M * math.exp(x), eps_floor)
        b = edges(interpolate_instanton(grid, InstantonParams(eps), south).values)
        C = max(float(target @ b) / float(b @ b), 1e-12)
        return InstantonParams(eps=eps, amplitude=C), float(np.linalg.norm(target - C * b))

    # the squared distance, smooth at an exact fit, where the distance
    # itself has a kink the search's parabolic steps cannot follow
    sol = optimize.minimize_scalar(
        lambda x: projected(x)[1] ** 2,
        bounds=(math.log(eps_floor / delta_M), math.log(grid.R / delta_M)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    fit, w_norm = projected(sol.x)
    return replace(skipped, fit=fit, w_norm=w_norm)


def _resolvable_bubble(grid: AxiGrid, frac: float) -> Field:
    """The bubble of scale frac R, clamped to what the grid resolves."""
    eps = max(frac * grid.R, 2.0 * grid.min_boundary_spacing)
    return interpolate_instanton(grid, InstantonParams(eps))


def default_starts(config: SolveConfig, grid: AxiGrid):
    """The first ``n_starts`` of: constant, three bubbles (clamped to
    resolvable scale), then seeded random fields."""
    scales = (0.3, 0.1, 0.03)[: config.n_starts - 1]
    starts = [Field.constant(grid, 1.0)] + [_resolvable_bubble(grid, f) for f in scales]
    rng = np.random.default_rng(config.seed)
    while len(starts) < config.n_starts:
        starts.append(Field(grid, 0.2 + rng.random((grid.n_r, grid.n_theta))))
    return starts


def _minimize_over_starts(params, config: SolveConfig, starts, pool, solve_q):
    """Descend from every start over ``pool`` and keep the lowest level."""
    try:
        outcomes = list(pool.map(lambda s: _descend(s, params, config, solve_q), starts))
    except ArithmeticError as exc:
        raise NumericalFailure(f"descent arithmetic failed: {type(exc).__name__}: {exc}") from exc

    # levels that agree to rounding tie, and the earliest start wins, so
    # a warm start listed first is kept over an equal cold one
    lowest = min(d.level for d in outcomes)
    best = next(d for d in outcomes if d.level <= lowest + TIE_RTOL * abs(lowest))
    u, tr = best.field, best.triple
    t = project_t(tr)
    return SolveResult(
        S_alpha_est=best.level,
        minimizer=u,
        triple=tr,
        iterations=best.iterations,
        converged=best.stop_reason == "converged",
        diagnostics=fit_instanton(Field(u.grid, t * u.values)),
        # the descent's final dual norm is that of gradient_I at u, which
        # is the residual's dPsi / t scaled by the prefactor and t
        el_residual=best.grad_norm / (_envelope_prefactor(tr) * t),
        start_values=tuple(d.start_level for d in outcomes),
        starts=tuple(
            StartRecord(d.iterations, d.level, d.grad_norm, d.stop_reason) for d in outcomes
        ),
    )


# the calling thread as a one-worker pool
_CALLING_THREAD = SimpleNamespace(map=map)


@contextmanager
def _continuation(base_params, config: SolveConfig, grid: AxiGrid, restarts=()):
    """Yield solve(alpha, warm=None) for one run: one Q^{-1} solver and
    one pool of ``config.threads`` workers serve every solve.  One worker
    is the calling thread itself, which descends from the starts in turn
    and opens no pool, so the run holds no second thread's allocator
    arena and BLAS buffer.  A cold solve starts from default_starts, a
    warm one from [warm, constant, *restarts]."""
    solve_q = _energy_solver(grid, base_params.a)
    constant = Field.constant(grid, 1.0)
    if config.threads == 1:
        workers = nullcontext(_CALLING_THREAD)
    else:
        workers = ThreadPoolExecutor(max_workers=config.threads)
    with workers as pool:

        def solve(alpha: float, warm: Optional[Field] = None) -> SolveResult:
            params = replace(base_params, alpha=alpha)
            if warm is None:
                starts = default_starts(config, grid)
            else:
                starts = [warm, constant, *restarts]
            return _minimize_over_starts(params, config, starts, pool, solve_q)

        yield solve


def minimize(params, config: SolveConfig, grid: AxiGrid) -> SolveResult:
    """Best-of-multistart descent on I_alpha: ``config.n_starts`` starts
    on ``config.threads`` workers, the lowest final level wins."""
    with _continuation(params, config, grid) as solve:
        return solve(params.alpha)


def sweep_alpha(base_params, alphas, config: SolveConfig, grid: AxiGrid) -> SweepResult:
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
    # a fine bubble restarts every warm solve, so the sweep can leave the
    # constant branch once concentration wins
    bubble = _resolvable_bubble(grid, 0.05)
    with _continuation(base_params, config, grid, (bubble,)) as solve:
        for a in alphas:
            results.append(solve(a, results[-1].minimizer if results else None))
    levels = [r.S_alpha_est for r in results]
    violations = tuple(i for i in range(1, len(levels)) if levels[i] < levels[i - 1] - 1e-6)
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


def estimate_alpha0(base_params, config: SolveConfig, grid: AxiGrid, bracket) -> Alpha0Result:
    """Bisect for the smallest alpha whose level saturates the limit.

    The crossing is detected against (1 - tau) S / 2^{2/N}; ``config.tau``
    absorbs the mesh-limited bias of the discrete infimum near
    concentration.  The returned estimate is biased low on the restricted
    space and is reported with two analytic lower bounds rather than
    asserted against them.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    threshold = (1.0 - config.tau) * sobolev_S(grid.N) / 2.0 ** (2.0 / grid.N)

    evals = []
    with _continuation(base_params, config, grid) as solve:

        def level_at(a, warm):
            res = solve(a, warm)
            evals.append((a, res.S_alpha_est, res.converged))
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

        s_lo, s_hi, warm = res_lo.S_alpha_est, res_hi.S_alpha_est, res_lo.minimizer
        while hi - lo > 1e-3 * 0.5 * (hi + lo):
            mid = 0.5 * (lo + hi)
            res_mid = level_at(mid, warm)
            if res_mid.S_alpha_est < threshold:
                lo, s_lo, warm = mid, res_mid.S_alpha_est, res_mid.minimizer
            else:
                hi, s_hi = mid, res_mid.S_alpha_est
    return Alpha0Result(
        alpha_hat=0.5 * (lo + hi),
        certificate_below=(lo, s_lo),
        certificate_above=(hi, s_hi),
        threshold=threshold,
        analytic_curvature_bound=curvature_A(grid.N) / grid.R,
        analytic_amax_bound=_amax_bound(base_params, grid),
        evaluations=tuple(evals),
    )
