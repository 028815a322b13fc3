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
newest pair, to g.  The applied Q^{-1} is linear, so Q^{-1} of the
recursion's dual combination g - sum a_k y_k is the same combination
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

Q^{-1} is solved with no sparse factorization where the grid allows:
a Chebyshev iteration (Golub & Varga 1961) in the angular eigenbasis.
Q = (K_r + a M_r) (x) D_theta + D_r3 (x) K_theta + a M_r (x) (M_theta -
D_theta) is its separable neighbour P plus the angular mass defect of the
a-term.  The eigenvectors W of the pencil (K_theta, D_theta), computed to
high relative accuracy by Cholesky and bidiagonal QR (Demmel & Kahan
1990), turn P into one radial tridiagonal per angular mode (fast
diagonalization along one axis: Lynch, Rice & Thomas 1964), all factored
once per run; the mass defect becomes one dense coupling of the modes.
A solve is a product with W into mode coordinates, a fixed number of
tridiagonal solves with a coupled Q product between two, and a product
with W back.  The solver certifies once per run that the basis is exact
to a tenth of Q_RTOL and an interval [lo, hi] that holds the spectrum of
the computed P^{-1} Q; that interval fixes the number of tridiagonal
solves and bounds the Q-norm error by Q_RTOL, so a solve is one fixed
symmetric linear operator with no stopping test.  The interval hugs 1,
and a solve takes three or four tridiagonal solves to the accuracy of a
sparse LU.  On a grid stretched so far that the tridiagonal solves lose
the interval to rounding, or with a R^2 so small that the basis is not
exact enough, the certificate fails and the run solves with a sparse LU
of Q instead.

A run is one continuation: one such solver and one worker pool serve
all its solves at fixed alpha.  A cold solve descends from the constant,
bubbles and seeded random fields; a warm one from the warm start, the
constant unless the warm start is itself constant, and the run's
restarts.  The sweep's restart, a cold bubble, lives on the quarter grid
(n // 4 nodes per axis, where both quarters reach build_grid's floor of
32): it descends there with that grid's own Q^{-1}, and its final field
is prolonged bilinearly and refined on the run's grid, the nested
iteration of full multigrid (Brandt 1977).  A solve reports its winning
descent's level and stop reason, and reads its Euler-Lagrange residual
from that descent's final dual norm; arithmetic overflow in a descent is
a NumericalFailure.
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
from scipy import optimize, sparse
from scipy.linalg.lapack import dpteqr, dpttrf, dpttrs
from scipy.sparse.linalg import splu

from .constants import I_alpha_of_one, curvature_A, sobolev_S
from .domain_grid import (
    MIN_NODES,
    AxiGrid,
    Field,
    build_grid,
    energy_operator,
    interpolate_instanton,
    norm_gradients,
    norms,
    pole_distance,
    prolongation,
)
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
# A Q^{-1} solve reaches a Q-norm error of Q_RTOL times the solution's
# Q-norm, the accuracy of a sparse LU.  The Chebyshev iteration reads its
# number of P^{-1} applies off the interval [lo, hi] certified to hold the
# spectrum of the computed P^{-1} Q; a grid whose interval leaves
# P_SPECTRUM, or whose angular basis is off by more than Q_RTOL / 10, gets
# a direct solve instead, so at most 24 applies are made
Q_RTOL = 1e-11
P_SPECTRUM = (0.5, 2.0)


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
    alpha: float
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
    or ``line_search``), all on the run's grid; and the accepted steps
    of its coarse stage, 0 for a start with none."""
    iterations: int
    level: float
    grad_norm: float
    stop_reason: str
    coarse_iterations: int


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
    results: tuple                # one SolveResult per alpha, ascending
    monotone_violations: tuple


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


def _pencil_eigenpairs(main, off, measure, vectors=False):
    """Eigenvalues, in descending order, of one axis's pencil (A, D): A
    the symmetric tridiagonal (main, off), D the diagonal ``measure``;
    with ``vectors``, also ``(values, V)``, the columns of V orthonormal
    in D.  LAPACK ``dpteqr`` factors the D^{-1/2}-scaled band (Cholesky,
    then bidiagonal QR: Demmel & Kahan 1990), so even where its entries
    span many decades the eigenvalues keep high relative accuracy.  None
    where the scaled band is not numerically positive definite."""
    s = 1.0 / np.sqrt(measure)
    band = main * s * s, off * s[:-1] * s[1:]
    if not all(np.all(np.isfinite(b)) for b in band):
        return None  # which LAPACK would reject on stderr
    n = len(main)
    lam, _, z, info = dpteqr(*band, np.empty((n, n) if vectors else (1, 1)), compute_z=2 if vectors else 0)
    if info != 0:
        return None
    if not vectors:
        return lam
    # a graded band's eigenvectors decay over many decades; entries under
    # eps^2 of the unit columns change nothing the certificate can see,
    # and zeroed they keep subnormals out of every product with the basis
    z[np.abs(z) < np.finfo(float).eps ** 2] = 0.0
    return lam, s[:, None] * z


def _scaled_form(main, off, vecs, scale):
    """diag(scale) V^T A V diag(scale) for the symmetric tridiagonal
    A = (main, off) and the columns V of ``vecs``."""
    av = main[:, None] * vecs
    av[:-1] += off[:, None] * vecs[1:]
    av[1:] += off[:, None] * vecs[:-1]
    return (vecs.T @ av) * scale[:, None] * scale


class _ModeSolve(NamedTuple):
    """Q in the angular eigenbasis W, as _separable_inverse certifies it.
    A field X has mode coordinates Z = (X W)^T, an n_theta x n_r array
    whose row j is mode j's radial profile, and X = (W Z)^T; ``p_inv``
    and ``q`` act on such arrays."""
    w: np.ndarray                 # (n_theta, n_theta)
    p_inv: object                 # Z -> P~^{-1} Z, one dpttrs
    q: object                     # Z -> Q' Z
    lo: float                     # [lo, hi] holds the spectrum of the computed P~^{-1} Q'
    hi: float
    eta: float                    # the basis's defect: |Q~ - Q'| <= eta Q'


def _separable_inverse(grid: AxiGrid, a: float) -> Optional[_ModeSolve]:
    """Q and its separable neighbour P in the angular eigenbasis, with an
    interval certified to hold the spectrum of the computed P^{-1} Q; or
    None where the basis or the interval cannot be certified.

    lam_min is the least eigenvalue of the radial pencil (A_r, D_r3),
    A_r = K_r + a M_r, and (K_theta + lam_min D_theta) W = D_theta W Lam,
    W^T D_theta W = I; mu = Lam - lam_min.  In the coordinates Z,
    Q' Z = Z A_r + diag(mu) Z D_r3 + E^ (Z a M_r), E^ = W^T (M_theta -
    D_theta) W, is Q in the computed basis up to the basis's defect.
    Its first two terms, P~, are P = A_r (x) D_theta + D_r3 (x) K_theta
    in the basis: one radial tridiagonal A_r + mu_j D_r3 per mode,
    stacked into one tridiagonal with no coupling between blocks and
    factored once.

    The certificate bounds three things.
    - The basis: Q~, Q in the computed W, differs from Q' by
      A_r (x) (W^T D_theta W - I) + D_r3 (x) (W^T K_theta W - diag mu), at
      most P~ times the sum of |W^T D_theta W - I| and
      |Lam^{-1/2} (W^T K_theta W - diag mu) Lam^{-1/2}| (Frobenius norms),
      since P~ >= A_r (x) I and P~ >= D_r3 (x) Lam.  Divided by the least
      Q' / P~ below, that is eta, which adds straight to a solve's
      Q-norm error: a grid is accepted only where eta <= Q_RTOL / 10.
    - Q' / P~: Q' - P~ = a M_r (x) E^, and a M_r is at most sigma D_r3,
      sigma = a max eig(M_r, D_r3), and at most A_r; so where g_lo <= G
      <= g_hi for G = sigma (mu + sigma)^{-1/2} E^ (mu + sigma)^{-1/2},
      Q' / P~ lies in [1 + min(g_lo, 0), 1 + max(g_hi, 0)].
    - P~ against the computed P~^{-1}: an LDL^T solve of a tridiagonal T
      with positive pivots is exact for some T + dT, |dT| <= 5 u |T|
      (Higham 2002 on tridiagonal LU: 4u |L||D||L^T|, and that is |T| to
      rounding).  As x^T T x >= |x|^T <T> |x| for the comparison matrix
      <T> = 2 diag(T) - |T|, |x^T dT x| <= 5 u kappa x^T T x with kappa
      the largest eigenvalue of (|A_r|, <A_r>) (<A_r> = A_r where A_r's
      off-diagonal is negative, as the stiffness makes it).  For nu the
      least eigenvalue of (<A_r>, diag(A_r)), kappa = (2 - nu) / nu, and
      the quotient lies in [1 / (1 + delta), 1 / (1 - delta)] for
      delta = 5 u kappa.
    """
    (k_r, d_r3, m_r), (k_th, d_th, m_th) = grid.radial, grid.angular
    a_main, a_off = k_r[0] + a * m_r[0], k_r[1] + a * m_r[1]
    lam = _pencil_eigenpairs(a_main, a_off, d_r3[0])
    mass = _pencil_eigenpairs(m_r[0], m_r[1], d_r3[0])
    nu = _pencil_eigenpairs(a_main, -np.abs(a_off), a_main)
    if lam is None or mass is None or nu is None:
        return None
    lam_min = lam.min()
    basis = _pencil_eigenpairs(k_th[0] + lam_min * d_th[0], k_th[1], d_th[0], vectors=True)
    if basis is None:
        return None
    ev, w = basis
    mu = ev - lam_min
    sigma = a * mass.max()
    e_hat = _scaled_form(m_th[0] - d_th[0], m_th[1], w, np.ones_like(mu))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = 1.0 / np.sqrt(mu + sigma)
        g = np.linalg.eigvalsh(sigma * e_hat * scale[:, None] * scale)
        q_lo, q_hi = 1.0 + min(g[0], 0.0), 1.0 + max(g[-1], 0.0)
        ev_s = 1.0 / np.sqrt(ev)
        eta = np.linalg.norm((w.T * d_th[0]) @ w - np.eye(len(mu))) + np.linalg.norm(
            _scaled_form(k_th[0], k_th[1], w, ev_s) - np.diag(mu * ev_s**2)
        )
        eta /= q_lo
        delta = 2.5 * np.finfo(float).eps * (2.0 - nu.min()) / nu.min()
        lo, hi = q_lo / (1.0 + delta), q_hi / (1.0 - delta)
    # NaN where some mu + sigma is not positive
    if not (eta <= Q_RTOL / 10.0 and P_SPECTRUM[0] <= lo <= hi <= P_SPECTRUM[1]):
        return None
    # the stacked tridiagonals T = P~ and a M_r, one radial block per
    # mode, as the (-1, 0, 1) diagonals of DIA matrices over Z's rows
    n = grid.n_r * grid.n_theta
    bands = np.zeros((2, 3, grid.n_theta, grid.n_r))
    bands[0, 1] = a_main + mu[:, None] * d_r3[0]
    bands[1, 1] = a * m_r[0]
    bands[0, 0, :, :-1] = bands[0, 2, :, 1:] = a_off
    bands[1, 0, :, :-1] = bands[1, 2, :, 1:] = a * m_r[1]
    t, am = (sparse.dia_matrix((b.reshape(3, n), (-1, 0, 1)), shape=(n, n)) for b in bands)
    factor_d, factor_e, info = dpttrf(bands[0, 1].ravel(), bands[0, 2].ravel()[1:])
    if info != 0:
        return None

    def p_inv(z):
        return dpttrs(factor_d, factor_e, z.reshape(-1, 1))[0].reshape(z.shape)

    def q(z):
        flat = z.ravel()
        qz = (t @ flat).reshape(z.shape)
        qz += e_hat @ (am @ flat).reshape(z.shape)
        return qz

    return _ModeSolve(w, p_inv, q, float(lo), float(hi), float(eta))


def _direct_solver(grid: AxiGrid, a: float):
    """Q^{-1} by a sparse LU of Q."""
    lu = splu(energy_operator(grid, a))
    return lambda arr: lu.solve(arr.ravel()).reshape(arr.shape)


def _energy_solver(grid: AxiGrid, a: float):
    """Q^{-1} for the descent metric: a Chebyshev iteration on Q' in the
    angular eigenbasis, preconditioned with P~^{-1}, or a sparse LU of Q
    on a grid where _separable_inverse certifies no interval.

    With theta and delta the centre and half-width of the certified
    interval and sigma = theta / delta, m P~^{-1} applies leave a Q'-norm
    error of at most 1 / T_m(sigma) of the solution's, T_m the Chebyshev
    polynomial, and the basis adds at most eta; m is the least with
    1 / T_m(sigma) <= Q_RTOL - eta.  A solve is one GEMM into the mode
    coordinates, m applies (one dpttrs each) with a Q' product between
    two (one GEMM with E^ each), and one GEMM back: m + 1 dense products,
    and no Q is assembled.  It is one fixed polynomial in P~^{-1} Q'
    times P~^{-1}, so it is linear and symmetric; b = 0 gives 0, and a
    NaN in b gives a non-finite result.
    """
    modes = _separable_inverse(grid, a)
    if modes is None:
        return _direct_solver(grid, a)
    w, p_inv, q, lo, hi, eta = modes
    theta, delta = (hi + lo) / 2.0, (hi - lo) / 2.0
    sigma = theta / delta if delta > 0.0 else math.inf
    applies = max(1, math.ceil(math.acosh(1.0 / (Q_RTOL - eta)) / math.acosh(sigma)))
    shape = (grid.n_r, grid.n_theta)

    def solve(arr: np.ndarray) -> np.ndarray:
        r = w.T @ arr.reshape(shape).T
        d = p_inv(r) / theta
        x = d
        rho = 1.0 / sigma
        for _ in range(applies - 1):
            r -= q(d)
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = rho_next * rho * d + (2.0 * rho_next / delta) * p_inv(r)
            x += d
            rho = rho_next
        return (x.T @ w.T).reshape(arr.shape)

    return solve


def _dual_norm(garr: np.ndarray, solved: np.ndarray) -> float:
    gz = float(np.sum(garr * solved))
    if not 0.0 <= gz < math.inf:  # Q is positive definite
        raise NumericalFailure(f"g . Q^-1 g is {gz:g}: the Q^-1 solve lost accuracy")
    return math.sqrt(gz)


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
        solve_q = _direct_solver(field.grid, params.a)
    return _dual_norm(res, solve_q(res))


def fit_instanton(field: Field) -> BlowupDiagnostics:
    """Blow-up diagnostics of the field: its maximum M at P, the blow-up
    length delta_M = M^{-2/(N-2)}, whether P is a boundary node, and the
    least-squares bubble fit (C, eps) there.

    Each trial bubble is interpolate_instanton's, centred at the boundary
    pole nearer the peak and no finer than ``grid.min_bubble_eps``; the
    field is never mirrored, so either pole fits alike on a stretched
    grid.  The distance minimized is the gradient seminorm of the
    difference, quoted as w_norm: the residual is the difference's edge
    differences, weighted by the square roots of the edge coefficients.
    It is linear in C, so C is projected out in closed form, <t, b> /
    <b, b> for the edge parts t of the field and b of the unit bubble,
    and a bounded search in log eps from ``grid.min_bubble_eps`` to R,
    taken about the blow-up length so that its tolerance is absolute,
    minimizes the rest (variable projection: Golub & Pereyra 1973).  A
    peak whose ``pole_distance`` is far from both poles means the field
    is not concentrating there, and the fit is skipped, not forced:
    ``fit`` and ``w_norm`` are None and nan, and no grid-sized array is built.
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
    # blow-up length
    r, cos_theta = grid.r[i], np.cos(grid.theta)[j]
    south = bool(2.0 * r * grid.R * cos_theta < 0.0)
    dist = pole_distance(grid, r, cos_theta, south)
    if dist > min(max(2.0 * delta_M, 2.0 * grid.min_bubble_eps), 0.2 * grid.R):
        return skipped
    w_r, w_theta = np.sqrt(grid.r_edge_coeff), np.sqrt(grid.theta_edge_coeff)

    def edges(values):
        return np.concatenate(
            [(w_r * np.diff(values, axis=0)).ravel(), (w_theta * np.diff(values, axis=1)).ravel()]
        )

    target = edges(field.values)

    def projected(x):  # x = log(eps / delta_M), eps kept resolvable
        eps = max(delta_M * math.exp(x), grid.min_bubble_eps)
        b = edges(interpolate_instanton(grid, InstantonParams(eps), south).values)
        C = max(float(target @ b) / float(b @ b), 1e-12)
        return InstantonParams(eps=eps, amplitude=C), float(np.linalg.norm(target - C * b))

    # the squared distance, smooth at an exact fit, where the distance
    # itself has a kink the search's parabolic steps cannot follow
    sol = optimize.minimize_scalar(
        lambda x: projected(x)[1] ** 2,
        bounds=(math.log(grid.min_bubble_eps / delta_M), math.log(grid.R / delta_M)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    fit, w_norm = projected(sol.x)
    return replace(skipped, fit=fit, w_norm=w_norm)


def _resolvable_bubble(grid: AxiGrid, frac: float) -> Field:
    """The bubble of scale frac R, clamped to what the grid resolves."""
    eps = max(frac * grid.R, grid.min_bubble_eps)
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


def _minimize_over_starts(params, config: SolveConfig, starts, pool, solve_q, coarse=None):
    """Descend from every start over ``pool`` and keep the lowest level.

    ``solve_q`` is the Q^{-1} of the run's grid.  A start on another grid
    descends there first, with the Q^{-1} and the prolongation to the
    run's grid that ``coarse`` maps its grid to; its final field,
    prolonged, is the start of its descent on the run's grid, which
    clips it to >= 0 as it clips every start."""
    stages = coarse or {}

    def descend(start):
        coarse_iterations = 0
        if start.grid in stages:
            solve_c, prolong = stages[start.grid]
            first = _descend(start, params, config, solve_c)
            start, coarse_iterations = prolong(first.field), first.iterations
        return _descend(start, params, config, solve_q), coarse_iterations

    try:
        staged = list(pool.map(descend, starts))
    except ArithmeticError as exc:
        raise NumericalFailure(f"descent arithmetic failed: {type(exc).__name__}: {exc}") from exc
    outcomes = [d for d, _ in staged]

    # levels that agree to rounding tie, and the earliest start wins, so
    # a warm start listed first is kept over an equal cold one
    lowest = min(d.level for d in outcomes)
    best = next(d for d in outcomes if d.level <= lowest + TIE_RTOL * abs(lowest))
    u, tr = best.field, best.triple
    t = project_t(tr)
    return SolveResult(
        alpha=params.alpha,
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
            StartRecord(d.iterations, d.level, d.grad_norm, d.stop_reason, k) for d, k in staged
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
    warm one from [warm, constant, *restarts], or from [warm, *restarts]
    when the warm start is itself constant: the constant start would be
    its own ray, and the warm start, listed first, wins that tie.

    A restart may live on a coarser grid of the same ball, as the sweep's
    does on the quarter grid (_coarse_grid).  At every solve it descends
    there first, then its final field is prolonged to ``grid`` and
    descends again; the run makes that grid's Q^{-1} and prolongation
    once, beside its own.  A run with no restarts makes one solver."""
    solve_q = _energy_solver(grid, base_params.a)
    coarse = {
        g: (_energy_solver(g, base_params.a), prolongation(g, grid))
        for g in {s.grid for s in restarts} - {grid}
    }
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
            elif np.ptp(warm.values) == 0.0:
                starts = [warm, *restarts]
            else:
                starts = [warm, constant, *restarts]
            return _minimize_over_starts(params, config, starts, pool, solve_q, coarse)

        yield solve


def minimize(params, config: SolveConfig, grid: AxiGrid) -> SolveResult:
    """Best-of-multistart descent on I_alpha: ``config.n_starts`` starts
    on ``config.threads`` workers, the lowest final level wins."""
    with _continuation(params, config, grid) as solve:
        return solve(params.alpha)


def _coarse_grid(grid: AxiGrid) -> Optional[AxiGrid]:
    """The grid's quarter: the same N, R and stretch, with n // 4 nodes
    on each axis; None where either quarter is under build_grid's floor."""
    n_r, n_theta = grid.n_r // 4, grid.n_theta // 4
    if min(n_r, n_theta) < MIN_NODES:
        return None
    return build_grid(grid.N, grid.R, n_r, n_theta, grid.stretch)


def sweep_alpha(base_params, alphas, config: SolveConfig, grid: AxiGrid) -> SweepResult:
    """Solve along an ascending alpha list, warm-starting from the last
    minimizer; monotonicity violations are flagged, never corrected.

    Every warm solve also restarts from a cold 0.05 R bubble.  Where the
    grid has a quarter grid (_coarse_grid: from 128 nodes per axis) the
    bubble is built there, and descends there before it is prolonged and
    refined: below the threshold it collapses into the constant, and
    that collapse costs coarse steps, not fine ones."""
    alphas = [float(a) for a in alphas]
    if len(alphas) == 0:
        raise DomainError("alpha list must be nonempty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alpha list must be strictly ascending")
    if not all(0 <= a < math.inf for a in alphas):
        raise DomainError(f"alpha values must be finite and nonnegative, got {alphas}")

    results = []
    # a narrow bubble restarts every warm solve, so the sweep can leave
    # the constant branch once concentration wins
    coarse = _coarse_grid(grid)
    bubble = _resolvable_bubble(grid if coarse is None else coarse, 0.05)
    with _continuation(base_params, config, grid, (bubble,)) as solve:
        for a in alphas:
            results.append(solve(a, results[-1].minimizer if results else None))
    levels = [r.S_alpha_est for r in results]
    violations = tuple(i for i in range(1, len(levels)) if levels[i] < levels[i - 1] - 1e-6)
    return SweepResult(results=tuple(results), monotone_violations=violations)


def _amax_bound(base_params, grid: AxiGrid) -> float:
    """The alpha at which the constant trial alone reaches the limiting
    level; below it the constant function certifies S_alpha below the
    threshold, so alpha_0 can be no smaller.  A closed-form bracket keeps
    it finite at every R the grid accepts, scaling as 1/R like alpha_0."""
    vol = grid.volume
    limit = sobolev_S(grid.N) / 2.0 ** (2.0 / grid.N)

    def excess(a):
        return I_alpha_of_one(replace(base_params, alpha=float(a)), vol) - limit

    if excess(0.0) >= 0.0:
        return 0.0
    # the constant's kappa base is at least alpha, so its level is at least
    # (vol/tt)^{2/N} alpha^2 and the crossing lies below alpha_star; twice
    # alpha_star keeps a sign change where a << alpha^2 makes that tight
    alpha_star = math.sqrt(limit) * (float(base_params.exponents.two_tilde) / vol) ** (1.0 / grid.N)
    return float(optimize.brentq(excess, 0.0, 2.0 * alpha_star, xtol=2e-12 * alpha_star))


def estimate_alpha0(base_params, config: SolveConfig, grid: AxiGrid, bracket) -> Alpha0Result:
    """Bisect for the smallest alpha whose level saturates the limit.

    The crossing is detected against (1 - tau) S / 2^{2/N}; ``config.tau``
    absorbs the mesh-limited bias of the discrete infimum near
    concentration.  The returned estimate is biased low on the restricted
    space and is reported with two analytic lower bounds rather than
    asserted against them.  The bisection keeps the two certificates'
    solve records, ``below`` and ``above``; a midpoint starts from below's.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 <= lo < hi < math.inf:
        raise DomainError(f"need 0 <= lo < hi, both finite, got ({lo}, {hi})")
    threshold = (1.0 - config.tau) * sobolev_S(grid.N) / 2.0 ** (2.0 / grid.N)

    evals = []
    with _continuation(base_params, config, grid) as solve:

        def level_at(a, warm=None):
            res = solve(a, warm)
            evals.append((res.alpha, res.S_alpha_est, res.converged))
            return res

        below = level_at(lo)
        if below.S_alpha_est >= threshold:
            raise BracketError(
                f"S_est({lo}) = {below.S_alpha_est:.6f} is not below the threshold "
                f"{threshold:.6f}; move the lower bracket down"
            )
        above = level_at(hi, below.minimizer)
        if above.S_alpha_est < threshold:
            raise BracketError(
                f"S_est({hi}) = {above.S_alpha_est:.6f} never reaches the threshold "
                f"{threshold:.6f}; move the upper bracket up"
            )

        while above.alpha - below.alpha > 1e-3 * 0.5 * (above.alpha + below.alpha):
            res = level_at(0.5 * (below.alpha + above.alpha), below.minimizer)
            if res.S_alpha_est < threshold:
                below = res
            else:
                above = res
    return Alpha0Result(
        alpha_hat=0.5 * (below.alpha + above.alpha),
        certificate_below=(below.alpha, below.S_alpha_est),
        certificate_above=(above.alpha, above.S_alpha_est),
        threshold=threshold,
        analytic_curvature_bound=curvature_A(grid.N) / grid.R,
        analytic_amax_bound=_amax_bound(base_params, grid),
        evaluations=tuple(evals),
    )
