"""Scalar reduction of the variational problem.

A nonzero trial function enters the reduced energy only through three
numbers: the squared norm ``a_bar``, the weighted trace-critical mass
``b`` and the critical mass ``c``.  This module is exact algebra on that
triple: projection onto the natural constraint, the reduced energy, the
scale-invariant level, and the elementary bounds used in the threshold
analysis.

Two deliberately redundant evaluation routes exist for the energy and
three for the level.  They are kept separate so the test suite can play
them against each other; do not merge them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import Exponents
from .errors import DegenerateInputError, DomainError

__all__ = [
    "NormTriple",
    "HParams",
    "project_t",
    "psi",
    "psi_from_projection",
    "psi_delta_form",
    "big_I",
    "big_I_product_form",
    "lower_bound",
    "upper_bound",
    "energy_over_beta",
    "upper_bound_constant",
    "h_function",
    "h_endpoint_minimum_check",
    "calculus_inequality",
    "bernoulli_inequality",
]


@dataclass(frozen=True)
class NormTriple:
    """(a_bar, b, c) summary of a trial function in dimension N.

    a_bar is the full squared norm (gradient part plus a times the L2
    mass), so it is strictly positive for any admissible field.  b
    carries the alpha weight already.  c must be positive or the
    constraint projection is undefined.
    """

    a_bar: float
    b: float
    c: float
    N: int

    def __post_init__(self):
        Exponents(self.N)  # range check on N
        if not self.c > 0:
            raise DegenerateInputError(f"critical mass c > 0 required, got {self.c}")
        if not self.a_bar > 0:
            raise DegenerateInputError(f"a_bar > 0 required, got {self.a_bar}")
        if self.b < 0:
            raise DegenerateInputError(f"b >= 0 required, got {self.b}")

    @property
    def exponents(self) -> Exponents:
        return Exponents(self.N)

    @property
    def beta(self) -> float:
        """Norm over critical mass, scale-invariant combination."""
        return self.a_bar / self.c ** ((self.N - 2) / self.N)

    @property
    def gamma(self) -> float:
        """Trace mass over critical mass, scale-invariant combination."""
        return self.b / self.c ** ((self.N - 1) / self.N)

    @property
    def delta(self) -> float:
        """Small parameter gamma / (2 sqrt(beta)) of the threshold analysis."""
        return self.gamma / (2.0 * math.sqrt(self.beta))

    def scaled(self, s: float) -> "NormTriple":
        """Triple of the rescaled field s*u."""
        if not s > 0:
            raise DomainError(f"scaling factor s > 0 required, got {s}")
        ts = float(self.exponents.two_star)
        tt = float(self.exponents.two_tilde)
        return NormTriple(self.a_bar * s**2, self.b * s**tt, self.c * s**ts, self.N)


def project_t(triple: NormTriple) -> float:
    """Unique positive multiplier placing the field on the constraint set."""
    a_bar, b, c = triple.a_bar, triple.b, triple.c
    base = (b + math.sqrt(b * b + 4.0 * a_bar * c)) / (2.0 * c)
    return base ** ((triple.N - 2) / 2.0)


def psi_from_projection(triple: NormTriple) -> float:
    """Reduced energy evaluated the pedestrian way: project, then sum terms."""
    t = project_t(triple)
    ts = float(triple.exponents.two_star)
    tt = float(triple.exponents.two_tilde)
    return (
        0.5 * triple.a_bar * t**2
        + triple.b * t**tt / tt
        - triple.c * t**ts / ts
    )


def psi(triple: NormTriple) -> float:
    """Reduced energy in closed bracket form.

    Algebraically equal to psi_from_projection; kept as an independent
    route on purpose.
    """
    N = triple.N
    ts = float(triple.exponents.two_star)
    tt = float(triple.exponents.two_tilde)
    beta, gamma = triple.beta, triple.gamma
    g = gamma + math.sqrt(gamma * gamma + 4.0 * beta)
    return (1.0 / N) * (1.0 / tt) * 0.5**N * (g**N + 2.0 * ts * beta * g ** (N - 2))


def psi_delta_form(triple: NormTriple) -> float:
    """Reduced energy through the (beta, delta) parametrization."""
    N = triple.N
    ts = float(triple.exponents.two_star)
    tt = float(triple.exponents.two_tilde)
    beta, delta = triple.beta, triple.delta
    d = delta + math.sqrt(delta * delta + 1.0)
    return (1.0 / N) * (beta ** (N / 2.0) / tt) * (d**N + ts / 2.0 * d ** (N - 2))


def big_I(triple: NormTriple) -> float:
    """Scale-invariant level: (N * psi)^(2/N)."""
    return (triple.N * psi(triple)) ** (2.0 / triple.N)


def big_I_product_form(triple: NormTriple) -> float:
    """Same level written as beta times an explicit correction factor."""
    N = triple.N
    ts = float(triple.exponents.two_star)
    tt = float(triple.exponents.two_tilde)
    beta, delta = triple.beta, triple.delta
    root = math.sqrt(delta * delta + 1.0)
    d = delta + root
    correction = (2.0 / tt) * delta * delta + (2.0 / tt) * delta * root + 1.0
    return beta * d ** (4.0 / ts) * correction ** (2.0 / N)


def lower_bound(triple: NormTriple) -> float:
    """Elementary bound beta (1 + (4/two_tilde) delta) <= big_I."""
    tt = float(triple.exponents.two_tilde)
    return triple.beta * (1.0 + (4.0 / tt) * triple.delta)


def upper_bound(triple: NormTriple) -> float:
    """Two-sided bound's upper half,
    big_I <= beta (1 + (4/two_tilde) delta + C delta^2), with C the
    ``upper_bound_constant`` of the dimension."""
    tt = float(triple.exponents.two_tilde)
    return triple.beta * (
        1.0 + (4.0 / tt) * triple.delta + upper_bound_constant(triple.N) * triple.delta**2
    )


def energy_over_beta(delta, N: int):
    """Level of a triple with beta = 1 as a function of delta alone.

    Accepts scalars or numpy arrays; delta must be nonnegative.
    """
    ex = Exponents(N)
    ts = float(ex.two_star)
    tt = float(ex.two_tilde)
    d_arr = np.asarray(delta, dtype=float)
    if np.any(d_arr < 0):
        raise DomainError("delta >= 0 required")
    g = d_arr + np.sqrt(d_arr * d_arr + 1.0)
    out = (g**N + ts / 2.0 * g ** (N - 2)) ** (2.0 / N) / tt ** (2.0 / N)
    if np.ndim(delta) == 0:
        return float(out)
    return out


@lru_cache(maxsize=None)
def upper_bound_constant(N: int) -> float:
    """Quadratic coefficient closing the two-sided bound on the level.

    The exact supremum of (energy_over_beta(d) - 1 - (4/two_tilde) d)/d^2
    is approached only as d -> infinity and never attained, so the
    returned constant is the larger of a dense grid maximum and the
    limiting value, inflated by one part in 1e9 to make the bound strict
    for every finite delta.
    """
    ex = Exponents(N)
    ts = float(ex.two_star)
    tt = float(ex.two_tilde)
    d = np.logspace(-3.0, 3.0, 4001)
    ratio = (energy_over_beta(d, N) - 1.0 - (4.0 / tt) * d) / (d * d)
    asymptote = 4.0 / tt ** (2.0 / N)
    small_limit = 0.5 * (4.0 / tt) * (2.0 * N - 3.0) / (N - 1.0)
    best = max(float(ratio.max()), asymptote, small_limit)
    return best * (1.0 + 1e-9)


@dataclass(frozen=True)
class HParams:
    """Inputs of the concentration-splitting function.

    beta_bar and gamma_bar are the scale-invariant summaries of the
    weak-limit part; mu_mass and nu_mass are the total masses of the two
    defect measures, with nu_mass normalized into [0, 1].
    """

    beta_bar: float
    gamma_bar: float
    mu_mass: float
    nu_mass: float
    N: int

    def __post_init__(self):
        Exponents(self.N)
        if not self.beta_bar > 0:
            raise DegenerateInputError(f"beta_bar > 0 required, got {self.beta_bar}")
        if self.gamma_bar < 0:
            raise DegenerateInputError(f"gamma_bar >= 0 required, got {self.gamma_bar}")
        if self.mu_mass < 0:
            raise DegenerateInputError(f"mu_mass >= 0 required, got {self.mu_mass}")
        if not 0.0 <= self.nu_mass <= 1.0:
            raise DomainError(f"nu_mass in [0, 1] required, got {self.nu_mass}")


def h_function(params: HParams, x):
    """Lower-bound profile over the split x of critical mass.

    x is the fraction of critical mass kept by the weak limit; the
    remaining 1 - x sits in the concentration measure.  Accepts scalars
    or arrays with entries in [0, 1].  When nu_mass is zero the
    concentration term is dropped entirely.
    """
    N = params.N
    ex = Exponents(N)
    ts = float(ex.two_star)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0) or np.any(x_arr > 1):
        raise DomainError("h_function requires x in [0, 1]")
    p_limit = (N - 2) / N
    p_trace = (N - 1) / N
    if params.nu_mass == 0.0:
        conc = np.zeros_like(x_arr)
    else:
        conc = (params.mu_mass / params.nu_mass ** (2.0 / ts)) * (1.0 - x_arr) ** p_limit
    f = params.gamma_bar * x_arr**p_trace + np.sqrt(
        params.gamma_bar**2 * x_arr ** (2.0 * p_trace)
        + 4.0 * params.beta_bar * x_arr**p_limit
        + 4.0 * conc
    )
    g = params.beta_bar * x_arr**p_limit + conc
    out = f**N + 2.0 * ts * f ** (N - 2) * g
    if np.ndim(x) == 0:
        return float(out)
    return out


def h_endpoint_minimum_check(params: HParams, grid_points: int = 4096) -> tuple[bool, float]:
    """Scan h on a uniform grid; report whether the minimum sits at 0 or 1.

    Returns (endpoint_flag, argmin_x).  The endpoint flag tolerates the
    argmin landing on the node adjacent to an endpoint, since the
    interior slope can be arbitrarily small near the ends.
    """
    if grid_points < 1000:
        raise DomainError(f"grid_points >= 1000 required, got {grid_points}")
    xs = np.linspace(0.0, 1.0, grid_points)
    values = h_function(params, xs)
    idx = int(np.argmin(values))
    at_endpoint = idx <= 1 or idx >= grid_points - 2
    return at_endpoint, float(xs[idx])


def calculus_inequality(eta: float, z) -> tuple:
    """Quadratic-minus-linear minorant of (1+z)^eta for eta > 2.

    Returns (lhs, rhs) with lhs <= rhs guaranteed pointwise; the
    constant in the linear term is 1 + eta(eta-1)/2.  Equality holds at
    z = 0 and z = -1.
    """
    if not eta > 2:
        raise DomainError(f"eta > 2 required, got {eta}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < -1):
        raise DomainError("z >= -1 required")
    half_quad = 0.5 * eta * (eta - 1.0)
    c_tilde = 1.0 + half_quad
    lhs = half_quad * z_arr**2 - c_tilde * np.abs(z_arr) + 1.0
    rhs = (z_arr + 1.0) ** eta
    if np.ndim(z) == 0:
        return float(lhs), float(rhs)
    return lhs, rhs


def bernoulli_inequality(eta: float, z) -> tuple:
    """(1+z)^(-eta) >= 1 - eta z for eta > 0 and z >= -1.

    Returns (lhs, rhs) with lhs >= rhs; at z = -1 the left side is
    +infinity, which numpy represents faithfully.
    """
    if not eta > 0:
        raise DomainError(f"eta > 0 required, got {eta}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < -1):
        raise DomainError("z >= -1 required")
    with np.errstate(divide="ignore"):
        lhs = (1.0 + z_arr) ** (-eta)
    rhs = 1.0 - eta * z_arr
    if np.ndim(z) == 0:
        return float(lhs), float(rhs)
    return lhs, rhs
