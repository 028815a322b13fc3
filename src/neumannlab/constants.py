"""Closed-form constants for the critical Neumann problem on a ball.

Everything in this module chains through the Euler Gamma function, and
the two critical exponents are kept as exact rationals so that identities
between them hold exactly rather than to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AccuracyError, DomainError

# Gamma((N+3)/2) and K^{N/2} both stay far below float overflow here.
N_MAX = 30

_FORM_AGREEMENT_RTOL = 1e-12


def gamma_fn(x: float) -> float:
    """Euler Gamma for positive real argument."""
    if not x > 0:
        raise DomainError(f"gamma_fn needs x > 0, got {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class Exponents:
    """Dimension N with its critical and trace-critical exponents.

    two_star = 2N/(N-2) and two_tilde = 2(N-1)/(N-2) as exact Fractions.
    """

    N: int

    def __post_init__(self):
        if not isinstance(self.N, int):
            raise DomainError(f"N must be an integer, got {self.N!r}")
        if self.N < 5:
            raise DomainError(f"N >= 5 required, got {self.N}")
        if self.N > N_MAX:
            raise DomainError(f"N <= {N_MAX} required, got {self.N}")

    @property
    def two_star(self) -> Fraction:
        return Fraction(2 * self.N, self.N - 2)

    @property
    def two_tilde(self) -> Fraction:
        return Fraction(2 * (self.N - 1), self.N - 2)


@dataclass(frozen=True)
class ProblemParams:
    """Coefficients (a, alpha) on the ball of the given radius."""

    exponents: Exponents
    a: float
    alpha: float
    radius: float = 1.0

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise DomainError(f"finite a > 0 required, got {self.a}")
        if not 0 <= self.alpha < math.inf:
            raise DomainError(f"finite alpha >= 0 required, got {self.alpha}")
        if not 0 < self.radius < math.inf:
            raise DomainError(f"finite radius > 0 required, got {self.radius}")

    @property
    def N(self) -> int:
        return self.exponents.N


def make_params(N: int, a: float, alpha: float, radius: float = 1.0) -> ProblemParams:
    return ProblemParams(Exponents(N), a, alpha, radius)


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere S^{N-1} in R^N."""
    if not (isinstance(N, int) and N >= 2):
        raise DomainError(f"sphere_area needs integer N >= 2, got {N!r}")
    return 2.0 * math.pi ** (N / 2.0) / gamma_fn(N / 2.0)


def ball_volume(N: int, radius: float = 1.0) -> float:
    if not radius > 0:
        raise DomainError(f"radius > 0 required, got {radius}")
    return sphere_area(N) * radius**N / N


def sobolev_S(N: int) -> float:
    """Best constant in the critical Sobolev embedding on R^N."""
    if not (isinstance(N, int) and N >= 3):
        raise DomainError(f"sobolev_S needs integer N >= 3, got {N!r}")
    return talenti_B(N) ** (2.0 / N)


def talenti_B(N: int) -> float:
    """Total mass integral of the standard bubble; equals S^{N/2}."""
    if not (isinstance(N, int) and N >= 3):
        raise DomainError(f"talenti_B needs integer N >= 3, got {N!r}")
    K = float(N * (N - 2))
    return (
        math.pi ** ((N + 1) / 2.0)
        / 2.0 ** (N - 1)
        / gamma_fn((N + 1) / 2.0)
        * K ** (N / 2.0)
    )


def curvature_A(N: int) -> float:
    """Dimensional factor in the curvature lower bound for the threshold.

    Evaluated through two independent Gamma reductions; they must agree
    to 1e-12 relative or the call refuses to return.
    """
    if not (isinstance(N, int) and N >= 5):
        raise DomainError(f"curvature_A needs integer N >= 5, got {N!r}")
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
    if abs(raw - reduced) > _FORM_AGREEMENT_RTOL * abs(reduced):
        raise AccuracyError(
            f"curvature_A forms disagree at N={N}: {raw!r} vs {reduced!r}"
        )
    return reduced


def cbar_coefficients(N: int, mean_curvature: float) -> tuple[float, float]:
    """First-order boundary-concentration coefficients (gradient, mass).

    Both scale linearly in the mean curvature of the boundary at the
    concentration point; zero curvature gives (0, 0).
    """
    if not (isinstance(N, int) and N >= 5):
        raise DomainError(f"cbar_coefficients needs integer N >= 5, got {N!r}")
    K = float(N * (N - 2))
    w = sphere_area(N - 1)
    c1 = (
        mean_curvature
        * w
        * (N - 2) ** 2
        / 4.0
        * gamma_fn((N + 3) / 2.0)
        * gamma_fn((N - 3) / 2.0)
        / gamma_fn(float(N))
        * K ** ((N - 2) / 2.0)
    )
    c2 = (
        mean_curvature
        * w
        / 4.0
        * gamma_fn((N + 1) / 2.0)
        * gamma_fn((N - 1) / 2.0)
        / gamma_fn(float(N))
        * K ** (N / 2.0)
    )
    return c1, c2


def _kappa_base(params: ProblemParams) -> float:
    # positive root of s^2 - alpha*s - a = 0
    return 0.5 * (params.alpha + math.sqrt(params.alpha**2 + 4.0 * params.a))


def constant_solution_kappa(params: ProblemParams) -> float:
    """Amplitude of the positive constant solution."""
    return _kappa_base(params) ** ((params.N - 2) / 2.0)


def constant_solution_energy(params: ProblemParams, volume: float) -> float:
    """Action of the constant solution on a domain of the given volume."""
    if not volume > 0:
        raise DomainError(f"volume > 0 required, got {volume}")
    N = params.N
    ts = float(params.exponents.two_star)
    tt = float(params.exponents.two_tilde)
    s = _kappa_base(params)
    return volume / (tt * N) * (s**N + ts / 2.0 * params.a * s ** (N - 2))


def I_alpha_of_one(params: ProblemParams, volume: float) -> float:
    """Scale-invariant level of the constant trial function."""
    if not volume > 0:
        raise DomainError(f"volume > 0 required, got {volume}")
    N = params.N
    ts = float(params.exponents.two_star)
    tt = float(params.exponents.two_tilde)
    s = _kappa_base(params)
    bracket = s**N + ts / 2.0 * params.a * s ** (N - 2)
    return volume ** (2.0 / N) / tt ** (2.0 / N) * bracket ** (2.0 / N)


def snapshot(N: int, mean_curvature: float = 1.0) -> dict:
    """Constant pack reported by the CLI and embedded in run manifests."""
    Exponents(N)  # range check on N, before the Gamma factors overflow
    c1, c2 = cbar_coefficients(N, mean_curvature)
    return {
        "N": N,
        "S": sobolev_S(N),
        "B": talenti_B(N),
        "A": curvature_A(N),
        "cbar1": c1,
        "cbar2": c2,
        "omega_N": sphere_area(N),
    }
