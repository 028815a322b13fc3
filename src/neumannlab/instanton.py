"""The standard bubble and its integrals over boundary caps.

The profile here solves the critical equation on all of R^N with unit
amplitude at the origin.  Integrals of its powers over a ball cap around
a boundary point are computed in polar coordinates centered at that
point: distance rho from the point, angle theta from the inward normal.
Membership in the ball is exactly rho <= 2 R cos(theta), which is what
makes these integrals tractable to near machine precision.

Two geometric refinements matter and are easy to get wrong:

* after substituting rho = eps * s the radial profile decays only
  algebraically, so radial panels double in length until the truncation
  tail is provably negligible;
* the theta integrand develops a boundary layer of width ~ eps/R near
  theta = pi/2 (the cap closes there), so theta panels shrink
  geometrically into that corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate

from .constants import (
    Exponents,
    ProblemParams,
    cbar_coefficients,
    curvature_A,
    sobolev_S,
    sphere_area,
    talenti_B,
)
from .errors import AccuracyError, ConfigurationError, DomainError
from .nehari import NormTriple, big_I

_TAIL_REL = 1e-13


def bubble_scale(N: int) -> float:
    """Normalization constant K = N(N-2) giving unit amplitude.

    Pointwise profile formulas make sense from N = 3 up, so this checks
    less than the integral machinery (which needs the exponent pair and
    hence N >= 5).
    """
    if not (isinstance(N, (int, np.integer)) and N >= 3):
        raise DomainError(f"integer N >= 3 required, got {N!r}")
    return float(N * (N - 2))


def u_value(s, N: int):
    """Bubble profile (K/(K+s^2))^{(N-2)/2} at radius s."""
    K = bubble_scale(N)
    s_arr = np.asarray(s, dtype=float)
    out = (K / (K + s_arr * s_arr)) ** ((N - 2) / 2.0)
    return float(out) if np.ndim(s) == 0 else out


def u_radial_derivative(s, N: int):
    K = bubble_scale(N)
    s_arr = np.asarray(s, dtype=float)
    out = -(N - 2) * s_arr * K ** ((N - 2) / 2.0) * (K + s_arr * s_arr) ** (-N / 2.0)
    return float(out) if np.ndim(s) == 0 else out


def grad_u_norm(s, N: int):
    """Euclidean norm of the gradient at radius s; equals |d/ds profile|."""
    K = bubble_scale(N)
    s_arr = np.asarray(s, dtype=float)
    out = (N - 2) * np.abs(s_arr) * K ** ((N - 2) / 2.0) * (K + s_arr * s_arr) ** (-N / 2.0)
    return float(out) if np.ndim(s) == 0 else out


def u_laplacian(s, N: int):
    """Radial Laplacian assembled from the two derivative pieces.

    Kept as u'' + (N-1) u'/s rather than the collapsed closed form, so
    that the cancellation it encodes is actually exercised; at s = 0 the
    angular part degenerates and the limit is N u''(0).
    """
    K = bubble_scale(N)
    s_arr = np.asarray(s, dtype=float)
    upp = -(N - 2) * K ** ((N - 2) / 2.0) * (K + s_arr**2) ** (-(N + 2) / 2.0) * (
        K - (N - 1) * s_arr**2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(
            s_arr == 0.0,
            N * upp,
            upp + (N - 1) * np.divide(u_radial_derivative(s_arr, N), np.where(s_arr == 0.0, 1.0, s_arr)),
        )
    return float(radial) if np.ndim(s) == 0 else radial


def translation_mode(s, N: int):
    """Radial factor of the boundary-translation eigenmode, -u'(s)/s."""
    K = bubble_scale(N)
    s_arr = np.asarray(s, dtype=float)
    out = (N - 2) * K ** ((N - 2) / 2.0) * (K + s_arr * s_arr) ** (-N / 2.0)
    return float(out) if np.ndim(s) == 0 else out


@dataclass(frozen=True)
class InstantonParams:
    """Concentration scale and amplitude of a bubble centered at a
    boundary point."""

    eps: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.eps > 0:
            raise DomainError(f"eps > 0 required, got {self.eps}")
        if not self.amplitude > 0:
            raise DomainError(f"amplitude > 0 required, got {self.amplitude}")


@dataclass(frozen=True)
class CapQuadrature:
    """Panelized Gauss-Legendre rule for cap integrals in dimension N."""

    N: int
    n_rho: int = 24
    n_theta: int = 24
    domain: str = "ball"
    radius: float = 1.0

    def __post_init__(self):
        Exponents(self.N)
        if self.n_rho < 16 or self.n_theta < 16:
            raise ConfigurationError(
                f"n_rho and n_theta must be >= 16, got {self.n_rho}, {self.n_theta}"
            )
        if self.domain not in ("ball", "half_space"):
            raise ConfigurationError(f"domain must be ball or half_space, got {self.domain!r}")
        if not self.radius > 0:
            raise ConfigurationError(f"radius > 0 required, got {self.radius}")


@lru_cache(maxsize=None)
def _gl(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(edges: np.ndarray, n: int) -> tuple:
    """Nodes and weights of an n-point rule on each [edges[i], edges[i+1]]."""
    x, w = _gl(n)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x[None, :]
    weights = 0.5 * (hi - lo) * w[None, :]
    return nodes.ravel(), weights.ravel()


def _radial_edges(T: float) -> np.ndarray:
    edges = [0.0]
    e = min(1.0, T)
    while e < T:
        edges.append(e)
        e = min(2.0 * e, T)
    edges.append(T)
    return np.asarray(edges)


def _profile_mass(T: float, kernel: Callable, N: int, n_nodes: int) -> float:
    """integral_0^T s^{N-1} kernel(s) ds on doubling panels."""
    if T <= 0.0:
        return 0.0
    s, w = _panel_nodes(_radial_edges(T), n_nodes)
    return float(np.sum(w * s ** (N - 1) * kernel(s)))


def _half_space_cutoff(kernel_decay: float, N: int) -> float:
    """Radius beyond which the algebraic tail is below _TAIL_REL relatively.

    kernel_decay is the large-s exponent of the kernel itself, so the
    integrand decays like s^{N-1-kernel_decay}.
    """
    p = kernel_decay - N  # tail of the full integral decays like T^{-p}
    if p <= 0:
        raise DomainError("integrand not integrable on the half space")
    # the extra factor of 8 buys three orders of magnitude of tail margin
    # for the slowest admissible decay at the cost of three more panels
    return 8.0 * max(64.0, (1.0 / _TAIL_REL) ** (1.0 / p))


def _theta_rule(quad: CapQuadrature, eps: float) -> tuple:
    """Theta nodes/weights with panels shrinking toward the closing corner."""
    if quad.domain == "half_space":
        edges = np.linspace(0.0, 0.5 * math.pi, 5)
    else:
        # geometric ladder in phi = pi/2 - theta resolving the eps/R layer
        phi0 = min(eps / (2.0 * quad.radius), 0.25 * math.pi)
        ladder = [0.0]
        e = phi0
        while e < 0.25 * math.pi:
            ladder.append(e)
            e *= 2.0
        ladder.append(0.25 * math.pi)
        ladder.append(0.5 * math.pi)
        edges = 0.5 * math.pi - np.asarray(ladder)[::-1]
    return _panel_nodes(edges, quad.n_theta)


def _cap_engine(kernel: Callable, kernel_decay: float, eps: float, quad: CapQuadrature) -> float:
    """sum over theta of sin^{N-2}(theta) * integral_0^{T(theta)} s^{N-1} kernel.

    Returns the angular-radial double integral in concentration units;
    callers put back the eps and amplitude powers.
    """
    N = quad.N
    theta, w_theta = _theta_rule(quad, eps)
    if quad.domain == "half_space":
        T = _half_space_cutoff(kernel_decay, N)
        profile = _profile_mass(T, kernel, N, quad.n_rho)
        return float(np.sum(w_theta * np.sin(theta) ** (N - 2)) * profile)
    total = 0.0
    for th, wt in zip(theta, w_theta):
        T = 2.0 * quad.radius * math.cos(th) / eps
        total += wt * math.sin(th) ** (N - 2) * _profile_mass(T, kernel, N, quad.n_rho)
    return total


def radial_integral(q: float, N: int, rel_tol: float = 1e-11) -> float:
    """Integral of the q-th power of the bubble over all of R^N."""
    Exponents(N)
    if not q * (N - 2) > N:
        raise DomainError(
            f"q > N/(N-2) required for integrability, got q={q} at N={N}"
        )
    K = bubble_scale(N)
    power = q * (N - 2) / 2.0

    def integrand(r):
        return r ** (N - 1) * (K / (K + r * r)) ** power

    value, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=rel_tol, limit=200)
    return sphere_area(N) * value


def radial_gradient_integral(N: int, rel_tol: float = 1e-11) -> float:
    """Squared-gradient mass of the bubble over all of R^N."""
    Exponents(N)

    def integrand(r):
        g = grad_u_norm(r, N)
        return r ** (N - 1) * g * g

    value, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=rel_tol, limit=200)
    return sphere_area(N) * value


def cap_integral(params: InstantonParams, q: float, quad: CapQuadrature) -> float:
    """Integral of |C u_eps|^q over the cap domain around the boundary point."""
    if not q > 0:
        raise DomainError(f"q > 0 required, got {q}")
    N = quad.N
    if quad.domain == "half_space" and not q * (N - 2) > N:
        raise DomainError(
            f"half-space integral needs q > N/(N-2), got q={q} at N={N}"
        )
    kernel = lambda s: u_value(s, N) ** q
    raw = _cap_engine(kernel, q * (N - 2), params.eps, quad)
    prefactor = params.eps ** (N - q * (N - 2) / 2.0)
    return params.amplitude**q * sphere_area(N - 1) * prefactor * raw


def cap_gradient_integral(params: InstantonParams, quad: CapQuadrature) -> float:
    """Integral of |grad(C u_eps)|^2 over the cap domain; eps-power free."""
    N = quad.N
    kernel = lambda s: grad_u_norm(s, N) ** 2
    raw = _cap_engine(kernel, 2.0 * (N - 1), params.eps, quad)
    return params.amplitude**2 * sphere_area(N - 1) * raw


def _check_geometric(eps_list, max_allowed: float) -> np.ndarray:
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 3:
        raise DomainError("need at least three eps levels")
    if np.any(eps <= 0):
        raise DomainError("eps levels must be positive")
    order = np.sort(eps)
    if np.any(order[1:] == order[:-1]):
        raise DomainError("eps levels must be distinct")
    ratios = order[1:] / order[:-1]
    if np.any(np.abs(ratios / ratios[0] - 1.0) > 1e-9):
        raise DomainError("eps levels must form a geometric sequence")
    if order[-1] > max_allowed * (1 + 1e-12):
        raise DomainError(f"largest eps must be <= {max_allowed}")
    return order


def scaling_exponent_probe(q: float, N: int, eps_list, log_factor: bool = False) -> float:
    """Fitted log-log slope of the cap mass of |u_eps|^q on the unit ball.

    For q exactly at the borderline N/(N-2) the mass carries a |log eps|
    factor which must be declared by the caller; the probe divides it out
    before fitting and refuses silently inconsistent usage.
    """
    Exponents(N)
    if not q > 0:
        raise DomainError(f"q > 0 required, got {q}")
    eps = _check_geometric(eps_list, 0.1)
    if eps.size < 4:
        raise DomainError("need at least four eps levels for a slope fit")
    borderline = math.isclose(q, N / (N - 2), rel_tol=1e-9)
    if borderline != log_factor:
        raise DomainError(
            "log_factor must be set exactly when q equals N/(N-2)"
        )
    quad = CapQuadrature(N=N, n_rho=24, n_theta=24)
    vals = np.array([cap_integral(InstantonParams(e), q, quad) for e in eps])
    if log_factor:
        vals = vals / np.abs(np.log(eps))
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class ExpansionRecord:
    """Fitted small-width model value = c0 + c1 x + c2 x^2 for one quantity.

    ``x = abscissa_scale * eps``.  The multiplier records which width
    convention the expected coefficients are stated in; see the module
    docstring.
    """

    name: str
    eps: tuple
    values: tuple
    abscissa_scale: float
    c0: float
    c1: float
    c2: float
    expected_c0: float
    expected_c1: float

    @property
    def rel_error_c0(self) -> float:
        scale = max(
            abs(self.expected_c0),
            abs(self.expected_c1) * self.abscissa_scale * max(self.eps),
            1e-300,
        )
        return abs(self.c0 - self.expected_c0) / scale

    @property
    def rel_error_c1(self) -> float:
        return abs(self.c1 - self.expected_c1) / max(abs(self.expected_c1), 1e-300)


@dataclass(frozen=True)
class ExpansionReport:
    N: int
    radius: float
    records: tuple

    def record(self, name: str) -> ExpansionRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)


def expansion_suite(N: int, radius: float, eps_list, domain: str = "ball") -> ExpansionReport:
    """Boundary-concentration expansions of the three cap masses.

    Fits the quadratic small-width model to the squared-gradient mass, the
    critical mass, the trace-critical mass, the gradient/critical ratio,
    and the small parameter delta, and pairs each fitted coefficient with
    its closed-form prediction.  ``eps_list`` is in units of the radius
    (at most 0.05): the widths are radius * eps_list, and the fit runs in
    units of the radius, so it is the same fit for every radius.

    Two width conventions are in play.  The bubble here is normalized to
    u(0) = 1, so its half-width is sqrt(K) with K = N(N-2).  The classical
    curvature coefficients for the gradient and critical masses (and hence
    for their ratio) are stated for the profile (1+|x|^2)^{-(N-2)/2}
    rescaled to unit Dirichlet energy, whose width parameter is sqrt(K)
    times ours.  Those three records are therefore fitted against
    x = sqrt(K) * eps, while the trace mass and delta obey exact slopes in
    eps itself.  Each record stores the multiplier it used as
    ``abscissa_scale``.

    ``domain="half_space"`` checks the flat-boundary degeneration: the
    curvature terms vanish and the trace and delta slopes are exact.
    """
    ex = Exponents(N)
    if not radius > 0:
        raise DomainError(f"radius > 0 required, got {radius}")
    if domain not in ("ball", "half_space"):
        raise DomainError(f"unknown domain {domain!r}")
    units = _check_geometric(eps_list, 0.05)
    eps = radius * units
    quad = CapQuadrature(N=N, domain=domain, radius=radius)

    grads, m2s, m2t, ratios, deltas = [], [], [], [], []
    ts = float(ex.two_star)
    tt = float(ex.two_tilde)
    for e in eps:
        p = InstantonParams(e)
        g = cap_gradient_integral(p, quad)
        ms = cap_integral(p, ts, quad)
        mt = cap_integral(p, tt, quad)
        grads.append(g)
        m2s.append(ms)
        m2t.append(mt)
        ratios.append(g / ms ** (2.0 / ts))
        deltas.append(NormTriple(g, mt, ms, N).delta)

    B = talenti_B(N)
    S = sobolev_S(N)
    A = curvature_A(N)
    H = 1.0 / radius if domain == "ball" else 0.0
    c1bar, c2bar = cbar_coefficients(N, H)
    root_k = math.sqrt(bubble_scale(N))

    def fit(values, name, exp_c0, exp_c1, scale):
        # the abscissa in units of R, whose powers stay in range for any R;
        # c1 and c2 return to the physical width below
        x = units * scale
        vals = np.asarray(values)
        c2, c1, c0 = np.polyfit(x, vals, 2)
        resid = np.max(np.abs(np.polyval([c2, c1, c0], x) - vals))
        span = float(np.max(vals) - np.min(vals))
        if not np.isfinite([c0, c1, c2]).all() or resid > 0.2 * span + 1e-9 * np.max(np.abs(vals)):
            raise AccuracyError(
                f"expansion fit for {name!r} does not converge: residual {resid:.3e}"
            )
        return ExpansionRecord(
            name=name,
            eps=tuple(float(v) for v in eps),
            values=tuple(float(v) for v in values),
            abscissa_scale=scale,
            c0=float(c0),
            c1=float(c1) / radius,
            c2=float(c2) / radius / radius,
            expected_c0=exp_c0,
            expected_c1=exp_c1,
        )

    ratio_slope = -(2.0 ** ((N - 2.0) / N)) * S * A * H
    records = (
        fit(grads, "gradient_mass", B / 2.0, -c1bar, root_k),
        fit(m2s, "critical_mass", B / 2.0, -c2bar, root_k),
        fit(m2t, "trace_mass", 0.0, tt / 2.0 * B, 1.0),
        fit(ratios, "level_ratio", S / 2.0 ** (2.0 / N), ratio_slope, root_k),
        fit(deltas, "delta", 0.0, tt / 2.0, 1.0),
    )
    return ExpansionReport(N=N, radius=radius, records=records)


def trial_energy(problem: ProblemParams, inst: InstantonParams, quad: CapQuadrature):
    """Reduced level of the truncated bubble as a trial function."""
    N = quad.N
    ex = Exponents(N)
    ts = float(ex.two_star)
    tt = float(ex.two_tilde)
    grad = cap_gradient_integral(inst, quad)
    mass2 = cap_integral(inst, 2.0, quad)
    triple = NormTriple(
        grad + problem.a * mass2,
        problem.alpha * cap_integral(inst, tt, quad),
        cap_integral(inst, ts, quad),
        N,
    )
    return big_I(triple), triple
