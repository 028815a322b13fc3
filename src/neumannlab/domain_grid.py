"""Axisymmetric tensor grid on the ball with exact-cell quadrature.

Fields live on a polar (r, theta) grid, symmetric about the axis through
the north-pole boundary point.  Quadrature weights are control-volume
exact: each node owns the cell between the midpoints to its neighbors,
and the cell masses int r^{N-1} dr and int sin^{N-2}(theta) dtheta are
evaluated in closed form (power rule and incomplete beta function), so
the weights sum to the exact ball volume at machine precision.

Coordinate-singular nodes (r = 0, theta = 0, theta = pi) represent sets
of measure zero.  Their cell mass is merged into the adjacent node and
their own weight is exactly zero; for N >= 5 the merged slivers carry
O(h^N) mass, so the merge costs nothing at quadrature order.  A separate
strictly positive per-node mass vector (the unmerged control volumes) is
kept for the solver's Armijo rule, which measures the length of a
descent move in it; the descent direction itself comes from the energy
operator.

The power masses integrate the bilinear interpolant with a 2x2 Gauss
rule per cell.  One sparse operator G (a row per Gauss point of every
cell, four corner weights per row) gives all Gauss-point values at once,
so a single pass yields the masses and their nodal derivatives, and the
energy operator's mass block is G^T diag(w) G.

The gradient energy differences along cell edges: each term is the
second-order centered derivative at an edge midpoint, squared, times the
exact measure of the edge's dual cell.  The nodal-stencil alternative
(centered at the nodes themselves) is blind to a single-node spike, its
stencil straddles the peak, and that blindness manufactures spurious
sub-grid minimizers of the critical functional well below the continuum
level.  Edge differences see every slope, so a spike costs what it
should and descent cannot tunnel below the bubble level.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse
from scipy.special import betainc
from scipy.special import beta as beta_fn

from .constants import ProblemParams, sphere_area
from .errors import ConfigurationError, DegenerateInputError, DomainError, ResolutionError
from .instanton import InstantonParams, u_value
from .nehari import NormTriple


def _stretched_unit_nodes(n: int, strength: float, toward_end: bool) -> np.ndarray:
    """n nodes in [0, 1], geometrically clustered toward 1 (or 0)."""
    xi = np.linspace(0.0, 1.0, n)
    if strength == 0.0:
        return xi
    mapped = np.expm1(strength * xi) / math.expm1(strength)
    # mapped clusters toward 0; reflect for clustering toward 1
    return 1.0 - mapped[::-1] if toward_end else mapped


def _cumulative_sin_power(phi: np.ndarray, m: int) -> np.ndarray:
    """int_0^phi sin^m(t) dt, exact via the regularized incomplete beta."""
    a = (m + 1) / 2.0
    b = 0.5
    scale = 0.5 * beta_fn(a, b)
    phi = np.asarray(phi, dtype=float)
    s2 = np.sin(np.minimum(phi, 0.5 * np.pi)) ** 2
    lower = scale * betainc(a, b, s2)
    upper = 2.0 * scale - scale * betainc(a, b, np.sin(np.pi - phi) ** 2)
    return np.where(phi <= 0.5 * np.pi, lower, upper)


@dataclass(frozen=True)
class AxiGrid:
    """Immutable (r, theta) tensor grid with exact quadrature weights."""

    N: int
    R: float
    n_r: int
    n_theta: int
    stretch: float
    r: np.ndarray
    theta: np.ndarray
    weights: np.ndarray            # (n_r, n_theta), axis nodes exactly zero
    mass: np.ndarray               # (n_r, n_theta), strictly positive
    r_edge_coeff: np.ndarray       # (n_r-1, n_theta): measure / h_r^2 per radial edge
    theta_edge_coeff: np.ndarray   # (n_r, n_theta-1): measure / (r h_theta)^2 per angular edge
    gauss: sparse.csr_matrix       # G, (4 cells, nodes): the interpolant at every Gauss point
    gauss_t: sparse.csr_matrix     # G^T stored by rows, so G^T x gathers per node
    gauss_w: np.ndarray            # (4 cells,): Gauss weights, per cell summing to its measure
    subcell_w: tuple               # 4 views (n_r-1, n_theta-1) of gauss_w, one per Gauss point

    @property
    def volume(self) -> float:
        return float(self.weights.sum())

    @property
    def min_boundary_spacing(self) -> float:
        """Smallest node spacing near the north-pole boundary point."""
        dr = self.r[-1] - self.r[-2]
        dth = self.R * (self.theta[1] - self.theta[0])
        return float(min(dr, dth))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))

    def gradient_energy(self, values: np.ndarray) -> float:
        """The quadratic form |grad u|_2^2 over the edge dual cells."""
        dr = values[1:, :] - values[:-1, :]
        dt = values[:, 1:] - values[:, :-1]
        return float(np.sum(self.r_edge_coeff * dr * dr) + np.sum(self.theta_edge_coeff * dt * dt))

    def gradient_seminorm_parts(self, values: np.ndarray) -> np.ndarray:
        """Vector whose squared length is gradient_energy(values)."""
        dr = values[1:, :] - values[:-1, :]
        dt = values[:, 1:] - values[:, :-1]
        return np.concatenate(
            [
                (np.sqrt(self.r_edge_coeff) * dr).ravel(),
                (np.sqrt(self.theta_edge_coeff) * dt).ravel(),
            ]
        )

    def power_masses(self, values: np.ndarray, qs, gradients: bool = False):
        """int |u|^q for each q, with u the bilinear interpolant, by
        per-cell Gauss points whose weights are normalized to the exact
        cell measure; with ``gradients`` also their nodal derivatives,
        as ``(masses, derivatives)``.

        One power |u_g|^(q-2) per exponent serves both: the mass is
        sum w u_g^2 |u_g|^(q-2) and the derivative q G^T (w u_g |u_g|^(q-2)).

        Nodal lumping would overestimate these for peaked fields (the
        powers are convex), which lets under-resolved bumps undervalue
        their critical mass and pull the level below the continuum one;
        interpolating first removes that bias.
        """
        ug = self.gauss @ values.ravel()
        # the Gauss-point temporaries share one block: |u_g|, w u_g^2, then
        # a power row per exponent when derivatives follow, else one reused
        work = np.empty((2 + (len(qs) if gradients else 1), ug.size))
        aug, wu2 = work[0], work[1]
        np.abs(ug, out=aug)
        np.multiply(self.gauss_w, ug, out=wu2)
        wu2 *= ug
        masses = []
        for k, q in enumerate(qs):
            p = work[2 + k if gradients else 2]
            np.power(aug, q - 2.0, out=p)
            masses.append(float(p @ wu2))
        if not gradients:
            return tuple(masses)
        wu = np.multiply(self.gauss_w, ug, out=aug)  # |u_g| is spent
        derivs = []
        for q, p in zip(qs, work[2:]):
            p *= wu
            derivs.append(q * (self.gauss_t @ p).reshape(values.shape))
        return tuple(masses), tuple(derivs)


def build_grid(N: int, R: float, n_r: int, n_theta: int, stretch: float = 0.0) -> AxiGrid:
    """Tensor grid whose weights sum to the exact ball volume.

    ``stretch`` > 0 clusters r-nodes toward the boundary r = R and
    theta-nodes toward the axis theta = 0 (where boundary concentration
    happens); 0 gives uniform nodes.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 5):
        raise ConfigurationError(f"integer N >= 5 required, got {N!r}")
    if not R > 0:
        raise ConfigurationError(f"R > 0 required, got {R}")
    if n_r < 32 or n_theta < 32:
        raise ConfigurationError(f"n_r and n_theta must be >= 32, got {n_r}, {n_theta}")
    if stretch < 0:
        raise ConfigurationError(f"stretch >= 0 required, got {stretch}")

    r = R * _stretched_unit_nodes(n_r, stretch, toward_end=True)
    theta = np.pi * _stretched_unit_nodes(n_theta, stretch, toward_end=False)
    area = sphere_area(N - 1)

    r_edges = np.concatenate(([0.0], 0.5 * (r[1:] + r[:-1]), [R]))
    radial_cells = (r_edges[1:] ** N - r_edges[:-1] ** N) / N

    th_edges = np.concatenate(([0.0], 0.5 * (theta[1:] + theta[:-1]), [np.pi]))
    cum = _cumulative_sin_power(th_edges, N - 2)
    angular_cells = np.diff(cum)

    mass = area * np.outer(radial_cells, angular_cells)

    # merge singular-node cells into the neighbor, then zero them
    rc = radial_cells.copy()
    rc[1] += rc[0]
    rc[0] = 0.0
    ac = angular_cells.copy()
    ac[1] += ac[0]
    ac[0] = 0.0
    ac[-2] += ac[-1]
    ac[-1] = 0.0
    weights = area * np.outer(rc, ac)

    # dual-cell measures for the edge-midpoint gradient energy; measures
    # int r^{N-1} and int r^{N-3} are exact, the latter finite since N >= 5
    hr = np.diff(r)
    hth = np.diff(theta)
    redge = (r[1:] ** N - r[:-1] ** N) / N
    r_edge_coeff = area * np.outer(redge / hr**2, angular_cells)
    mr3 = (r_edges[1:] ** (N - 2) - r_edges[:-1] ** (N - 2)) / (N - 2)
    tedge = np.diff(_cumulative_sin_power(theta, N - 2))
    theta_edge_coeff = area * np.outer(mr3, tedge / hth**2)

    # 2x2 Gauss rule per cell for the interpolant masses; renormalizing
    # against the exact cell measure keeps constants machine-exact.  Row
    # k * cells + c of the operator interpolates cell c at Gauss point k
    # from its corners (i, j), (i, j+1), (i+1, j), (i+1, j+1).
    g0 = 0.5 - 0.5 / np.sqrt(3.0)
    g1 = 0.5 + 0.5 / np.sqrt(3.0)
    points = [(xa, yb) for xa in (g0, g1) for yb in (g0, g1)]
    jac = np.stack(
        [np.outer((r[:-1] + xa * hr) ** (N - 1), np.sin(theta[:-1] + yb * hth) ** (N - 2))
         for xa, yb in points]
    )
    cell_mass = area * np.outer(redge, tedge)
    gauss_w = (cell_mass * jac / jac.sum(axis=0)).ravel()
    subcell_w = tuple(gauss_w.reshape(jac.shape))
    n_cells = cell_mass.size
    lam = np.array([[(1 - xa) * (1 - yb), (1 - xa) * yb, xa * (1 - yb), xa * yb] for xa, yb in points])
    corner = np.arange(n_r * n_theta, dtype=np.int32).reshape(n_r, n_theta)[:-1, :-1].ravel()
    cols = corner[:, None] + np.array([0, 1, n_theta, n_theta + 1], dtype=np.int32)
    gauss = sparse.csr_matrix(
        (np.repeat(lam, n_cells, axis=0).ravel(), np.tile(cols, (4, 1)).ravel(),
         np.arange(0, 16 * n_cells + 1, 4, dtype=np.int32)),
        shape=(4 * n_cells, n_r * n_theta),
    )

    for arr in (r, theta, weights, mass, r_edge_coeff, theta_edge_coeff, gauss_w) + subcell_w:
        arr.setflags(write=False)

    return AxiGrid(
        N=int(N),
        R=float(R),
        n_r=n_r,
        n_theta=n_theta,
        stretch=float(stretch),
        r=r,
        theta=theta,
        weights=weights,
        mass=mass,
        r_edge_coeff=r_edge_coeff,
        theta_edge_coeff=theta_edge_coeff,
        gauss=gauss,
        gauss_t=gauss.T.tocsr(),
        gauss_w=gauss_w,
        subcell_w=subcell_w,
    )


@dataclass
class Field:
    """Axisymmetric scalar field: one value per (r, theta) node."""

    grid: AxiGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_theta):
            raise DomainError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_theta})"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    @classmethod
    def constant(cls, grid: AxiGrid, value: float) -> "Field":
        return cls(grid, np.full((grid.n_r, grid.n_theta), float(value)))


@dataclass(frozen=True)
class NormReport:
    """The Nehari triple of a field plus its raw ingredients."""

    triple: NormTriple
    grad2: float
    mass2: float
    trace_mass: float

    @property
    def critical_mass(self) -> float:
        return self.triple.c


def _norm_pass(field: Field, params: ProblemParams, gradients: bool):
    """The field's NormReport and, with ``gradients``, the nodal
    derivatives of its three power masses, from one kernel pass."""
    g = field.grid
    if g.N != params.N:
        raise DomainError(f"grid dimension {g.N} != params dimension {params.N}")
    u = field.values
    if not np.any(u != 0.0):
        raise DegenerateInputError("zero field has no norms")
    grad2 = g.gradient_energy(u)
    ex = params.exponents
    out = g.power_masses(u, (2.0, float(ex.two_tilde), float(ex.two_star)), gradients=gradients)
    (mass2, trace, critical), derivs = out if gradients else (out, None)
    triple = NormTriple(grad2 + params.a * mass2, params.alpha * trace, critical, g.N)
    return NormReport(triple=triple, grad2=grad2, mass2=mass2, trace_mass=trace), derivs


def norms(field: Field, params: ProblemParams) -> NormReport:
    """Quadrature norms entering I_alpha.

    The gradient energy uses |grad u|^2 = u_r^2 + r^{-2} u_theta^2 with
    both derivatives taken as second-order centered differences at edge
    midpoints; no ghost nodes and no flux term, which is the discrete
    face of the natural boundary condition.  The power masses integrate
    the bilinear interpolant per cell rather than lumping nodal values.
    """
    return _norm_pass(field, params, gradients=False)[0]


def norm_gradients(field: Field, params: ProblemParams):
    """The field's NormReport and the discrete Gateaux derivatives of
    (a_bar, b, c) with respect to the nodal values, as
    ``(report, d_abar, d_b, d_c)``; each array has the field's shape."""
    rep, (d_mass2, d_trace, d_c) = _norm_pass(field, params, gradients=True)
    g = field.grid
    u = field.values
    fr = 2.0 * g.r_edge_coeff * (u[1:, :] - u[:-1, :])
    ft = 2.0 * g.theta_edge_coeff * (u[:, 1:] - u[:, :-1])
    d_abar = params.a * d_mass2
    d_abar[1:, :] += fr
    d_abar[:-1, :] -= fr
    d_abar[:, 1:] += ft
    d_abar[:, :-1] -= ft
    d_b = params.alpha * d_trace
    return rep, d_abar, d_b, d_c


def _edge_difference(m: int) -> sparse.csr_matrix:
    """(m-1) x m matrix of plain successive differences."""
    return sparse.diags([-np.ones(m - 1), np.ones(m - 1)], [0, 1], shape=(m - 1, m)).tocsr()


def energy_operator(grid: AxiGrid, a: float) -> sparse.csr_matrix:
    """Sparse symmetric Q with u^T Q u = |grad u|_2^2 + a |u|_2^2.

    Assembled from the same edge coefficients and Gauss-point operator
    G as norms(), so the quadratic part of the functional is exactly
    u^T Q u; the mass block a G^T diag(w) G makes Q strictly definite
    even on the zero-weight axis nodes.
    """
    if not a > 0:
        raise DomainError(f"a > 0 required, got {a}")
    n_r, n_th = grid.n_r, grid.n_theta
    e_r = sparse.kron(_edge_difference(n_r), sparse.identity(n_th, format="csr"), format="csr")
    e_th = sparse.kron(sparse.identity(n_r, format="csr"), _edge_difference(n_th), format="csr")
    q = (
        e_r.T @ sparse.diags(grid.r_edge_coeff.ravel()) @ e_r
        + e_th.T @ sparse.diags(grid.theta_edge_coeff.ravel()) @ e_th
        + grid.gauss_t @ (sparse.diags(a * grid.gauss_w) @ grid.gauss)
    )
    return q.tocsr()


def interpolate_instanton(grid: AxiGrid, inst: InstantonParams) -> Field:
    """Nodewise bubble centered at the north-pole boundary point.

    Distance from node (r, theta) to the center is by the law of cosines
    d^2 = r^2 + R^2 - 2 r R cos(theta).  Raises ResolutionError when the
    scale is below twice the local node spacing (the peak would fall
    between nodes), reporting the smallest resolvable scale.
    """
    min_resolvable = 2.0 * grid.min_boundary_spacing
    if inst.eps < min_resolvable:
        raise ResolutionError(
            f"eps={inst.eps:g} unresolvable on this grid "
            f"(needs eps >= {min_resolvable:g}); refine or stretch the grid",
            min_resolvable=min_resolvable,
        )
    R = grid.R
    r = grid.r[:, None]
    ct = np.cos(grid.theta)[None, :]
    dist = np.sqrt(np.maximum(r**2 + R**2 - 2.0 * r * R * ct, 0.0))
    scale = inst.amplitude * inst.eps ** (-(grid.N - 2) / 2.0)
    return Field(grid, scale * u_value(dist / inst.eps, grid.N))


def save_field_snapshot(field: Field, csv_path, json_path) -> None:
    """CSV of (r, theta, value) rows plus a JSON header describing the grid."""
    g = field.grid
    with open(json_path, "w") as fh:
        json.dump(
            {"N": g.N, "R": g.R, "n_r": g.n_r, "n_theta": g.n_theta, "stretch": g.stretch},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "theta", "value"])
        for i in range(g.n_r):
            for j in range(g.n_theta):
                writer.writerow(
                    ["%.17g" % g.r[i], "%.17g" % g.theta[j], "%.17g" % field.values[i, j]]
                )


def load_field_snapshot(csv_path, json_path) -> Field:
    with open(json_path) as fh:
        header = json.load(fh)
    grid = build_grid(
        header["N"], header["R"], header["n_r"], header["n_theta"], header["stretch"]
    )
    values = np.empty((grid.n_r, grid.n_theta))
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        flat = [float(row[2]) for row in reader]
    if len(flat) != values.size:
        raise DomainError(f"snapshot has {len(flat)} rows, grid needs {values.size}")
    values[:] = np.asarray(flat).reshape(values.shape)
    return Field(grid, values)
