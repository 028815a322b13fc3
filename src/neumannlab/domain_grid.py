"""Axisymmetric tensor grid on the ball with exact-cell quadrature.

Fields live on a polar (r, theta) grid, symmetric about the axis through
the north-pole boundary point.  Node masses are control-volume exact:
each node owns the cell between the midpoints to its neighbors, and the
cell masses int r^{N-1} dr and int sin^{N-2}(theta) dtheta are
evaluated in closed form (power rule and incomplete beta function), so
the masses sum to the exact ball volume at machine precision.  They are
strictly positive; ``volume`` sums them, and the solver measures the
length of a descent trial's move in them to detect a step that
overflows.  The descent direction and its line search come from the
energy operator and the power masses below.

The power masses integrate the bilinear interpolant with a 2x2 Gauss
rule per cell: one 4x4 block, whose row k interpolates Gauss point k
from a cell's corners, applied to a field's four corner slices, and the
weights ``gauss_w``, one plane per Gauss point.  The paper's exponents
are tied, q - 2 = 2/(N-2) and 2* - 2 = 2(q - 2), so one power
s = |u_g|^(2/(N-2)) gives the masses of u^2, |u|^q and |u|^2* as
sum w u_g^2 s^k, k = 0, 1, 2.  A pass makes one block product and that
one power; a derivative pass adds one adjoint (the transposed block and
four slice-adds) for any linear combination of the three mass
derivatives, which is all the first variation needs.

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
from dataclasses import dataclass

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
    try:
        scale = math.expm1(strength)
    except OverflowError:  # build_grid rejects the nodes this leaves
        scale = math.inf
    mapped = np.expm1(strength * xi) / scale
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


# A cell's corners (i, j), (i, j+1), (i+1, j), (i+1, j+1) as slices of a
# nodal array, one (n_r-1, n_theta-1) plane each; the 2x2 Gauss points
# (x along r, y along theta) of the unit cell; and the block whose row k
# interpolates Gauss point k from those corners
_CORNERS = tuple((rows, cols) for rows in (slice(None, -1), slice(1, None))
                 for cols in (slice(None, -1), slice(1, None)))
_GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
_GAUSS_POINTS = [(x, y) for x in _GAUSS_NODES for y in _GAUSS_NODES]
_GAUSS_BLOCK = np.array([[(1 - x) * (1 - y), (1 - x) * y, x * (1 - y), x * y] for x, y in _GAUSS_POINTS])
_GAUSS_BLOCK.setflags(write=False)


@dataclass(frozen=True)
class AxiGrid:
    """Immutable (r, theta) tensor grid with exact cell masses."""

    N: int
    R: float
    n_r: int
    n_theta: int
    stretch: float
    r: np.ndarray
    theta: np.ndarray
    mass: np.ndarray               # (n_r, n_theta), strictly positive control volumes
    r_edge_coeff: np.ndarray       # (n_r-1, n_theta): measure / h_r^2 per radial edge
    theta_edge_coeff: np.ndarray   # (n_r, n_theta-1): measure / (r h_theta)^2 per angular edge
    gauss_w: np.ndarray            # (4, n_r-1, n_theta-1): Gauss weights, per cell summing to its measure

    @property
    def volume(self) -> float:
        return float(self.mass.sum())

    @property
    def min_boundary_spacing(self) -> float:
        """Smallest node spacing near the north-pole boundary point."""
        dr = self.r[-1] - self.r[-2]
        dth = self.R * (self.theta[1] - self.theta[0])
        return float(min(dr, dth))

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

    def power_masses(self, values: np.ndarray, combine=None):
        """(int u^2, int |u|^q, int |u|^2*) with u the bilinear interpolant,
        q = 2(N-1)/(N-2) and 2* = 2N/(N-2), by per-cell Gauss points
        whose weights are normalized to the exact cell measure.

        With ``combine``, a function of those three masses returning
        weights (k0, k1, k2), also the nodal derivative of
        k0 int u^2 + k1 int |u|^q + k2 int |u|^2*, as ``(masses, derivative)``.

        The exponents are tied: q - 2 = 2/(N-2) and 2* - 2 = 2(q - 2).  So
        one power s = |u_g|^(2/(N-2)) gives all three masses as
        sum w u_g^2 s^k, k = 0, 1, 2, and the derivative as the single
        adjoint of w u_g (2 k0 + q k1 s + 2* k2 s^2).

        Nodal lumping would overestimate these for peaked fields (the
        powers are convex), which lets under-resolved bumps undervalue
        their critical mass and pull the level below the continuum one;
        interpolating first removes that bias.
        """
        N = self.N
        corners = np.stack([values[c] for c in _CORNERS]).reshape(4, -1)
        ug = (_GAUSS_BLOCK @ corners).reshape(self.gauss_w.shape)
        # the Gauss-point temporaries share one block: s, w u_g, w u_g^2 s^k
        work = np.empty((3,) + ug.shape)
        s, wu, wus = work
        if N == 5:
            # |u|^(2/3) as cbrt(u^2): no slow path at u = 0, unlike pow
            np.multiply(ug, ug, out=s)
            np.cbrt(s, out=s)
        else:
            np.abs(ug, out=s)
            np.power(s, 2.0 / (N - 2), out=s)
        np.multiply(self.gauss_w, ug, out=wu)
        np.multiply(wu, ug, out=wus)
        mass2 = float(wus.sum())
        trace = float(np.vdot(wus, s))
        wus *= s
        masses = (mass2, trace, float(np.vdot(wus, s)))
        if combine is None:
            return masses
        k0, k1, k2 = combine(masses)
        q, p = 2.0 * (N - 1) / (N - 2), 2.0 * N / (N - 2)
        # Horner in s: w u_g (2 k0 + s (q k1 + s 2* k2)), reusing the spent row
        np.multiply(s, p * k2, out=wus)
        wus += q * k1
        wus *= s
        wus += 2.0 * k0
        wus *= wu
        # the adjoint: the transposed block into the spent corner stack
        np.matmul(_GAUSS_BLOCK.T, wus.reshape(4, -1), out=corners)
        deriv = np.zeros_like(values)
        for c, h in zip(_CORNERS, corners.reshape(ug.shape)):
            deriv[c] += h
        return masses, deriv


@np.errstate(all="ignore")  # a stretch that breaks the grid is rejected below
def build_grid(N: int, R: float, n_r: int, n_theta: int, stretch: float = 0.0) -> AxiGrid:
    """Tensor grid whose node masses sum to the exact ball volume.

    ``stretch`` > 0 clusters r-nodes toward the boundary r = R and
    theta-nodes toward the axis theta = 0 (where boundary concentration
    happens); 0 gives uniform nodes.  A stretch is accepted only if the
    grid it builds has finite, strictly positive node masses and Gauss
    weights and finite edge coefficients; too strong a stretch for the
    grid size merges nodes in floating point and raises
    ``ConfigurationError`` (at 32 x 32, 36 builds and 37.5 does not).
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
    # against the exact cell measure keeps constants machine-exact
    jac = np.stack(
        [np.outer((r[:-1] + x * hr) ** (N - 1), np.sin(theta[:-1] + y * hth) ** (N - 2))
         for x, y in _GAUSS_POINTS]
    )
    cell_mass = area * np.outer(redge, tedge)
    gauss_w = cell_mass * jac / jac.sum(axis=0)

    positive = all(np.all((w > 0) & np.isfinite(w)) for w in (mass, gauss_w))
    finite = all(np.all(np.isfinite(c)) for c in (r_edge_coeff, theta_edge_coeff))
    if not (positive and finite):
        raise ConfigurationError(
            f"stretch {stretch} breaks the {n_r} x {n_theta} grid: node masses and Gauss "
            "weights must be finite and positive, edge coefficients finite"
        )

    for arr in (r, theta, mass, r_edge_coeff, theta_edge_coeff, gauss_w):
        arr.setflags(write=False)

    return AxiGrid(
        N=int(N),
        R=float(R),
        n_r=n_r,
        n_theta=n_theta,
        stretch=float(stretch),
        r=r,
        theta=theta,
        mass=mass,
        r_edge_coeff=r_edge_coeff,
        theta_edge_coeff=theta_edge_coeff,
        gauss_w=gauss_w,
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


def _checked_values(field: Field, params: ProblemParams) -> np.ndarray:
    if field.grid.N != params.N:
        raise DomainError(f"grid dimension {field.grid.N} != params dimension {params.N}")
    if not np.any(field.values != 0.0):
        raise DegenerateInputError("zero field has no norms")
    return field.values


def _report(params: ProblemParams, grad2: float, masses) -> NormReport:
    mass2, trace, critical = masses
    triple = NormTriple(grad2 + params.a * mass2, params.alpha * trace, critical, params.N)
    return NormReport(triple=triple, grad2=grad2, mass2=mass2, trace_mass=trace)


def norms(field: Field, params: ProblemParams) -> NormReport:
    """Quadrature norms entering I_alpha.

    The gradient energy uses |grad u|^2 = u_r^2 + r^{-2} u_theta^2 with
    both derivatives taken as second-order centered differences at edge
    midpoints; no ghost nodes and no flux term, which is the discrete
    face of the natural boundary condition.  The power masses integrate
    the bilinear interpolant per cell rather than lumping nodal values.
    """
    u = _checked_values(field, params)
    return _report(params, field.grid.gradient_energy(u), field.grid.power_masses(u))


def norm_gradients(field: Field, params: ProblemParams, coefficients):
    """The field's NormReport and the nodal derivative
    c_a a_bar' + c_b b' + c_c c' of a combination of its triple, as
    ``(report, derivative)``, from one kernel pass.

    ``coefficients`` maps the pass's triple to (c_a, c_b, c_c), so the
    weights may depend on the field itself, as the projection multiplier
    of the first variation does; unit weights give one derivative alone.
    """
    u = _checked_values(field, params)
    g = field.grid
    grad2 = g.gradient_energy(u)
    rep = c_a = None

    def mass_weights(masses):
        nonlocal rep, c_a
        rep = _report(params, grad2, masses)
        c_a, c_b, c_c = coefficients(rep.triple)
        return params.a * c_a, params.alpha * c_b, c_c

    _, deriv = g.power_masses(u, combine=mass_weights)
    # the stiffness stencil of grad2, scaled by c_a
    fr = 2.0 * c_a * g.r_edge_coeff * (u[1:, :] - u[:-1, :])
    ft = 2.0 * c_a * g.theta_edge_coeff * (u[:, 1:] - u[:, :-1])
    deriv[1:, :] += fr
    deriv[:-1, :] -= fr
    deriv[:, 1:] += ft
    deriv[:, :-1] -= ft
    return rep, deriv


def energy_operator(grid: AxiGrid, a: float) -> sparse.csr_matrix:
    """Sparse symmetric Q with u^T Q u = |grad u|_2^2 + a |u|_2^2.

    Assembled from the same edge coefficients and Gauss rule as norms(),
    so the quadratic part of the functional is exactly u^T Q u; the cell
    mass blocks make Q strictly definite.
    """
    if not a > 0:
        raise DomainError(f"a > 0 required, got {a}")
    n_r, n_th = grid.n_r, grid.n_theta
    # Each edge adds its 2x2 difference block and each cell its 4x4 block
    # a sum_k w_k lam_k lam_k^T, lam_k row k of the Gauss block, onto the
    # nine diagonals of the node stencil.  bands[m][i, j] couples node
    # (i, j) to the node offsets[m] further on in row-major order; a
    # cell's corners sit at node offsets 0, 1, n_th and n_th + 1.
    offsets = (0, 1, n_th - 1, n_th, n_th + 1)
    corner_offsets = (0, 1, n_th, n_th + 1)
    bands = np.zeros((len(offsets), n_r, n_th))
    diag, right, _, down, _ = bands
    diag[:-1] += grid.r_edge_coeff
    diag[1:] += grid.r_edge_coeff
    down[:-1] -= grid.r_edge_coeff
    diag[:, :-1] += grid.theta_edge_coeff
    diag[:, 1:] += grid.theta_edge_coeff
    right[:, :-1] -= grid.theta_edge_coeff
    pairs = (_GAUSS_BLOCK[:, :, None] * _GAUSS_BLOCK[:, None, :]).reshape(4, 16)
    cell = (pairs.T @ (a * grid.gauss_w).reshape(4, -1)).reshape((4, 4) + grid.gauss_w.shape[1:])
    for c in range(4):
        for d in range(c, 4):
            band = bands[offsets.index(corner_offsets[d] - corner_offsets[c])]
            band[_CORNERS[c]] += cell[c, d]
    n = n_r * n_th
    upper = [band.ravel()[: n - k] for band, k in zip(bands, offsets)]
    return sparse.diags(upper + upper[1:], offsets + tuple(-k for k in offsets[1:]), format="csr")


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
    # one row per node, r major; CRLF rows as the csv module writes them
    rows = np.column_stack(
        [np.repeat(g.r, g.n_theta), np.tile(g.theta, g.n_r), field.values.ravel()]
    )
    with open(csv_path, "w", newline="") as fh:
        fh.write("r,theta,value\r\n")
        fh.write(("%.17g,%.17g,%.17g\r\n" * len(rows)) % tuple(rows.ravel().tolist()))


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
