"""Axisymmetric tensor grid on the ball with exact-cell quadrature.

Fields live on a polar (r, theta) grid, symmetric about the axis through
the north-pole boundary point.  Node masses are control-volume exact:
each node owns the cell between the midpoints to its neighbors, and the
cell masses int r^{N-1} dr and int sin^{N-2}(theta) dtheta are
evaluated in closed form (power rule and incomplete beta function, each
angular piece from its nearer pole, so the tiny cells at either pole
keep relative precision), and the masses sum to the exact ball volume
at machine precision.  They are strictly positive; ``volume`` sums
them, and the solver measures the length of a descent trial's move in
them to detect a step that overflows.  The descent direction and its
line search come from the energy operator and the power masses below.

The grid is the product of its two axes, and so is everything built on
it.  The Jacobian r^{N-1} sin^{N-2}(theta) is a product, so each axis
carries its own 1-D factors as symmetric tridiagonal (main, off) bands:
a stiffness K of its edge coefficients, the diagonal D of its dual-cell
measures and a consistent mass M of its 2-point Gauss rule.  The node
masses, the edge coefficients and the Gauss weights are outer products
of those 1-D vectors, and the energy metric is
Q = K_r (x) D_theta + D_r3 (x) K_theta + a M_r (x) M_theta (the radial
factors carry the sphere area; D_r3 measures int r^{N-3}).

The power masses integrate the bilinear interpolant with that Gauss
rule per cell.  One 2x2 block, whose row k interpolates Gauss node k of
a segment from its two ends, is the 1-D rule; its tensor square, a 4x4
block whose row k interpolates Gauss point k from a cell's corners, is
applied to a field's four corner slices, with the weights ``gauss_w``,
one plane per Gauss point.  The paper's exponents
are tied, q - 2 = 2/(N-2) and 2* - 2 = 2(q - 2), so one power
s = |u_g|^(2/(N-2)) gives the masses of u^2, |u|^q and |u|^2* as
sum w u_g^2 s^k, k = 0, 1, 2.  A pass makes one block product and that
one power, and returns a single-use pullback: one adjoint (the
transposed block and four slice-adds) for any linear combination of the
three mass derivatives, which is all the first variation needs.

The gradient energy differences along cell edges: each term is the
second-order centered derivative at an edge midpoint, squared, times the
exact measure of the edge's dual cell.  The nodal-stencil alternative
(centered at the nodes themselves) is blind to a single-node spike, its
stencil straddles the peak, and that blindness manufactures spurious
sub-grid minimizers of the critical functional well below the continuum
level.  Edge differences see every slope, so for N <= 7 a one-node
spike costs what it should and descent cannot tunnel below the bubble
level.  From N = 8 a spike on the origin row r = 0, whose nodes are all
one point, undercuts S / 2^(2/N).
"""

from __future__ import annotations

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

# glibc maps a block above its mmap threshold on its own and trims the
# heap's free top above its trim threshold, so every kernel pass and
# Q^{-1} solve would fault its temporaries' pages back in, zero-filled.
# Freeing a mapped block raises the mmap threshold to that block's size,
# up to 32 MiB, and the trim threshold to twice that (mallopt(3)), for
# the whole process.  This block is never touched, so it costs no
# memory.  An exported MALLOC_TRIM_THRESHOLD_, MALLOC_MMAP_THRESHOLD_,
# MALLOC_TOP_PAD_ or MALLOC_MMAP_MAX_ freezes the thresholds instead,
# and another C library just frees the block.
np.empty((32 << 20) - (8 << 10), dtype=np.uint8)

# the fewest nodes build_grid accepts on either axis
MIN_NODES = 32


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


def _sin_power_segments(phi: np.ndarray, m: int) -> np.ndarray:
    """int sin^m(t) dt over each segment [phi_k, phi_k+1] of ascending
    nodes in [0, pi], exact via the regularized incomplete beta.

    Each part of a segment is integrated from its nearer pole, the part
    below pi/2 from 0 and the part above from pi, so the small measures
    next to either pole keep relative precision.
    """
    a = (m + 1) / 2.0
    scale = 0.5 * beta_fn(a, 0.5)
    phi = np.asarray(phi, dtype=float)
    half = 0.5 * np.pi
    # int_0^min(phi, pi/2) and int_max(phi, pi/2)^pi
    north = scale * betainc(a, 0.5, np.sin(np.minimum(phi, half)) ** 2)
    south = scale * betainc(a, 0.5, np.sin(np.pi - np.maximum(phi, half)) ** 2)
    return np.diff(north) - np.diff(south)


# A cell's corners (i, j), (i, j+1), (i+1, j), (i+1, j+1) as slices of a
# nodal array, one (n_r-1, n_theta-1) plane each; the 1-D rule, whose
# row k interpolates Gauss node k of a segment from its two ends; and its
# tensor square, whose row 2x + y interpolates the Gauss point (x along
# r, y along theta) from a cell's corners
_CORNERS = tuple((rows, cols) for rows in (slice(None, -1), slice(1, None))
                 for cols in (slice(None, -1), slice(1, None)))
_LERP = np.array([[1 - x, x] for x in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))])
_LERP.setflags(write=False)
_GAUSS_BLOCK = np.kron(_LERP, _LERP)
_GAUSS_BLOCK.setflags(write=False)


def _tridiagonal(left, off, right):
    """(main, off) bands of the symmetric tridiagonal that sums the 2x2
    segment blocks [[left, off], [off, right]] over consecutive nodes."""
    main = np.zeros(len(off) + 1)
    main[:-1] += left
    main[1:] += right
    return main, off


def _axis_factors(edge, cells, weights):
    """One axis's (K, D, M) as (main, off) bands: the stiffness of its
    edge coefficients, the diagonal of its dual-cell measures and the
    consistent mass of its segments' (2, n-1) Gauss weights."""
    lo, hi = _LERP.T
    return (
        _tridiagonal(edge, -edge, edge),
        (cells, np.zeros(len(edge))),
        _tridiagonal((lo * lo) @ weights, (lo * hi) @ weights, (hi * hi) @ weights),
    )


@dataclass(frozen=True, eq=False)
class AxiGrid:
    """Immutable (r, theta) tensor grid with exact cell masses.  Grids
    compare and hash by identity, as their arrays would not."""

    N: int
    R: float
    n_r: int
    n_theta: int
    stretch: float
    r: np.ndarray
    theta: np.ndarray
    # the 2-D arrays are outer products of per-axis vectors: mass of the
    # radial and angular dual cells, r_edge_coeff of -K_r off and D_theta,
    # theta_edge_coeff of D_r3 and -K_theta off, and gauss_w plane 2x + y
    # of the radial Gauss weights x and the angular ones y
    mass: np.ndarray               # (n_r, n_theta), strictly positive control volumes
    r_edge_coeff: np.ndarray       # (n_r-1, n_theta): measure / h_r^2 per radial edge
    theta_edge_coeff: np.ndarray   # (n_r, n_theta-1): measure / (r h_theta)^2 per angular edge
    gauss_w: np.ndarray            # (4, n_r-1, n_theta-1): Gauss weights, per cell summing to its measure
    radial: tuple                  # (K_r, D_r3, M_r), each (main, off) bands, with the sphere area
    angular: tuple                 # (K_theta, D_theta, M_theta), each (main, off) bands

    @property
    def volume(self) -> float:
        return float(self.mass.sum())

    @property
    def min_bubble_eps(self) -> float:
        """Smallest bubble scale the grid resolves: twice the smallest node
        spacing next to the north-pole boundary point."""
        dr = self.r[-1] - self.r[-2]
        dth = self.R * (self.theta[1] - self.theta[0])
        return 2.0 * float(min(dr, dth))

    def power_masses(self, values: np.ndarray):
        """(int u^2, int |u|^q, int |u|^2*) with u the bilinear interpolant,
        q = 2(N-1)/(N-2) and 2* = 2N/(N-2), by per-cell Gauss points
        whose weights are normalized to the exact cell measure, as
        ``(masses, pullback)``.  ``pullback(k0, k1, k2)`` returns the nodal
        derivative of k0 int u^2 + k1 int |u|^q + k2 int |u|^2*.  It spends
        the pass's planes in place and drops them, so a second call raises.

        The exponents are tied: q - 2 = 2/(N-2) and 2* - 2 = 2(q - 2).  So
        one power s = |u_g|^(2/(N-2)) gives all three masses as
        sum w u_g^2 s^k, k = 0, 1, 2, and the derivative as the single
        adjoint of w u_g (2 k0 + q k1 s + 2* k2 s^2).  A pass holds three
        Gauss-point planes: the corner stack, spent once u_g is formed,
        holds s and then the adjoint; u_g's own plane becomes
        w u_g^2 s^k and then the derivative's weights; the third keeps
        w u_g.  The pullback drops those two once the adjoint is formed.

        Nodal lumping would overestimate these for peaked fields (the
        powers are convex), which lets under-resolved bumps undervalue
        their critical mass and pull the level below the continuum one;
        interpolating first removes that bias.
        """
        N = self.N
        corners = np.stack([values[c] for c in _CORNERS]).reshape(4, -1)
        ug = (_GAUSS_BLOCK @ corners).reshape(self.gauss_w.shape)
        # three Gauss-point planes: the spent corner stack takes s, u_g's
        # own plane w u_g^2 s^k, and wu keeps w u_g for the derivative
        s = corners.reshape(ug.shape)
        if N == 5:
            # |u|^(2/3) as cbrt(u^2): no slow path at u = 0, unlike pow
            np.multiply(ug, ug, out=s)
            np.cbrt(s, out=s)
        else:
            np.abs(ug, out=s)
            np.power(s, 2.0 / (N - 2), out=s)
        wu = self.gauss_w * ug
        wus = np.multiply(wu, ug, out=ug)
        mass2 = float(wus.sum())
        trace = float(np.vdot(wus, s))
        wus *= s
        masses = (mass2, trace, float(np.vdot(wus, s)))
        planes = [corners, wus, wu]

        def pullback(k0, k1, k2):
            if not planes:
                raise RuntimeError("a power-mass pullback is single-use")
            corners, wus, wu = planes
            planes.clear()
            s = corners.reshape(wus.shape)
            q, p = 2.0 * (N - 1) / (N - 2), 2.0 * N / (N - 2)
            # Horner in s: w u_g (2 k0 + s (q k1 + s 2* k2)), in the spent wus
            np.multiply(s, p * k2, out=wus)
            wus += q * k1
            wus *= s
            wus += 2.0 * k0
            wus *= wu
            # the adjoint: the transposed block into the spent s plane
            np.matmul(_GAUSS_BLOCK.T, wus.reshape(4, -1), out=corners)
            del wus, wu  # spent: only s's plane is left to scatter
            deriv = np.zeros_like(values)
            for c, h in zip(_CORNERS, s):
                deriv[c] += h
            return deriv

        return masses, pullback


@np.errstate(all="ignore")  # a radius or stretch that breaks the grid is rejected below
def build_grid(N: int, R: float, n_r: int, n_theta: int, stretch: float) -> AxiGrid:
    """Tensor grid whose node masses sum to the exact ball volume.

    ``stretch`` > 0 clusters r-nodes toward the boundary r = R and
    theta-nodes toward the axis theta = 0 (where boundary concentration
    happens); 0 gives uniform nodes.  A radius and stretch are accepted
    only if the grid has finite, strictly positive node masses and Gauss
    weights and finite edge coefficients; else ``ConfigurationError``
    names both (at N = 5, R = 1e-70 underflows the masses; at 32 x 32 a
    stretch of 36 builds and 37.5 merges nodes in floating point).
    """
    if not (isinstance(N, (int, np.integer)) and N >= 5):
        raise ConfigurationError(f"integer N >= 5 required, got {N!r}")
    if not R > 0:
        raise ConfigurationError(f"R > 0 required, got {R}")
    if not all(isinstance(n, (int, np.integer)) and n >= MIN_NODES for n in (n_r, n_theta)):
        raise ConfigurationError(
            f"integer n_r and n_theta >= {MIN_NODES} required, got {n_r!r}, {n_theta!r}"
        )
    if stretch < 0:
        raise ConfigurationError(f"stretch >= 0 required, got {stretch}")

    r = R * _stretched_unit_nodes(n_r, stretch, toward_end=True)
    theta = np.pi * _stretched_unit_nodes(n_theta, stretch, toward_end=False)
    area = sphere_area(N - 1)

    # Exact 1-D measures, the radial ones carrying the sphere area: of the
    # dual cells between the midpoints around each node (int r^{N-1},
    # int r^{N-3}, finite since N >= 5, and int sin^{N-2}) and of the
    # segments between two nodes
    r_edges = np.concatenate(([0.0], 0.5 * (r[1:] + r[:-1]), [R]))
    r_cells = area * (r_edges[1:] ** N - r_edges[:-1] ** N) / N
    r3_cells = area * (r_edges[1:] ** (N - 2) - r_edges[:-1] ** (N - 2)) / (N - 2)
    r_segments = area * (r[1:] ** N - r[:-1] ** N) / N
    th_edges = np.concatenate(([0.0], 0.5 * (theta[1:] + theta[:-1]), [np.pi]))
    th_cells = _sin_power_segments(th_edges, N - 2)
    th_segments = _sin_power_segments(theta, N - 2)

    # edge coefficients for the edge-midpoint gradient energy, and the
    # 2-point Gauss rule on each segment for the interpolant masses, its
    # weights renormalized against the segment's exact measure so that
    # constants stay machine-exact
    r_edge = r_segments / np.diff(r) ** 2
    th_edge = th_segments / np.diff(theta) ** 2
    jr = (_LERP @ np.stack([r[:-1], r[1:]])) ** (N - 1)
    jth = np.sin(_LERP @ np.stack([theta[:-1], theta[1:]])) ** (N - 2)
    wr = r_segments * jr / jr.sum(axis=0)
    wth = th_segments * jth / jth.sum(axis=0)

    mass = np.outer(r_cells, th_cells)
    r_edge_coeff = np.outer(r_edge, th_cells)
    theta_edge_coeff = np.outer(r3_cells, th_edge)
    gauss_w = (wr[:, None, :, None] * wth[None, :, None, :]).reshape(4, n_r - 1, n_theta - 1)
    radial = _axis_factors(r_edge, r3_cells, wr)
    angular = _axis_factors(th_edge, th_cells, wth)

    positive = all(np.all((w > 0) & np.isfinite(w)) for w in (mass, gauss_w))
    finite = all(np.all(np.isfinite(c)) for c in (r_edge_coeff, theta_edge_coeff))
    if not (positive and finite):
        raise ConfigurationError(
            f"R {R} and stretch {stretch} break the {n_r} x {n_theta} grid: node masses and Gauss "
            "weights must be finite and positive, edge coefficients finite"
        )

    bands = [band for factor in radial + angular for band in factor]
    for arr in (r, theta, mass, r_edge_coeff, theta_edge_coeff, gauss_w, *bands):
        arr.setflags(write=False)

    return AxiGrid(
        N=int(N),
        R=float(R),
        n_r=int(n_r),
        n_theta=int(n_theta),
        stretch=float(stretch),
        r=r,
        theta=theta,
        mass=mass,
        r_edge_coeff=r_edge_coeff,
        theta_edge_coeff=theta_edge_coeff,
        gauss_w=gauss_w,
        radial=radial,
        angular=angular,
    )


@dataclass(eq=False)
class Field:
    """Axisymmetric scalar field: one value per (r, theta) node.  Fields
    compare and hash by identity, as their arrays would not."""

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


def norm_gradients(field: Field, params: ProblemParams):
    """Quadrature norms entering I_alpha, as ``(report, pullback)`` from
    one kernel pass.

    The gradient energy uses |grad u|^2 = u_r^2 + r^{-2} u_theta^2 with
    both derivatives taken as second-order centered differences at edge
    midpoints; no ghost nodes and no flux term, which is the discrete
    face of the natural boundary condition.  The power masses integrate
    the bilinear interpolant per cell rather than lumping nodal values.

    The single-use ``pullback(c_a, c_b, c_c)`` returns the nodal derivative
    c_a a_bar' + c_b b' + c_c c' of the report's triple, so the caller may
    pick the weights from the report, as the projection multiplier of the
    first variation does; unit weights give one derivative alone.
    """
    g, u = field.grid, field.values
    if g.N != params.N:
        raise DomainError(f"grid dimension {g.N} != params dimension {params.N}")
    if not np.any(u != 0.0):
        raise DegenerateInputError("zero field has no norms")
    (mass2, trace, critical), mass_pullback = g.power_masses(u)
    # one weighted difference w = coeff du per edge: grad2 reads w du, and
    # the pullback spends w as the stiffness stencil
    dr = u[1:, :] - u[:-1, :]
    wr = g.r_edge_coeff * dr
    grad2 = float(np.vdot(wr, dr))
    del dr  # before the strided angular subtraction, which makes a nodal temporary
    dt = u[:, 1:] - u[:, :-1]
    wt = g.theta_edge_coeff * dt
    grad2 += float(np.vdot(wt, dt))
    triple = NormTriple(grad2 + params.a * mass2, params.alpha * trace, critical, params.N)
    report = NormReport(triple=triple, grad2=grad2, mass2=mass2, trace_mass=trace)

    def pullback(c_a, c_b, c_c):
        deriv = mass_pullback(params.a * c_a, params.alpha * c_b, c_c)
        for w in (wr, wt):  # 2 c_a w, the stiffness stencil of grad2
            np.multiply(w, 2.0 * c_a, out=w)
        deriv[1:, :] += wr
        deriv[:-1, :] -= wr
        deriv[:, 1:] += wt
        deriv[:, :-1] -= wt
        return deriv

    return report, pullback


def norms(field: Field, params: ProblemParams) -> NormReport:
    """The report of ``norm_gradients``, whose pullback is dropped untaken."""
    return norm_gradients(field, params)[0]


def energy_operator(grid: AxiGrid, a: float) -> sparse.csc_matrix:
    """Sparse symmetric Q with u^T Q u = |grad u|_2^2 + a |u|_2^2.

    Q = K_r (x) D_theta + D_r3 (x) K_theta + a M_r (x) M_theta, the
    Kronecker sum of the grid's 1-D factors, which its edge coefficients
    and Gauss weights are outer products of; so the quadratic part of the
    functional is exactly u^T Q u, and the consistent mass makes Q
    strictly definite.  Q is assembled only for a sparse LU, so it comes
    in the CSC form ``splu`` factors, with sorted indices.
    """
    if not a > 0:
        raise DomainError(f"a > 0 required, got {a}")
    (k_r, d_r3, m_r), (k_th, d_th, m_th) = (
        [sparse.diags([off, main, off], [-1, 0, 1]) for main, off in factor]
        for factor in (grid.radial, grid.angular)
    )
    q = sparse.kron(k_r, d_th, format="csc") + sparse.kron(d_r3, k_th, format="csc")
    return q + sparse.kron(a * m_r, m_th, format="csc")


def _segments(coarse: np.ndarray, fine: np.ndarray):
    """Index i and weight w of each fine node in the ascending coarse
    nodes, which share its ends: the node lies w of the way from coarse
    node i to node i + 1, 0 <= w <= 1."""
    i = np.clip(np.searchsorted(coarse, fine, side="right") - 1, 0, len(coarse) - 2)
    return i, (fine - coarse[i]) / (coarse[i + 1] - coarse[i])


def prolongation(coarse: AxiGrid, fine: AxiGrid):
    """The map of a field on ``coarse`` to its bilinear interpolant at the
    nodes of ``fine``, a grid of the same ball.

    Both grids span [0, R] x [0, pi], so their end nodes coincide and
    nothing is extrapolated.  Each axis interpolates as c[i] + w (c[i+1]
    - c[i]), which keeps a constant exactly constant and a nonnegative
    field nonnegative; the segments and weights are found once, here.
    """
    if (coarse.N, coarse.R) != (fine.N, fine.R):
        raise DomainError(
            f"a grid of N {coarse.N}, R {coarse.R} does not prolong to N {fine.N}, R {fine.R}"
        )
    (i, w), (j, v) = _segments(coarse.r, fine.r), _segments(coarse.theta, fine.theta)
    w = w[:, None]

    def prolong(field: Field) -> Field:
        c = field.values
        rows = c[i] + w * (c[i + 1] - c[i])
        return Field(fine, rows[:, j] + v * (rows[:, j + 1] - rows[:, j]))

    return prolong


def pole_distance(grid: AxiGrid, r, cos_theta, south: bool = False):
    """Distance from the point (r, theta) to the north-pole boundary
    point, or to the south pole theta = pi when ``south`` is true, by the
    law of cosines d^2 = r^2 + R^2 -+ 2 r R cos(theta).  The nodal arrays
    and one node's scalars give the same bits."""
    cross = 2.0 * r * grid.R * cos_theta
    if south:
        cross = -cross
    return np.sqrt(np.maximum(r**2 + grid.R**2 - cross, 0.0))


def interpolate_instanton(grid: AxiGrid, inst: InstantonParams, south: bool = False) -> Field:
    """Nodewise bubble centered at the north-pole boundary point, or at
    the south pole theta = pi when ``south`` is true, at each node's
    ``pole_distance``.  Raises ResolutionError, stating the floor, when
    the scale is below ``grid.min_bubble_eps``.
    """
    if inst.eps < grid.min_bubble_eps:
        raise ResolutionError(
            f"eps={inst.eps:g} unresolvable on this grid "
            f"(needs eps >= {grid.min_bubble_eps:g}); refine or stretch the grid"
        )
    dist = pole_distance(grid, grid.r[:, None], np.cos(grid.theta), south)
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
    # one row per node, r major; CRLF rows as the csv module writes them.
    # Each axis coordinate is formatted once, not once per row it heads,
    # and each r-row's values by one % on a template of its n_theta rows
    th_txt = [""] + ["%.17g,%%.17g\r\n" % th for th in g.theta.tolist()]
    with open(csv_path, "w", newline="") as fh:
        fh.write("r,theta,value\r\n")
        for r, row in zip(g.r.tolist(), field.values.tolist()):
            fh.write(("%.17g," % r).join(th_txt) % tuple(row))


def load_field_snapshot(csv_path, json_path) -> Field:
    with open(json_path) as fh:
        header = json.load(fh)
    grid = build_grid(
        header["N"], header["R"], header["n_r"], header["n_theta"], header["stretch"]
    )
    values = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=2, ndmin=1)
    if values.size != grid.n_r * grid.n_theta:
        raise DomainError(f"snapshot has {values.size} rows, grid needs {grid.n_r * grid.n_theta}")
    return Field(grid, values.reshape(grid.n_r, grid.n_theta))
