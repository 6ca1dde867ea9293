"""Equilibrium measures for the half-power log-gas on [0, infinity).

The energy functional is

    E[mu] = 1/2 II -log|x-y| dmu dmu  +  1/2 II -log|sqrt(x)-sqrt(y)| dmu dmu
            + I V dmu

over probability measures mu on [0, oo).  For the linear field V(x) = x the
minimizer is known in closed form: it lives on [0, 27/8] with a density that
blows up like c0 * s^(-2/3) at the hard edge and vanishes like
c1 * sqrt(q - s) at the soft edge,

    c0 = sqrt(3) / (2^(5/3) pi),      c1 = 16 sqrt(2) / (81 pi).

This module provides

* the closed-form density (`density_vx_explicit`) and an independent route
  through the spectral cubic s^2 z^3 - s^2 z^2 + s z - 1/4 = 0
  (`density_vx_cardano`),
* a float64 minimizer for general fields on a uniform cell grid
  (`equilibrium_minimize`): the discrete energy is a strictly convex
  quadratic on the simplex, solved exactly by pivoting on its KKT system,
* Euler-Lagrange certification (`variational_residual`),
* the g-functions / phi-functions / conformal map f built on top of a
  solution (`g_functions`), and
* the scaling constants cV, f1(0), f'(0) (`scaling_constants`).

Evaluators returned by `g_functions` are pure closures over immutable data
and safe to call concurrently; the minimizer mutates only its own arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from mpmath import mp, mpf, mpc

from .mpcore import GUARD_DIGITS, _resolve_dps, quad_gl, quad_ts, solve_cubic

__all__ = [
    "DomainError",
    "BranchSelectionError",
    "StagnationError",
    "GridMeasure",
    "EquilibriumSolution",
    "GFunctions",
    "VX_SUPPORT",
    "VX_C0",
    "VX_C1",
    "density_vx_explicit",
    "density_vx_cardano",
    "endpoint_fit",
    "weights_from_density",
    "vx_reference_solution",
    "equilibrium_minimize",
    "variational_residual",
    "g_functions",
    "scaling_constants",
]


class DomainError(ValueError):
    """Argument outside the domain of a closed-form density."""


class BranchSelectionError(ArithmeticError):
    """No cubic root with positive imaginary part.

    Raised by :func:`density_vx_cardano` when all three roots of the spectral
    cubic are real, which happens exactly when s lies outside the support
    (0, 27/8).
    """


class StagnationError(RuntimeError):
    """The minimizer's KKT solve did not reach a KKT point: the pivot
    iterations hit their cap, or the bordered KKT system was singular.

    Attributes
    ----------
    objective : float
        Lowest objective value recorded before the failure.
    """

    def __init__(self, message, objective):
        super().__init__(message)
        self.objective = objective


# support endpoint and edge constants of the linear-field minimizer
VX_SUPPORT = mpf(27) / 8


def VX_C0(dps=None):
    with mp.workdps(_resolve_dps(dps) + GUARD_DIGITS):
        return mp.sqrt(3) / (2 ** mpf("5/3") * mp.pi)


def VX_C1(dps=None):
    with mp.workdps(_resolve_dps(dps) + GUARD_DIGITS):
        return 16 * mp.sqrt(2) / (81 * mp.pi)


# ----------------------------------------------------------------------
# closed-form density for V(x) = x  (two independent routes)
# ----------------------------------------------------------------------

def _real_cbrt(x):
    """Real cube root of a real number (mp.cbrt is principal-complex)."""
    x = mpf(x)
    if x < 0:
        return -mp.cbrt(-x)
    return mp.cbrt(x)


def density_vx_explicit(s, dps=None):
    """Equilibrium density for V(x)=x at s in (0, 27/8), closed form.

    The two bracket terms are real for every s in range, but their radicands
    change sign inside (0, 27/8); both cube roots must therefore be taken as
    *real* cube roots, not principal complex ones.
    """
    d = _resolve_dps(dps)
    with mp.workdps(d + GUARD_DIGITS):
        s = mpf(s)
        # closed right endpoint: the bracket vanishes there, and endpoint-
        # singular quadrature rules may round a node onto it
        if not 0 < s <= VX_SUPPORT:
            raise DomainError(f"density support is (0, 27/8); got s = {s}")
        a = 1 - 4 * s / 3 + 8 * s * s / 27
        b = mp.sqrt(1 - 8 * s / 27)
        bracket = _real_cbrt(a + b) + _real_cbrt(b - a)
        out = mp.sqrt(3) / (4 * mp.pi * s ** mpf("2/3")) * bracket
    return +out


def density_vx_cardano(s, dps=None):
    """Same density through the spectral cubic and Stieltjes inversion.

    Solves s^2 z^3 - s^2 z^2 + s z - 1/4 = 0, picks the unique root with
    positive imaginary part (above 1e-20) and returns Im(root)/pi.  Shares
    no code with :func:`density_vx_explicit` beyond the cubic solver.
    """
    d = _resolve_dps(dps)
    with mp.workdps(d + GUARD_DIGITS):
        s = mpf(s)
        if s <= 0:
            raise DomainError(f"need s > 0; got s = {s}")
        roots = solve_cubic(s * s, -s * s, s, mpf(-1) / 4, dps=d)
        up = [r for r in roots if mp.im(r) > 1e-20]
        if not up:
            raise BranchSelectionError(
                "all roots real to tolerance; s = %s lies outside (0, 27/8)" % s
            )
        # conjugate pair: exactly one root has positive imaginary part
        root = max(up, key=mp.im)
        out = mp.im(root) / mp.pi
    return +out


def _neville_at_zero(ts, vals):
    """Value at t = 0 of the polynomial through the points (ts[i], vals[i]),
    by Neville's tableau."""
    p = list(vals)
    n = len(ts)
    for lvl in range(1, n):
        for i in range(n - lvl):
            p[i] = (ts[i + lvl] * p[i] - ts[i] * p[i + 1]) / (ts[i + lvl] - ts[i])
    return p[0]


def endpoint_fit(density, q, end, dps=None):
    """Edge constant of a density by Richardson extrapolation in cell index.

    end="origin" fits s^(2/3) * rho(s) -> c0 with expansion variable s^(1/3);
    end="edge" fits rho(q-u)/sqrt(u) -> c1 with expansion variable sqrt(u).
    Uses the midpoints of the 5 cells of width 5e-4 nearest the endpoint and
    Neville extrapolation to expansion variable 0.
    """
    d = _resolve_dps(dps)
    with mp.workdps(d + GUARD_DIGITS):
        q = mpf(q)
        h = mpf("5e-4")
        ts, vals = [], []
        for i in range(5):
            u = (i + mpf(1) / 2) * h
            if end == "origin":
                ts.append(u ** mpf("1/3"))
                vals.append(u ** mpf("2/3") * density(u))
            elif end == "edge":
                ts.append(mp.sqrt(u))
                vals.append(density(q - u) / mp.sqrt(u))
            else:
                raise ValueError("end must be 'origin' or 'edge'")
        out = _neville_at_zero(ts, vals)
    return +out


# ----------------------------------------------------------------------
# grid measures
# ----------------------------------------------------------------------

MASS_TOL = 1e-12


@dataclass
class GridMeasure:
    """Nonnegative measure on midpoints of a uniform cell partition of [0, Q].

    nodes must be strictly increasing, weights nonnegative, and the weights
    must sum to `mass` within 1e-12.
    """

    nodes: np.ndarray
    weights: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(self.weights)) - self.mass) > MASS_TOL * max(1.0, self.mass):
            raise ValueError(
                "weights sum to %.17g, declared mass %.17g"
                % (float(np.sum(self.weights)), self.mass)
            )

    def cell_width(self):
        """Width of the uniform cells; error if the grid is not uniform."""
        dh = np.diff(self.nodes)
        if not len(dh):
            raise ValueError("cell width needs at least two nodes")
        h = float(dh[0])
        if not np.allclose(dh, h, rtol=1e-9, atol=0):
            raise ValueError("grid is not uniform")
        return h


@dataclass
class EquilibriumSolution:
    """Discretized equilibrium measure plus the derived edge data.

    `density` is an optional continuous density callable (set for the
    closed-form linear-field solution); `field` is the external field V,
    used by the g-function evaluators.
    """

    mu: GridMeasure
    q: float
    ell: float
    c0: float
    c1: float
    cV: float
    density: Optional[Callable] = None
    objective_trace: Optional[list] = field(default=None, repr=False)
    # log-potential 2 Lambda w - S w at the nodes of `mu`, if already known
    potential: Optional[np.ndarray] = field(default=None, repr=False)
    # the external field V itself; must come last, its name shadows
    # dataclasses.field inside this class body
    field: Optional[Callable] = None

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError("support endpoint q must be positive")


def weights_from_density(density, q, m, dps=20):
    """Cell weights w_i = integral of `density` over the i-th of m uniform
    cells of [0, q].  Interior cells use Gauss-Legendre; the first and last
    cells use tanh-sinh to absorb the edge singularities."""
    with mp.workdps(dps + GUARD_DIGITS):
        q = mpf(q)
        h = q / m
        w = np.empty(m)
        for i in range(m):
            a, b = i * h, (i + 1) * h
            if i == 0 or i == m - 1:
                w[i] = float(quad_ts(density, a, b, dps=dps))
            else:
                w[i] = float(quad_gl(density, a, b, order=8, dps=dps))
        nodes = (np.arange(m) + 0.5) * float(h)
    total = float(w.sum())
    return GridMeasure(nodes=nodes, weights=w, mass=total)


# ----------------------------------------------------------------------
# discretized energy: exact cell-averaged log kernel
# ----------------------------------------------------------------------

def _cell_log_table(m):
    """phi[k] = average of log|k + u - v| over u, v in (0,1), for k = 0..m-1.

    This is the exact cell-pair average of log|x-y| on a uniform grid up to
    the common log(h) shift.  phi[0] = -3/2.
    """
    k = np.arange(m, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        kp = (k + 1) ** 2 * np.log(k + 1)
        km = np.where(k >= 1, (k - 1) ** 2 * np.log(np.maximum(k - 1, 1)), 0.0)
        kk = np.where(k >= 1, k * k * np.log(np.maximum(k, 1)), 0.0)
    return 0.5 * (kp + km - 2 * kk) - 1.5


def _sqrt_log_kernel(h, m, npts=8):
    """Cell-averaged log(sqrt x + sqrt y) for all cell pairs.

    The substitution x = u^2 removes the sqrt-derivative blow-up at the
    origin, after which fixed-order Gauss-Legendre per cell is accurate;
    midpoint sampling instead leaves an O(sqrt(h)) error in the first cells
    that visibly biases the minimizer near the hard edge.  The kernel is
    symmetric: only the upper triangle is computed, then mirrored.
    """
    x, wq = np.polynomial.legendre.leggauss(npts)
    edges = np.sqrt(np.arange(m + 1) * h)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    u_nodes = mid[:, None] + rad[:, None] * x[None, :]
    u_wts = (rad[:, None] * wq[None, :]) * 2.0 * u_nodes / h
    smat = np.empty((m, m))
    buf = np.empty((npts, m, npts))
    for i in range(m):
        lg = buf[:, :m - i, :]
        np.add(u_nodes[i][:, None, None], u_nodes[None, i:, :], out=lg)
        np.log(lg, out=lg)
        inner = (u_wts[i] @ lg.reshape(npts, -1)).reshape(m - i, npts)
        smat[i, i:] = np.einsum("jb,jb->j", inner, u_wts[i:])
        smat[i:, i] = smat[i, i:]
    return smat


def _energy_operator(h, m):
    """A = S/2 - Lambda, with Lambda and S the exact cell-pair averages of
    log|x-y| and of log(sqrt x + sqrt y); the discretized energy is
    E(w) = w.A.w + v.w.

    Built in place: Lambda is Toeplitz, so each row is subtracted straight
    from its table and no other m x m array is formed.
    """
    A = _sqrt_log_kernel(h, m)
    A *= 0.5
    tab = _cell_log_table(m) + np.log(h)
    for i in range(m):
        A[i, i:] -= tab[:m - i]
        A[i, :i] -= tab[i:0:-1]
    return A


def _kkt_active_set(A, v, w0, max_iter):
    """Exact minimizer of w.A.w + v.w over the simplex by block principal
    pivoting on the KKT conditions (Kim & Park, SIAM J. Sci. Comput. 2011).

    For a trial support S, the bordered system
    [[A_SS, -1], [1^T, 0]] [w_S, ell/2] = [-v_S/2, 1] gives weights and the
    multiplier ell with 2(Aw) + v = ell on S.  A is positive definite only
    on sum-zero vectors, so A_SS alone may be indefinite; the bordered
    system is nonsingular all the same.  Cells of S with w < 0 leave and
    cells off S with 2(Aw) + v - ell < 0 enter, until neither set has a
    member.  When three exchanges in a row fail to lower the count of such
    cells, only the largest-index one is exchanged (Judice & Pires 1994),
    which guarantees termination.

    Returns (w, ell, Aw, trace); trace holds the objective at w0 and at
    every feasible iterate that lowers it.  Raises StagnationError when the
    KKT system is singular or `max_iter` pivot iterations do not suffice.
    """
    m = len(v)
    trace = [float(w0 @ (A @ w0) + v @ w0)]
    support = np.ones(m, dtype=bool)
    best, budget = m + 1, 3
    for _ in range(max_iter):
        idx = np.flatnonzero(support)
        k = idx.size
        kkt = np.empty((k + 1, k + 1))
        kkt[:k, :k] = A[np.ix_(idx, idx)]
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        kkt[k, k] = 0.0
        rhs = np.append(-0.5 * v[idx], 1.0)
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise StagnationError("singular KKT system on a support of %d "
                                  "cells" % k, trace[-1]) from exc
        del kkt  # so the next support's system is not built beside it
        w = np.zeros(m)
        w[idx] = sol[:k]
        ell = 2.0 * float(sol[k])
        aw = A @ w
        leave = support & (w < 0)
        enter = ~support & (2.0 * aw + v - ell < 0)
        if not leave.any():
            e = float(w @ aw + v @ w)
            if e < trace[-1]:
                trace.append(e)
        bad = np.flatnonzero(leave | enter)
        if bad.size == 0:
            return w, ell, aw, trace
        if bad.size < best:
            best, budget = bad.size, 3
        elif budget > 0:
            budget -= 1
        else:
            bad = bad[-1:]
        support[bad] = ~support[bad]
    raise StagnationError("no KKT point within %d pivot iterations" % max_iter,
                          trace[-1])


def _fit_c0_cells(w, h, q_est):
    """c0 = lim s^(2/3) rho(s) by least squares against c0 + a1*t + a3*t^3
    in t = s^(1/3), over the window 0.015*q <= s <= 0.27*q.

    Each cell weight is normalized by the exact integral of s^(-2/3) over
    the cell.  The window deliberately skips the first cells: a
    piecewise-constant minimizer carries an O(1)-per-cell artifact right at
    the hard edge that poisons small-stencil extrapolation, while the wide
    window averages it out.  The model has no t^2 term because the density
    expands as analytic(s) + s^(1/3) * analytic(s) near 0.
    """
    m = len(w)
    s = (np.arange(m) + 0.5) * h
    i = np.nonzero((s >= 0.015 * q_est) & (s <= 0.27 * q_est))[0]
    if i.size < 4:
        i = np.arange(min(8, m))
    a, b = i * h, (i + 1) * h
    d = w[i] / (3.0 * (b ** (1.0 / 3.0) - a ** (1.0 / 3.0)))
    t = s[i] ** (1.0 / 3.0)
    design = np.stack([np.ones_like(t), t, t ** 3], axis=1)
    coef, *_ = np.linalg.lstsq(design, d, rcond=None)
    return coef[0]


def _fit_c1_cells(w, h, j_edge, first=3, last=30):
    """c1 = lim rho(s)/sqrt(q-s) by least squares against c1 + g1*r + g2*r^2
    in r = sqrt(q-s), over cells first..last counted inward from the support
    edge (cell weights normalized by the exact integral of sqrt(q-s) per
    cell; the outermost cells are skipped for the same edge-artifact reason
    as at the origin)."""
    q = (j_edge + 1) * h
    last = min(last, j_edge)
    offs = np.arange(first, last + 1) if last >= first else np.arange(
        0, j_edge + 1)
    j = j_edge - offs
    a, b = j * h, (j + 1) * h
    norm = (2.0 / 3.0) * ((q - a) ** 1.5 - (q - b) ** 1.5)
    d = w[j] / norm
    r = np.sqrt(q - (j + 0.5) * h)
    design = np.stack([np.ones_like(r), r, r ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, d, rcond=None)
    return coef[0]


SUPPORT_CUT = 1e-8


def equilibrium_minimize(V, Q, m, max_iter=6000):
    """Minimize the discretized energy over probability measures on [0, Q].

    V : callable, the external field, evaluated at the m cell midpoints.
    Q : box size; the support of the minimizer must end well inside.
    m : number of uniform cells.
    max_iter : cap on the pivot iterations of the exact KKT solve.

    Returns an EquilibriumSolution with q (support endpoint estimate), the
    Lagrange constant ell (the KKT multiplier of the mass constraint), the
    log-potential at the cell midpoints, and edge-constant fits c0, c1, cV.
    Raises StagnationError when the solve does not reach a KKT point.
    """
    h = Q / m
    s = (np.arange(m) + 0.5) * h
    v = np.array([float(V(x)) for x in s])

    # growth sanity: V should beat log at large x, else the measure escapes
    try:
        ratios = [float(V(x)) / np.log(x) for x in (2.0 * Q, 4.0 * Q, 8.0 * Q)]
        if not (ratios[0] < ratios[1] < ratios[2]):
            warnings.warn("V(x)/log(x) not increasing on the sample points",
                          RuntimeWarning, stacklevel=2)
    except Exception:
        pass
    # one-cut heuristic: x V'(x) increasing (checked by central differences)
    xs = np.linspace(0.1 * Q, 0.9 * Q, 9)
    dV = [(float(V(x + 1e-5)) - float(V(x - 1e-5))) / 2e-5 for x in xs]
    xdv = xs * np.array(dV)
    if np.any(np.diff(xdv) < -1e-9 * max(1.0, float(np.max(np.abs(xdv))))):
        warnings.warn("x V'(x) is not increasing; the one-cut assumption may fail",
                      RuntimeWarning, stacklevel=2)

    A = _energy_operator(h, m)
    w0 = s ** (-2.0 / 3.0) / np.sum(s ** (-2.0 / 3.0))
    w, ell, aw, trace = _kkt_active_set(A, v, w0, max_iter)

    support = w > SUPPORT_CUT * float(np.max(w))
    q_est = float(s[support][-1])

    c0 = float(_fit_c0_cells(w, h, q_est))
    j_edge = int(np.nonzero(support)[0][-1])
    c1 = float(_fit_c1_cells(w, h, j_edge))
    cv = float(2 * np.pi / np.sqrt(3.0) * c0)

    mu = GridMeasure(nodes=s, weights=w, mass=float(np.sum(w)))
    # the log-potential 2 Lambda w - S w is -2 Aw, and the Euler-Lagrange
    # constant is the KKT multiplier with its sign turned
    return EquilibriumSolution(mu=mu, q=q_est, ell=-ell, c0=c0, c1=c1, cV=cv,
                               field=V, density=None,
                               objective_trace=trace, potential=-2.0 * aw)


def variational_residual(sol, V):
    """Euler-Lagrange certificate for a solution on a uniform grid.

    Returns (equality_dev, inequality_ok): the max equality defect
    |U(x) - V(x) - ell| over interior support nodes, and whether the
    variational inequality U(x) - V(x) - ell < 0 holds strictly on the grid
    x = q * (1.1, 1.2, ..., 2.0) beyond the support.
    """
    gm = sol.mu
    h = gm.cell_width()
    s, w = gm.nodes, gm.weights
    u_pot = sol.potential
    if u_pot is None:
        u_pot = -2.0 * (_energy_operator(h, len(s)) @ w)
    sq = np.sqrt(s)
    v = np.array([float(V(x)) for x in s])

    support = w > SUPPORT_CUT * float(np.max(w))
    interior = support & (s >= 0.05 * sol.q) & (s <= 0.95 * sol.q)
    equality_dev = float(np.max(np.abs((u_pot - v - sol.ell)[interior])))

    # a probe may land exactly on an empty cell: sum over w > 0 only, so
    # that 0 * log 0 never turns the potential into nan
    pos = w > 0
    s_pos, w_pos, sq_pos = s[pos], w[pos], sq[pos]
    ok = True
    for fac in np.linspace(1.1, 2.0, 10):
        x = fac * sol.q
        u_x = float(np.sum(w_pos * (2.0 * np.log(np.abs(x - s_pos))
                                    - np.log(np.sqrt(x) + sq_pos))))
        if not u_x - float(V(x)) - sol.ell < 0:
            ok = False
    return equality_dev, ok


# ----------------------------------------------------------------------
# reference solution for V(x) = x
# ----------------------------------------------------------------------

def _vx_ell(dps):
    """Lagrange constant for V(x)=x from the Euler-Lagrange equality,
    averaged over three interior points (the spread is a quadrature check)."""
    with mp.workdps(dps + GUARD_DIGITS):
        q = VX_SUPPORT
        rho = lambda t: density_vx_explicit(t, dps=dps)
        vals = []
        for x in (mpf(7) / 10, mpf(17) / 10, mpf(29) / 10):
            def f_log(t):
                return mp.log(abs(x - t)) * rho(t)

            def f_sum(t):
                return mp.log(mp.sqrt(x) + mp.sqrt(t)) * rho(t)

            pot = 2 * (quad_ts(f_log, 0, x, dps=dps)
                       + quad_ts(f_log, x, q, dps=dps))
            pot -= quad_ts(f_sum, 0, q, dps=dps)
            vals.append(pot - x)
        spread = max(vals) - min(vals)
        if spread > mpf(10) ** (-(dps - 8)):
            warnings.warn("Euler-Lagrange constant spread %s" % mp.nstr(spread, 5),
                          RuntimeWarning, stacklevel=2)
        out = sum(vals) / len(vals)
    return +out


def vx_reference_solution(m=400, dps=30):
    """EquilibriumSolution built from the closed-form V(x)=x density."""
    # the cell weights are floats: 20 digits are plenty
    gm = weights_from_density(lambda t: density_vx_explicit(t, dps=20),
                              VX_SUPPORT, m, dps=20)
    # re-declare as a probability measure (cell integrals sum to 1 anyway)
    gm = GridMeasure(nodes=gm.nodes, weights=gm.weights / gm.mass, mass=1.0)
    rho = lambda t: density_vx_explicit(t, dps=dps)
    c0 = endpoint_fit(rho, VX_SUPPORT, "origin", dps=dps)
    c1 = endpoint_fit(rho, VX_SUPPORT, "edge", dps=dps)
    ell = _vx_ell(dps)
    cv = 2 * mp.pi / mp.sqrt(3) * c0
    return EquilibriumSolution(mu=gm, q=float(VX_SUPPORT), ell=float(ell),
                               c0=float(c0), c1=float(c1), cV=float(cv),
                               field=lambda z: z,
                               density=lambda t, dps=dps: density_vx_explicit(t, dps=dps))


# ----------------------------------------------------------------------
# g-functions, phi-functions, conformal map
# ----------------------------------------------------------------------

@dataclass
class GFunctions:
    """Log-potential package of an equilibrium solution.

    The g1 evaluator refuses arguments on its branch cut (-oo, q].  Every
    other evaluator accepts real arguments on a cut and resolves them as
    limits from the upper half-plane (+i0): principal-branch log and sqrt
    give exactly those limits, so phi1, phi2, f1, f2, f at real x are the
    "+"-boundary functions.
    """

    m1: mpf
    m_half: mpf
    g1: Callable
    g2: Callable
    phi: Callable
    phi1: Callable
    phi2: Callable
    f1: Callable
    f2: Callable
    f: Callable


def _upper(z):
    return mp.im(z) >= 0


def g_functions(sol, dps=30):
    """Build g1, g2, phi, phi1, phi2, f1, f2 and the conformal map f.

    When `sol.density` is available the integrals are done by tanh-sinh
    quadrature against the continuous density (needed for the tight
    scaling-constant chain); otherwise discrete sums over the grid measure
    are used, which is fine for the large-|z| expansion checks.

    g1 integrates log(z - s) with the cut on (-oo, q]; g2 uses the
    compact-support form  g2(z) = I log(sqrt(z) + sqrt(t)) dmu(t),  which
    avoids discretizing an unbounded negative-axis measure entirely.

    The evaluators work at the caller's precision; the quadratures against
    the density ask for ``dps`` digits.
    """
    q = mpf(sol.q)
    ell = mpf(sol.ell)
    fieldV = sol.field if sol.field is not None else (lambda z: z)

    if sol.density is not None:
        rho = sol.density

        def mu_int(fun, split=None):
            if split is not None and 0 < split < q:
                return (quad_ts(lambda t: fun(t) * rho(t), 0, split, dps=dps)
                        + quad_ts(lambda t: fun(t) * rho(t), split, q, dps=dps))
            return quad_ts(lambda t: fun(t) * rho(t), 0, q, dps=dps)
    else:
        nodes = [mpf(x) for x in sol.mu.nodes]
        wts = [mpf(x) for x in sol.mu.weights]

        def mu_int(fun, split=None):
            return mp.fsum(w * fun(x) for x, w in zip(nodes, wts))

    def _g1(z):
        # unguarded form: principal-branch log turns a real z on the cut
        # into the +i0 boundary value, which is what the phi's want
        z = mpc(z)
        split = None
        if mp.im(z) == 0 and 0 < mp.re(z) < q:
            split = mp.re(z)
        return mu_int(lambda s: mp.log(z - s), split=split)

    def g1(z):
        zc = mpc(z)
        if mp.im(zc) == 0 and mp.re(zc) <= q:
            raise BranchSelectionError(
                "g1 evaluated on its branch cut (-oo, q]; offset z off the "
                "real axis or use the phi evaluators for boundary values")
        return _g1(zc)

    def g2(z):
        z = mpc(z)
        rt = mp.sqrt(z)
        return mu_int(lambda t: mp.log(rt + mp.sqrt(t)))

    def _phis(z):
        """(phi, phi1, phi2) at z from one evaluation of g1 and one of g2."""
        z = mpc(z)
        a, b = _g1(z), g2(z)
        p = -a + b / 2 + (fieldV(z) + ell) / 2
        p1 = p + (mp.pi * 1j if _upper(z) else -mp.pi * 1j)
        p2 = -b + a / 2 + (-mp.pi * 1j / 2 if _upper(z) else mp.pi * 1j / 2)
        return p, p1, p2

    def phi(z):
        return _phis(z)[0]

    def phi1(z):
        return _phis(z)[1]

    def phi2(z):
        return _phis(z)[2]

    omega = mp.exp(2j * mp.pi / 3)

    def f1(z):
        z = mpc(z)
        _, p1, p2 = _phis(z)
        comb = -omega ** 2 * p1 + p2 if _upper(z) else -omega * p1 + p2
        return -mp.power(z, -mpf(1) / 3) * comb

    def f2(z):
        z = mpc(z)
        _, p1, p2 = _phis(z)
        comb = -omega * p1 + p2 if _upper(z) else -omega ** 2 * p1 + p2
        return -mp.power(z, -mpf(2) / 3) * comb

    def f(z):
        z = mpc(z)
        _, p1, p2 = _phis(z)
        comb = omega ** 2 * p1 - p2 if _upper(z) else omega * p1 - p2
        return mpf(8) / 729 * comb ** 3

    with mp.workdps(dps + GUARD_DIGITS):
        m1 = +mu_int(lambda s: s)
        m_half = +mu_int(lambda s: mp.sqrt(s))

    return GFunctions(m1=m1, m_half=m_half, g1=g1, g2=g2, phi=phi,
                      phi1=phi1, phi2=phi2, f1=f1, f2=f2, f=f)


def scaling_constants(gf, sol, dps=30):
    """(cV, f1(0), f'(0)) for the hard-edge scaling chain.

    cV comes from the density edge fit ((2 pi / sqrt 3) * c0); f1(0) by
    extrapolating f1 along the ray arg z = pi/4 to z = 0; f'(0) by a central
    difference of the conformal map at +-1e-3.  For V(x)=x the chain closes
    at cV = 2^(-2/3) and f'(0) = cV^3 = 1/4.
    """
    with mp.workdps(dps + GUARD_DIGITS):
        cv = 2 * mp.pi / mp.sqrt(3) * mpf(sol.c0)
        ray = mp.exp(1j * mp.pi / 4)
        rs = [mpf(2) / 1000, mpf(1) / 1000, mpf(1) / 2000]
        zs = [r * ray for r in rs]
        f1_at_0 = mp.re(_neville_at_zero(zs, [gf.f1(z) for z in zs]))
        hstep = mpf(1) / 1000
        fp = (gf.f(hstep) - gf.f(-hstep)) / (2 * hstep)
        fprime_at_0 = mp.re(fp)
    return +cv, +f1_at_0, +fprime_at_0
