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
* a float64 projected-gradient minimizer for general fields on a uniform
  cell grid (`equilibrium_minimize`),
* Euler-Lagrange certification (`variational_residual`),
* the g-functions / phi-functions / conformal map f built on top of a
  solution (`g_functions`), and
* the scaling constants cV, f1(0), f'(0) (`scaling_constants`).

Evaluators returned by `g_functions` are pure closures over immutable data
and safe to call concurrently; the minimizer mutates only its own arrays.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from mpmath import mp, mpf, mpc

from .mpcore import quad_gl, quad_ts, solve_cubic

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
    """Projected-gradient loop failed to decrease the objective.

    Attributes
    ----------
    objective : float
        Last accepted objective value.
    """

    def __init__(self, message, objective):
        super().__init__(message)
        self.objective = objective


# support endpoint and edge constants of the linear-field minimizer
VX_SUPPORT = mpf(27) / 8


def VX_C0(dps=None):
    with mp.workdps(dps or mp.dps):
        return mp.sqrt(3) / (2 ** mpf("5/3") * mp.pi)


def VX_C1(dps=None):
    with mp.workdps(dps or mp.dps):
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
    d = dps or mp.dps
    with mp.workdps(d + 10):
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


def density_vx_cardano(s, dps=None, im_floor=mpf("1e-20")):
    """Same density through the spectral cubic and Stieltjes inversion.

    Solves s^2 z^3 - s^2 z^2 + s z - 1/4 = 0, picks the unique root with
    positive imaginary part and returns Im(root)/pi.  Shares no code with
    :func:`density_vx_explicit` beyond the cubic solver.
    """
    d = dps or mp.dps
    with mp.workdps(d + 10):
        s = mpf(s)
        if s <= 0:
            raise DomainError(f"need s > 0; got s = {s}")
        roots = solve_cubic(s * s, -s * s, s, mpf(-1) / 4, dps=d + 10)
        up = [r for r in roots if mp.im(r) > im_floor]
        if not up:
            raise BranchSelectionError(
                "all roots real to tolerance; s = %s lies outside (0, 27/8)" % s
            )
        # conjugate pair: exactly one root has positive imaginary part
        root = max(up, key=mp.im)
        out = mp.im(root) / mp.pi
    return +out


def endpoint_fit(density, q, end, cells=5, h=None, dps=None):
    """Edge constant of a density by Richardson extrapolation in cell index.

    end="origin" fits s^(2/3) * rho(s) -> c0 with expansion variable s^(1/3);
    end="edge" fits rho(q-u)/sqrt(u) -> c1 with expansion variable sqrt(u).
    Uses the `cells` midpoints nearest the endpoint and Neville extrapolation
    to expansion variable 0.
    """
    d = dps or mp.dps
    with mp.workdps(d + 10):
        q = mpf(q)
        h = mpf(h) if h is not None else mpf("5e-4")
        ts, vals = [], []
        for i in range(cells):
            u = (i + mpf(1) / 2) * h
            if end == "origin":
                ts.append(u ** mpf("1/3"))
                vals.append(u ** mpf("2/3") * density(u))
            elif end == "edge":
                ts.append(mp.sqrt(u))
                vals.append(density(q - u) / mp.sqrt(u))
            else:
                raise ValueError("end must be 'origin' or 'edge'")
        # Neville tableau evaluated at 0
        p = list(vals)
        for lvl in range(1, cells):
            for i in range(cells - lvl):
                p[i] = (ts[i + lvl] * p[i] - ts[i] * p[i + 1]) / (ts[i + lvl] - ts[i])
        out = p[0]
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
        h = float(dh[0])
        if not np.allclose(dh, h, rtol=1e-9, atol=0):
            raise ValueError("grid is not uniform")
        return h

    def write_csv(self, fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["node", "weight"])
        for x, wt in zip(self.nodes, self.weights):
            w.writerow([repr(float(x)), repr(float(wt))])

    def to_json(self):
        return {
            "nodes": [float(x) for x in self.nodes],
            "weights": [float(w) for w in self.weights],
            "mass": float(self.mass),
        }


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
    box: float
    density: Optional[Callable] = None
    objective_trace: Optional[list] = field(default=None, repr=False)
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
    with mp.workdps(dps):
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
    that visibly biases the minimizer near the hard edge.
    """
    x, wq = np.polynomial.legendre.leggauss(npts)
    edges = np.sqrt(np.arange(m + 1) * h)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    u_nodes = mid[:, None] + rad[:, None] * x[None, :]
    u_wts = (rad[:, None] * wq[None, :]) * 2.0 * u_nodes
    smat = np.empty((m, m))
    for i in range(m):
        lg = np.log(u_nodes[i][:, None, None] + u_nodes[None, :, :])
        smat[i] = (u_wts[i][:, None, None] * (u_wts[None, :, :] * lg)).sum(
            axis=(0, 2)) / h / h
    return smat


def _energy_matrices(s, h):
    """(Lambda, S): exact cell-pair averages of log|x-y| and of
    log(sqrt x + sqrt y).  The discretized energy is
    E(w) = w.(-Lambda + S/2).w + v.w."""
    m = len(s)
    tab = _cell_log_table(m) + np.log(h)
    idx = np.arange(m)
    lam = tab[np.abs(np.subtract.outer(idx, idx))]
    smat = _sqrt_log_kernel(h, m)
    return lam, smat


def _project_simplex(v):
    """Euclidean projection of v onto {w >= 0, sum w = 1} (sorted threshold)."""
    u = np.sort(v)[::-1]
    cs = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    pos = u - cs / idx > 0
    rho = idx[pos][-1]
    tau = cs[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _pgd(A, v, w0, max_iter, stall_limit=50, tiny_limit=30, step_floor=1e-18):
    """Projected gradient descent on the simplex with backtracking halving.

    The step starts at 1.0, is halved until the objective strictly
    decreases, and is carried over (doubled, capped at 1.0) between
    iterations.  Raises StagnationError after `stall_limit` consecutive
    iterations without any decrease, unless the projected-gradient residual
    says we are already at the constrained minimum.
    """
    w = w0
    trace = []
    step = 1.0
    stalled = 0
    tiny = 0
    aw = A @ w
    e0 = float(w @ aw + v @ w)
    trace.append(e0)
    for _ in range(max_iter):
        g = 2.0 * aw + v
        step = min(1.0, 2.0 * step)
        accepted = False
        while step >= step_floor:
            cand = _project_simplex(w - step * g)
            aw_c = A @ cand
            e_c = float(cand @ aw_c + v @ cand)
            if e_c < e0:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # flat to rounding: either converged or genuinely stuck.  At the
            # constrained minimum the objective is quadratic in the
            # displacement, so the reachable prox residual is ~sqrt(ulp),
            # not ulp; 1e-7 separates that from true stagnation.
            resid = float(np.max(np.abs(_project_simplex(w - 1e-3 * g) - w)))
            if resid <= 1e-7:
                break
            stalled += 1
            step = 1.0
            if stalled >= stall_limit:
                raise StagnationError(
                    "no objective decrease in %d iterations" % stall_limit, e0
                )
            continue
        stalled = 0
        drop = (e0 - e_c) / max(1.0, abs(e0))
        w, aw, e0 = cand, aw_c, e_c
        trace.append(e0)
        if drop < 1e-14:
            tiny += 1
            if tiny >= tiny_limit:
                break
        else:
            tiny = 0
    return w, trace


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

    Returns an EquilibriumSolution with q (support endpoint estimate), the
    Lagrange constant ell (trimmed mean of the Euler-Lagrange equality
    defect), and edge-constant fits c0, c1, cV.
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

    lam, smat = _energy_matrices(s, h)
    A = -lam + 0.5 * smat
    w0 = _project_simplex(s ** (-2.0 / 3.0) / np.sum(s ** (-2.0 / 3.0)))
    w, trace = _pgd(A, v, w0, max_iter)

    support = w > SUPPORT_CUT * float(np.max(w))
    q_est = float(s[support][-1])

    # Euler-Lagrange equality defect needs the two potentials separately
    u_pot = 2.0 * (lam @ w) - smat @ w

    interior = support & (s >= 0.05 * q_est) & (s <= 0.95 * q_est)
    defect = (u_pot - v)[interior]
    if defect.size == 0:  # grids too coarse for the trimmed window
        defect = (u_pot - v)[support]
    k = max(1, int(0.1 * defect.size))
    ell = float(np.mean(np.sort(defect)[k:-k])) if defect.size > 2 * k else float(
        np.mean(defect))

    c0 = float(_fit_c0_cells(w, h, q_est))
    j_edge = int(np.nonzero(support)[0][-1])
    c1 = float(_fit_c1_cells(w, h, j_edge))
    cv = float(2 * np.pi / np.sqrt(3.0) * c0)

    mu = GridMeasure(nodes=s, weights=w, mass=float(np.sum(w)))
    return EquilibriumSolution(mu=mu, q=q_est, ell=ell, c0=c0, c1=c1, cV=cv,
                               box=Q, field=V, density=None,
                               objective_trace=trace)


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
    lam, smat = _energy_matrices(s, h)
    u_pot = 2.0 * (lam @ w) - smat @ w
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
    with mp.workdps(dps + 10):
        q = VX_SUPPORT
        rho = lambda t: density_vx_explicit(t, dps=dps + 10)
        vals = []
        for x in (mpf(7) / 10, mpf(17) / 10, mpf(29) / 10):
            def f_log(t):
                return mp.log(abs(x - t)) * rho(t)

            def f_sum(t):
                return mp.log(mp.sqrt(x) + mp.sqrt(t)) * rho(t)

            pot = 2 * (quad_ts(f_log, 0, x, dps=dps + 5)
                       + quad_ts(f_log, x, q, dps=dps + 5))
            pot -= quad_ts(f_sum, 0, q, dps=dps + 5)
            vals.append(pot - x)
        spread = max(vals) - min(vals)
        if spread > mpf(10) ** (-(dps - 8)):
            warnings.warn("Euler-Lagrange constant spread %s" % mp.nstr(spread, 5),
                          RuntimeWarning, stacklevel=2)
        out = sum(vals) / len(vals)
    return +out


def vx_reference_solution(m=400, dps=30):
    """EquilibriumSolution built from the closed-form V(x)=x density."""
    gm = weights_from_density(lambda t: density_vx_explicit(t, dps=22), VX_SUPPORT,
                              m, dps=20)
    # re-declare as a probability measure (cell integrals sum to 1 anyway)
    gm = GridMeasure(nodes=gm.nodes, weights=gm.weights / gm.mass, mass=1.0)
    c0 = endpoint_fit(lambda t: density_vx_explicit(t, dps=dps + 10), VX_SUPPORT,
                      "origin", dps=dps)
    c1 = endpoint_fit(lambda t: density_vx_explicit(t, dps=dps + 10), VX_SUPPORT,
                      "edge", dps=dps)
    ell = _vx_ell(dps)
    cv = 2 * mp.pi / mp.sqrt(3) * c0
    return EquilibriumSolution(mu=gm, q=float(VX_SUPPORT), ell=float(ell),
                               c0=float(c0), c1=float(c1), cV=float(cv),
                               box=float(VX_SUPPORT),
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
    """
    q = mpf(sol.q)
    ell = mpf(sol.ell)
    fieldV = sol.field if sol.field is not None else (lambda z: z)

    if sol.density is not None:
        rho = sol.density

        def mu_int(fun, split=None):
            with mp.workdps(dps + 5):
                if split is not None and 0 < split < q:
                    return (quad_ts(lambda t: fun(t) * rho(t), 0, split, dps=dps)
                            + quad_ts(lambda t: fun(t) * rho(t), split, q, dps=dps))
                return quad_ts(lambda t: fun(t) * rho(t), 0, q, dps=dps)
    else:
        nodes = [mpf(x) for x in sol.mu.nodes]
        wts = [mpf(x) for x in sol.mu.weights]

        def mu_int(fun, split=None):
            with mp.workdps(dps + 5):
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

    def phi(z):
        return -_g1(z) + g2(z) / 2 + (fieldV(mpc(z)) + ell) / 2

    def phi1(z):
        z = mpc(z)
        return phi(z) + (mp.pi * 1j if _upper(z) else -mp.pi * 1j)

    def phi2(z):
        z = mpc(z)
        val = -g2(z) + _g1(z) / 2
        return val + (-mp.pi * 1j / 2 if _upper(z) else mp.pi * 1j / 2)

    omega = mp.exp(2j * mp.pi / 3)

    def f1(z):
        z = mpc(z)
        p1, p2 = phi1(z), phi2(z)
        comb = -omega ** 2 * p1 + p2 if _upper(z) else -omega * p1 + p2
        return -mp.power(z, -mpf(1) / 3) * comb

    def f2(z):
        z = mpc(z)
        p1, p2 = phi1(z), phi2(z)
        comb = -omega * p1 + p2 if _upper(z) else -omega ** 2 * p1 + p2
        return -mp.power(z, -mpf(2) / 3) * comb

    def f(z):
        z = mpc(z)
        p1, p2 = phi1(z), phi2(z)
        comb = omega ** 2 * p1 - p2 if _upper(z) else omega * p1 - p2
        return mpf(8) / 729 * comb ** 3

    with mp.workdps(dps + 5):
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
    with mp.workdps(dps + 5):
        cv = 2 * mp.pi / mp.sqrt(3) * mpf(sol.c0)
        ray = mp.exp(1j * mp.pi / 4)
        rs = [mpf(2) / 1000, mpf(1) / 1000, mpf(1) / 2000]
        zs = [r * ray for r in rs]
        vals = [gf.f1(z) for z in zs]
        for lvl in range(1, len(zs)):
            for i in range(len(zs) - lvl):
                vals[i] = (zs[i + lvl] * vals[i] - zs[i] * vals[i + 1]) / (
                    zs[i + lvl] - zs[i])
        f1_at_0 = mp.re(vals[0])
        hstep = mpf(1) / 1000
        fp = (gf.f(hstep) - gf.f(-hstep)) / (2 * hstep)
        fprime_at_0 = mp.re(fp)
    return +cv, +f1_at_0, +fprime_at_0
