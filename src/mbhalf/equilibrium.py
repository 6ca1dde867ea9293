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
  quadratic on the simplex, solved exactly by pivoting on its KKT system;
  the pivoting starts from the support of the same field solved on a grid
  8 times coarser, and the pivots that move cells near the support's
  border are Schur-complement steps on one factorization,
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

from .mpcore import quad_ts, solve_cubic, working

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
    with working(dps):
        return mp.sqrt(3) / (2 ** mpf("5/3") * mp.pi)


def VX_C1(dps=None):
    with working(dps):
        return 16 * mp.sqrt(2) / (81 * mp.pi)


# ----------------------------------------------------------------------
# closed-form density for V(x) = x  (two independent routes)
# ----------------------------------------------------------------------

def density_vx_explicit(s, dps=None):
    """Equilibrium density for V(x)=x at s in (0, 27/8], closed form.

    With a = 1 - 4s/3 + 8s^2/27 and b = sqrt(1 - 8s/27) the density is
    sqrt(3) / (4 pi s^(2/3)) (x + y) with the real cube roots
    x = cbrt(b + a) and y = cbrt(b - a).  Summed so, it cancels twice:
    b + a vanishes at s = 3, and x + y vanishes like b at the soft edge
    27/8.  The form used here does neither.  One of x, y is c = cbrt(B)
    with B = b + |a| >= 1/8, and the other is x y / c, where
    x y = (4/9)(3 - s) s^(1/3) since (b + a)(b - a) = (64/729) s (3 - s)^3;
    and x + y = 2b / (x^2 - x y + y^2).  With r = 27 - 8s, p = 12 - 4s and
    u = 9 c^2 / s^(1/3) = cbrt((sqrt(27 r) + 27|a|)^2 / s) that is

        density = 3 sqrt(r) u / (2 pi s (u (u - p) + p^2)),

    one cube root and two square roots.  r and p are exact near their zeros
    (Sterbenz), 27|a| is added to a nonnegative term, and
    u^2 - u p + p^2 >= (u^2 + p^2) / 2, so the density keeps its relative
    digits on all of (0, 27/8] and is exactly 0 at 27/8.
    """
    with working(dps):
        s = mpf(s)
        # closed right endpoint: the density vanishes there, and endpoint-
        # singular quadrature rules may round a node onto it
        if not 0 < s <= VX_SUPPORT:
            raise DomainError(f"density support is (0, 27/8); got s = {s}")
        e = 8 * s
        r = 27 - e
        # 27 |a| = |8s^2 - 36s + 27|
        u = mp.cbrt((mp.sqrt(27 * r) + abs((e - 36) * s + 27)) ** 2 / s)
        p = 12 - 4 * s
        return 3 * mp.sqrt(r) * u / (2 * mp.pi * s * (u * (u - p) + p * p))


def density_vx_cardano(s, dps=None):
    """Same density through the spectral cubic and Stieltjes inversion.

    Solves s^2 z^3 - s^2 z^2 + s z - 1/4 = 0, picks the unique root with
    positive imaginary part (above 1e-20) and returns Im(root)/pi.  Shares
    no code with :func:`density_vx_explicit` beyond the cubic solver.
    """
    with working(dps) as d:
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
        return mp.im(root) / mp.pi


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
    with working(dps):
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
        return _neville_at_zero(ts, vals)


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
    cells of [0, q].  Interior cells use 8-point Gauss-Legendre
    (``mp.gauss_quadrature``); the first and last cells use tanh-sinh to
    absorb the edge singularities."""
    with working(dps):
        xs, ws = mp.gauss_quadrature(8, "legendre")
        q = mpf(q)
        h = q / m
        half = h / 2
        w = np.empty(m)
        for i in range(m):
            a, b = i * h, (i + 1) * h
            if i == 0 or i == m - 1:
                w[i] = float(quad_ts(density, a, b, dps=dps))
            else:
                mid = a + half
                w[i] = float(half * sum(wk * density(mid + half * xk)
                                        for xk, wk in zip(xs, ws)))
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


# bounds on the Gauss-Legendre order of a row of _sqrt_log_kernel
_GL_MIN_ORDER, _GL_MAX_ORDER = 2, 8


def _sqrt_log_orders(m):
    """Gauss-Legendre order of each row of :func:`_sqrt_log_kernel`.

    In u = sqrt x, cell i has left end a_i, centre mid_i and half-width
    rad_i.  For v >= a_i, log(u + v) is analytic in u but for its branch
    point u = -v, which lies at least r_i = (mid_i + a_i) / rad_i
    half-widths from the centre, so an n-point rule errs like (2 r_i)^(-2n)
    (Bernstein ellipse; Trefethen, "Is Gauss quadrature better than
    Clenshaw-Curtis?", SIAM Review 2008).  Row i takes the smallest n with
    (2 r_i)^(-2n) <= 2^-53, clamped to [2, 8].  Cells j >= i are narrower
    and farther out, so the same order covers u in cell i against v in
    cell j and v against u.  r_i is free of h: r_0 = 1 (order 8), r_1 =
    10.7 (order 7), and the orders fall to 2 from row 609 on.
    """
    edges = np.sqrt(np.arange(m + 1.0))
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    r = (mid + edges[:-1]) / rad
    n = np.ceil(53.0 / (2.0 * np.log2(2.0 * r)))
    return np.clip(n, _GL_MIN_ORDER, _GL_MAX_ORDER).astype(int)


def _sqrt_log_kernel(h, m):
    """Cell-averaged log(sqrt x + sqrt y) for all cell pairs.

    The substitution x = u^2 removes the sqrt-derivative blow-up at the
    origin, after which Gauss-Legendre per cell is accurate; midpoint
    sampling instead leaves an O(sqrt(h)) error in the first cells that
    visibly biases the minimizer near the hard edge.  Row i pairs cell i
    with the cells j >= i under the n x n tensor rule of its order from
    :func:`_sqrt_log_orders`; the kernel is symmetric, so that upper
    triangle is mirrored once the rows are done (:func:`_mirror_upper`).
    Row 0 takes 8 nodes; at m = 2000 the rows take 13.8 M logs in all,
    where 8 nodes on every pair would take 128 M.

    The integrand is singular at the corner u = v = 0, where the 8-point
    rule leaves the (0, 0) self-average 1.55e-7 low at every h; that entry
    takes its closed form 1/4 + log(h)/2 instead (with x = h s^2,
    y = h t^2 it is log(h)/2 plus the integral of 4st log(s + t) over the
    unit square, 1/4).  The (0, 1) entry is within 2.5e-14 of an 80-point
    value.
    """
    orders = _sqrt_log_orders(m)
    edges = np.sqrt(np.arange(m + 1) * h)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    smat = np.empty((m, m))
    buf = np.empty(_GL_MAX_ORDER * m * _GL_MAX_ORDER)
    for i, n in enumerate(orders):
        # the orders never rise with i: one node table at a time
        if i == 0 or n != orders[i - 1]:
            x, wq = np.polynomial.legendre.leggauss(n)
            u_nodes = mid[:, None] + rad[:, None] * x[None, :]
            u_wts = (rad[:, None] * wq[None, :]) * 2.0 * u_nodes / h
        lg = buf[:n * (m - i) * n].reshape(n, m - i, n)
        np.add(u_nodes[i][:, None, None], u_nodes[None, i:, :], out=lg)
        np.log(lg, out=lg)
        inner = (u_wts[i] @ lg.reshape(n, -1)).reshape(m - i, n)
        smat[i, i:] = np.einsum("jb,jb->j", inner, u_wts[i:])
    _mirror_upper(smat)
    smat[0, 0] = 0.25 + 0.5 * np.log(h)
    return smat


#: columns a step of :func:`_mirror_upper` copies
_MIRROR_BLOCK = 256


def _mirror_upper(a):
    """Copy the strict upper triangle of the square array ``a`` onto its
    lower one, in place, a block of _MIRROR_BLOCK columns at a time: below
    each diagonal block the transposed rows to its right, and inside it
    only its own strictly lower part.  No temporary is larger than a
    block of rows."""
    m = len(a)
    for lo in range(0, m, _MIRROR_BLOCK):
        hi = min(lo + _MIRROR_BLOCK, m)
        a[hi:, lo:hi] = a[lo:hi, hi:].T
        diag = a[lo:hi, lo:hi]
        low = np.tril_indices(hi - lo, -1)
        diag[low] = diag.T[low]


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


def _near_border(support, reach):
    """Mask of the cells at most `reach` cells from a border of the
    boolean mask `support` (a place where it changes value), on either
    side: `reach` cells inside and `reach` cells outside each border."""
    m = support.size
    border = np.flatnonzero(support[1:] != support[:-1])  # after cell b
    cover = np.zeros(m + 1, dtype=int)
    np.add.at(cover, np.maximum(border - reach + 1, 0), 1)
    np.add.at(cover, np.minimum(border + reach + 1, m), -1)
    return np.cumsum(cover[:m]) > 0


class _Bordered:
    """One factorization of the bordered KKT system of a support S,

        K [w_S, ell/2] = [-v_S/2, 1],   K = [[A_SS, -1], [1^T, 0]],

    and of its lookahead: the same `np.linalg.solve` also solves K y = e_p
    for each cell p of S near a border of S (p leaves: its equation gives
    way to w_p = 0) and K y = [A_Sj, 1] for each cell j off S near a border
    (j enters: the column of w_j).  A trial support that differs from S
    only in those cells is then solved exactly by the Schur complement of
    K in the system bordered with the changed cells (Gill, Murray,
    Saunders & Wright, SIAM J. Sci. Stat. Comput. 1990), whose size is the
    number of changed cells.  The lookahead columns depend on S alone, so
    the direct solution on S has the same bits whichever pivots led to S.
    """

    def __init__(self, A, v, support):
        self.A, self.v, self.support = A, v, support.copy()
        self.idx = idx = np.flatnonzero(support)
        k = idx.size
        self.near = near = _near_border(support, COARSE_FACTOR)
        self.may_leave = np.flatnonzero(near & support)
        self.may_enter = np.flatnonzero(near & ~support)
        nl = self.may_leave.size
        kkt = np.empty((k + 1, k + 1))
        if k and idx[-1] - idx[0] == k - 1:
            # one run of cells: a slice copies several times faster than
            # a gather
            run = slice(idx[0], idx[-1] + 1)
            kkt[:k, :k] = A[run, run]
        else:
            kkt[:k, :k] = A[np.ix_(idx, idx)]
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        kkt[k, k] = 0.0
        rhs = np.zeros((k + 1, 1 + nl + self.may_enter.size))
        rhs[:k, 0] = -0.5 * v[idx]
        rhs[k, 0] = 1.0
        rhs[np.searchsorted(idx, self.may_leave), 1 + np.arange(nl)] = 1.0
        rhs[:k, 1 + nl:] = A[np.ix_(idx, self.may_enter)]
        rhs[k, 1 + nl:] = 1.0
        sol = np.linalg.solve(kkt, rhs)
        self.x0, self.y_leave, self.y_enter = (sol[:, 0], sol[:, 1:1 + nl],
                                               sol[:, 1 + nl:])

    def weights(self):
        """(w, ell) of the direct solution on S."""
        w = np.zeros(self.v.size)
        w[self.idx] = self.x0[:-1]
        return w, 2.0 * float(self.x0[-1])

    def reaches(self, support):
        """Whether `support` differs from S only in lookahead cells."""
        return not np.any((support != self.support) & ~self.near)

    def schur(self, support):
        """(w, ell) on a trial support that this factorization reaches,
        from one solve of the Schur complement, or None when that small
        system is singular.

        With x = [w_S, ell/2], the cells that come in with their weights
        w_c and the cells that go with free multipliers z, the system is

            [[K,   U, E], [x  ]   [r     ]    U = [A_Sc; 1],
             [B, A_cc, 0], [w_c] = [-v_c/2],   B = [A_cS, -1],
             [E^T,  0, 0]] [z  ]   [0     ]    E = [e_p for p gone],

        and x = x0 - Y_c w_c - Y_g z, with x0, Y_c and Y_g the solved
        columns, leaves [[A_cc - B Y_c, -B Y_g], [-Y_c[g], -Y_g[g]]] for
        (w_c, z).
        """
        A, idx = self.A, self.idx
        k = idx.size
        gone = np.flatnonzero(self.support & ~support)   # leave S
        come = np.flatnonzero(support & ~self.support)   # enter S
        yr = self.y_leave[:, np.searchsorted(self.may_leave, gone)]
        yc = self.y_enter[:, np.searchsorted(self.may_enter, come)]
        rows = np.searchsorted(idx, gone)
        nc, n = come.size, come.size + gone.size
        # rows of the entering equations: [A_jS, -1]
        border = np.empty((nc, k + 1))
        border[:, :k] = A[np.ix_(come, idx)]
        border[:, k] = -1.0
        mat = np.empty((n, n))
        mat[:nc, :nc] = A[np.ix_(come, come)] - border @ yc
        mat[:nc, nc:] = -(border @ yr)
        mat[nc:, :nc] = -yc[rows]
        mat[nc:, nc:] = -yr[rows]
        rhs = np.concatenate((-0.5 * self.v[come] - border @ self.x0,
                              -self.x0[rows]))
        try:
            z = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            return None
        x = self.x0 - yc @ z[:nc] - yr @ z[nc:]
        w = np.zeros(self.v.size)
        w[idx] = x[:k]
        w[gone] = 0.0
        w[come] = z[:nc]
        return w, 2.0 * float(x[k])


def _kkt_active_set(A, v, w0, max_iter, start=None):
    """Exact minimizer of w.A.w + v.w over the simplex by block principal
    pivoting on the KKT conditions (Kim & Park, SIAM J. Sci. Comput. 2011).

    The first trial support is `start` (a boolean mask over the cells) or,
    when it is None, every cell.  For a trial support S, the bordered
    system [[A_SS, -1], [1^T, 0]] [w_S, ell/2] = [-v_S/2, 1] gives weights
    and the multiplier ell with 2(Aw) + v = ell on S.  A is positive
    definite only on sum-zero vectors, so A_SS alone may be indefinite; the
    bordered system is nonsingular all the same.  Cells of S with w < 0
    leave and cells off S with 2(Aw) + v - ell < 0 enter, until neither set
    has a member.  When three exchanges in a row fail to lower the count of
    such cells, only the largest-index one is exchanged (Judice & Pires
    1994), which guarantees termination.

    A direct solve factorizes its bordered system once for a lookahead
    (:class:`_Bordered`): a later trial support that differs from its
    support only within COARSE_FACTOR cells of a border is solved by a
    small Schur-complement system instead, and any other support by a new
    direct solve.  A Schur iterate that passes both tests (with Aw over all
    cells) is not returned: its support gets one more direct solve, the
    canonical one, which is returned if it passes the same tests and
    pivoted on otherwise.  So the result is always the direct solution on
    its final support, and its bits depend on that support alone, not on
    the start or the path; the KKT point is unique, so in exact arithmetic
    the start changes only how many pivots reach it.

    Returns (w, ell, Aw, trace); trace holds the objective at w0 and at
    every feasible iterate that lowers it, where a Schur iterate that
    passes the tests counts only through its canonical solve.  Raises
    StagnationError when a direct bordered system is singular or
    `max_iter` iterations, direct and Schur alike, do not suffice.
    """
    m = len(v)
    trace = [float(w0 @ (A @ w0) + v @ w0)]
    support = np.ones(m, dtype=bool) if start is None else start.copy()
    best, budget = m + 1, 3
    base, direct = None, True
    for _ in range(max_iter):
        step = None
        if not direct and base.reaches(support):
            step = base.schur(support)
        direct = step is None
        if direct:
            try:
                base = _Bordered(A, v, support)
            except np.linalg.LinAlgError as exc:
                raise StagnationError("singular KKT system on a support of %d "
                                      "cells" % np.count_nonzero(support),
                                      trace[-1]) from exc
            step = base.weights()
        w, ell = step
        aw = A @ w
        leave = support & (w < 0)
        enter = ~support & (2.0 * aw + v - ell < 0)
        bad = np.flatnonzero(leave | enter)
        if bad.size == 0 and not direct:
            # a Schur iterate's KKT point: solve its support directly
            direct = True
            continue
        if not leave.any():
            e = float(w @ aw + v @ w)
            if e < trace[-1]:
                trace.append(e)
        if bad.size == 0:
            return w, ell, aw, trace
        direct = False
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

# The fine pivoting starts from the support found on a grid COARSE_FACTOR
# times coarser.
COARSE_FACTOR = 8


def _coarse_start(A, V, Q, max_iter):
    """Start support for the pivoting on the m cells of [0, Q] whose energy
    operator is A: fine cell j starts in it iff the cell of the
    mc = max(1, m // COARSE_FACTOR) grid that contains its midpoint carries
    weight at that grid's KKT point.  A one-cell coarse grid gives all
    cells.  None (start from all cells) when the coarse solve stagnates.

    The coarse grid pivots on A's leading mc x mc block, not on an operator
    of its own.  The cell-pair averages of log|x - y| and log(sqrt x +
    sqrt y) over cells of width h are those over unit cells plus log h and
    log(h)/2, so A(h, m) = C - (3/4) log(h) 11^T with C a function of the
    cell indices alone: the leading block of A is the mc-cell operator plus
    a multiple of 11^T, which adds a constant to the energy on the simplex
    and shifts only the multiplier.
    """
    m = len(A)
    mc = max(1, m // COARSE_FACTOR)
    s = (np.arange(mc) + 0.5) * (Q / mc)
    v = np.array([float(V(x)) for x in s])
    try:
        wc = _kkt_active_set(A[:mc, :mc], v, np.full(mc, 1.0 / mc),
                             max_iter)[0]
    except StagnationError:
        return None
    # midpoint (j + 1/2) Q/m lies in coarse cell floor((2j + 1) mc / (2m))
    return wc[(2 * np.arange(m) + 1) * mc // (2 * m)] > 0


def equilibrium_minimize(V, Q, m, max_iter=6000):
    """Minimize the discretized energy over probability measures on [0, Q].

    V : callable, the external field, evaluated at the m cell midpoints.
    Q : box size; the support of the minimizer must end well inside.  A
        RuntimeWarning says so when the last cell carries weight.
    m : number of uniform cells.
    max_iter : cap on the iterations of each exact KKT solve, the coarse
        start and the fine one; a direct bordered solve and a
        Schur-complement step count one each.

    The same field is first solved on max(1, m // COARSE_FACTOR) cells, on
    the leading block of the m-cell operator (see :func:`_coarse_start`),
    and the pivoting on m cells starts from that support instead of from all
    cells; if the coarse solve stagnates, it starts from all cells.  Most of
    the fine pivots then move a few cells at the support's border, and they
    are taken by Schur-complement steps on the first fine factorization
    (:func:`_kkt_active_set`): V = x at m = 2000 factorizes two bordered
    systems of about 1130 cells.  The KKT point is unique, so both starts
    end on the same support in exact arithmetic.  The result is always the
    direct solve on its final support, so whenever two starts end on the
    same support the result is the same bit for bit.  In floating point the
    support comes from sign tests, and a cell on its border could stop two
    pivot paths on different supports whose results differ by roundoff; that
    has not happened on any field the tests and the benchmark use.

    Returns an EquilibriumSolution with q (support endpoint estimate), the
    Lagrange constant ell (the KKT multiplier of the mass constraint), the
    log-potential at the cell midpoints, and edge-constant fits c0, c1, cV.
    Its objective_trace holds the objective at the fine start point and at
    each fine feasible iterate that lowers it.  Raises StagnationError when
    the fine solve does not reach a KKT point.
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
    start = _coarse_start(A, V, Q, max_iter)
    w0 = s ** (-2.0 / 3.0) / np.sum(s ** (-2.0 / 3.0))
    w, ell, aw, trace = _kkt_active_set(A, v, w0, max_iter, start)

    support = w > SUPPORT_CUT * float(np.max(w))
    if support[-1]:
        warnings.warn("the support reaches the last cell of [0, %g]; the "
                      "measure is clipped by the box" % Q,
                      RuntimeWarning, stacklevel=2)
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
    with working(dps):
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
        return sum(vals) / len(vals)


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
    the density ask for ``dps`` digits, and the constants they close over
    (q, the Lagrange constant and the cube root of unity) carry ``dps``
    digits too.
    """
    with working(dps):
        q, ell = mpf(sol.q), mpf(sol.ell)
        omega = mp.exp(2j * mp.pi / 3)
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

    with working(dps):
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
    with working(dps):
        cv = 2 * mp.pi / mp.sqrt(3) * mpf(sol.c0)
        ray = mp.exp(1j * mp.pi / 4)
        rs = [mpf(2) / 1000, mpf(1) / 1000, mpf(1) / 2000]
        zs = [r * ray for r in rs]
        f1_at_0 = mp.re(_neville_at_zero(zs, [gf.f1(z) for z in zs]))
        hstep = mpf(1) / 1000
        fp = (gf.f(hstep) - gf.f(-hstep)) / (2 * hstep)
        fprime_at_0 = mp.re(fp)
        return cv, f1_at_0, fprime_at_0
