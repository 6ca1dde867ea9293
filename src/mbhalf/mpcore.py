"""Arbitrary-precision numeric substrate.

Everything downstream (special functions, contour integration, the 3x3
matrix frames, moment tables) is built on the primitives in this module:

* ``gamma`` / ``rgamma`` -- ``mp.gamma`` / ``mp.rgamma`` behind a pole
  contract (:class:`GammaPoleError` near a nonpositive integer, an exact 0
  from ``rgamma`` there, ``mpf`` out for real input);
* ``quad_gl`` -- Gauss-Legendre quadrature with nodes computed by Newton
  iteration on the Legendre recurrence (cached per order/precision);
* ``quad_ts`` -- tanh-sinh (double-exponential) quadrature with level
  doubling, for endpoint-singular integrands (nodes cached per level and
  precision in a bounded LRU);
* both quadratures take an integrand that returns a sequence and then
  return one integral per component from one evaluation per node;
* ``solve_cubic`` -- Cardano with a Newton polish;
* ``ldu_decompose`` -- Doolittle LDU without pivoting (the moment Gram
  matrices downstream are totally nonsingular, pivoting would destroy the
  triangular biorthogonality structure);
* unit-triangular inverses; they and the LDU form each entry as one
  exact-product ``mp.fdot``, rounded once;
* small dense 3x3 helpers (det/inverse).

Every cache in the package is a ``functools.lru_cache`` on a function whose
arguments are the exact key (an mpf enters it as its ``_mpf_`` tuple).

Precision model: every value is an ``mpmath`` ``mpf``/``mpc``.  One rule
sets the digits every function works at, and :class:`working` is its one
raise; no other module names :data:`GUARD_DIGITS`.

* A function takes ``dps``, the digits its *result* must carry (``None``
  means the ambient ``mp.dps``), and raises the working precision once, at
  its entry, by ``with working(dps, extra) as d:`` to d + ``extra`` +
  GUARD_DIGITS.  ``extra`` is what its own arithmetic loses to
  cancellation, estimated or measured: an entire series' a priori loss
  (:func:`mbhalf.specfun._cancellation_digits`, and
  :func:`mbhalf.specfun._series_guard` in its term loop), the loop route's
  extra digits, or the loss a first pass measured.
* It hands its callees the digits their results need: d, or d plus the
  cancellation those results feed, never its own working digits, so
  guard digits do not stack from layer to layer.
* A private helper that runs only under its caller's raise does not raise
  again, unless it is cached by its digits (:func:`_legendre_nodes`,
  :func:`_ts_nodes`): then its own raise makes the cache key fix the
  precision.
* Absolute digits bypass the rule: the LDU schedule of the finite-n
  systems and the ambient precision of the command line.
"""

from __future__ import annotations

import functools
import math

from mpmath import mp, mpf, mpc

_LN10 = math.log(10.0)

#: decimal digits every function works with beyond those its result needs
GUARD_DIGITS = 10


class GammaPoleError(ValueError):
    """gamma evaluated at (numerically) a nonpositive integer."""


class QuadratureConvergenceError(RuntimeError):
    """Level-doubling quadrature failed to meet tolerance.

    Carries the last two level estimates so the caller can inspect how far
    apart they were.
    """

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = estimates


class SingularMatrixError(ValueError):
    """LDU hit a vanishing pivot; ``minor`` names the failing leading minor."""

    def __init__(self, message, minor):
        super().__init__(message)
        self.minor = minor


def _resolve_dps(dps):
    return mp.dps if dps is None else int(dps)


class working:
    """``with working(dps, extra=0) as d:`` raises the working precision to
    d + ``extra`` + :data:`GUARD_DIGITS` for the block and yields d, the
    resolved ``dps`` (module docstring).  It sets and restores ``mp.prec``
    as ``mp.workdps`` does, without building mpmath's precision manager."""

    def __init__(self, dps, extra=0):
        self._digits = _resolve_dps(dps)
        self._working = self._digits + extra + GUARD_DIGITS

    def __enter__(self):
        self._prec = mp.prec
        mp.dps = self._working
        return self._digits

    def __exit__(self, *exc):
        mp.prec = self._prec
        return False


def _to_fixed(x, e):
    """floor(x / 2^e) for an mpf tuple x: the one mpf-to-integer step of the
    fixed-point sums (the 0F2 term loop and the kernel's double series; the
    Mellin-Barnes loop sums with ``mp.fdot`` instead)."""
    sign, man, exp, _ = x
    if sign:
        man = -man
    sh = exp - e
    return man << sh if sh >= 0 else man >> -sh


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------

def _near_pole(z, d):
    """True when ``z`` is within 10^(-d/2) of a nonpositive integer."""
    if z.real >= 0.5:
        return False
    eps = mpf(10) ** (-(d // 2))
    return abs(z.imag) < eps and abs(z.real - mp.nint(z.real)) < eps


def gamma(z, dps=None):
    """Complex gamma function: ``mp.gamma`` behind the pole contract.

    Raises :class:`GammaPoleError` when ``z`` is a nonpositive integer to
    within 10^(-dps/2); real input (zero imaginary part) gives an ``mpf``.
    The value is rounded to dps + GUARD_DIGITS digits.
    """
    with working(dps) as d:
        z = mpc(z)
        if _near_pole(z, d):
            raise GammaPoleError(f"gamma pole at z = {mp.nint(z.real)}")
        return mp.gamma(z.real if z.imag == 0 else z)


def rgamma(z, dps=None):
    """1/gamma, returning exactly 0 at the poles (same threshold as gamma)."""
    with working(dps) as d:
        z = mpc(z)
        if _near_pole(z, d):
            return mpf(0)
        return mp.rgamma(z.real if z.imag == 0 else z)


# ----------------------------------------------------------------------
# Gauss-Legendre quadrature
# ----------------------------------------------------------------------

def legendre_nodes(order, dps=None):
    """Nodes and weights of ``order``-point Gauss-Legendre on [-1, 1].

    Newton iteration on the three-term Legendre recurrence, seeded with the
    Chebyshev-angle approximation.  Results are cached per (order, dps).
    """
    return _legendre_nodes(order, _resolve_dps(dps))


@functools.lru_cache(maxsize=None)
def _legendre_nodes(order, d):
    """:func:`legendre_nodes` at the resolved digits d, the exact cache key;
    the result is an immutable tuple pair, shared by every caller."""
    half = order // 2
    with working(d):
        nodes = []
        weights = []
        tol = mpf(10) ** (-(d + 6))
        for i in range(1, order - half + 1):
            x = mpf(math.cos(math.pi * (i - 0.25) / (order + 0.5)))
            for _ in range(120):
                p0, p1 = mpf(1), x
                for k in range(2, order + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < tol:
                    break
            p0, p1 = mpf(1), x
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append(x)
            weights.append(w)
        if order % 2 == 1:
            nodes[-1] = mpf(0)             # the middle node is exactly 0
        # the nodes found are the positive half in descending order
        return (tuple([-x for x in nodes] + nodes[:half][::-1]),
                tuple(weights + weights[:half][::-1]))


def _components(f):
    """``f`` as an integrand that always returns a list of values.

    A sequence-valued ``f`` passes through as a list; a scalar ``f`` becomes
    the length-1 case.  ``unwrap`` turns the list of integrals back into
    what ``f`` returned: a list, or the one scalar.
    """
    shape = []

    def g(x):
        v = f(x)
        if not shape:
            shape.append(isinstance(v, (list, tuple)))
        return list(v) if shape[0] else [v]

    def unwrap(vals):
        return vals if shape[0] else vals[0]

    return g, unwrap


def _add_scaled(acc, w, vals):
    """acc + w * vals componentwise; ``acc`` None stands for zero."""
    if acc is None:
        return [w * v for v in vals]
    return [a + w * v for a, v in zip(acc, vals)]


def quad_gl(f, a, b, order=64, dps=None):
    """Gauss-Legendre integral of ``f`` over [a, b] at fixed order.

    ``f`` may return a sequence; the result is then a list with one
    integral per component, all from one evaluation of ``f`` per node.
    """
    xs, ws = legendre_nodes(order, dps=dps)
    g, unwrap = _components(f)
    with working(dps):
        a = mpf(a) if not isinstance(a, (mpf, mpc)) else a
        b = mpf(b) if not isinstance(b, (mpf, mpc)) else b
        mid = (a + b) / 2
        half = (b - a) / 2
        total = None
        for x, w in zip(xs, ws):
            total = _add_scaled(total, w, g(mid + half * x))
        return unwrap([half * t for t in total])


# ----------------------------------------------------------------------
# tanh-sinh quadrature
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _ts_nodes(level, dps):
    """Abscissas for level ``level`` (odd multiples of h except level 0).

    Each node is returned as (t, near-endpoint distance g in (0,1], weight),
    with g = 1 - |tanh((pi/2) sinh t)| computed cancellation-free, at the
    working precision dps + GUARD_DIGITS of :func:`quad_ts`.  The pair
    (level, dps) fixes the precision and the cutoff t_max, so it is the
    exact cache key; the result is an immutable tuple, shared by every
    caller.
    """
    with working(dps):
        # cutoff where the double-exponential weight underflows the
        # tolerance; the factor 4 keeps the tail negligible even against
        # endpoint blow-ups as strong as (x - a)^(-3/4)
        t_max = mp.asinh(4 * (mpf(dps + 15) * _LN10) / mp.pi) + mpf("0.5")
        h = mpf(1) / (1 << level)
        out = []
        k = 1 if level > 0 else 0
        step = 2 if level > 0 else 1
        while True:
            t = k * h
            if t > t_max:
                break
            u = mp.pi / 2 * mp.sinh(t)
            # 1 - tanh(u) = 2 / (e^{2u} + 1), exact in this form
            g = 2 / (mp.exp(2 * u) + 1)
            w = mp.pi / 2 * mp.cosh(t) / mp.cosh(u) ** 2
            out.append((t, g, w))
            k += step
    return h, tuple(out)


def _worst_component(total, prev, tol):
    """Index of the component furthest from convergence, or None.

    Component i has converged when |total_i - prev_i| <= tol * |total_i|;
    a zero total needs a zero change.  Unconverged components are ranked by
    change / |total_i|.
    """
    worst, worst_ratio = None, None
    for i, (t, p) in enumerate(zip(total, prev)):
        err, scale = abs(t - p), abs(t)
        if err <= tol * scale:
            continue
        ratio = err / scale if scale else mp.inf
        if worst is None or ratio > worst_ratio:
            worst, worst_ratio = i, ratio
    return worst


def quad_ts(f, a, b, dps=None, max_level=12):
    """Tanh-sinh integral of ``f`` over [a, b] with level doubling.

    Handles integrable endpoint singularities (algebraic or logarithmic).
    Convergence means two successive level estimates agree to
    tol = 10^(-dps+10) relative to |I| (10^-dps for dps <= 20).
    ``f`` may return a sequence; the result is then a list with one
    integral per component, all from one evaluation of ``f`` per node, and
    the levels go on until every component has converged by that rule on
    its own.  Raises :class:`QuadratureConvergenceError` otherwise, with
    the last two estimates of the component furthest from convergence.
    """
    d = _resolve_dps(dps)
    tol = mpf(10) ** (-(d - 10)) if d > 20 else mpf(10) ** (-d)
    g, unwrap = _components(f)
    with working(d):
        a = mpf(a)
        b = mpf(b)
        half = (b - a) / 2
        total = prev = None
        for level in range(0, max_level + 1):
            h, nodes = _ts_nodes(level, d)
            contrib = None
            for t, gap, w in nodes:
                if t == 0:
                    xs = (a + half,)
                else:
                    # deep in the tail the offset half*gap underflows the
                    # working precision and the abscissa rounds onto the
                    # endpoint; skip such nodes so that endpoint-singular
                    # integrands are never evaluated at the endpoint itself
                    # (their true contribution is below tolerance for any
                    # integrable singularity weaker than (x-a)^(-3/4))
                    xs = [x for x, end in ((a + half * gap, a),
                                           (b - half * gap, b)) if x != end]
                for x in xs:
                    contrib = _add_scaled(contrib, w, g(x))
            # level 0 sum includes t=0 once; rescale previous accumulation
            hh = h * half
            if level > 0:
                prev, total = total, [tl / 2 + hh * c
                                      for tl, c in zip(total, contrib)]
            else:
                total = [hh * c for c in contrib]
            if prev is not None and _worst_component(total, prev, tol) is None:
                return unwrap([+v for v in total])
        i = 0 if prev is None else _worst_component(total, prev, tol)
        raise QuadratureConvergenceError(
            f"tanh-sinh did not converge by level {max_level} (h={h})",
            estimates=(prev[i] if prev is not None else None, total[i]),
        )


# ----------------------------------------------------------------------
# cubic solver
# ----------------------------------------------------------------------

def solve_cubic(c3, c2, c1, c0, dps=None):
    """All three roots of c3 x^3 + c2 x^2 + c1 x + c0 = 0 (Cardano).

    Returns a list of three mpc roots (with multiplicity), each polished by
    one Newton step on the original polynomial.
    """
    with working(dps) as d:
        c3, c2, c1, c0 = mpc(c3), mpc(c2), mpc(c1), mpc(c0)
        if c3 == 0:
            raise ValueError("leading coefficient vanishes; not a cubic")
        a = c2 / c3
        p = c1 / c3 - a * a / 3
        q = 2 * a ** 3 / 27 - a * (c1 / c3) / 3 + c0 / c3
        shift = -a / 3
        omega = mp.exp(2j * mp.pi / 3)
        if p == 0 and q == 0:
            roots = [shift] * 3
        else:
            disc = (q / 2) ** 2 + (p / 3) ** 3
            sq = mp.sqrt(disc)
            u3 = -q / 2 + sq
            alt = -q / 2 - sq
            if abs(alt) > abs(u3):
                u3 = alt
            if u3 == 0:
                t0 = (-q) ** (mpf(1) / 3)
                roots = [shift + t0, shift + t0 * omega, shift + t0 * omega ** 2]
            else:
                u = u3 ** (mpf(1) / 3)
                roots = []
                for k in range(3):
                    uk = u * omega ** k
                    roots.append(shift + uk - p / (3 * uk))
        polished = []
        for r in roots:
            fr = ((c3 * r + c2) * r + c1) * r + c0
            dfr = (3 * c3 * r + 2 * c2) * r + c1
            if abs(dfr) > mpf(10) ** (-(d // 2)):
                r = r - fr / dfr
            polished.append(+r)
        return polished


# ----------------------------------------------------------------------
# LDU and triangular helpers
# ----------------------------------------------------------------------

def ldu_decompose(g, dps=None):
    """Doolittle LDU of a square matrix given as list-of-lists.

    Returns (L, D, U) with L unit lower triangular, D a list of pivots,
    U unit upper triangular.  Each pivot D_k, each scaled row entry
    D_k U_kj = a_kj - sum_m L_km D_m U_mj and its mirror D_k L_ik is one
    exact-product ``mp.fdot``, rounded once (Crout's order); U_kj and L_ik
    then divide by D_k.  No pivoting; a pivot below
    10^(-dps/2) * (row max) raises :class:`SingularMatrixError` naming the
    failing leading minor.
    """
    n = len(g)
    with working(dps) as d:
        one = mpf(1)
        L = [[one if i == j else mpf(0) for j in range(n)] for i in range(n)]
        U = [[one if i == j else mpf(0) for j in range(n)] for i in range(n)]
        D = [mpf(0)] * n
        # cols[j] = [1, -D_0 U_0j, ..., -D_{k-1} U_{k-1,j}] at step k, so that
        # a_kj - sum_m L_km D_m U_mj = fdot([a_kj, L_k0, ...], cols[j]); each
        # a_kj is read once, and fdot converts a plain number itself
        cols = [[one] for _ in range(n)]
        for k in range(n):
            lk = [g[k][k]] + L[k][:k]
            piv = mp.fdot(lk, cols[k])
            rowscale = max(abs(x) for x in g[k]) or one
            if abs(piv) <= mpf(10) ** (-(d // 2)) * rowscale:
                raise SingularMatrixError(
                    f"vanishing pivot in leading minor {k + 1}", minor=k + 1)
            D[k] = piv
            for j in range(k + 1, n):
                lk[0] = g[k][j]
                r = mp.fdot(lk, cols[j])
                U[k][j] = r / piv
                cols[j].append(-r)
            for i in range(k + 1, n):
                L[i][k] = mp.fdot([g[i][k]] + L[i][:k], cols[k]) / piv
        return L, D, U


def unit_lower_inverse(L):
    """Inverse of a unit lower-triangular list-of-lists matrix, each entry
    -sum_{j<=m<i} L_im inv_mj one exact-product ``mp.fdot``."""
    n = len(L)
    inv = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
    for j in range(n):
        col = [inv[j][j]]                   # inv[j..i-1][j]
        for i in range(j + 1, n):
            v = -mp.fdot(L[i][j:i], col)
            inv[i][j] = v
            col.append(v)
    return inv


def unit_upper_inverse(U):
    n = len(U)
    Ut = [[U[j][i] for j in range(n)] for i in range(n)]
    inv_t = unit_lower_inverse(Ut)
    return [[inv_t[j][i] for j in range(n)] for i in range(n)]


# ----------------------------------------------------------------------
# dense 3x3 helpers
# ----------------------------------------------------------------------

def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def mat_sub(A, B):
    return [[A[i][j] - B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


def mat_transpose(A):
    return [[A[j][i] for j in range(len(A))] for i in range(len(A[0]))]


def det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))


def inv3(A):
    det = det3(A)
    if det == 0:
        raise SingularMatrixError("3x3 matrix is singular", minor=3)
    cof = [
        [A[1][1] * A[2][2] - A[1][2] * A[2][1],
         A[0][2] * A[2][1] - A[0][1] * A[2][2],
         A[0][1] * A[1][2] - A[0][2] * A[1][1]],
        [A[1][2] * A[2][0] - A[1][0] * A[2][2],
         A[0][0] * A[2][2] - A[0][2] * A[2][0],
         A[0][2] * A[1][0] - A[0][0] * A[1][2]],
        [A[1][0] * A[2][1] - A[1][1] * A[2][0],
         A[0][1] * A[2][0] - A[0][0] * A[2][1],
         A[0][0] * A[1][1] - A[0][1] * A[1][0]],
    ]
    return [[cof[i][j] / det for j in range(3)] for i in range(3)]


def norm_max(A):
    """Entrywise max-abs norm of a matrix (list-of-lists)."""
    return max(abs(x) for row in A for x in row)


def identity3():
    return [[mpc(1) if i == j else mpc(0) for j in range(3)] for i in range(3)]
