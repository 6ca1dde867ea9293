"""Arbitrary-precision numeric substrate.

Everything downstream (special functions, contour integration, the 3x3
matrix frames, moment tables) is built on the primitives in this module:

* ``gamma`` / ``rgamma`` -- ``mp.gamma`` / ``mp.rgamma`` behind a pole
  contract (:class:`GammaPoleError` near a nonpositive integer, an exact 0
  from ``rgamma`` there, ``mpf`` out for real input);
* ``quad_gl`` -- Gauss-Legendre quadrature with nodes computed by Newton
  iteration on the Legendre recurrence (cached per order/precision);
* ``quad_ts`` -- tanh-sinh (double-exponential) quadrature with level
  doubling, for endpoint-singular integrands;
* ``solve_cubic`` -- Cardano with a Newton polish;
* ``ldu_decompose`` -- Doolittle LDU without pivoting (the moment Gram
  matrices downstream are totally nonsingular, pivoting would destroy the
  triangular biorthogonality structure);
* small dense 3x3 helpers (det/inverse/solve) and unit-triangular inverses.

Precision model: every value is an ``mpmath`` ``mpf``/``mpc``.  Functions
take an optional ``dps`` (decimal digits); ``None`` means "use the ambient
``mp.dps``".  Internally computations run a few guard digits higher.  The
package default working precision is 50 digits (``DEFAULT_DPS``).
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, mpc

DEFAULT_DPS = 50

_LN10 = math.log(10.0)


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
    The value is rounded to dps + 10 digits.
    """
    d = _resolve_dps(dps)
    with mp.workdps(d + 10):
        z = mpc(z)
        if _near_pole(z, d):
            raise GammaPoleError(f"gamma pole at z = {mp.nint(z.real)}")
        return mp.gamma(z.real if z.imag == 0 else z)


def rgamma(z, dps=None):
    """1/gamma, returning exactly 0 at the poles (same threshold as gamma)."""
    d = _resolve_dps(dps)
    with mp.workdps(d + 10):
        z = mpc(z)
        if _near_pole(z, d):
            return mpf(0)
        return mp.rgamma(z.real if z.imag == 0 else z)


# ----------------------------------------------------------------------
# Gauss-Legendre quadrature
# ----------------------------------------------------------------------

_gl_cache = {}


def legendre_nodes(order, dps=None):
    """Nodes and weights of ``order``-point Gauss-Legendre on [-1, 1].

    Newton iteration on the three-term Legendre recurrence, seeded with the
    Chebyshev-angle approximation.  Results are cached per (order, dps).
    """
    d = _resolve_dps(dps)
    key = (order, d)
    got = _gl_cache.get(key)
    if got is not None:
        return got
    wp = d + 12
    with mp.workdps(wp):
        nodes = []
        weights = []
        tol = mpf(10) ** (-(d + 6))
        for i in range(1, order // 2 + order % 2 + 1):
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
        xs, ws = [], []
        for x, w in zip(nodes, weights):
            xs.append(-x)
            ws.append(w)
        if order % 2 == 1:
            # middle node is x=0; drop the duplicate from the mirrored half
            xs = xs[:-1]
            ws = ws[:-1]
            xs.append(mpf(0))
            ws.append(weights[-1])
        for x, w in zip(reversed(nodes[: order // 2]), reversed(weights[: order // 2])):
            xs.append(x)
            ws.append(w)
        result = (tuple(xs), tuple(ws))
    _gl_cache[key] = result
    return result


def quad_gl(f, a, b, order=64, dps=None):
    """Gauss-Legendre integral of ``f`` over [a, b] at fixed order."""
    d = _resolve_dps(dps)
    xs, ws = legendre_nodes(order, dps=d)
    with mp.workdps(d + 10):
        a = mpf(a) if not isinstance(a, (mpf, mpc)) else a
        b = mpf(b) if not isinstance(b, (mpf, mpc)) else b
        mid = (a + b) / 2
        half = (b - a) / 2
        total = 0
        for x, w in zip(xs, ws):
            total += w * f(mid + half * x)
        return half * total


# ----------------------------------------------------------------------
# tanh-sinh quadrature
# ----------------------------------------------------------------------

def _ts_nodes(level, t_max, dps):
    """Abscissas for level ``level`` (odd multiples of h except level 0).

    Each node is returned as (near-endpoint distance g in (0,1], weight),
    with g = 1 - |tanh((pi/2) sinh t)| computed cancellation-free.
    """
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
    return h, out


def quad_ts(f, a, b, tol=None, dps=None, max_level=12, abs_scale=0):
    """Tanh-sinh integral of ``f`` over [a, b] with level doubling.

    Handles integrable endpoint singularities (algebraic or logarithmic).
    ``tol`` defaults to 10^(-dps+10).  Convergence means two successive
    level estimates agree to ``tol`` relative to max(|I|, abs_scale).
    Raises :class:`QuadratureConvergenceError` with the last two estimates
    otherwise.
    """
    d = _resolve_dps(dps)
    if tol is None:
        tol = mpf(10) ** (-(d - 10)) if d > 20 else mpf(10) ** (-d)
    with mp.workdps(d + 10):
        a = mpf(a)
        b = mpf(b)
        half = (b - a) / 2
        # cutoff where the double-exponential weight underflows the tolerance;
        # the factor 4 keeps the tail negligible even against endpoint
        # blow-ups as strong as (x - a)^(-3/4)
        t_max = mp.asinh(4 * (mpf(d + 15) * _LN10) / mp.pi) + mpf("0.5")
        total = 0
        prev = None
        last_h = mpf(1)
        for level in range(0, max_level + 1):
            h, nodes = _ts_nodes(level, t_max, d)
            contrib = 0
            for t, g, w in nodes:
                xr = b - half * g
                xl = a + half * g
                if t == 0:
                    contrib += w * f(a + half)
                    continue
                # deep in the tail the offset half*g underflows the working
                # precision and the abscissa rounds onto the endpoint; skip
                # such nodes so that endpoint-singular integrands are never
                # evaluated at the endpoint itself (their true contribution
                # is below tolerance for any integrable singularity weaker
                # than (x-a)^(-3/4))
                if xl != a:
                    contrib += w * f(xl)
                if xr != b:
                    contrib += w * f(xr)
            # level 0 sum includes t=0 once; rescale previous accumulation
            total = total / 2 + h * half * contrib if level > 0 else h * half * contrib
            last_h = h
            if prev is not None:
                err = abs(total - prev)
                scale = max(abs(total), mpf(abs_scale))
                if scale == 0:
                    if err == 0:
                        return +total
                elif err <= tol * scale:
                    return +total
            prev = total
        raise QuadratureConvergenceError(
            f"tanh-sinh did not converge by level {max_level} (h={last_h})",
            estimates=(prev, total),
        )


# ----------------------------------------------------------------------
# cubic solver
# ----------------------------------------------------------------------

def solve_cubic(c3, c2, c1, c0, dps=None):
    """All three roots of c3 x^3 + c2 x^2 + c1 x + c0 = 0 (Cardano).

    Returns a list of three mpc roots (with multiplicity), each polished by
    one Newton step on the original polynomial.
    """
    d = _resolve_dps(dps)
    with mp.workdps(d + 10):
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
    U unit upper triangular.  No pivoting; a pivot below
    10^(-dps/2) * (row max) raises :class:`SingularMatrixError` naming the
    failing leading minor.
    """
    d = _resolve_dps(dps)
    n = len(g)
    with mp.workdps(d + 10):
        a = [[mpf(x) if not isinstance(x, (mpf, mpc)) else x for x in row] for row in g]
        L = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
        U = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
        D = [mpf(0)] * n
        for k in range(n):
            piv = a[k][k]
            rowscale = max(abs(x) for x in g[k]) or mpf(1)
            if abs(piv) <= mpf(10) ** (-(d // 2)) * rowscale:
                raise SingularMatrixError(
                    f"vanishing pivot in leading minor {k + 1}", minor=k + 1)
            D[k] = piv
            for j in range(k + 1, n):
                U[k][j] = a[k][j] / piv
            for i in range(k + 1, n):
                L[i][k] = a[i][k] / piv
            for i in range(k + 1, n):
                lik = a[i][k]
                if lik == 0:
                    continue
                for j in range(k + 1, n):
                    a[i][j] -= lik * a[k][j] / piv
        return L, D, U


def unit_lower_inverse(L):
    """Inverse of a unit lower-triangular list-of-lists matrix."""
    n = len(L)
    inv = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            s = L[i][j]
            for k in range(j + 1, i):
                s += L[i][k] * inv[k][j]
            inv[i][j] = -s
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


def mat_vec(A, v):
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


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


def solve3(A, b):
    return mat_vec(inv3(A), b)


def norm_max(A):
    """Entrywise max-abs norm of a matrix (list-of-lists)."""
    return max(abs(x) for row in A for x in row)


def identity3():
    return [[mpc(1) if i == j else mpc(0) for j in range(3)] for i in range(3)]
