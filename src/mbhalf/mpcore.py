"""Arbitrary-precision numeric substrate.

Everything downstream (special functions, contour integration, the 3x3
matrix frames, moment tables) is built on the primitives in this module:

* ``quad_ts`` -- tanh-sinh (double-exponential) quadrature with level
  doubling, for endpoint-singular integrands (nodes from two exps each,
  cached per level and precision in a bounded LRU), the package's one
  quadrature rule; it takes an integrand that returns a sequence and then
  returns one integral per component from one evaluation per node, each
  level's sum of a component one exact-product ``mp.fdot``, rounded once;
  with ``powers=K`` it takes an integrand that returns a pair (v, r),
  v >= 0 and r > 0, and integrates the power family v r^k, k < K: each
  level forms its K sums from integer mantissas at B = prec + 40 bits
  with no rounded product, and rounds each once; every term is positive,
  so a sum before that rounding is at most (K + N) 2^-(B-2) relative
  low, N the level's nodes; given a float envelope of each node's
  (log v, log r), it evaluates only the nodes whose terms can reach a
  sum, and a node leaves the power steps after its last contributing
  power, both exactly: the sums keep every bit;
* ``solve_cubic`` -- Cardano with a Newton polish;
* ``ldu_decompose`` -- Doolittle LDU without pivoting (the moment Gram
  matrices downstream are totally nonsingular, pivoting would destroy the
  triangular biorthogonality structure);
* unit-triangular inverses; they and the LDU form each entry as one
  exact-product ``mp.fdot``, rounded once;
* small dense 3x3 helpers (product, transpose, determinant, max norm).

Gamma, its reciprocal, polynomial values and the mpf-to-integer step of the
fixed-point sums are mpmath's own (``mp.gamma``, ``mp.rgamma``,
``mp.polyval``, ``mpmath.libmp.to_fixed``), called at the caller's working
precision.

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
  again, unless it is cached by its digits (:func:`_ts_nodes`): then its
  own raise makes the cache key fix the precision.
* Absolute digits bypass the rule only in the ambient precision of the
  command line.
"""

from __future__ import annotations

import bisect
import functools
import math

from mpmath import mp, mpf, mpc
from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpf_add,
    mpf_mul,
    mpf_sub,
    round_nearest,
)

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)

#: decimal digits every function works with beyond those its result needs
GUARD_DIGITS = 10


class NumericalError(Exception):
    """Base of every typed numerical failure of the package; the command
    line maps it to exit code 3.  Each subclass also derives from the
    built-in exception it refines, so ``except ValueError`` still holds."""


class QuadratureConvergenceError(NumericalError, RuntimeError):
    """Level-doubling quadrature failed to meet tolerance.

    Carries the last two level estimates so the caller can inspect how far
    apart they were.
    """

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = estimates


class SingularMatrixError(NumericalError, ValueError):
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


# ----------------------------------------------------------------------
# tanh-sinh quadrature
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _ts_nodes(level, dps):
    """Abscissas for level ``level`` (odd multiples of h except level 0).

    Each node is returned as (t, g, w): the near-endpoint distance
    g = 1 - |tanh u| in (0, 1] and the weight w = (pi/2) cosh t / cosh^2 u,
    u = (pi/2) sinh t.  Two exps make a node: with E = e^t and F = e^(2u),
    sinh t and cosh t are (E -+ 1/E)/2, g = 2/(F + 1) has no cancellation,
    and cosh^2 u = (F + 1)^2/(4F) gives w = 2 pi cosh t F/(F + 1)^2.  The
    rounding of u reaches g and w amplified by about 2u, so they are formed
    at the working precision dps + GUARD_DIGITS of :func:`quad_ts` plus the
    digits of 2u at t_max.  The pair
    (level, dps) fixes the precision and the cutoff t_max, so it is the
    exact cache key; the result is an immutable tuple, shared by every
    caller.
    """
    with working(dps):
        # cutoff where the double-exponential weight underflows the
        # tolerance; the factor 4 keeps the tail negligible even against
        # endpoint blow-ups as strong as (x - a)^(-3/4)
        t_max = mp.asinh(4 * (mpf(dps + 15) * _LN10) / mp.pi) + mpf("0.5")
        # the digits of 2u at t_max, which the rounding of u costs g and w
        lost = int(mp.log10(mp.pi * mp.sinh(t_max))) + 1
    with working(dps, lost):
        h = mpf(1) / (1 << level)
        out = []
        k = 1 if level > 0 else 0
        step = 2 if level > 0 else 1
        while True:
            t = k * h
            if t > t_max:
                break
            E = mp.exp(t)
            Ei = 1 / E
            u = mp.pi / 4 * (E - Ei)
            F = mp.exp(2 * u)
            g = 2 / (F + 1)
            w = mp.pi * (E + Ei) * F / (F + 1) ** 2
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


#: bits a power-family mantissa carries beyond the working precision
_POWER_BITS = 40

#: bits an envelope skip keeps beyond B + k (:func:`_reachable`): two for
#: an envelope off by up to a bit at either node, one for the truncated
#: mantissa of the top node, one for the float arithmetic of the test
_ENVELOPE_MARGIN = 4


def _enveloped(row):
    """A powers-mode integrand's value as (log v, log r, pair): a 3-tuple
    is an envelope already; a plain pair (v, r) is already finished and
    has logs of nan, so that its node is always kept."""
    if len(row) == 3:
        return row
    return math.nan, math.nan, lambda: row


def _normalised(man, exp, bits):
    """man 2^exp as m 2^e with 2^(bits-1) <= m < 2^bits, truncated."""
    shift = man.bit_length() - bits
    return (man >> shift if shift > 0 else man << -shift), exp + shift


def _upper_envelope(lines, count):
    """max over the lines (a, s) of a + k s at k = 0, ..., count - 1.

    The lines that reach the maximum form the upper hull: sorted by slope,
    a line leaves it when its two neighbours meet no later than it meets
    the left one.  A walk along the hull then reads each k.  Each value
    read is one line's value at k, and float rounding can only leave out
    a line within a rounding of the hull, so a value is at most a rounding
    below the exact maximum.
    """
    hull = []
    for a, s in sorted(lines, key=lambda line: (line[1], line[0])):
        while hull and hull[-1][1] == s:
            hull.pop()
        while len(hull) >= 2:
            (a1, s1), (a2, s2) = hull[-2], hull[-1]
            if (a - a1) * (s2 - s1) < (a2 - a1) * (s - s1):
                break
            hull.pop()
        hull.append((a, s))
    tops, i = [], 0
    for k in range(count):
        while (i + 1 < len(hull)
               and hull[i + 1][0] + k * hull[i + 1][1]
               >= hull[i][0] + k * hull[i][1]):
            i += 1
        tops.append(hull[i][0] + k * hull[i][1])
    return tops


def _reachable(ws, envs, count):
    """Which nodes of a level can change one of its ``count`` power sums.

    Node i's envelope (log v_i, log r_i, _) gives the line
    L_i(k) = log2 w_i + (log v_i + k log r_i) / ln 2, the log2-size of its
    term w_i v_i r_i^k.  Let T(k) be the largest L_j(k) over the nodes
    with a finite envelope (:func:`_upper_envelope`).  Node i is skipped
    when T(k) - L_i(k) > B + k + _ENVELOPE_MARGIN for every k < count,
    B = prec + _POWER_BITS.  T(k) - L_i(k) - k is convex in k, so its
    least value sits where the rise of T passes the slope of L_i plus 1,
    and the test reads it there.

    A skipped node would have added exactly 0 to every sum of
    :func:`_power_sums`, and never held its largest exponent.  With each
    envelope off by at most a bit and the test's float arithmetic by less
    than one more, the node j on top at k has a term w v r^k at least
    2^(B+k+1) times node i's.  Node j is kept (its own gap is -k).  After
    k steps its m_j 2^(e_j) is at least half its term and m_j < 2^(B+k),
    so 2^(e_j) exceeds node i's whole term, which is at least
    m_i 2^(e_i): with the sum's top exponent e >= e_j, node i's aligned
    term m_i >> (e - e_i) is 0, and e_i < e.  A node whose envelope is not
    finite is always kept.
    """
    bits = mp.prec + _POWER_BITS + _ENVELOPE_MARGIN
    lines = []
    for w, (lv, lr, _) in zip(ws, envs):
        if math.isfinite(lv) and math.isfinite(lr):
            _, man, exp, _ = w._mpf_
            lines.append((math.log2(man) + exp + lv / _LN2, lr / _LN2))
        else:
            lines.append(None)
    finite = [line for line in lines if line]
    if not finite:
        return [True] * len(lines)
    tops = _upper_envelope(finite, count)
    rises = [b - a for a, b in zip(tops, tops[1:])]
    keep = []
    for line in lines:
        if line is None:
            keep.append(True)
        else:
            # the least gap sits where the rise of T reaches s + 1 (up to
            # the rounding of the rises, a local least value)
            a, s = line
            s += 1
            k = bisect.bisect_left(rises, s)
            keep.append(tops[k] - a - k * s <= bits)
    return keep


def _power_sums(ws, pairs, count):
    """The ``count`` level sums sum_i w_i v_i r_i^k, k < count, of the
    nodes' weights w_i and integrand pairs (v_i, r_i), from integer
    mantissas at B = prec + _POWER_BITS bits.

    w_i v_i (an exact product) and r_i are truncated to B bits, m 2^e with
    2^(B-1) <= m < 2^B.  A power step takes m to (m r_m) >> (B - 1), which
    keeps m >= 2^(B-1): a mantissa only grows, by at most a bit a step,
    and a step drops less than 2^-(B-1) of its product.  Sum k aligns its
    terms to their largest exponent, dropping less than one unit there of
    each, where the term of that exponent is at least 2^(B-1) units, and
    is rounded once to prec bits.  Every term is positive, so these
    relative errors add: before its rounding sum k is at most
    (1 + 2k + N) 2^-(B-1) <= (count + N) 2^-(B-2) low, N the number of
    nodes.  A v < 0, an r <= 0 or a value that is not finite raises
    ValueError; a node with v = 0 adds nothing.

    A node leaves the steps once its term is 0 and stays 0.  Node i's
    exponent at power k is e_i + k c_i, and the top exponent t_k is their
    largest, a maximum of lines in k, so its rise t_k - t_(k-1) never
    falls.  When node i's aligned term m >> (t_k - e_i - k c_i) is 0 at k
    and the top rose by at least c_i + 1 into k, its gap to the top grows
    by at least a bit a step and its mantissa by at most one: the term is
    0 at every later power too.  Dropping it leaves every sum and every
    top as they were.
    """
    bits = mp.prec + _POWER_BITS
    step = bits - 1
    ms, es, rs, cs = [], [], [], []
    for w, (v, r) in zip(ws, pairs):
        vsign, vman, vexp, _ = (v if isinstance(v, mpf) else mpf(v))._mpf_
        rsign, rman, rexp, _ = (r if isinstance(r, mpf) else mpf(r))._mpf_
        # an mpf with a zero mantissa is 0 when its exponent is 0, else
        # an infinity or nan
        if vsign or (not vman and vexp) or rsign or not rman:
            raise ValueError("powers= needs an integrand pair (v, r) with "
                             "finite v >= 0 and r > 0; got (%s, %s)"
                             % (mp.nstr(v, 8), mp.nstr(r, 8)))
        if not vman:
            continue
        _, wman, wexp, _ = w._mpf_
        m, e = _normalised(wman * vman, wexp + vexp, bits)
        rm, re = _normalised(rman, rexp, bits)
        ms.append(m)
        es.append(e)
        rs.append(rm)
        cs.append(re + step)
    out, last = [], None
    for k in range(count):
        if k:
            ms = [(m * rm) >> step for m, rm in zip(ms, rs)]
            es = [e + c for e, c in zip(es, cs)]
        top = max(es, default=0)
        total = sum(m >> (top - e) for m, e in zip(ms, es))
        out.append(mp.make_mpf(from_man_exp(total, top, mp.prec,
                                            round_nearest)))
        if last is not None and k + 1 < count:
            rise = top - last
            keep = [i for i, (m, e, c) in enumerate(zip(ms, es, cs))
                    if rise <= c or m.bit_length() > top - e]
            if len(keep) < len(ms):
                ms, es, rs, cs = ([col[i] for i in keep]
                                  for col in (ms, es, rs, cs))
        last = top
    return out


def quad_ts(f, a, b, dps=None, max_level=12, powers=None):
    """Tanh-sinh integral of ``f`` over [a, b] with level doubling.

    Handles integrable endpoint singularities (algebraic or logarithmic).
    Convergence means two successive level estimates agree to
    tol = 10^(-dps+10) relative to |I| (10^-dps for dps <= 20).
    ``f`` may return a sequence; the result is then a list with one
    integral per component, all from one evaluation of ``f`` per node, and
    the levels go on until every component has converged by that rule on
    its own.  Raises :class:`QuadratureConvergenceError` otherwise, with
    the last two estimates of the component furthest from convergence.

    A level's new nodes are summed per component as one ``mp.fdot`` of
    the values against the weights of :func:`_ts_nodes` (two exps a
    node): the products are exact and the sum is rounded once.

    With ``powers=K``, ``f`` returns a pair (v, r), v >= 0 and r > 0, and
    the result is the list of the K integrals of v r^k, k = 0, ..., K-1,
    under the same levels and convergence rule.  A level's K sums are then
    formed from integer mantissas by :func:`_power_sums`, with no rounded
    product of mpfs: every term is positive, so each sum before its one
    rounding is at most (K + N) 2^-(B-2) relative low, N the level's
    nodes and B the working precision plus 40 bits.

    With ``powers``, ``f`` may instead take a cheap first look at a node:
    ``f(x)`` returns an envelope (log v, log r, pair), floats that are the
    natural logs of the node's pair and a callable ``pair()`` that returns
    the pair (v, r) itself, so that work the two share is done once.  The
    logs may be off by at most one bit:
    |(Delta log v + k Delta log r) / ln 2| <= 1 for every k < K.  A node
    whose term stays more than B + k + 4 bits below a level's largest one
    at every power k is never finished (:func:`_reachable`): it would have
    added exactly 0 to every sum, so the result keeps its bits.  A node
    whose logs are not finite is always finished, and a plain pair counts
    as an envelope with logs of nan, so every such node is kept.
    """
    d = _resolve_dps(dps)
    tol = mpf(10) ** (-(d - 10)) if d > 20 else mpf(10) ** (-d)
    with working(d):
        a = mpf(a)
        b = mpf(b)
        half = (b - a) / 2
        prec, ra, rb, rhalf = mp.prec, a._mpf_, b._mpf_, half._mpf_
        total = prev = None
        scalar = False
        for level in range(0, max_level + 1):
            h, nodes = _ts_nodes(level, d)
            ws, rows = [], []
            for t, gap, w in nodes:
                if t._mpf_ == fzero:
                    xs = (a + half,)
                else:
                    # deep in the tail the offset half*gap underflows the
                    # working precision and the abscissa rounds onto the
                    # endpoint; skip such nodes so that endpoint-singular
                    # integrands are never evaluated at the endpoint itself
                    # (their true contribution is below tolerance for any
                    # integrable singularity weaker than (x-a)^(-3/4)).
                    # The offset is formed once, and a + offset and
                    # b - offset by the libmp calls mpmath's operators make;
                    # finite mpfs are equal exactly when their tuples are
                    offset = mpf_mul(rhalf, gap._mpf_, prec, round_nearest)
                    xs = [mp.make_mpf(x) for x, end in (
                        (mpf_add(ra, offset, prec, round_nearest), ra),
                        (mpf_sub(rb, offset, prec, round_nearest), rb))
                          if x != end]
                for x in xs:
                    ws.append(w)
                    rows.append(f(x))
            if powers is None:
                scalar = not isinstance(rows[0], (list, tuple))
                contrib = [mp.fdot(ws, col)
                           for col in ((rows,) if scalar else zip(*rows))]
            else:
                envs = [_enveloped(row) for row in rows]
                keep = _reachable(ws, envs, powers)
                contrib = _power_sums(
                    [w for w, k in zip(ws, keep) if k],
                    [env[2]() for env, k in zip(envs, keep) if k], powers)
            # level 0 sum includes t=0 once; rescale previous accumulation
            hh = h * half
            if level > 0:
                prev, total = total, [tl / 2 + hh * c
                                      for tl, c in zip(total, contrib)]
            else:
                total = [hh * c for c in contrib]
            if prev is not None and _worst_component(total, prev, tol) is None:
                return +total[0] if scalar else [+v for v in total]
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


def mat_transpose(A):
    return [[A[j][i] for j in range(len(A))] for i in range(len(A[0]))]


def det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))


def norm_max(A):
    """Entrywise max-abs norm of a matrix (list-of-lists)."""
    return max(abs(x) for row in A for x in row)

