"""Finite-n biorthogonal ensembles for the square-root pairing.

The general construction is exact-moment linear algebra: with weight
w(x) = x^alpha exp(-n V(x)) on [0, oo), the monic polynomials p_j and the
dual polynomials q_j (polynomials in y = x^(1/2)) satisfy

    integral p_j(x) q_k(x^(1/2)) w(x) dx = delta_jk,

and every integral in the construction reduces to a lookup in a table of
half-integer moments m(s) = integral x^(s+alpha) exp(-n V(x)) dx.  The
correlation kernel and its Christoffel-Darboux form through a 3x3 matrix
boundary-value problem sit on top.

For the Laguerre field V(x) = x both families are also explicit
(Konhauser's and Carlitz's polynomials), and :func:`laguerre_kernel` sums
the kernel from them with no moments at all; the hard-edge scaling
experiment runs on it.  The LDU stays the route of a callable field, of
the certificates and of the matrix cross-checks.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Union

from mpmath import mp, mpf, mpc

from .mpcore import (
    _LN2,
    NumericalError,
    SingularMatrixError,
    ldu_decompose,
    quad_ts,
    unit_lower_inverse,
    unit_upper_inverse,
    working,
)
from .kernel import _meijer_or_diag
from .specfun import _LOG10_2, _measured_passes


class DomainExtensionError(NumericalError, ValueError):
    """No finite quadrature box captured the moment tail."""


def _twice(s):
    """Validate a half-integer exponent and return 2s as an int."""
    two = mpf(2) * mpf(s)
    if two != mp.floor(two):
        raise ValueError("exponent %r is not a half-integer" % (s,))
    return int(two)


@dataclass
class MomentTable:
    """Half-integer moments of x^alpha exp(-n V(x)) on [0, oo).

    values maps the doubled exponent 2s (an int >= 0) to the moment
    integral x^(s+alpha) exp(-n V(x)) dx; value() takes s itself.  dps is
    the number of digits :func:`moments` was asked for, the digits every
    system built from the table works at.
    """

    alpha: mpf
    n: int
    V: Union[str, Callable]
    values: Dict[int, mpf]
    dps: int

    def value(self, s):
        key = _twice(s)
        if key not in self.values:
            raise KeyError(
                "moment s=%s not tabulated (have 2s <= %d)" % (s, self.smax2))
        return self.values[key]

    @property
    def smax2(self):
        return max(self.values) if self.values else -1


def _tail_box(alpha, n, V, smax):
    """Right endpoint X of the moment quadrature, and the peaks inside
    [0, X] at which :func:`moments` splits its tanh-sinh pass, at the
    working precision of :func:`moments` that it runs under.

    Where the integrand rises at a doubling point p and does not at 2p,
    the two bracket a local maximum of its logarithm; :func:`_peak` finds
    one.  A point passes when the integrand x^(smax+alpha) exp(-n V(x)) is
    below 10^-mp.dps of its largest value at the doubling points 4 * 2^i,
    up to the cap 4 * 2^59, and at those maxima, and falling (a step of
    2^-20 x does not raise it) or rising only into a maximum its bracket
    holds below that bound.  The bound is relative to the integrand's
    size, so a small moment keeps the working digits as a large one does,
    and a well whose peak lies below it is left out of the box.  X lies
    beyond every doubling point that fails: the last failing point p and
    2p bracket the last crossing, and eight halvings of that bracket on
    the same test bring X to within 2^-9 X of it, where doubling alone
    overshoots it by up to 2x.  X = 4 when every point passes; a failure
    at the cap raises :class:`DomainExtensionError`.

    So a well of exp(-n V) beyond 4 is seen when the integrand is above the
    bound or still rising at some doubling point below its peak, as for any
    V that only falls and then rises (with smax + alpha >= 0, so that the
    power does not outweigh the fall of V), however narrow the well.  A
    well that lies wholly between two doubling points at which the
    integrand is already small and falling is not seen: that needs V to
    turn down again between them.

    Each bracketed maximum below X is a peak.  tanh-sinh clusters its
    nodes at the ends of each piece, so a well whose peak is split off is
    resolved however narrow it is, where one pass over [0, X] that puts
    it deep inside fails to converge.  A V whose doubling points bracket
    no maximum (V = x with smax + alpha < 4n) has no peaks.
    """
    power = mpf(smax) + alpha

    def log_integrand(x):
        return power * mp.log(x) - n * V(x)

    def probe(x):
        """The log-integrand at x, and whether it rises there."""
        here = log_integrand(x)
        return here, log_integrand(x + x / 2 ** 20) > here

    points = [mpf(4) * 2 ** i for i in range(60)]
    probes = [probe(x) for x in points]
    # the bracketed maximum, and the log-integrand there, of each point
    # that rises while the next one does not
    tops = [None] * len(points)
    for i, ((_, up), (_, up_next)) in enumerate(zip(probes, probes[1:])):
        if up and not up_next:
            x = _peak(log_integrand, points[i], points[i + 1])
            tops[i] = (x, log_integrand(x))
    # the test integrand < 10^-mp.dps * its largest value at the doubling
    # points and the bracketed maxima, in logs
    log_bound = (max([here for here, _ in probes]
                     + [v for _, v in filter(None, tops)])
                 - mp.dps * mp.ln10)

    def passes(here, rising, top=None):
        return here < log_bound and (
            not rising or top is not None and top[1] < log_bound)

    failing = [x for x, pr, top in zip(points, probes, tops)
               if not passes(*pr, top)]
    if not failing:
        return points[0], []
    lo = failing[-1]
    if lo == points[-1]:
        raise DomainExtensionError(
            "moment integrand not below 10^-%d of its largest probed value "
            "by X=%s; V grows too slowly" % (mp.dps, mp.nstr(lo, 5)))
    X = 2 * lo
    for _ in range(8):
        mid = (lo + X) / 2
        if passes(*probe(mid)):
            X = mid
        else:
            lo = mid
    return X, [x for x, _ in filter(None, tops) if x < X]


#: a float envelope whose terms reach this size in all is not trusted to
#: a bit (:func:`_envelope`)
_ENVELOPE_RANGE = 2.0 ** 40


def _float_log(x):
    """ln x of a positive mpf x as a float, from its mantissa and exponent,
    so that an x below the float range (a node next to 0) has one too; it
    is off by at most 2^-51 (|ln x| + prec) nats."""
    _, man, exp, _ = x._mpf_
    return math.log(man) + exp * _LN2


def _envelope(log_power, n, Vt, log_r, count, pair):
    """The envelope (log v, log r, pair) that ``quad_ts(..., powers=count)``
    skips nodes by, for log v = log_power - n V(t), Vt the value V(t) (any
    real number); ``pair()`` evaluates the node.

    Each float step (a conversion, a log, a product, a sum) is off by at
    most 2^-52 of the size it handles, and a term takes a few of them, so
    log v + k log r, k < count, is off by at most 2^-48 (S + count prec)
    nats, S = |log_power| + |nv| + count |log r| (prec from the log of a
    mantissa, :func:`_float_log`): under 2^-7 nats, far inside quad_ts's
    one bit, while S < _ENVELOPE_RANGE = 2^40 (count prec is below 2^30
    for any table short of a million moments at a thousand digits).
    Beyond it, or where a term is not finite (a V that overflows a float,
    or returns an infinity or a nan), the envelope is nan, and the node is
    always evaluated.
    """
    try:
        nv = n * float(Vt)
    except OverflowError:  # an integer V(t) beyond the float range
        nv = math.inf
    if abs(log_power) + abs(nv) + count * abs(log_r) < _ENVELOPE_RANGE:
        return log_power - nv, log_r, pair
    return math.nan, math.nan, pair


#: a peak search stops when its bracket is below this share of its right end
_PEAK_WIDTH = 2.0 ** -40
_GOLDEN = (math.sqrt(5) - 1) / 2


def _peak(f, lo, hi):
    """A local maximum of ``f`` (an mpf function) in [lo, hi], by a
    golden-section search on its float values, to a bracket narrower than
    _PEAK_WIDTH hi; about 60 calls of ``f``.  It is a split point of the
    moment quadrature, which any point of the bracket leaves correct: the
    search only puts it where the split helps, on the maximum to float
    accuracy."""
    a, b = float(lo), float(hi)

    def value(x):
        return float(f(mpf(x)))

    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = value(c), value(d)
    while b - a > _PEAK_WIDTH * b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = value(d)
    return mpf((a + b) / 2)


def moments(alpha, n, V="laguerre", smax=8, dps=None):
    """Moment table for w(x) = x^alpha exp(-n V(x)), s = 0, 1/2, ..., smax.

    V is the tag "laguerre" (V(x) = x, closed form Gamma(s+alpha+1) /
    n^(s+alpha+1), stepped by m(s+1) = m(s) (s+alpha+1) / n from the two
    gamma values at s = 0 and 1/2) or a callable, in which case all
    moments are integrated together by one tanh-sinh pass over [0, X],
    whose endpoint clustering absorbs the x^alpha singularity at 0;
    for alpha < -1/2 the piece at 0 is integrated in u = x^(1/p),
    p = 1/(2 (1 + alpha)), where the singularity is p u^(-1/2) (tanh-sinh's
    cutoff is sized for blow-ups up to (x - a)^(-3/4));
    X is the box of :func:`_tail_box`, whose docstring says which wells of
    exp(-n V) it can and cannot see.  The pass is split at the peaks
    :func:`_tail_box` finds inside the box, one pass a piece, so that a
    narrow well lies at the end of a piece; without peaks it is one pass.
    Each node evaluates the pair (w(t), t^(1/2)), w(t) = exp(alpha log t
    - n V(t)) (in u, p times the power of u times exp(-n V(t))), one log,
    one exp, one square root and one call of V however many moments the
    table holds, and :func:`~mbhalf.mpcore.quad_ts` with ``powers`` sums
    every moment's w(t) t^(k/2) over a level from integer mantissas.

    A node first returns its envelope: V(t) and the float logs
    log w(t) = alpha log t - n V(t) and log t^(1/2), log t read off t's
    mantissa and exponent (:func:`_envelope`, which also proves them good
    to far better than the bit quad_ts allows).  quad_ts then finishes
    the pair only at the nodes whose term can reach one of a level's sums
    within B + k + 4 bits of its largest (B = prec + 40), from the same
    mpf V(t), so V is called once a node; a skipped node would have added
    exactly 0, so the table has the bits of the pass that evaluates every
    node.  In u the envelope takes the log and exp that give t, and the
    pair reuses them.
    """
    k2max = _twice(smax)
    vals = {}
    with working(dps) as d:
        alpha = mpf(alpha)
        if alpha <= -1:
            raise ValueError("alpha must exceed -1 for integrable moments")
        if V == "laguerre":
            for start in range(min(2, k2max + 1)):
                e = mpf(start) / 2 + alpha + 1
                m = mp.gamma(e) / mpf(n) ** e
                for k2 in range(start, k2max + 1, 2):
                    vals[k2] = m
                    m = m * (mpf(k2) / 2 + alpha + 1) / n
        else:
            X, peaks = _tail_box(alpha, n, V, mpf(k2max) / 2)

            af, count = float(alpha), k2max + 1

            def f(t):
                Vt = V(t)
                lt = _float_log(t)
                return _envelope(af * lt, n, Vt, lt / 2, count,
                                 lambda: (mp.exp(alpha * mp.log(t) - n * Vt),
                                          mp.sqrt(t)))

            # quad_ts's cutoff is sized for endpoint blow-ups up to
            # (t - a)^(-3/4), and t^alpha is stronger below alpha = -3/4:
            # for alpha < -1/2 the piece at 0 is taken in u = t^(1/p), where
            # the integrand is p u^(p (alpha + 1) - 1) = p u^(-1/2) times a
            # smooth factor
            p = max(mpf(1), 1 / (2 * (1 + alpha)))
            pf, cf = float(p), float(p * (alpha + 1) - 1)
            lpf = math.log(pf)

            def f_sub(u):
                lu = mp.log(u)
                t = mp.exp(p * lu)
                Vt = V(t)
                lf = float(lu)
                return _envelope(
                    lpf + cf * lf, n, Vt, pf * lf / 2, count,
                    lambda: (p * mp.exp((p * (alpha + 1) - 1) * lu - n * Vt),
                             mp.sqrt(t)))

            ends = peaks + [X]
            if p == 1:
                first = quad_ts(f, 0, ends[0], dps=d, powers=count)
            else:
                first = quad_ts(f_sub, 0, ends[0] ** (1 / p), dps=d,
                                powers=count)
            pieces = [first] + [quad_ts(f, a, b, dps=d, powers=count)
                                for a, b in zip(ends, ends[1:])]
            vals = dict(enumerate(mp.fsum(parts) for parts in zip(*pieces)))
        for k2, v in vals.items():
            if not (mp.isfinite(v) and v > 0):
                raise ValueError("moment 2s=%d came out nonpositive: %s"
                                 % (k2, mp.nstr(v, 8)))
        vals = {k: +v for k, v in vals.items()}
    return MomentTable(alpha=alpha, n=n, V=V, values=vals, dps=d)


@dataclass
class BiorthoSystem:
    """Triangular data of a biorthogonal family built from a MomentTable.

    p_coeffs[j] are the ascending coefficients of the monic degree-j
    polynomial p_j(x); q_coeffs[k] those of q_k as a polynomial in
    y = x^(1/2).  gram is the moment matrix G[j][k] = m(j + k/2) the pair
    diagonalizes.  The system carries its table's digits, table.dps.
    """

    nmax: int
    p_coeffs: List[List[mpf]]
    q_coeffs: List[List[mpf]]
    gram: List[List[mpf]]
    table: MomentTable

    def __post_init__(self):
        for j in range(self.nmax):
            if self.p_coeffs[j][j] != 1:
                raise ValueError("p_%d is not monic" % j)
            if any(self.p_coeffs[j][i] != 0 for i in range(j + 1, self.nmax)):
                raise ValueError("p_%d has coefficients above its degree" % j)
            if any(self.q_coeffs[j][i] != 0 for i in range(j + 1, self.nmax)):
                raise ValueError("q_%d has coefficients above its degree" % j)


def biortho_build(mt: MomentTable, nmax: int) -> BiorthoSystem:
    """Build p_0..p_{nmax-1}, q_0..q_{nmax-1} by LDU of the moment matrix.

    p-coefficients come from inverting the L factor (monic rows),
    q-coefficients from inverting D*U.  The build works at the table's
    digits d = mt.dps, since no working precision restores digits the
    moments never had.  The moment matrix is exponentially ill-conditioned
    in nmax, so a table too short for its size is refused with
    :class:`SingularMatrixError`: by the LDU's pivot test (a pivot below
    10^-(d/2) of its row), or when the biorthogonality residual exceeds
    10^-(w/3) at the build's working digits w.
    """
    need = 3 * (nmax - 1)
    if mt.smax2 < need:
        raise ValueError("moment table covers 2s <= %d but the build needs "
                         "2s <= %d" % (mt.smax2, need))
    with working(mt.dps) as d:
        G = [[mt.values[2 * j + k] for k in range(nmax)] for j in range(nmax)]
        try:
            L, D, U = ldu_decompose(G, dps=d)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "biorthogonal construction failed at degree %d: the %d-digit "
                "moment table is too short for nmax = %d"
                % (exc.minor - 1, d, nmax), minor=exc.minor)
        P = unit_lower_inverse(L)
        Uinv = unit_upper_inverse(U)
        Q = [[Uinv[l][k] / D[k] for l in range(nmax)] for k in range(nmax)]
        bs = BiorthoSystem(nmax=nmax, p_coeffs=P, q_coeffs=Q, gram=G,
                           table=mt)
        resid, w = biortho_residual(bs), mp.dps
        if resid > mpf(10) ** (-(w // 3)):
            raise SingularMatrixError(
                "biorthogonality residual %s exceeds 10^-%d: the %d-digit "
                "moment table is too short for nmax = %d"
                % (mp.nstr(resid, 5), w // 3, d, nmax), minor=nmax)
    return bs


def biortho_residual(bs: BiorthoSystem):
    """max_jk |integral p_j q_k w - delta_jk|, by moment recombination;
    each of the two dot products is one exact-product ``mp.fdot``."""
    n = bs.nmax
    with working(bs.table.dps):
        worst = mpf(0)
        gram_cols = list(zip(*bs.gram))
        for j in range(n):
            # row of p_j against the moment matrix: integral p_j x^(k/2) w
            p = bs.p_coeffs[j][:j + 1]
            row = [mp.fdot(p, col[:j + 1]) for col in gram_cols]
            for k in range(n):
                val = mp.fdot(row[:k + 1], bs.q_coeffs[k][:k + 1])
                worst = max(worst, abs(val - (1 if j == k else 0)))
        return +worst


def _half_moment(bs, coeffs, k):
    """integral P(x) x^(k/2) w(x) dx for a coefficient list P."""
    return mp.fdot((c, bs.table.values[2 * i + k])
                   for i, c in enumerate(coeffs) if c != 0)


def multiple_orthogonality_check(bs: BiorthoSystem):
    """Max residual of the split orthogonality conditions.

    For each degree d, p_d must kill x^k against both weights
    w_1 = w and w_2 = x^(1/2) w, for k = 0..floor((d-i)/2); these are the
    degree-d conditions re-indexed by parity of the half-power, so the
    residual is pure rounding noise for a correctly built system.
    """
    worst = mpf(0)
    with working(bs.table.dps):
        for d in range(1, bs.nmax):
            row = bs.p_coeffs[d][:d + 1]
            for i in (1, 2):
                top = (d - i) // 2
                for k in range(top + 1):
                    # x^k w_i = x^(k + (i-1)/2) w
                    val = _half_moment(bs, row, 2 * k + (i - 1))
                    worst = max(worst, abs(val))
        return +worst


def _weight(mt: MomentTable, y):
    """w(y) = y^alpha exp(-n V(y))."""
    Vfun = (lambda t: t) if mt.V == "laguerre" else mt.V
    return y ** mt.alpha * mp.exp(-mt.n * Vfun(y))


def finite_kernel(bs: BiorthoSystem, x, y):
    """K_n(x, y) = w(y) * sum_{j<n} p_j(x) q_j(y^(1/2)),  n = bs.nmax.

    Not symmetric in (x, y): the second slot goes through the dual family.
    Evaluated by Horner at the system's digits, table.dps (the coefficients
    cancel heavily for x, y inside the bulk).
    """
    with working(bs.table.dps):
        x = mpf(x)
        rt = mp.sqrt(mpf(y))
        total = mp.fsum(
            mp.polyval(bs.p_coeffs[j][j::-1], x)
            * mp.polyval(bs.q_coeffs[j][j::-1], rt)
            for j in range(bs.nmax))
        val = _weight(bs.table, mpf(y)) * total
        return +val


def laguerre_kernel(alpha, n, x, y, dps=None):
    """K_n(x, y) for w(x) = x^alpha exp(-n x) from the closed-form families,
    with no moment table and no LDU, in O(n^2) operations.

    At theta = 1/2 both families are explicit.  With t = n x, u = n y and
    e_k(t) = sum_{i<=k} t^i / i!:

    * q_j(y^(1/2)) = Z_j / h_j, with Konhauser's
      Z_j = sum_{r<=j} (-1)^r C(j, r) u^(r/2) / Gamma(r/2 + alpha + 1) and
      h_j = (-1)^j j! 2^-j n^-(alpha+j+1) (Konhauser, Pacific J. Math. 1967);
    * p_j(x) = (-2n)^-j P_j with P_j = sum_{r<=j} (-1)^r (2r + 2alpha + 2)_j
      t^r / r! e_(j-r)(t): Carlitz's Y_j (Pacific J. Math. 1968) with the
      double sum of his D(i, j) swapped;

    so K_n(x, y) = w(y) n^(alpha+1) sum_{j<n} P_j Z_j / j!.  Each P_j and
    Z_j is one exact-product ``mp.fdot`` over rows built once: t^r / r!
    and its partial sums e_k, 1/Gamma stepped in r by 2 from two values
    (``mp.rgamma`` of alpha + 1 and alpha + 3/2: 1/Gamma is entire, and
    near alpha = -1 the seed 1/Gamma(alpha + 1) ~ alpha + 1 keeps its
    digits), the binomial row, and the Pochhammer row, which gains its entry
    (2j + 2alpha + 2)_j by a three-factor step and multiplies the rest by
    one factor per j.

    The sums hardly cancel at hard-edge points x, y ~ n^-3 but do in the
    bulk: (x, y) = (0.5, 1.5) loses 22 digits at n = 32.  The loss is the
    largest term of any P_j or Z_j, carried to the outer sum, against that
    sum, and :func:`~mbhalf.specfun._measured_passes` reruns with it.
    alpha, x and y are read at each pass's working digits, and alpha <= -1
    raises ValueError.
    """
    if n < 1:
        raise ValueError("the kernel needs n >= 1, got %r" % (n,))
    raw = alpha, x, y

    def run(d):
        alpha, x, y = map(mpf, raw)
        if alpha <= -1:
            raise ValueError("alpha must exceed -1, got %s" % alpha)
        t, c = n * x, 2 * alpha + 2
        g = [mpf(1)]                           # t^r / r!
        for r in range(1, n):
            g.append(g[-1] * t / r)
        e = list(accumulate(g))                # e_k(t)
        rg = [mp.rgamma(alpha + 1), mp.rgamma(alpha + mpf(3) / 2)]
        for r in range(2, n):
            rg.append(rg[r - 2] / (mpf(r) / 2 + alpha))
        su, power, U = mp.sqrt(n * y), mpf(1), []
        for r in range(n):
            U.append(power * rg[r] if r % 2 == 0 else -power * rg[r])
            power *= su
        mag_e, mag_u = [mp.mag(v) for v in e], [mp.mag(v) for v in U]
        A, poch, binom = [], mpf(1), [1]       # poch = (2j + c)_j
        terms, big, fact = [], mp.ninf, mpf(1)
        for j in range(n):
            A.append(poch * g[j] if j % 2 == 0 else -poch * g[j])
            P = mp.fdot(A, e[j::-1])
            Z = mp.fdot(binom, U)
            terms.append(P * Z / fact)
            big_p = max(mp.mag(a) + m for a, m in zip(A, mag_e[j::-1]))
            big_z = max(b.bit_length() + m for b, m in zip(binom, mag_u))
            big = max(big, max(big_p + mp.mag(Z), big_z + mp.mag(P))
                      - mp.mag(fact))
            fact *= j + 1
            for r in range(j + 1):
                A[r] *= 2 * r + c + j
            poch *= ((3 * j + c) * (3 * j + c + 1) * (3 * j + c + 2)
                     / ((2 * j + c) * (2 * j + c + 1)))
            binom = [1] + [a + b for a, b in zip(binom, binom[1:])] + [1]
        total = mp.fsum(terms)
        value = y ** alpha * mp.exp(-n * y) * mpf(n) ** (alpha + 1) * total
        if not total:  # every digit lost, unless every term is zero
            return value, mp.dps if big > mp.ninf else 0
        return value, (big - mp.mag(total)) * _LOG10_2

    return _measured_passes(dps, 0, run)


def hard_edge_convergence(alpha, x, y, ns, ref_dps=30):
    """Scaled-kernel convergence table for V(x) = x.

    For each n in ns the kernel K_n comes from the closed-form families
    (:func:`laguerre_kernel`, at ref_dps digits) and is compared, after the
    substitution u -> u/(cV n)^3 with cV = 2^(-2/3) (so (cV n)^3 = n^3/4
    exactly), against the limiting kernel at (x, y) (its diagonal limit
    next to the diagonal).  The error is O(1/n): 0.0227, 0.0121 and
    0.00621 at n = 32, 64 and 128 for alpha = 0, (x, y) = (1, 2).  Returns
    a list of (n, relative error) pairs.
    """
    ref = _meijer_or_diag(alpha, x, y, ref_dps)
    if ref == 0:
        raise ValueError("limiting kernel vanishes at (%s, %s); relative "
                         "error undefined" % (x, y))
    rows = []
    for n in ns:
        with working(ref_dps):
            scale = mpf(n) ** 3 / 4
            kn = laguerre_kernel(alpha, n, mpf(x) / scale, mpf(y) / scale,
                                 dps=ref_dps) / scale
        err = abs(kn - ref) / abs(ref)
        rows.append((n, +err))
    return rows


# ----------------------------------------------------------------------
# Christoffel-Darboux form through the 3x3 boundary-value matrix
# ----------------------------------------------------------------------

def _edge_rows(bs_big, n):
    """Second and third row-1 polynomials of the degree-n matrix problem.

    Row 2 must produce a Cauchy transform of exact growth z^(-ceil(n/2)) in
    column 2 and strictly faster decay in column 3; row 3 the mirror image.
    Expanding the transforms in 1/z turns that into moment conditions which
    p_{n-1} and p_{n-2} already satisfy except for one leftover each, fixing
    the combinations below.  The parity swap follows the ceil/floor split.
    """
    P = bs_big.p_coeffs
    pn1, pn2 = P[n - 1][:n], P[n - 2][:n - 1]
    m_n1_p1 = _half_moment(bs_big, pn1, n - 1)
    m_n1_p2 = _half_moment(bs_big, pn2, n - 1)
    m_n2_p2 = _half_moment(bs_big, pn2, n - 2)
    two_pi_i = 2j * mp.pi
    B = -two_pi_i / m_n2_p2
    A = -B * m_n1_p2 / m_n1_p1
    C = -two_pi_i / m_n1_p1
    combo = [A * c for c in pn1]
    for i, c in enumerate(pn2):
        combo[i] += B * c
    single = [C * c for c in pn1]
    if n % 2 == 0:
        return combo, single
    return single, combo


def _cauchy_box(bs, n, polys, dps):
    """Right endpoint T for the Cauchy-transform integrals."""
    bound = mpf(10) ** (-(dps + 8))
    T = mpf(8) / bs.table.n + 4
    for _ in range(60):
        size = max(mp.fsum(abs(c) * T ** i for i, c in enumerate(p))
                   for p in polys)
        if size * (1 + mp.sqrt(T)) * abs(_weight(bs.table, T)) < bound:
            return T
        T *= 2
    raise DomainExtensionError("Cauchy-transform tail does not decay")


def _y_plus(table, rows, x, T, dps):
    """Boundary value Y_+(x) of the 3x3 matrix at x > 0.

    Column 1 holds the three row polynomials p at x; columns 2 and 3 the
    boundary values from above of the Cauchy transforms
    C f(z) = (1/2pi i) integral_0^T f(t)/(t - z) dt of f = p w and
    f = p t^(1/2) w.  Subtracting f(x) leaves an integrand bounded at
    t = x, so the limit z -> x + i0 is one smooth integral and a closed
    form:

        C_+ f(x) = (1/2pi i) [integral_0^T (f(t) - f(x))/(t - x) dt
                              + f(x) (log((T - x)/x) + i pi)].

    All six integrands, complex rows as they are, ride on one vector
    tanh-sinh pass over [0, x] and one over [x, T], so that x is never a
    node; each node evaluates the weight, t^(1/2) and each polynomial once.
    """
    tops = [row[::-1] for row in rows]

    def funs(t):
        w, rt = _weight(table, t), mp.sqrt(t)
        out = []
        for top in tops:
            pw = mp.polyval(top, t) * w
            out += [pw, pw * rt]
        return out

    fxs = funs(x)

    def g(t):
        inv = 1 / (t - x)
        return [(f - fx) * inv for f, fx in zip(funs(t), fxs)]

    log_term = mp.log((T - x) / x) + 1j * mp.pi
    cs = [(u + v + fx * log_term) / (2j * mp.pi) for u, v, fx in
          zip(quad_ts(g, 0, x, dps=dps), quad_ts(g, x, T, dps=dps), fxs)]
    return [[mp.polyval(top, x), cs[2 * j], cs[2 * j + 1]]
            for j, top in enumerate(tops)]


def cd_formula_check(bs: BiorthoSystem, x, y, dps=30):
    """Relative defect of the Christoffel-Darboux matrix form of the kernel.

    Assembles Y_+(x), Y_+(y) for the degree-n boundary-value problem
    (n = bs.nmax) from p_n, p_{n-1}, p_{n-2} and their Cauchy transforms'
    boundary values at z = x (:func:`_y_plus`), forms

        (0, w(y), y^(1/2) w(y)) . Y_+(y)^(-1) . Y_+(x) . e_1 / (2 pi i (x-y))

    and returns |that - finite_kernel(bs, x, y)| / |finite_kernel|.  The
    identity is exact, so the residual is the quadrature's error and
    roundoff at the working digits dps.
    """
    n = bs.nmax
    if not 2 <= n <= 8:
        raise ValueError("matrix cross-check supported for 2 <= n <= 8")
    with working(dps):
        x, y = mpf(x), mpf(y)
        if x <= 0 or y <= 0 or x == y:
            raise ValueError("need x, y > 0 and x != y")
        bs_big = biortho_build(bs.table, n + 1)
        rows1 = [bs_big.p_coeffs[n][:n + 1], *_edge_rows(bs_big, n)]
        T = _cauchy_box(bs, n, rows1, dps)
        Yx = _y_plus(bs.table, rows1, x, T, dps)
        Yy = _y_plus(bs.table, rows1, y, T, dps)
        wy = _weight(bs.table, y)
        left = [mpc(0), wy, mp.sqrt(y) * wy]
        Yy_inv = mp.inverse(Yy).tolist()
        right = [Yx[i][0] for i in range(3)]
        mid = [mp.fdot(row, right) for row in Yy_inv]
        val = mp.fdot(left, mid)
        val /= 2j * mp.pi * (x - y)
        ref = finite_kernel(bs, x, y)
        return +(abs(val - ref) / abs(ref))


def y_growth_residual(bs: BiorthoSystem, z, dps=30):
    """|Y_22(z) * z^ceil(n/2) - 1| at a point far from [0, oo).

    Checks the prescribed large-z growth of the second matrix row; the
    residual is O(1/z) with an O(1) constant, so values well below 1 at
    |z| = 10^3 confirm the normalization of the row-2 polynomial.
    """
    n = bs.nmax
    if n < 2:
        raise ValueError("growth check needs at least two polynomials")
    with working(dps):
        z = mpc(z)
        if mp.im(z) == 0 and mp.re(z) >= 0:
            raise ValueError("z must avoid [0, oo)")
        bs_big = biortho_build(bs.table, n + 1)
        row2 = _edge_rows(bs_big, n)[0]
        T = _cauchy_box(bs, n, [row2], dps)
        top = row2[::-1]

        def fun(t):
            return mp.polyval(top, t) * _weight(bs_big.table, t) / (t - z)

        y22 = quad_ts(fun, 0, T, dps=dps) / (2j * mp.pi)
        return +abs(y22 * z ** mp.ceil(mpf(n) / 2) - 1)
