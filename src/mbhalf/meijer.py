"""Meijer G-functions of type G^{m,0}_{0,3} on arbitrary sheets.

The convention here is

    G^{m,0}_{0,3}(z | b1,b2,b3)
        = (1/2 pi i) oint_L  prod_{j<=m} Gamma(b_j + s)
                             prod_{j>m} 1/Gamma(1 - b_j - s)  z^{-s} ds,

with L a counterclockwise loop around the leftward ray containing the
poles s = -b_j - k (j <= m) of the numerator.  ``z`` is given as a
:class:`SectorPoint` (modulus, unrestricted argument), so the same code
evaluates every analytic continuation: z^{-s} = exp(-s (log r + i theta))
with the *total* angle.

Two independent evaluation routes:

* :func:`mb_loop` -- direct quadrature of the loop (two horizontal legs at
  Im s = +-1 plus a short vertical segment), valid for every parameter
  choice including resonant ones; Gamma decay beats z^{-s} on the legs.
  Each panel sum is an exact fixed-point dot product of cached integer
  weights with z^{-s}, rounded once, its error bounded against the
  panel's largest single term (:func:`_fixed_dot`).  The largest terms
  also measure the digits the loop loses to cancellation; past 10 digits
  (|z| of a few hundred near arg 0, where G is recessive) it reruns once
  with more Gauss-Legendre nodes and the working digits they win back.
  Above 39 requested digits the first pass already takes more nodes.
* :func:`g303_series` -- residue series.  With pairwise non-integer
  parameter differences, three Frobenius families

      G = sum_k z^{b_k} prod_{j!=k} Gamma(b_j - b_k)
                 0F2(-; 1 + b_k - b_{j1}, 1 + b_k - b_{j2}; -z).

  At exact resonance, b_p - b_q = N a nonnegative integer for exactly one
  pair (2a in Z for the model problem, a = 0 its default case), families
  p and q meet in double poles, whose residues carry log z: family q's
  first N poles stay simple and the rest is a logarithmic series in the
  terms of 0F2(-; 1 - c, N + 1; -z), c = b_r - b_p, and their sums of
  reciprocals (Luke, *The Special Functions and Their Approximations*,
  1969; Johansson, "Computing hypergeometric functions rigorously", ACM
  TOMS 2019).

theta-derivative triples (f, theta f, theta^2 f) come for free on both
routes: term weights (b_k + n)^m in the series (and their derivatives in
the logarithmic family), moments (-s)^m under the integral.

:func:`pick_route` names the route for given (b, m): the series for m = 3,
the logarithmic one at exact resonance; the loop for m != 3, and where b
sits in the series' resonance window (RESONANCE_TOL) without
being exactly resonant in one pair (near resonance, triple resonance).
The loop stays callable on its own at every b as the independent check of
the series.

The scalar assemblies phi_scalars / psi_scalars build the model-problem
entries on that route: with B = (0, -a, -a-1/2) and
G = G^{3,0}_{0,3}(. | B),

    phi3(z) = G(z),   phi1(z) = i e^{2 pi i a} G(z e^{2 pi i}),
    phi2(z) = -i e^{-2 pi i a} G(z e^{-2 pi i}),   phi4 = phi1 + phi2,

and with Bt = (0, a, a+1/2), Gt = G^{3,0}_{0,3}(. | Bt),

    psi1(z) = Gt(z e^{-pi i}),  psi2(z) = Gt(z e^{pi i}),
    psi3(z) = i e^{2 pi i a} (Gt(z e^{-3 pi i}) - Gt(z e^{-pi i})),
    psi4 = psi2 - psi1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add, mul

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, mpf_sub, round_nearest

from .mpcore import (_to_fixed, gamma, rgamma, legendre_nodes, working,
                     QuadratureConvergenceError)
from .specfun import (_MAX_TERMS, _cancellation_digits, hyper0f2_log_theta,
                      hyper0f2_theta, SeriesConvergenceError)

#: legs of the loop contour run at Im s = +- LOOP_ETA
LOOP_ETA = 1
#: panel width; the product recurrence in _LoopProducts assumes 2
_PANEL_WIDTH = 2
_MAX_PANELS = 160
_GL_ORDER = 64


@dataclass(frozen=True)
class SectorPoint:
    """A point z = modulus * exp(i * argument) with unrestricted argument.

    The argument is *not* reduced mod 2 pi: (r, 0) and (r, 2 pi) are the
    same complex number on different sheets of z^c.
    """
    modulus: object
    argument: object

    @classmethod
    def from_complex(cls, z, sheet=0, dps=None):
        with working(dps):
            zz = mpc(z)
            return cls(abs(zz), mp.arg(zz) + 2 * mp.pi * sheet)

    def rotated(self, dtheta):
        return SectorPoint(self.modulus, mpf(self.argument) + dtheta)

    def _log(self):
        return mpc(mp.log(mpf(self.modulus)), mpf(self.argument))

    def clog(self, dps=None):
        """log z = log r + i theta with the total angle."""
        with working(dps):
            return self._log()

    def power(self, c, dps=None):
        with working(dps):
            return mp.exp(mpc(c) * self._log())

    def to_mpc(self, dps=None):
        with working(dps):
            r, t = mpf(self.modulus), mpf(self.argument)
            return r * mpc(mp.cos(t), mp.sin(t))


#: a parameter difference b_i - b_j within this (float) distance of an
#: integer puts b in the series' resonance window (:func:`_series_form`)
RESONANCE_TOL = 1e-6
#: a difference b_i - b_j within this many units in the last place of the
#: larger |b| of an integer is taken as that integer (:func:`_series_form`)
_RESONANCE_ULPS = 8


def _series_form(b):
    """How the residue series sums G^{3,0}_{0,3}(.|b): ``"plain"`` when no
    pair of b differs by an integer to within RESONANCE_TOL (a float test);
    ``(p, q, N)`` when b_p - b_q = N >= 0 is an integer and no other pair is
    in that window (the logarithmic families); None when there is no series
    (the loop's case).

    The difference is taken exactly (no rounding) from the mpf values.
    It counts as the nearest integer N when it is off N by at most
    _RESONANCE_ULPS units in the last place of max(|b_p|, |b_q|) at the
    ambient precision, the one b was given in: a decimal collision such as
    0.2 - (-2.8) = 3 is not exact in binary.  A b that is resonant to many
    digits but not to its last few bits, or triply resonant, gets None.
    """
    bs = [float(x) for x in b]
    near = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2))
            if abs(bs[i] - bs[j] - round(bs[i] - bs[j])) < RESONANCE_TOL]
    if not near:
        return "plain"
    if len(near) != 1:
        return None
    i, j = near[0]
    bi, bj = mpf(b[i]), mpf(b[j])
    diff = mp.make_mpf(mpf_sub(bi._mpf_, bj._mpf_))
    n = int(mp.nint(diff))
    ulp = mp.ldexp(max(abs(bi), abs(bj)), -mp.prec)
    if abs(diff - n) > _RESONANCE_ULPS * ulp:
        return None
    return (i, j, n) if n >= 0 else (j, i, -n)


class ResonantParameterError(ValueError):
    """A parameter difference of G is within RESONANCE_TOL of an integer,
    but b is not exactly resonant in one pair alone: the residue series
    has no form there, and only the loop route evaluates G."""


# ----------------------------------------------------------------------
# residue series route
# ----------------------------------------------------------------------

#: the series' gamma and digamma constants are cached per exact b (its mpf
#: tuples), family and digits; least recently used ones are dropped beyond
#: this many, in each of the two caches
_COEF_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _plain_coef(bkey, k, dps):
    """Gamma(b_i - b_k) Gamma(b_j - b_k), {i, j} the indices other than k,
    for b given by its mpf tuples ``bkey``; the gamma values carry ``dps``
    digits."""
    bb = [mp.make_mpf(x) for x in bkey]
    others = [bb[j] for j in range(3) if j != k]
    return gamma(others[0] - bb[k], dps=dps) * gamma(others[1] - bb[k], dps=dps)


def _plain_family(bb, bkey, k, point, zc, dps):
    """Family k of the residue sum (simple poles s = -b_k - n) as the triple
    z^(b_k) Gamma(b_i - b_k) Gamma(b_j - b_k) (S0, S1, S2) of
    0F2(-; 1 + b_k - b_i, 1 + b_k - b_j; -z), {i, j} the other indices;
    its gamma, power and 0F2 factors carry ``dps`` digits."""
    others = [bb[j] for j in range(3) if j != k]
    pref = _plain_coef(bkey, k, dps) * point.power(bb[k], dps=dps)
    inner = hyper0f2_theta(1 + bb[k] - others[0], 1 + bb[k] - others[1],
                           -zc, c=bb[k], dps=dps)
    return [pref * x for x in inner]


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _log_coefs(bkey, pair, dps):
    """Gamma(c) (-1)^N / N!, H_0 = psi(1) + psi(N+1) + psi(c) with
    c = b_r - b_p, and the N residue coefficients
    (-1)^k Gamma(N-k) Gamma(b_r - b_q - k) / k! of family q's simple
    poles, for b given by its mpf tuples ``bkey`` and
    ``pair`` = (p, q, N) of :func:`_series_form`; the gamma values carry
    ``dps`` digits."""
    p, q, n = pair
    bp, bq, br = (mp.make_mpf(bkey[i]) for i in (p, q, 3 - p - q))
    c = br - bp
    front = (-1) ** n * gamma(c, dps=dps) / mp.factorial(n)
    h0 = mp.digamma(1) + mp.digamma(n + 1) + mp.digamma(c)
    simple = [(-1) ** k * mp.factorial(n - k - 1) * gamma(br - bq - k, dps=dps)
              / mp.factorial(k) for k in range(n)]
    return front, h0, simple


def _log_families(bb, bkey, pair, point, zc, dps):
    """Families p and q of the residue sum when b_p - b_q = N is an integer
    >= 0, as one theta triple.

    Family q's poles s = -b_q - k, k < N, are simple.  From s = -b_p on the
    poles of Gamma(b_p + s) and Gamma(b_q + s) coincide; with c = b_r - b_p,
    u = b_p + k and zeta = log z on the point's sheet, the double pole at
    s = -b_p - k has residue

        z^u Gamma(c) (-1)^N / N! t_k (H_0 + h_k - zeta),

    t_k the terms of 0F2(-; 1-c, N+1; -z) and h_k their sums of
    reciprocals (:func:`hyper0f2_log_theta`), H_0 = psi(1) + psi(N+1)
    + psi(c) (:func:`_log_coefs`).  theta^m of z^u (A - zeta) is
    z^u ((A - zeta) u^m - m u^(m-1)), so the triple is z^(b_p) front
    (a S_m + R_m - m S_(m-1)), a = H_0 - zeta.
    """
    p, q, n = pair
    bp, bq, br = bb[p], bb[q], bb[3 - p - q]
    front, h0, simple = _log_coefs(bkey, pair, dps)
    sums = hyper0f2_log_theta(1 - (br - bp), n + 1, -zc, c=bp, dps=dps)
    s, rs = sums[:3], sums[3:]
    a = h0 - point.clog(dps=dps)
    pref = front * point.power(bp, dps=dps)
    out = [pref * (a * s[0] + rs[0]),
           pref * (a * s[1] + rs[1] - s[0]),
           pref * (a * s[2] + rs[2] - 2 * s[1])]
    for k in range(n):
        u = bq + k
        term = simple[k] * point.power(u, dps=dps)
        out = [out[0] + term, out[1] + u * term, out[2] + u * u * term]
    return out


def g303_series(b, point, dps=None, with_theta=False):
    """G^{3,0}_{0,3}(z|b) by the residue series.

    With pairwise differences of the parameters a safe distance
    (RESONANCE_TOL) from the integers, the sum of the three Frobenius
    families (module docstring).  When exactly one pair differs by an
    integer, b_p - b_q = N >= 0 exactly (the exact mpf difference,
    :func:`_series_form`), families p and q collide and are summed as the
    logarithmic residue series of :func:`_log_families`, the third family
    as before.  Any other b within the RESONANCE_TOL window -- resonant to
    many digits but not exactly, or triply resonant -- raises :class:`ResonantParameterError`;
    callers should fall back to :func:`mb_loop`.  A logarithmic pair with
    N beyond specfun's _MAX_TERMS would need N simple-pole coefficients
    before its first term and raises :class:`SeriesConvergenceError`
    instead.  The gamma and digamma constants in front of the families
    depend on b and the digits alone and are cached by their exact values.

    The families cancel where G is recessive, by the digits an entire 0F2
    series of |z| = r loses (specfun's :func:`_cancellation_digits`, about
    2.4 r^(1/3)), so the sum is raised by that loss, and the gamma, power
    and 0F2 factors are asked for d + that loss digits.
    """
    form = _series_form(b)
    if form is None:
        raise ResonantParameterError(
            f"parameter differences of {tuple(float(x) for x in b)} are "
            f"within {RESONANCE_TOL} of integers without exactly one "
            "integer pair; series families collide")
    if form != "plain" and form[2] > _MAX_TERMS:
        raise SeriesConvergenceError(
            f"integer parameter gap {form[2]} exceeds the series' budget of "
            f"{_MAX_TERMS} terms", partial_sums=())
    lost = _cancellation_digits(point.modulus, 1.0 / 3.0)
    with working(dps, lost) as d:
        dc = d + lost
        bb = [mpf(x) for x in b]
        bkey = tuple(x._mpf_ for x in bb)
        zc = point.to_mpc(dps=dc)
        if form == "plain":
            parts = [_plain_family(bb, bkey, k, point, zc, dc)
                     for k in range(3)]
        else:
            p, q, _ = form
            parts = [_log_families(bb, bkey, form, point, zc, dc),
                     _plain_family(bb, bkey, 3 - p - q, point, zc, dc)]
        acc = [+sum(part[m] for part in parts) for m in range(3)]
    if with_theta:
        return tuple(acc)
    return acc[0]


# ----------------------------------------------------------------------
# Mellin-Barnes loop route
# ----------------------------------------------------------------------

#: loop product tables kept per exact b (its mpf tuples), m, dps and order;
#: least recently used tables are dropped beyond this many
_LOOP_CACHE_SIZE = 16
#: working digits of the loop beyond the requested ones
_LOOP_GUARD = 15
#: guard bits of the fixed-point panel sums (see :func:`_fixed_dot`)
_FIXED_GUARD = 24
#: a fixed-point vector made finer is made this many bits finer than asked,
#: so that later requests for a slightly finer scale reuse it
_FIXED_SLACK = 32
_NO_TOP = float("-inf")
_LOG10_2 = math.log10(2)


def _top(x):
    """e with |x| < 2^e for an mpf tuple x; -inf for zero."""
    return x[2] + x[3] if x[1] else _NO_TOP


class _Fixed:
    """Complex values v_k as integers at a common scale,
    v_k ~ (re[k] + i im[k]) 2^exp.

    ``tops[k]`` is the exponent of node k (|v_k| < 2^(tops[k] + 1/2) and
    |v_k| >= 2^(tops[k] - 1)), ``top`` the largest.  The integers are made
    when a dot product first asks for them and made finer only when a later
    one asks for a finer scale; a coarser request reuses them as they are.
    """

    def __init__(self, values):
        self._parts = [v._mpc_ for v in values]
        self.tops = [max(_top(re), _top(im)) for re, im in self._parts]
        self.top = max(self.tops, default=_NO_TOP)
        self.exp = None

    def at(self, e):
        """(exp, re, im) with exp <= e."""
        if self.exp is None or self.exp > e:
            if self.exp is not None:
                e -= _FIXED_SLACK
            self.re = [_to_fixed(re, e) for re, _ in self._parts]
            self.im = [_to_fixed(im, e) for _, im in self._parts]
            self.exp = e
        return self.exp, self.re, self.im


def _fixed_dot(x, y):
    """sum_k x_k y_k of two :class:`_Fixed` vectors, and the exponent ``top``
    of its largest term, 2^(top-2) <= max_k |x_k y_k| < 2^(top+1).

    The scales are set against that largest term, not against
    max|x| * max|y| (which can be many binary orders larger): with
    w = prec + _FIXED_GUARD, x is truncated at a scale of at most
    2^(top - y.top - w) and y at most 2^(top - x.top - w), the integer sums
    are exact, and the result is
    rounded once to the working precision, so for N terms

        |result - sum| <= 2^-prec |sum| + 17 N 2^-w max_k |x_k y_k|

    (truncation leaves |dx_k| < 2^(1/2) 2^(top - y.top - w), which against
    |y_k| < 2^(1/2) 2^y.top costs under 2^(top+1-w) per term and side, and
    2^top <= 4 max_k |x_k y_k|).

    The sum of a zero vector is 0 with top = -inf.
    """
    top = max(map(add, x.tops, y.tops), default=_NO_TOP)
    if top == _NO_TOP:
        return mpc(0), top
    prec = mp.prec
    w = prec + _FIXED_GUARD
    ex, xr, xi = x.at(top - y.top - w)
    ey, yr, yi = y.at(top - x.top - w)
    e = ex + ey
    re = sum(map(mul, xr, yr)) - sum(map(mul, xi, yi))
    im = sum(map(mul, xr, yi)) + sum(map(mul, xi, yr))
    return mp.make_mpc((from_man_exp(re, e, prec, round_nearest),
                        from_man_exp(im, e, prec, round_nearest))), top


def _exp_symmetric(xs, u):
    """[exp(x u) for x in xs] for nodes symmetric about 0
    (xs[-1-k] = -xs[k]): one exp per pair, its partner by a reciprocal."""
    n = len(xs)
    out = [None] * n
    for k in range((n + 1) // 2):
        e = mp.exp(xs[k] * u)
        out[k] = e
        out[n - 1 - k] = 1 / e
    return out


def _integrand_products(nodes, weights, b, m, dps):
    """w * P(s) at each node, P(s) = prod_{j<m} Gamma(b_j+s)
    prod_{j>=m} 1/Gamma(1-b_j-s), by direct gamma calls."""
    out = []
    for s, w in zip(nodes, weights):
        for j in range(3):
            if j < m:
                w *= gamma(b[j] + s, dps=dps)
            else:
                w *= rgamma(1 - b[j] - s, dps=dps)
        out.append(w)
    return out


def _moment_weights(nodes, g):
    """(g, -s g, s^2 g): dotted with z^(-s) they give the theta^0..2 moments."""
    gs = [-s * x for s, x in zip(nodes, g)]
    return g, gs, [-s * x for s, x in zip(nodes, gs)]


class _LoopProducts:
    """Moment weights of the loop integrand for one (b, m, dps, order), and
    the abscissa c = max_j(-b_j over numerator factors) + 1 of the vertical
    segment.

    Holds the weighted products w * P(s) at the nodes as the three lists of
    :func:`_moment_weights`, as :class:`_Fixed` vectors (:attr:`vertical`,
    :meth:`panel_fixed`) for the fixed-point sums of :func:`mb_loop`.  The
    vertical segment Re s = c, Im s in [-eta, eta] (weights include the i
    from ds) and panel 0, the horizontal legs over t in [c - 2, c] (bottom
    leg weight +w, top leg -w, i.e. counterclockwise), come from direct
    gamma calls.  Panel p covers t in [c - 2(p+1), c - 2p]; its node k is
    node k of panel p-1 shifted by -2 and, the half-width being 1 on every
    panel, carries the same weight.  With s' = s - 2 both
    Gamma(b+s') = Gamma(b+s) / ((b+s')(b+s'+1)) and
    1/Gamma(1-b-s') = (1/Gamma(1-b-s)) / ((b+s')(b+s'+1)), so each later
    panel follows from the last one built (nodes ``_s``, products ``_g``)
    by one division per node.  Panels are added on demand.  Everything runs
    at the precision of the :func:`mb_loop` call that builds or extends the
    table, whose ``dps`` is part of the table's key.
    """

    def __init__(self, b, m, dps, order=_GL_ORDER):
        self.b = b
        self.c = c = max(-b[j] for j in range(m)) + 1
        self.xs, ws = legendre_nodes(order, dps=dps)
        eta = mpf(LOOP_ETA)
        vs = [mpc(c, eta * x) for x in self.xs]
        vw = [mpc(0, 1) * eta * w for w in ws]
        self.vertical = [_Fixed(g) for g in _moment_weights(
            vs, _integrand_products(vs, vw, b, m, dps))]
        self._s, pw = [], []
        for x, w in zip(self.xs, ws):
            t = c - 1 + x                                  # half-width 1
            self._s += [mpc(t, -eta), mpc(t, eta)]         # bottom ->, top <-
            pw += [w, -w]
        self._g = _integrand_products(self._s, pw, b, m, dps)
        self._fixed = []

    def panel_fixed(self, pidx):
        """Panel pidx's moment weights as :class:`_Fixed` vectors."""
        while len(self._fixed) <= pidx:
            if self._fixed:
                s_next, g_next = [], []
                for s, g in zip(self._s, self._g):
                    s = s - _PANEL_WIDTH
                    div = 1
                    for bj in self.b:
                        bs = bj + s
                        div *= bs * (bs + 1)
                    s_next.append(s)
                    g_next.append(g / div)
                self._s, self._g = s_next, g_next
            self._fixed.append([_Fixed(g) for g in
                                _moment_weights(self._s, self._g)])
        return self._fixed[pidx]


@functools.lru_cache(maxsize=_LOOP_CACHE_SIZE)
def _loop_products(bkey, m, dps, order):
    """The cached :class:`_LoopProducts` of b given by its mpf tuples
    ``bkey``, keyed by the exact b, m, dps and order."""
    return _LoopProducts([mp.make_mpf(x) for x in bkey], m, dps, order)


def _loop_moments(bkey, m, point, d, wp, order):
    """The three loop moments (before the 1/(2 pi i)) and the decimal digits
    lost to cancellation in the worst of them.

    Runs at the caller's precision.  The loss of moment j is
    log10(max |term| / |moment j|), the terms being the products
    g_k z_k^(-s) of all panel sums, each bounded through
    :func:`_fixed_dot`'s ``top``.
    """
    zeta = point._log()
    tol = mpf(10) ** (-(d + 5))
    prods = _loop_products(bkey, m, wp, order)
    c = prods.c
    eta = mpf(LOOP_ETA)
    # vertical segment s = c + i eta x: z^(-s) = exp(-c zeta) exp(-i eta x zeta)
    zc = mp.exp(-c * zeta)
    zv = _Fixed([zc * e for e in _exp_symmetric(prods.xs, mpc(0, -eta) * zeta)])
    # panel 0, s = c - 1 + x -+ i eta: z^(-s) = exp((1-c) zeta) exp(-x zeta)
    # exp(+-i eta zeta), nodes ordered (lower leg, upper leg) per x
    z1 = mp.exp((1 - c) * zeta)
    rot = mp.exp(mpc(0, eta) * zeta)
    lower, upper = z1 * rot, z1 / rot
    z0 = _Fixed([v for e in _exp_symmetric(prods.xs, -zeta)
                 for v in (lower * e, upper * e)])
    acc, big = [], []
    for g in prods.vertical:
        t, tp = _fixed_dot(g, zv)
        acc.append(t)
        big.append(tp)
    # panels must at least clear the pole region before tail checks count
    p_min = int(max(4.0, (max(float(-x) for x in prods.b) + 6.0) / _PANEL_WIDTH))
    # z^(-s) on panel p is z^(-s) on panel 0 times (z^2)^p; |z^2| = r^2
    z2 = mp.exp(_PANEL_WIDTH * zeta)
    log2_z2 = _PANEL_WIDTH * float(mp.log(mpf(point.modulus), 2))
    zp = mpc(1)
    quiet = 0
    for pidx in range(_MAX_PANELS):
        if pidx:
            zp *= z2
        ts = []
        for j, g in enumerate(prods.panel_fixed(pidx)):
            t, tp = _fixed_dot(g, z0)
            ts.append(zp * t)
            big[j] = max(big[j], tp + pidx * log2_z2)
        prev = acc[0]
        acc = [a + t for a, t in zip(acc, ts)]
        scale = max(abs(a) for a in acc)
        psize = max(abs(t) for t in ts)
        if pidx >= p_min and psize <= tol * (scale or mpf(1)):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    else:
        raise QuadratureConvergenceError(
            "loop contour tail did not decay within the panel budget",
            estimates=(prev, acc[0]))
    loss = max((float(tp - mp.log(abs(a), 2)) * _LOG10_2
                for a, tp in zip(acc, big) if a), default=0.0)
    return acc, loss


#: decimal digits a Gauss-Legendre panel wins per node, 2 log10(1 + sqrt 2)
_DIGITS_PER_NODE = 2 * math.log10(1 + math.sqrt(2))
#: the error of a _GL_ORDER-node panel is about 10^-_GL_DIGITS of the
#: panel's largest term
_GL_DIGITS = 44.5


def _more_nodes(order, digits):
    """``order`` plus the nodes, in steps of 16, that win ``digits`` more
    digits (none if digits <= 0).

    The loop's integrand has poles on the real axis, a distance 1 from
    legs of half-width 1, so an n-point panel converges like
    (1 + sqrt 2)^(-2n), _DIGITS_PER_NODE = 0.77 digits per node; at order
    64 the error is about 10^-44.5 of the largest term.
    """
    return order + 16 * math.ceil(max(digits, 0) / _DIGITS_PER_NODE / 16)


def _first_order(d):
    """Gauss-Legendre order of the loop's first pass at d requested digits:
    64 up to d = 39, and above that the order whose panels reach d + 5
    digits of the largest term (80 at d = 40 to 51, 96 at d = 52 to 63)."""
    return _more_nodes(_GL_ORDER, d + 5 - _GL_DIGITS)


def _rerun_order(loss, order):
    """Gauss-Legendre order that wins back ``loss`` digits of panel
    discretization error on top of a first pass at ``order``, and the extra
    working digits that go with it: those the added nodes win back, never
    fewer than ``loss``.  Since they depend on the orders alone, each order
    has one product table at given d (25 digits at order 96 after 64).
    """
    rerun = _more_nodes(order, loss)
    return rerun, math.ceil((rerun - order) * _DIGITS_PER_NODE)


def mb_loop(b, point, m=3, dps=None, with_theta=False):
    """G^{m,0}_{0,3}(z|b) by loop-contour quadrature.

    Works on every sheet and for resonant parameters.  The loop consists
    of horizontal legs at Im s = +-1 from Re s = c down to Re s = -X and
    the closing vertical segment at Re s = c, with
    c = max_j(-Re b_j over numerator factors) + 1 so all integrand poles
    sit inside with margin 1.  X grows panel by panel (width 2,
    Gauss-Legendre 64 per leg piece up to d = 39) until two consecutive
    panels contribute below tolerance; the omitted closing piece at
    Re s = -X is then negligible because 1/Gamma(X)^m crushes |z|^X
    superexponentially.

    Gamma is called only on the vertical segment and the first panel.
    Every panel has the same half-width (1), so a node of panel p is the
    matching node of panel p-1 shifted by -2 with the same weight; the
    weighted gamma products follow by a two-step recurrence (see
    :class:`_LoopProducts`, cached per exact (b, m, dps, order)) and z^(-s)
    by one multiplication with z^2 = exp(2 zeta) per panel.  On panel 0 and
    the vertical segment z^(-s) factors into a constant times exp(x u) at
    the Gauss-Legendre nodes x, which are symmetric about 0, so one exp
    serves each node pair.

    Each panel sum is a fixed-point dot product (:func:`_fixed_dot`): the
    weights and the z^(-s) values become integers at scales set by the
    panel's largest single term |g_k z_k^(-s)|, the integer sums are exact
    and are rounded once, so a panel sum is off by at most one rounding
    plus 17 * 128 * 2^-(prec + 24) times that largest term, prec being the
    bits of the arithmetic (d + 25 digits; the loop's working digits are
    d + 15).

    The 64-node panels are accurate to about 10^-44.5 of the largest term
    whatever the precision, so more digits alone do not help: above
    d = 39 the first pass takes the order of :func:`_first_order`, which
    reaches d + 5 digits of the largest term.  The largest terms also
    measure cancellation: where G is recessive the moments are many orders
    below the terms that sum to them (20 digits at |z| = 10^3, arg 0).  If
    a moment loses more than _LOOP_GUARD - 5 = 10 digits, the loop runs
    once more at the Gauss-Legendre order of :func:`_rerun_order` and with
    the working digits that order wins back.
    """
    with working(dps, _LOOP_GUARD) as d:
        wp = d + _LOOP_GUARD
        bkey = tuple(mpf(x)._mpf_ for x in b)
        order = _first_order(d)
        acc, loss = _loop_moments(bkey, m, point, d, wp, order)
        if loss > _LOOP_GUARD - 5:
            order, extra = _rerun_order(loss, order)
            with working(d, _LOOP_GUARD + extra):
                acc, _ = _loop_moments(bkey, m, point, d, wp + extra, order)
        front = 1 / (2 * mp.pi * mpc(0, 1))
        out = tuple(+(front * a) for a in acc)
    if with_theta:
        return out
    return out[0]


# ----------------------------------------------------------------------
# scalar assemblies for the model problem
# ----------------------------------------------------------------------

@dataclass
class ScalarTriples:
    """Holder for (f, theta f, theta^2 f) triples of the four scalars."""
    f1: tuple
    f2: tuple
    f3: tuple
    f4: tuple


def pick_route(b, m):
    """The route that evaluates G^{m,0}_{0,3}(.|b): ``"series"``
    (:func:`g303_series`) for m = 3, its logarithmic form included where
    exactly one pair of b differs by an exact integer; ``"loop"``
    (:func:`mb_loop`) for m != 3 and for b within the series'
    RESONANCE_TOL window otherwise (near but not exact resonance, triple
    resonance)."""
    if m != 3 or _series_form(b) is None:
        return "loop"
    return "series"


def _g3_triple(b, point, dps):
    if pick_route(b, 3) == "series":
        return g303_series(b, point, dps=dps, with_theta=True)
    return mb_loop(b, point, m=3, dps=dps, with_theta=True)


def _txc(triple, const):
    return tuple(const * x for x in triple)


def _tadd(t1, t2):
    return tuple(x + y for x, y in zip(t1, t2))


def phi_scalars(alpha, point, dps=None):
    """Triples for phi1..phi4 at a sector point (any argument).

    phi4 is assembled as phi1 + phi2; downstream the identity
    phi4 = -4 pi^2 phi0 / (Gamma(1+a) Gamma(3/2+a)) ties it to the 0F2
    route.
    """
    a = mpf(alpha)
    b = (mpf(0), -a, -a - mpf("0.5"))
    with working(dps) as d:
        twopi = 2 * mp.pi
        e_plus = mp.exp(mpc(0, 1) * twopi * a)   # e^{2 pi i a}
        g0 = _g3_triple(b, point, d)
        gp = _g3_triple(b, point.rotated(+twopi), d)
        gm = _g3_triple(b, point.rotated(-twopi), d)
        phi1 = _txc(gp, mpc(0, 1) * e_plus)
        phi2 = _txc(gm, mpc(0, -1) / e_plus)
        phi3 = tuple(+x for x in g0)
        phi4 = _tadd(phi1, phi2)
        return ScalarTriples(phi1, phi2, phi3, phi4)


def psi_scalars(alpha, point, dps=None):
    """Triples for psi1..psi4 at a sector point."""
    a = mpf(alpha)
    b = (mpf(0), a, a + mpf("0.5"))
    with working(dps) as d:
        pi_ = mp.pi
        e_plus = mp.exp(mpc(0, 1) * 2 * pi_ * a)
        g_m1 = _g3_triple(b, point.rotated(-pi_), d)
        g_p1 = _g3_triple(b, point.rotated(+pi_), d)
        g_m3 = _g3_triple(b, point.rotated(-3 * pi_), d)
        psi1 = tuple(+x for x in g_m1)
        psi2 = tuple(+x for x in g_p1)
        psi3 = _txc(_tadd(g_m3, _txc(g_m1, mpc(-1))), mpc(0, 1) * e_plus)
        psi4 = _tadd(psi2, _txc(psi1, mpc(-1)))
        return ScalarTriples(psi1, psi2, psi3, psi4)


def psi3_alternate(alpha, point, dps=None):
    """psi3 via the other analytic-continuation identity (consistency check):
    psi3 = i e^{-2 pi i a} (G(z e^{pi i}) - G(z e^{3 pi i})).
    """
    a = mpf(alpha)
    b = (mpf(0), a, a + mpf("0.5"))
    with working(dps) as d:
        pi_ = mp.pi
        e_minus = mp.exp(mpc(0, -1) * 2 * pi_ * a)
        g_p1 = _g3_triple(b, point.rotated(+pi_), d)
        g_p3 = _g3_triple(b, point.rotated(+3 * pi_), d)
        return _txc(_tadd(g_p1, _txc(g_p3, mpc(-1))), mpc(0, 1) * e_minus)
