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

* :func:`mb_loop` -- the trapezoidal rule on one z-independent parabola
  s(u) = a + (1 + iu)^2 / 2, a just right of the numerator poles, valid for
  every parameter choice including resonant ones.  Every pole of the
  integrand lies on the line Im u = 1, so the rule with step 1/K is off by
  at most 2M / (e^(2 pi K) - 1), M bounding the integrand along the strip
  |Im u| < 1 (Trefethen & Weideman, SIAM Review 2014); K follows the
  working digits, and a faster chirp of z^(-s) on a high sheet raises it.
  The z-free weights are cached per exact b; z^(-s) costs three exps a
  call.  Each moment is one exact-product dot sum, rounded once, whose
  largest term measures the digits lost to cancellation; a pass that keeps
  too few reruns with more (specfun's measured passes).
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
  TOMS 2019).  A sheet k (z e^(2 pi i k)) changes only the factors
  z^(b_k), by e^(2 pi i k b_k), and the log z of the logarithmic family;
  the 0F2 sums depend on the complex number z alone.  So a caller that
  needs G on several sheets of one point gets them from one set of sums
  (:func:`_g3_triples`).

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

Each takes its three sheets as the turns (0, 1, -1) of one point (z for
phi, z e^{-pi i} for psi), so on the series route one scalar set costs
one 0F2 pass per family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import fp, mp, mpf, mpc
from mpmath.libmp import mpf_sub

from .mpcore import working, QuadratureConvergenceError
from .specfun import (_MAX_TERMS, _cancellation_digits, _measured_passes,
                      hyper0f2_log_theta, hyper0f2_theta,
                      SeriesConvergenceError)


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
    for b given by its mpf tuples ``bkey``, at ``dps`` digits (the raise of
    working(dps), so that the cache key fixes the precision)."""
    with working(dps):
        bb = [mp.make_mpf(x) for x in bkey]
        others = [bb[j] for j in range(3) if j != k]
        return mp.gamma(others[0] - bb[k]) * mp.gamma(others[1] - bb[k])


def _family_sums(bb, form, zc, dps):
    """The sheet-free part of the residue series at z = ``zc``: the 0F2
    sums at -z of each family, in the order :func:`_series_triples` takes
    them.  For ``form`` "plain", family k's (S0, S1, S2) of
    0F2(-; 1 + b_k - b_i, 1 + b_k - b_j; -z), {i, j} the other indices,
    weighted by b_k + n (:func:`hyper0f2_theta`); for a logarithmic pair
    (p, q, N), first the sums (S, R) of 0F2(-; 1 - c, N + 1; -z),
    c = b_r - b_p, weighted by b_p + n (:func:`hyper0f2_log_theta`), then
    family r's sums.  Each carries ``dps`` digits."""
    if form == "plain":
        sums, plain = [], range(3)
    else:
        p, q, n = form
        r = 3 - p - q
        sums = [hyper0f2_log_theta(1 - (bb[r] - bb[p]), n + 1, -zc, c=bb[p],
                                   dps=dps)]
        plain = (r,)
    for k in plain:
        i, j = (x for x in range(3) if x != k)
        sums.append(hyper0f2_theta(1 + bb[k] - bb[i], 1 + bb[k] - bb[j], -zc,
                                   c=bb[k], dps=dps))
    return sums


def _plain_part(bb, bkey, k, sums, point, dps):
    """Family k of the residue sum (simple poles s = -b_k - n) on the sheet
    of ``point``: z^(b_k) Gamma(b_i - b_k) Gamma(b_j - b_k) times its
    sheet-free sums (S0, S1, S2); the gamma and power factors carry
    ``dps`` digits."""
    pref = _plain_coef(bkey, k, dps) * point.power(bb[k], dps=dps)
    return [pref * x for x in sums]


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _log_coefs(bkey, pair, dps):
    """Gamma(c) (-1)^N / N!, H_0 = psi(1) + psi(N+1) + psi(c) with
    c = b_r - b_p, and the N residue coefficients
    (-1)^k Gamma(N-k) Gamma(b_r - b_q - k) / k! of family q's simple
    poles, for b given by its mpf tuples ``bkey`` and
    ``pair`` = (p, q, N) of :func:`_series_form`, at ``dps`` digits (the
    raise of working(dps), so that the cache key fixes the precision)."""
    p, q, n = pair
    with working(dps):
        bp, bq, br = (mp.make_mpf(bkey[i]) for i in (p, q, 3 - p - q))
        c = br - bp
        front = (-1) ** n * mp.gamma(c) / mp.factorial(n)
        h0 = mp.digamma(1) + mp.digamma(n + 1) + mp.digamma(c)
        simple = [(-1) ** k * mp.factorial(n - k - 1) * mp.gamma(br - bq - k)
                  / mp.factorial(k) for k in range(n)]
        return front, h0, simple


def _log_part(bb, bkey, pair, sums, point, dps):
    """Families p and q of the residue sum when b_p - b_q = N is an integer
    >= 0, as one theta triple on the sheet of ``point``, from the
    sheet-free sums (S0, S1, S2, R0, R1, R2) of :func:`_family_sums`.

    Family q's poles s = -b_q - k, k < N, are simple.  From s = -b_p on the
    poles of Gamma(b_p + s) and Gamma(b_q + s) coincide; with c = b_r - b_p,
    u = b_p + k and zeta = log z on the point's sheet, the double pole at
    s = -b_p - k has residue

        z^u Gamma(c) (-1)^N / N! t_k (H_0 + h_k - zeta),

    t_k the terms of 0F2(-; 1-c, N+1; -z) and h_k their sums of
    reciprocals (:func:`hyper0f2_log_theta`), H_0 = psi(1) + psi(N+1)
    + psi(c) (:func:`_log_coefs`).  theta^m of z^u (A - zeta) is
    z^u ((A - zeta) u^m - m u^(m-1)), so the triple is z^(b_p) front
    (a S_m + R_m - m S_(m-1)), a = H_0 - zeta.  Only zeta and the powers
    of z depend on the sheet.
    """
    p, q, n = pair
    bp, bq = bb[p], bb[q]
    front, h0, simple = _log_coefs(bkey, pair, dps)
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


def _sheets(point, turns):
    """``point`` turned by 2 pi k for each k of ``turns`` (the point itself
    for k = 0), at the working precision of its caller."""
    return [point.rotated(2 * k * mp.pi) if k else point for k in turns]


def _series_triples(b, point, turns, dps):
    """The theta triples of G^{3,0}_{0,3}(.|b) by the residue series on the
    sheets ``turns`` of ``point`` (:func:`g303_series`, which says what b
    it takes and what it raises).

    Only the factors z^(b_k) of the families and the log z of a
    logarithmic pair depend on the sheet; the 0F2 sums depend on the
    complex number z alone.  They are summed once, at ``point``
    (:func:`_family_sums`), and every sheet multiplies them by its own
    powers and logarithm (:func:`_plain_part`, :func:`_log_part`).
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
        sums = _family_sums(bb, form, point.to_mpc(dps=dc), dc)
        out = []
        for pt in _sheets(point, turns):
            if form == "plain":
                parts = [_plain_part(bb, bkey, k, sums[k], pt, dc)
                         for k in range(3)]
            else:
                p, q, _ = form
                parts = [_log_part(bb, bkey, form, sums[0], pt, dc),
                         _plain_part(bb, bkey, 3 - p - q, sums[1], pt, dc)]
            out.append(tuple(+sum(part[m] for part in parts)
                             for m in range(3)))
    return out


def g303_series(b, point, dps=None, with_theta=False):
    """G^{3,0}_{0,3}(z|b) by the residue series.

    With pairwise differences of the parameters a safe distance
    (RESONANCE_TOL) from the integers, the sum of the three Frobenius
    families (module docstring).  When exactly one pair differs by an
    integer, b_p - b_q = N >= 0 exactly (the exact mpf difference,
    :func:`_series_form`), families p and q collide and are summed as the
    logarithmic residue series of :func:`_log_part`, the third family
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

    This is the one-sheet case of :func:`_series_triples`, which sums the
    0F2 families once for all the sheets of one z that a caller asks for.
    """
    acc = _series_triples(b, point, (0,), dps)[0]
    if with_theta:
        return acc
    return acc[0]


# ----------------------------------------------------------------------
# Mellin-Barnes loop route
# ----------------------------------------------------------------------

#: the loop contour s(u) = a + _MU (1 + iu)^2 crosses the real axis at
#: a + _MU; a lies _OFFSET right of the rightmost pole of the numerator
_MU = mpf(0.5)
_OFFSET = mpf(0.3)
#: loop weight tables kept per exact b (its mpf tuples), m, K and digits;
#: least recently used tables are dropped beyond this many
_LOOP_CACHE_SIZE = 16
#: digits beyond the requested ones of a first loop pass
_LOOP_EXTRA = 6
#: above this modulus the first pass also takes the a priori cancellation
#: of an entire series of |z| (specfun's _cancellation_digits)
_LOOP_CANCEL_FROM = 10
#: the step resolves a chirp of local frequency F (cycles per unit u) when
#: K >= F + K_D / _CHIRP_MARGIN, K_D the K of the pass's digits; K rises in
#: steps of K_D / _CHIRP_MARGIN, so that nearby points share a table
_CHIRP_MARGIN = 3
#: a pass reports its loss rounded up to a multiple of this many digits, so
#: that nearby points rerun at the same digits and share a table
_LOSS_STEP = 8
#: nodes on either side of u = 0 before the loop gives up
_MAX_NODES = 2000
_LN2 = math.log(2)


def _nodes_per_unit(digits):
    """K, the reciprocal of the trapezoidal step h, that puts the pole-line
    bound 2M / (e^(2 pi K) - 1) below 10^-digits M."""
    return math.ceil(digits * math.log(10) / (2 * math.pi))


class _LoopWeights:
    """The z-free factors of the loop's trapezoidal sum for one (b, m, K,
    digits): at the nodes u_k = k h, h = 1/K, k >= 0, the moment weights
    (w_k, -s_k w_k, s_k^2 w_k), w_k = h s'(u_k) P(s_k) with
    P(s) = prod_{j<m} Gamma(b_j+s) prod_{j>=m} 1/Gamma(1-b_j-s), and the
    floats log|w_k|, log|s_k| and d/du arg w at u_k (from float digammas;
    0 for |u_k| < 1).

    b is real, so s(-u) = conj s(u), P(conj s) = conj P(s) and
    s'(-u) = -conj s'(u): node -k carries minus the conjugates of node k's
    weights (:attr:`mirror`), the same logs and the same d/du arg w, and
    gamma is called for k >= 0 only.  Nodes are added outward from u = 0 on
    demand, at the precision of the loop pass that adds them, whose digits
    are part of the table's key.
    """

    def __init__(self, b, m, K):
        self.b, self.m, self.K, self.h = b, m, K, mpf(1) / K
        self.a = max(-b[j] for j in range(m)) + _OFFSET
        self.weights = ([], [], [])
        self.mirror = ([], [], [])
        self.logs = []

    def grow(self, n):
        """Make the nodes k < n available."""
        if n <= len(self.logs):
            return
        mu, bf = float(_MU), [float(x) for x in self.b]
        for k in range(len(self.logs), n):
            t = mpc(1, k * self.h)                      # 1 + iu
            s = self.a + _MU * t * t
            w = self.h * 2 * _MU * mpc(0, 1) * t        # h s'(u)
            for j, bj in enumerate(self.b):
                w *= mp.gamma(bj + s) if j < self.m else mp.rgamma(1 - bj - s)
            ws = -s * w
            for here, there, v in zip(self.weights, self.mirror,
                                      (w, ws, -s * ws)):
                here.append(v)
                there.append(-mp.conj(v))
            # d/du log w = i/(1 + iu) + s'(u) (sum of digammas), for
            # |u| >= 1 only: the zeros of w lie on the real s axis, which
            # the loop crosses at u = 0, and next to one arg w spins
            # without any chirp; from |u| = 1 on |Im s| >= 1
            rate = 0.0
            if k >= self.K:
                tc, sc = complex(t), complex(s)
                psi = sum(fp.digamma(bj + sc) if j < self.m
                          else fp.digamma(1 - bj - sc)
                          for j, bj in enumerate(bf))
                rate = (1j / tc + 2j * mu * tc * psi).imag
            self.logs.append((float(mp.log(abs(w))), float(mp.log(abs(s))),
                              rate))


@functools.lru_cache(maxsize=_LOOP_CACHE_SIZE)
def _loop_weights(bkey, m, K, digits):
    """The cached :class:`_LoopWeights` of b given by its mpf tuples
    ``bkey``, keyed by the exact b, m, K and the digits it is built at."""
    return _LoopWeights([mp.make_mpf(x) for x in bkey], m, K)


def _walk(table, sign, log_r, theta):
    """Walk the nodes k = 0, 1, ... on the side ``sign`` of u = 0.  Returns
    how many the sum takes (None past _MAX_NODES), the largest
    log-magnitude of each moment's terms, and the largest positive local
    frequency (1/2 pi) d/du arg of the terms, in cycles per unit u.

    In floats, term k of moment j has log-magnitude
    log|w_k| + j log|s_k| - Re(s_k) log r + theta Im(s_k), and its phase
    moves at d/du arg w + 2 mu (theta u - log r).  Far out log|P(s(u))|
    falls like -3 mu u^2 log(mu u^2) against the mu u^2 log r of z^(-s),
    so the terms are log-concave there and their ratios fall.  The walk
    stops at the first node k where, for every moment, the ratio of term k
    to term k-1 is at most 1/2 and no larger than the ratio before, and
    term k is below 2^-prec of the largest term: the terms beyond k then
    sum to less than term k.
    """
    a, h, mu = float(table.a), float(table.h), float(_MU)
    cut = -mp.prec * _LN2
    tops = [-math.inf] * 3
    chirp = 0.0
    prev = last = None
    for k in range(_MAX_NODES):
        table.grow(k + 1)
        lw, ls, rate = table.logs[k]
        u = sign * k * h
        lt = lw - (a + mu * (1 - u * u)) * log_r + theta * 2 * mu * u
        terms = (lt, lt + ls, lt + 2 * ls)
        tops = list(map(max, tops, terms))
        chirp = max(chirp, (rate + 2 * mu * (theta * u - log_r)) / (2 * math.pi))
        if prev is not None:
            ratios = [t - p for t, p in zip(terms, prev)]
            if (last is not None and max(ratios) <= -_LN2
                    and all(map(float.__le__, ratios, last))
                    and max(map(float.__sub__, terms, tops)) < cut):
                return k + 1, tops, chirp
            last = ratios
        prev = terms
    return None, tops, chirp


def _powers(v, q, r, n):
    """v q^(k^2) r^k for k = 0..n-1: two products a node, q^(2k+1) r
    stepping k to k+1."""
    out = []
    step, q2 = q * r, q * q
    for _ in range(n):
        out.append(v)
        v *= step
        step *= q2
    return out


def _loop_sums(table, zeta, right, left):
    """The three moments sum_k (w_k, -s_k w_k, s_k^2 w_k) z^(-s_k) over the
    nodes -left < k < right, each one ``mp.fdot`` (exact products, rounded
    once).  With s_k = a + mu (1 + ikh)^2,
    z^(-s_k) = z^(-(a+mu)) q^(k^2) r^k for q = e^(mu h^2 zeta) and
    r = e^(-2 i mu h zeta): three exps a call, none a node."""
    h = table.h
    v0 = mp.exp(-(table.a + _MU) * zeta)
    q = mp.exp(_MU * h * h * zeta)
    r = mp.exp(mpc(0, -2) * _MU * h * zeta)
    zs = _powers(v0, q, r, right) + _powers(v0, q, 1 / r, left)[1:]
    return [mp.fdot(here[:right] + there[1:left], zs)
            for here, there in zip(table.weights, table.mirror)]


def _loop_pass(bkey, m, point):
    """The three moments of one loop pass at the working precision (before
    the 1/(2 pi i)) and the decimal digits the worst of them lost to
    cancellation: log10 of its largest term over its value.

    K starts at the :func:`_nodes_per_unit` of the working digits, K_D, and
    where the terms chirp at up to F cycles per unit u rises by whole steps
    of K_D / _CHIRP_MARGIN (rounded up) to F + K_D / _CHIRP_MARGIN or more
    (:func:`mb_loop`).  The loss is rounded up to a multiple of
    _LOSS_STEP."""
    digits = mp.dps
    zeta = point._log()
    log_r, theta = float(zeta.real), float(zeta.imag)
    base = K = _nodes_per_unit(digits)
    step = math.ceil(base / _CHIRP_MARGIN)
    while True:
        table = _loop_weights(bkey, m, K, digits)
        (right, top_r, chirp_r), (left, top_l, chirp_l) = (
            _walk(table, sign, log_r, theta) for sign in (1, -1))
        if right is None or left is None:
            n = _MAX_NODES
            raise QuadratureConvergenceError(
                "loop sum did not meet its tail bound within %d nodes a side"
                % n, estimates=(_loop_sums(table, zeta, n - 1, n - 1)[0],
                                _loop_sums(table, zeta, n, n)[0]))
        short = max(chirp_r, chirp_l) + base / _CHIRP_MARGIN - K
        if short <= 0:
            break
        K += step * math.ceil(short / step)
    sums = _loop_sums(table, zeta, right, left)
    lost = max(((max(tr, tl) - mp.mag(x) * _LN2) / math.log(10)
                for x, tr, tl in zip(sums, top_r, top_l) if x), default=digits)
    return sums, _LOSS_STEP * math.ceil(lost / _LOSS_STEP)


def mb_loop(b, point, m=3, dps=None, with_theta=False):
    """G^{m,0}_{0,3}(z|b) by the trapezoidal rule on one parabola.

    Works on every sheet and for resonant parameters.  The loop is
    s(u) = a + mu (1 + iu)^2, u real, mu = 1/2, which runs from
    -infinity - i infinity through a + mu to -infinity + i infinity,
    counterclockwise around the numerator poles s_p = -b_j - n (j < m);
    a = max_{j<m}(-b_j) + 0.3 lies right of all of them.  Each pole maps
    to u = +-sqrt((a - s_p)/mu) + i, so every pole of the integrand
    f(u) = P(s(u)) z^(-s(u)) s'(u) sits on the line Im u = 1 and f is
    analytic in the strip |Im u| < 1.  The trapezoidal rule with step
    h = 1/K is then off by at most 2M / (e^(2 pi K) - 1), M bounding the
    integral of |f| along the lines of the strip (Trefethen & Weideman,
    "The exponentially convergent trapezoidal rule", SIAM Review 2014).
    M grows with |z| as f does on the pole line, where the Gamma factors
    and z^(-s) make the terms of an entire series of |z|: about
    specfun's _cancellation_digits(|z|, 1/3) digits above |G|.

    A pass at working digits D takes K = ceil(D ln 10 / 2 pi), so the rule
    is good to about 10^-D of M.  The first pass asks for d + _LOOP_EXTRA
    = d + 6 digits (it keeps a measured loss up to 8; the calls of the
    tests and the benchmark at |z| <= 10 lose up to 5.6), plus the
    cancellation digits of |z| above |z| = 10.  Those, the losses a pass
    reports and the rises of K below all come in steps (_LOSS_STEP = 8
    digits, a third of K), so that nearby points share their tables: the
    chirp aside, all calls of one (b, m, d) at |z| <= 10 share one weight
    table (:class:`_LoopWeights`, cached per exact b, m, K and digits).  The
    weights are z-free; z^(-s) takes three exps (:func:`_loop_sums`).  The
    nodes stop on the tail bound of :func:`_walk`, at 2^-prec of the
    largest term, and past _MAX_NODES a side raises
    :class:`QuadratureConvergenceError` with the last two estimates.

    The bound above holds the aliases that shifting the line of
    integration toward the poles bounds: those of the terms' negative
    frequencies.  For the positive ones the line moves away from the
    poles, f is entire there, and the spectrum ends where the phase of the
    terms stops turning.  Far out on a high sheet arg z^(-s) turns like
    theta mu u^2 (a chirp), and the rule resolves it only when K exceeds
    the largest positive local frequency F of the terms the walk keeps.  K
    is raised to F plus a third of the K of the digits or more (a table of
    its own) where it falls short.  That margin is measured, not proven: at
    |theta| = 5 pi to 8 pi, m = 1..3, a margin of 3 to 4 left errors of
    10^-44 to 10^-57 of the largest term, one of 7 to 8 reached 10^-73.
    On sheets -2..2 only m = 1, 2 near |theta| = 5 pi need it.

    Rounding: each moment is one exact-product dot sum rounded once, so it
    is off by at most about 2^-prec (|sum| + sum_k ((k + 4)^2 / 2 + 4)
    |T_k|), T_k its terms: a few ulps of a term from its rounded weight and
    k^2/2 + 4k from the k steps of q^(k^2) r^k.  The largest term over the
    moment measures the loss, and a pass that keeps fewer than d + 8 digits
    reruns with the loss as its extra digits (specfun's
    :func:`_measured_passes`, which raises :class:`SeriesConvergenceError`
    after three passes).  Those 8 digits hold the log10(k^2/2) of the
    powers: 2.9 where the largest term sits at node 38 (sheet 2 at
    |z| = 1.25), 4.7 at node 307 (m = 2, |z| = 10^3, theta = -7 pi, K
    raised to 46).
    """
    extra = _LOOP_EXTRA
    if float(point.modulus) > _LOOP_CANCEL_FROM:
        lost = _cancellation_digits(point.modulus, 1.0 / 3.0)
        extra += _LOSS_STEP * math.ceil(lost / _LOSS_STEP)

    def run(d):
        bkey = tuple(mpf(x)._mpf_ for x in b)
        sums, lost = _loop_pass(bkey, m, point)
        front = 1 / (2 * mp.pi * mpc(0, 1))
        return tuple(front * x for x in sums), lost

    out = _measured_passes(dps, extra, run)
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


def _g3_triples(b, point, turns, dps):
    """The theta triples of G^{3,0}_{0,3}(.|b) on the sheets ``turns`` of
    ``point`` (turned by 2 pi k for each k), one per turn, by the route of
    :func:`pick_route`: the series sums its 0F2 families once for all of
    them (:func:`_series_triples`), the loop makes one :func:`mb_loop` call
    a sheet."""
    if pick_route(b, 3) == "series":
        return _series_triples(b, point, turns, dps)
    return [mb_loop(b, pt, m=3, dps=dps, with_theta=True)
            for pt in _sheets(point, turns)]


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
    with working(dps) as d:
        a = mpf(alpha)
        b = (mpf(0), -a, -a - mpf("0.5"))
        e_plus = mp.exp(mpc(0, 1) * 2 * mp.pi * a)   # e^{2 pi i a}
        g0, gp, gm = _g3_triples(b, point, (0, 1, -1), d)
        phi1 = _txc(gp, mpc(0, 1) * e_plus)
        phi2 = _txc(gm, mpc(0, -1) / e_plus)
        phi3 = tuple(+x for x in g0)
        phi4 = _tadd(phi1, phi2)
        return ScalarTriples(phi1, phi2, phi3, phi4)


def psi_scalars(alpha, point, dps=None):
    """Triples for psi1..psi4 at a sector point."""
    with working(dps) as d:
        a = mpf(alpha)
        b = (mpf(0), a, a + mpf("0.5"))
        pi_ = mp.pi
        e_plus = mp.exp(mpc(0, 1) * 2 * pi_ * a)
        g_m1, g_p1, g_m3 = _g3_triples(b, point.rotated(-pi_), (0, 1, -1), d)
        psi1 = tuple(+x for x in g_m1)
        psi2 = tuple(+x for x in g_p1)
        psi3 = _txc(_tadd(g_m3, _txc(g_m1, mpc(-1))), mpc(0, 1) * e_plus)
        psi4 = _tadd(psi2, _txc(psi1, mpc(-1)))
        return ScalarTriples(psi1, psi2, psi3, psi4)


def psi3_alternate(alpha, point, dps=None):
    """psi3 via the other analytic-continuation identity (consistency check):
    psi3 = i e^{-2 pi i a} (G(z e^{pi i}) - G(z e^{3 pi i})).
    """
    with working(dps) as d:
        a = mpf(alpha)
        b = (mpf(0), a, a + mpf("0.5"))
        pi_ = mp.pi
        e_minus = mp.exp(mpc(0, -1) * 2 * pi_ * a)
        g_p1, g_p3 = _g3_triples(b, point.rotated(+pi_), (0, 1), d)
        return _txc(_tadd(g_p1, _txc(g_p3, mpc(-1))), mpc(0, 1) * e_minus)
