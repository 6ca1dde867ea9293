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
  call and an integer recurrence.  Each moment is one exact integer sum,
  rounded once, whose largest term measures the digits lost to
  cancellation; a pass that keeps too few reruns with more (specfun's
  measured passes).
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
  TOMS 2019).  A sheet t (z e^(2 pi i t)) changes only the factors
  z^(b_k), by e^(2 pi i t b_k), and the log z of the logarithmic family;
  the 0F2 sums depend on the complex number z alone.  So a weighted sum
  of sheets of one point, sum_t w_t G(z e^(2 pi i t)), is one set of sums
  with family k weighed by Lambda_k = sum_t w_t e^(2 pi i t b_k): the
  sheets combine per family (:func:`_g3_rows`).  Those weights depend on
  b, the sheets and the digits alone and are cached as one plan
  (:func:`_series_plan`); a family that every row weighs by exactly 0 is
  not summed.

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

Each scalar is one row of (turn, weight) pairs over one point (z for
phi, z e^{-pi i} for psi), so on the series route one scalar set costs at
most one 0F2 pass per family, and a scalar one product per family.
:func:`phi4_triple` and :func:`psi4_triple` give the rows of phi4 and
psi4 alone: turns (1, -1) of z and (1, 0) of z e^{-pi i}.  psi4 weighs
Gt's b = 0 family by e^0 - 1 = 0 at every alpha, and at alpha = 0 phi4
weighs all but its logarithmic pair's log term by 0, so those rows make
two passes and one.  b, its series form and the rows are cached per
exact alpha and digits (:func:`_frame_rows`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, mul, sub

from mpmath import fp, mp, mpf, mpc
from mpmath.libmp import from_man_exp, mpf_sub, round_nearest, to_fixed

from .mpcore import NumericalError, QuadratureConvergenceError, working
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

    def power(self, c, dps=None):
        with working(dps):
            return mp.exp(mpc(c) * self._log())

    def to_mpc(self, dps=None):
        with working(dps):
            r, t = mpf(self.modulus), mpf(self.argument)
            return r * mpc(*mp.cos_sin(t))


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


class ResonantParameterError(NumericalError, ValueError):
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
#: sheet phases e^(2 pi i k c) are cached per exact c, turn k and digits;
#: least recently used ones are dropped beyond this many
_PHASE_CACHE_SIZE = 256
#: series plans are cached per exact b, rows and digits; least recently
#: used ones are dropped beyond this many
_PLAN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _plain_coef(bkey, k, dps):
    """Gamma(b_i - b_k) Gamma(b_j - b_k), {i, j} the indices other than k,
    for b given by its mpf tuples ``bkey``, at ``dps`` digits (the raise of
    working(dps), so that the cache key fixes the precision)."""
    with working(dps):
        bb = [mp.make_mpf(x) for x in bkey]
        others = [bb[j] for j in range(3) if j != k]
        return mp.gamma(others[0] - bb[k]) * mp.gamma(others[1] - bb[k])


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


@functools.lru_cache(maxsize=_PHASE_CACHE_SIZE)
def _turn_phase(ckey, turn, dps):
    """e^(2 pi i turn c) for c given by its mpf tuple ``ckey``: the factor
    by which z^c changes when z turns ``turn`` times about the origin, at
    ``dps`` digits (the raise of working(dps), so that the cache key fixes
    the precision)."""
    with working(dps):
        return mp.expjpi(2 * turn * mp.make_mpf(ckey))


def _sheet_terms(c, row, dps):
    """w_t e^(2 pi i t c) for each (turn t, weight w_t) pair of ``row``:
    the weighted factors by which its sheets multiply z^c, whose sum is
    the row's Lambda.  Turn 0 takes its weight as it is, so the row
    ((0, 1),) gives exactly 1."""
    return [w * _turn_phase(c._mpf_, t, dps) if t else w for t, w in row]


def _weight_key(w):
    """A row weight as an exact cache key: an int as it is, an mpf as its
    mpf tuple, any other number as its mpc's pair of them."""
    if isinstance(w, int):
        return w
    return w._mpf_ if isinstance(w, mpf) else mpc(w)._mpc_


def _weight(key):
    """The row weight of a :func:`_weight_key`."""
    if isinstance(key, int):
        return key
    return mp.make_mpc(key) if len(key) == 2 else mp.make_mpf(key)


def _weighed(coef, lam):
    """coef Lambda for a row's Lambda: coef itself where Lambda is exactly
    1, None where it is exactly 0."""
    if lam == 0:
        return None
    return coef if lam == 1 else coef * lam


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _series_plan(bkey, form, rows, dps):
    """The point-free part of :func:`_series_rows` for b given by its mpf
    tuples ``bkey``, its :func:`_series_form` ``form`` (taken at the
    caller's precision) and ``rows`` of (turn t, :func:`_weight_key` of
    w_t) pairs, at ``dps`` digits (the raise of working(dps), so that the
    cache key fixes the precision).

    Each row weighs a family's triple at the point by one constant: a
    plain family k by Gamma(b_i - b_k) Gamma(b_j - b_k) Lambda_k
    (:func:`_plain_coef`, :func:`_sheet_terms`); a logarithmic pair by
    front Lambda_p, its simple poles by their coefficients times
    Lambda_p, and its turns' log term by 2 pi i front Lambda'_p
    (:func:`_log_coefs`).  A constant that is exactly 0 is None, and a
    family that every row weighs by 0 is left out.

    Returns (plain, pair).  ``plain`` holds (b_k, b1, b2, consts) per plain
    family summed, 0F2(-; b1, b2; -z) its sums and ``consts`` one constant
    a row.  ``pair`` is None unless b has a logarithmic pair that some row
    weighs, and else (b_p, b1, b2, H_0, exps, logs, consts): 0F2(-; b1, b2;
    -z) with b1 = 1 - c, c = b_r - b_p, and b2 = N + 1, ``exps`` the
    exponents b_q + k, k < N, of family q's simple poles, ``logs`` whether
    some row has Lambda_p != 0 and so reads the sums R_m and the simple
    poles, and ``consts`` one (front Lambda_p, [simple-pole coefficient
    Lambda_p], 2 pi i front Lambda'_p) a row.
    """
    with working(dps) as d:
        bb = [mp.make_mpf(x) for x in bkey]
        rows = [[(t, _weight(w)) for t, w in row] for row in rows]
        if form == "plain":
            fams = range(3)
        else:
            p, q, n = form
            fams = (3 - p - q,)
        plain = []
        for k in fams:
            coef = _plain_coef(bkey, k, d)
            lams = (reduce(add, _sheet_terms(bb[k], row, d)) for row in rows)
            consts = tuple(_weighed(coef, lam) for lam in lams)
            if any(x is not None for x in consts):
                i, j = (x for x in range(3) if x != k)
                plain.append((bb[k], 1 + bb[k] - bb[i], 1 + bb[k] - bb[j],
                              consts))
        if form == "plain":
            return tuple(plain), None
        front, h0, simple = _log_coefs(bkey, form, d)
        consts = []
        for row in rows:
            terms = _sheet_terms(bb[p], row, d)
            lam = reduce(add, terms)
            dlam = sum(t * x for (t, _), x in zip(row, terms))
            lead = mpc(0, 2) * mp.pi * front * dlam if dlam else None
            consts.append((_weighed(front, lam),
                           tuple(_weighed(coef, lam) for coef in simple), lead))
        logs = any(x[0] is not None for x in consts)
        if not logs and all(x[2] is None for x in consts):
            return tuple(plain), None
        c = bb[3 - p - q] - bb[p]
        return tuple(plain), (bb[p], 1 - c, n + 1, h0,
                              tuple(bb[q] + k for k in range(n)), logs,
                              tuple(consts))


def _series_rows(b, point, rows, dps, form=None):
    """sum_t w_t G^{3,0}_{0,3}(z e^(2 pi i t)|b) as a theta triple for each
    row of (turn t, weight w_t) pairs in ``rows``, z = ``point``, by the
    residue series (:func:`g303_series`, which says what b it takes and
    what it raises); ``form`` is b's :func:`_series_form` when the caller
    has it.

    Only the factors z^(b_k) of the families and the log z of a
    logarithmic pair depend on the sheet; the 0F2 sums depend on the
    complex number z alone.  Turn t multiplies z^c by the cached
    e^(2 pi i t c) (:func:`_turn_phase`), so a row multiplies family k's
    triple at the point itself by Lambda_k = sum_t w_t e^(2 pi i t b_k)
    alone (:func:`_sheet_terms`).  The powers of a logarithmic pair differ
    from z^(b_p) by integers, so its triple takes Lambda_p too, and since
    turn t takes 2 pi i t from log z, less 2 pi i Lambda'_p z^(b_p) front
    S_m, Lambda'_p = sum_t w_t t e^(2 pi i t b_p).  Those constants
    depend on b, the rows and the digits alone and are cached
    (:func:`_series_plan`).  A point sums only the families that some row
    weighs by a constant that is not exactly 0.  A logarithmic pair whose
    Lambda_p is 0 on every row reads only its sums S_m, which are those of
    0F2(-; 1-c, N+1; -z) weighted by b_p + n, and takes them from one plain
    pass (:func:`hyper0f2_theta`, whose tail bound need not cover the
    sums R_m).  A point takes z^c and log z once, and each row one
    multiply-add per family.  The row ((0, 1),) takes the point's triples
    as they are.

    Families p and q of a logarithmic pair, b_p - b_q = N an integer >= 0:
    family q's poles s = -b_q - k, k < N, are simple.  From s = -b_p on the
    poles of Gamma(b_p + s) and Gamma(b_q + s) coincide; with c = b_r - b_p,
    u = b_p + k and zeta = log z on the point's sheet, the double pole at
    s = -b_p - k has residue

        z^u Gamma(c) (-1)^N / N! t_k (H_0 + h_k - zeta),

    t_k the terms of 0F2(-; 1-c, N+1; -z) and h_k their sums of
    reciprocals (:func:`hyper0f2_log_theta`), H_0 = psi(1) + psi(N+1)
    + psi(c) (:func:`_log_coefs`).  theta^m of z^u (A - zeta) is
    z^u ((A - zeta) u^m - m u^(m-1)), so the triple is z^(b_p) front
    (a S_m + R_m - m S_(m-1)), a = H_0 - zeta.

    A weight's rounding enters each family before the families cancel.
    The rows of the model problem do not feel it: their weights are exact
    (psi4), common to the row (phi1, phi2, psi3), or weigh families that
    do not cancel (phi4, whose second and third Lambda_k vanish).  With
    its weights at the caller's d + 10 digits, phi4 at d = 30 and |z| up
    to 10^3 kept 10^-(d+10) of its value.
    """
    if form is None:
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
        plain, pair = _series_plan(
            tuple(mpf(x)._mpf_ for x in b), form,
            tuple(tuple((t, _weight_key(w)) for t, w in row) for row in rows),
            dc)
        mz = -point.to_mpc(dps=dc)
        zeta = point._log()
        out = [[] for _ in rows]
        for c, b1, b2, consts in plain:
            sums = hyper0f2_theta(b1, b2, mz, c=c, dps=dc)
            power = mp.exp(mpc(c) * zeta)
            for parts, const in zip(out, consts):
                if const is not None:
                    pref = const * power
                    parts.append([pref * x for x in sums])
        if pair is not None:
            c, b1, b2, h0, exps, logs, consts = pair
            power = mp.exp(mpc(c) * zeta)
            if logs:
                s = hyper0f2_log_theta(b1, b2, mz, c=c, dps=dc)
                s, rs = s[:3], s[3:]
                a = h0 - zeta
                bracket = [a * s[0] + rs[0], a * s[1] + rs[1] - s[0],
                           a * s[2] + rs[2] - 2 * s[1]]
                powers = [mp.exp(mpc(u) * zeta) for u in exps]
            else:
                s = hyper0f2_theta(b1, b2, mz, c=c, dps=dc)
            for parts, (front, simple, lead) in zip(out, consts):
                part = [0, 0, 0]
                if front is not None:
                    pref = front * power
                    part = [pref * x for x in bracket]
                    for coef, u, pw in zip(simple, exps, powers):
                        term = coef * pw
                        part = [part[0] + term, part[1] + u * term,
                                part[2] + u * u * term]
                if lead is not None:
                    pref = lead * power
                    part = [x - pref * y for x, y in zip(part, s)]
                parts.append(part)
        return [tuple(+sum((part[m] for part in parts), mpc(0))
                      for m in range(3)) for parts in out]


def g303_series(b, point, dps=None, with_theta=False):
    """G^{3,0}_{0,3}(z|b) by the residue series.

    With pairwise differences of the parameters a safe distance
    (RESONANCE_TOL) from the integers, the sum of the three Frobenius
    families (module docstring).  When exactly one pair differs by an
    integer, b_p - b_q = N >= 0 exactly (the exact mpf difference,
    :func:`_series_form`), families p and q collide and are summed as the
    logarithmic residue series of :func:`_series_rows`, the third family
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

    This is the row ((0, 1),) of :func:`_series_rows`, which sums the 0F2
    families once for every weighted sum of sheets of one z that a caller
    asks for.
    """
    acc = _series_rows(b, point, (((0, 1),),), dps)[0]
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
    P(s) = prod_{j<m} Gamma(b_j+s) prod_{j>=m} 1/Gamma(1-b_j-s), as raw mpc
    tuples, and the float columns ``lw``, ``ls`` and ``rate``: log|w_k|,
    log|s_k| and d/du arg w at u_k (from float digammas; 0 for |u_k| < 1).

    b is real, so s(-u) = conj s(u), P(conj s) = conj P(s) and
    s'(-u) = -conj s'(u): node -k carries minus the conjugates of node k's
    weights, the same logs and the same d/du arg w, and gamma is called for
    k >= 0 only.  Nodes are added outward from u = 0 on demand, at the
    precision of the loop pass that adds them, whose digits are part of the
    table's key.
    """

    def __init__(self, b, m, K):
        self.b, self.m, self.K, self.h = b, m, K, mpf(1) / K
        self.a = max(-b[j] for j in range(m)) + _OFFSET
        self.weights = ([], [], [])
        self.lw, self.ls, self.rate = [], [], []

    def grow(self, n):
        """Make the nodes k < n available."""
        if n <= len(self.lw):
            return
        mu, bf = float(_MU), [float(x) for x in self.b]
        for k in range(len(self.lw), n):
            t = mpc(1, k * self.h)                      # 1 + iu
            s = self.a + _MU * t * t
            w = self.h * 2 * _MU * mpc(0, 1) * t        # h s'(u)
            for j, bj in enumerate(self.b):
                w *= mp.gamma(bj + s) if j < self.m else mp.rgamma(1 - bj - s)
            ws = -s * w
            for here, v in zip(self.weights, (w, ws, -s * ws)):
                here.append(v._mpc_)
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
            self.lw.append(_log_abs(w._mpc_))
            self.ls.append(_log_abs(s._mpc_))
            self.rate.append(rate)


def _log_abs(v):
    """log|v| in floats of a raw mpc ``v``, from its parts' mantissas and
    exponents, to a few ulps; -inf for v = 0.  |v|^2 = n 2^(2e) with n an
    integer, and with t = floor(log2 |v|^2 / 2) the ratio |v|^2 / 4^t lies
    in [1/2, 2): log|v| = t log 2 + log1p(|v|^2 / 4^t - 1) / 2, the
    argument of log1p exact before its one rounding."""
    parts = [(man, exp) for _, man, exp, _ in v if man]
    if not parts:
        return -math.inf
    e = min(exp for _, exp in parts)
    n = sum((man << (exp - e)) ** 2 for man, exp in parts)
    t = (n.bit_length() + 2 * e) // 2
    one = 1 << 2 * (t - e)
    return t * _LN2 + math.log1p((n - one) / one) / 2


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
    lws, lss, rates = table.lw, table.ls, table.rate
    top0 = top1 = top2 = -math.inf
    chirp = 0.0
    for k in range(_MAX_NODES):
        if k == len(lws):
            table.grow(k + 1)
        ls = lss[k]
        u = sign * k * h
        t0 = lws[k] - (a + mu * (1 - u * u)) * log_r + theta * 2 * mu * u
        t1, t2 = t0 + ls, t0 + 2 * ls
        top0, top1, top2 = max(top0, t0), max(top1, t1), max(top2, t2)
        chirp = max(chirp,
                    (rates[k] + 2 * mu * (theta * u - log_r)) / (2 * math.pi))
        if k:
            r0, r1, r2 = t0 - p0, t1 - p1, t2 - p2
            if (k > 1 and max(r0, r1, r2) <= -_LN2
                    and r0 <= q0 and r1 <= q1 and r2 <= q2
                    and max(t0 - top0, t1 - top1, t2 - top2) < cut):
                return k + 1, [top0, top1, top2], chirp
            q0, q1, q2 = r0, r1, r2
        p0, p1, p2 = t0, t1, t2
    return None, [top0, top1, top2], chirp


def _power_ints(v, step, q2, logs, f, e):
    """The powers v q^(k^2) r^k, k = 0..len(logs)-2, as lists of their
    integer real and imaginary parts at the scale 2^e, rounded down.
    ``step`` is q r, ``q2`` is q^2 and ``logs[k]`` is log|v q^(k^2) r^k|
    in floats, one node more than the powers returned.

    The recurrence v *= step, step *= q2 holds each value as an integer
    pair times 2^(floor(log2 |value|) - f), the exponent taken from the
    floats, so that every mantissa keeps about f bits and each product
    truncates one unit of them, as floating point at f bits would."""
    def at(x, ex):
        re, im = x._mpc_
        return to_fixed(re, -ex), to_fixed(im, -ex)

    ev = [math.floor(x / _LN2) - f for x in logs]
    es = [math.floor((y - x) / _LN2) - f for x, y in zip(logs, logs[1:])]
    eq = math.floor(_log_abs(q2._mpc_) / _LN2) - f
    (vr, vi), (sr, si), (qr, qi) = at(v, ev[0]), at(step, es[0]), at(q2, eq)
    res, ims = [], []
    for k in range(len(es)):
        shift = ev[k] - e
        if shift >= 0:
            res.append(vr << shift)
            ims.append(vi << shift)
        else:
            res.append(vr >> -shift)
            ims.append(vi >> -shift)
        if k + 1 < len(es):
            shift = ev[k + 1] - ev[k] - es[k]
            vr, vi = (vr * sr - vi * si) >> shift, (vr * si + vi * sr) >> shift
            shift = es[k + 1] - es[k] - eq
            sr, si = (sr * qr - si * qi) >> shift, (sr * qi + si * qr) >> shift
    return res, ims


def _loop_sums(table, zeta, right, left):
    """The three moments sum_k (w_k, -s_k w_k, s_k^2 w_k) z^(-s_k) over the
    nodes -left < k < right, each summed exactly in integers and rounded
    once.  With s_k = a + mu (1 + ikh)^2,
    z^(-s_k) = z^(-(a+mu)) q^(k^2) r^k for q = e^(mu h^2 zeta) and
    r = e^(-2 i mu h zeta): three exps a call, none a node
    (:func:`_power_ints`), and node -k's weights are minus the conjugates
    of node k's, so both sides take the same integer weights.

    The scales come from floats: with T the largest term's log2-magnitude
    of a moment (from the table's ``lw`` and ``ls`` and log|z^(-s_k)| as
    :func:`_walk` takes them) and F = prec + 33 bits (one working raise),
    the weights are truncated at 2^(T - log2 max|z^(-s_k)| - F), straight
    from the table's mpc tuples on every call, and the powers at
    2^(T - log2 max|w| - F), so each truncation costs under 2^(T - F + 1)
    a term.  The power recurrence works at F bits and leaves node k's power
    off by up to about (k + 4)^2 / 2 units of 2^-F of itself, less than
    2^(21 - F) for k < _MAX_NODES.  Over fewer than 2^12 terms a moment is
    off by at most 2^-prec of its value plus a few units of 2^(T - prec),
    and the cancellation that :func:`_loop_pass` measures against the
    largest term is all the pass loses."""
    prec, n = mp.prec, max(right, left)
    table.grow(n)
    a, h, mu = float(table.a), float(table.h), float(_MU)
    log_r, theta = float(zeta.real), float(zeta.imag)
    # log|z^(-s_k)| at u = +-k h, one node past each side's last
    zr, zl = ([-(a + mu * (1 - u * u)) * log_r + theta * 2 * mu * u
               for u in (sign * k * h for k in range(count + 1))]
              for sign, count in ((1, right), (-1, left)))
    lw, ls = table.lw[:n], table.ls[:n]
    # log-magnitudes of the moments' weights w, -s w, s^2 w
    logs = (lw, list(map(add, lw, ls)), [x + 2 * y for x, y in zip(lw, ls)])
    tops = [max(chain(map(add, w, zr[:right]), map(add, w[1:], zl[1:left])))
            for w in logs]
    top_z = max(zr[:right] + zl[1:left])
    with working(mp.dps):
        f = mp.prec
        v0 = mp.exp(-(table.a + _MU) * zeta)
        q = mp.exp(_MU * table.h ** 2 * zeta)
        r = mp.exp(mpc(0, -2) * _MU * table.h * zeta)
        q2, step_r, step_l = q * q, q * r, q / r
    ez = min(math.floor((t - max(w)) / _LN2) for t, w in zip(tops, logs)) - f
    cr, dr = _power_ints(v0, step_r, q2, zr, f, ez)
    cl, dl = _power_ints(v0, step_l, q2, zl, f, ez)
    # node 0 is on the right side only; pad both sides to n nodes
    pad_r, pad_l = [0] * (n - right), [0] * (n - left)
    cr, dr = cr + pad_r, dr + pad_r
    cl, dl = [0] + cl[1:] + pad_l, [0] + dl[1:] + pad_l
    # node k's weight (A + iB) z^(-s_k) plus node -k's (-A + iB) z^(-s_-k)
    cd, cs = list(map(sub, cr, cl)), list(map(add, cr, cl))
    dd, ds = list(map(sub, dr, dl)), list(map(add, dr, dl))
    out = []
    for j, t in enumerate(tops):
        ew = math.floor((t - top_z) / _LN2) - f
        re = [to_fixed(x, -ew) for x, _ in table.weights[j][:n]]
        im = [to_fixed(y, -ew) for _, y in table.weights[j][:n]]
        e = ew + ez
        out.append(mp.make_mpc((
            from_man_exp(sum(map(mul, re, cd)) - sum(map(mul, im, ds)),
                         e, prec, round_nearest),
            from_man_exp(sum(map(mul, re, dd)) + sum(map(mul, im, cs)),
                         e, prec, round_nearest))))
    return out


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

    The sheets it serves: -2..2 is the stated envelope.  For m = 1 the
    terms grow like e^(theta u) along the parabola (theta = arg z), so they
    exceed G by more digits the higher the sheet, and the passes and
    nodes grow with them.  At |z| = 2, b = (0.1, -0.3, -0.8) and 30
    digits, sheet 4 answers after two passes and sheet 8 after three (10
    to 20 s); from sheet 12 on the walk runs past _MAX_NODES a side and
    raises :class:`QuadratureConvergenceError` (exit code 3), never a
    wrong value.  For m = 1 a sheet k only turns G by e^(2 pi i k b_1)
    (one residue family), which serves a caller beyond the envelope.

    Rounding: each term T_k is off by a few ulps from its rounded weight.
    Each moment is summed exactly in integers, from the weights truncated
    at 2^(T - log2 max_k |z^(-s_k)| - F) and the powers at
    2^(T - log2 max_k |w_k| - F), T the largest term's log2-magnitude and
    F = prec + 33 bits, the powers from a recurrence at F bits, and rounded
    once: beyond those ulps it is off by at most 2^-prec |sum| plus a few
    units of 2^(T - prec) (:func:`_loop_sums`).
    The largest term over the moment measures the loss, and a pass that
    keeps fewer than d + 8 digits reruns with the loss as its extra digits
    (specfun's :func:`_measured_passes`, which raises
    :class:`SeriesConvergenceError` after three passes).
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


def _g3_rows(b, point, rows, dps, form=None):
    """sum_t w_t G^{3,0}_{0,3}(z e^(2 pi i t)|b) as a theta triple for each
    row of (turn t, weight w_t) pairs in ``rows``, z = ``point``, by the
    route of :func:`pick_route`: the series sums its 0F2 families once for
    all of them and weighs each family by its row (:func:`_series_rows`);
    the loop makes one :func:`mb_loop` call a distinct turn and adds the
    weighted triples at the caller's working precision.  ``form`` is b's
    :func:`_series_form` when the caller has it."""
    if form is None:
        form = _series_form(b)
    if form is not None:
        return _series_rows(b, point, rows, dps, form)
    turns = {t for row in rows for t, _ in row}
    g = {t: mb_loop(b, point.rotated(2 * t * mp.pi) if t else point, m=3,
                    dps=dps, with_theta=True) for t in sorted(turns)}
    return [tuple(sum(w * g[t][m] for t, w in row) for m in range(3))
            for row in rows]


def _phi_b(a):
    """b = (0, -a, -a - 1/2) of phi's G."""
    return (mpf(0), -a, -a - mpf(0.5))


def _psi_b(a):
    """b = (0, a, a + 1/2) of psi's G."""
    return (mpf(0), a, a + mpf(0.5))


def _a_weights(a, d):
    """i e^(2 pi i a) and i e^(-2 pi i a), the factors of the sheet
    identities of the model problem, from the cached phases of a at d
    digits (the caller's raise)."""
    i = mpc(0, 1)
    return i * _turn_phase(a._mpf_, 1, d), i * _turn_phase(a._mpf_, -1, d)


#: psi4 = psi2 - psi1 = Gt(z e^(pi i)) - Gt(z e^(-pi i)), as turns of
#: z e^(-pi i)
_PSI4_ROW = ((1, 1), (0, -1))


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _frame_rows(akey, frame, dps):
    """b of the G of ``frame`` ("phi" or "psi") for alpha given by its mpf
    tuple ``akey``, the :func:`_series_form` of b and the rows of the
    frame's scalars 1..4, at ``dps`` digits (the raise of working(dps), so
    that the cache key fixes the precision).

    phi's rows are over the turns of z: phi1 = i e^(2 pi i a)
    G(z e^(2 pi i)), phi2 = -i e^(-2 pi i a) G(z e^(-2 pi i)), phi3 = G(z)
    and phi4 = phi1 + phi2.  psi's are over the turns of z e^(-pi i):
    psi1 = Gt(z e^(-pi i)), psi2 = Gt(z e^(pi i)), psi3 = i e^(2 pi i a)
    (Gt(z e^(-3 pi i)) - Gt(z e^(-pi i))) and psi4 = psi2 - psi1."""
    with working(dps) as d:
        a = mp.make_mpf(akey)
        ip, im = _a_weights(a, d)
        if frame == "phi":
            b = _phi_b(a)
            phi1, phi2 = (1, ip), (-1, -im)
            rows = (phi1,), (phi2,), ((0, 1),), (phi1, phi2)
        else:
            b = _psi_b(a)
            rows = ((0, 1),), ((1, 1),), ((-1, ip), (0, -ip)), _PSI4_ROW
        return b, _series_form(b), rows


def _frame_g3_rows(alpha, frame, point, pick, dps):
    """The rows ``pick`` (a slice) of :func:`_frame_rows` at ``point`` by
    :func:`_g3_rows`, alpha taken at the working digits of ``dps``."""
    with working(dps) as d:
        b, form, rows = _frame_rows(mpf(alpha)._mpf_, frame, d)
        return _g3_rows(b, point, rows[pick], d, form)


def phi_scalars(alpha, point, dps=None):
    """Triples for phi1..phi4 at a sector point (any argument).

    phi4 is assembled as phi1 + phi2; downstream the identity
    phi4 = -4 pi^2 phi0 / (Gamma(1+a) Gamma(3/2+a)) ties it to the 0F2
    route.
    """
    return ScalarTriples(*_frame_g3_rows(alpha, "phi", point, slice(4), dps))


def phi4_triple(alpha, point, dps=None):
    """The triple of phi4 = phi1 + phi2 alone, from sheets +1 and -1 of
    ``point``: the one phi scalar the kernel's bilinear form reads, one of
    the rows of :func:`phi_scalars` and the same values."""
    return _frame_g3_rows(alpha, "phi", point, slice(3, 4), dps)[0]


def psi_scalars(alpha, point, dps=None):
    """Triples for psi1..psi4 at a sector point."""
    with working(dps) as d:
        return ScalarTriples(*_frame_g3_rows(
            alpha, "psi", point.rotated(-mp.pi), slice(4), d))


def psi4_triple(alpha, point, dps=None):
    """The triple of psi4 = psi2 - psi1 alone, from sheets 0 and +1 of
    ``point`` e^(-pi i): the one psi scalar the kernel's bilinear form
    reads, one of the rows of :func:`psi_scalars` and the same values."""
    with working(dps) as d:
        return _frame_g3_rows(alpha, "psi", point.rotated(-mp.pi),
                              slice(3, 4), d)[0]


def psi3_alternate(alpha, point, dps=None):
    """psi3 via the other analytic-continuation identity (consistency check):
    psi3 = i e^{-2 pi i a} (G(z e^{pi i}) - G(z e^{3 pi i})).
    """
    with working(dps) as d:
        a = mpf(alpha)
        b, form, _ = _frame_rows(a._mpf_, "psi", d)
        im = _a_weights(a, d)[1]
        return _g3_rows(b, point.rotated(mp.pi), (((0, im), (1, -im)),), d,
                        form)[0]
