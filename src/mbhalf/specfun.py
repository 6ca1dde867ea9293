"""Entire hypergeometric building blocks.

Provides the generalized hypergeometric series 0F2 (plus term-wise
theta-derivatives, theta = z d/dz), Wright's generalized Bessel function,
and the Frobenius solution triples of the two third-order model equations

    theta (theta + a)(theta + a + 1/2) phi + z phi = 0     (forward)
    theta (theta - a)(theta - a - 1/2) psi - z psi = 0     (adjoint)

that govern the hard-edge model problem at theta-parameter 1/2.

All series are entire, but their terms oscillate in sign and can grow by
exp(O(|z|^{1/3})) before decaying, so evaluation runs at a cancellation-
guarded working precision.

The 0F2 term loop runs in integer fixed point: the term, z and the sums
are Python integers at one scale 2^-(prec+20), each step makes four
integer products and divides both parts by the fixed-point
(b1+k)(b2+k)(k+1), and each sum is rounded to an mpf once.  Its stop rests on an a priori
geometric tail bound (Johansson, "Computing hypergeometric functions
rigorously", ACM TOMS 2019): once k > max(-b1, -b2) the term ratio
|z| / |(b1+k)(b2+k)(k+1)| decreases, so when it, times the growth of the
weights, is below 1/2, the rest of every theta-sum is below twice the next
weighted term (see :func:`hyper0f2_theta`).  The Wright-Bessel terms still
stop after STOP_RUN consecutive negligible terms.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest

from .mpcore import GUARD_DIGITS, _resolve_dps, _to_fixed, rgamma

RESONANCE_TOL = 1e-6

#: consecutive sub-threshold Wright-Bessel terms required before the
#: series is declared done
STOP_RUN = 30

#: term budget of every series; running out raises SeriesConvergenceError
_MAX_TERMS = 20000
#: bits of the 0F2 fixed-point scale beyond the working precision
_THETA_GUARD_BITS = 20
_LOG10_2 = math.log10(2)


class SeriesConvergenceError(RuntimeError):
    """A series used up its _MAX_TERMS terms before its stopping rule held.

    ``partial_sums`` holds the sums where it stopped: (S0, S1, S2) for
    :func:`hyper0f2_theta`, the last two partial sums for the Wright-Bessel
    terms.
    """

    def __init__(self, message, partial_sums):
        super().__init__(message)
        self.partial_sums = partial_sums


class ResonantParameterError(ValueError):
    """2*alpha is (numerically) an integer; the Frobenius bases degenerate."""


def resonance_distance(alpha):
    """Distance of 2*alpha from the integers (as a float)."""
    two = 2.0 * float(alpha)
    return abs(two - round(two))


def check_nonresonant(alpha):
    if resonance_distance(alpha) < RESONANCE_TOL:
        raise ResonantParameterError(
            f"2*alpha = {2 * float(alpha)} is within {RESONANCE_TOL} of an "
            "integer; use the contour-integral route instead")


def _cancellation_digits(radius, growth_power):
    """Decimal digits an entire series loses to cancellation at |z| = radius.

    ``growth_power`` is the exponent p such that the largest term scales
    like exp(c * radius^p); for 0F2, p = 1/3 and c <= 3, and the value can
    be as small as exp(-3 radius^{1/3}), so ~2.2 r^{1/3} digits vanish.
    None for radius <= 1.  A sum of series that share that growth (the
    families of a residue series, a double sum of Wright-Bessel terms)
    loses the same digits.
    """
    r = float(radius)
    return int(2.4 * r ** growth_power) if r > 1 else 0


def _series_guard(radius, growth_power):
    """Extra digits an entire series is summed with: its
    :func:`_cancellation_digits` and 12 for the terms' own roundoff."""
    return _cancellation_digits(radius, growth_power) + 12


def _check_lower_param(b):
    bf = float(b)
    if abs(bf - round(bf)) < 1e-9 and round(bf) <= 0:
        raise ValueError(f"lower 0F2 parameter {bf} is a nonpositive integer")


def _theta_combine(t0, t1, t2, c, f, prec):
    """(S0, S1, S2) as mpc from T_m = sum_k k^m t_k, given as (re, im)
    integer pairs at the scale 2^-f: S1 = c T0 + T1, S2 = c^2 T0 + 2c T1
    + T2, each rounded once."""
    cf = _to_fixed(c._mpf_, -f)
    c2 = (cf * cf) >> f
    parts = (t0, [((cf * u) >> f) + v for u, v in zip(t0, t1)],
             [((c2 * u + 2 * cf * v) >> f) + w for u, v, w in zip(t0, t1, t2)])
    return tuple(mp.make_mpc(tuple(from_man_exp(x, -f, prec, round_nearest)
                                   for x in p)) for p in parts)


def _theta_out(t, h, c, f, prec):
    """:func:`_theta_combine` of the integer sums t = (T0, T1, T2) as six
    integers (re, im pairs), followed by that of h when it is given."""
    sums = _theta_combine(t[0:2], t[2:4], t[4:6], c, f, prec)
    if h is not None:
        sums += _theta_combine(h[0:2], h[2:4], h[4:6], c, f, prec)
    return sums


def _theta_sums(b1, b2, z, c, log=False):
    """(S0, S1, S2) of :func:`hyper0f2_theta` at the working precision, and
    the decimal digits lost to cancellation in S0; with ``log``, also
    (R0, R1, R2) of :func:`hyper0f2_log_theta` after them, the loss being
    the larger of those in S0 and R0.

    Integers at the scale 2^-f, f = prec + _THETA_GUARD_BITS, carry the
    term t_k, z, b1 + b2, b1 b2 and the sums T_m = sum_k k^m t_k, which
    :func:`_theta_combine` turns into (S0, S1, S2); with ``log`` also
    h_k, which grows by the reciprocals 1/(b1+k), 1/(b2+k), 1/(k+1) of the
    three denominator factors of each step, and the sums of k^m h_k t_k.
    Floor division leaves a term under one unit low, so a small negative
    term can sit at -1 unit for ever; the stop therefore never waits for
    the term to vanish.  It needs k > max(-b1, -b2), where the ratio
    r_k = |z| / |(b1+k)(b2+k)(k+1)| of t_(k+1) to t_k decreases in k, and
    q = r_k ((|c|+k+1) / (|c|+k))^2 < 1/2, which bounds the growth of the
    weights (c+j)^m, m <= 2, as well.  The rest of each sum is then below
    2 r_k (|c|+k+1)^2 |t_k| < (|c|+k+2)^2 |t_k|, and the loop stops when
    that, with |t_k| counted two units high, is below 2^-prec (2^20 units).
    With ``log`` every later step adds at most
    D = 1/(k+1) + 1/(b1+k) + 1/(b2+k) to |h|, so |h_j| <= G_j =
    |h_k| + 1 + (j-k) D, which grows by at most 1 + D a step: the stop then
    asks q (1 + D) < 1/2 and counts the rest G_(k+1) times larger.
    """
    prec = mp.prec
    f = prec + _THETA_GUARD_BITS
    one = 1 << f
    zr, zi = _to_fixed(z.real._mpf_, -f), _to_fixed(z.imag._mpf_, -f)
    p1, p2 = _to_fixed(b1._mpf_, -f), _to_fixed(b2._mpf_, -f)
    bsum, bprod = p1 + p2, (p1 * p2) >> f
    zabs, b1f, b2f, cabs = float(abs(z)), float(b1), float(b2), abs(float(c))
    kmin = max(-b1f, -b2f)
    tiny = 1 << _THETA_GUARD_BITS
    tr, ti = one, 0
    t0r, t0i, t1r, t1i, t2r, t2i = one, 0, 0, 0, 0, 0
    big = one
    if log:
        one2 = one << f
        h = 0
        h0r, h0i, h1r, h1i, h2r, h2i = 0, 0, 0, 0, 0, 0
        hbig = 0
    k = 0
    while True:
        if k >= _MAX_TERMS:
            raise SeriesConvergenceError(
                "0F2 series did not meet its tail bound within %d terms"
                % _MAX_TERMS, partial_sums=_theta_out(
                    (t0r, t0i, t1r, t1i, t2r, t2i),
                    (h0r, h0i, h1r, h1i, h2r, h2i) if log else None, c, f, prec))
        den = ((k * k << f) + k * bsum + bprod) * (k + 1)
        tr, ti = (tr * zr - ti * zi) // den, (tr * zi + ti * zr) // den
        k += 1
        t0r += tr
        t0i += ti
        kr, ki = k * tr, k * ti
        t1r += kr
        t1i += ki
        t2r += k * kr
        t2i += k * ki
        mag = abs(tr) + abs(ti)
        if mag > big:
            big = mag
        if log:
            # the step's denominator factors were b1 + k - 1, b2 + k - 1, k
            kf = (k - 1) << f
            h += one2 // (kf + p1) + one2 // (kf + p2) + one // k
            ur, ui = (tr * h) >> f, (ti * h) >> f
            h0r += ur
            h0i += ui
            kr, ki = k * ur, k * ui
            h1r += kr
            h1i += ki
            h2r += k * kr
            h2i += k * ki
            hmag = abs(ur) + abs(ui)
            if hmag > hbig:
                hbig = hmag
        if k > kmin:
            w = cabs + k
            q = zabs / abs((b1f + k) * (b2f + k) * (k + 1)) * ((w + 1) / w) ** 2
            wi = int(cabs) + k + 3
            wi *= wi
            if log:
                grow = 1 / (b1f + k) + 1 / (b2f + k) + 1 / (k + 1)
                q *= 1 + grow
                wi *= int(abs(h) / one + grow) + 2
            if q < 0.5 and (mag + 2) * wi < tiny:
                break
    # an S0 below the scale counts as every digit lost
    lost = (big.bit_length() - (abs(t0r) + abs(t0i)).bit_length()) * _LOG10_2
    if log:
        lost = max(lost, (hbig.bit_length()
                          - (abs(h0r) + abs(h0i)).bit_length()) * _LOG10_2)
    return _theta_out((t0r, t0i, t1r, t1i, t2r, t2i),
                      (h0r, h0i, h1r, h1i, h2r, h2i) if log else None,
                      c, f, prec), lost


def _guarded_theta_sums(b1, b2, z, c, d, log):
    """:func:`_theta_sums` at d digits plus the cancellation guard, retried
    once if the largest term exceeded the sum by more digits than the guard
    holds, then with the digits it lost and GUARD_DIGITS more."""
    guard = _series_guard(abs(z), 1.0 / 3.0)
    _check_lower_param(b1)
    _check_lower_param(b2)
    for attempt in range(2):
        with mp.workdps(d + guard):
            sums, lost = _theta_sums(mpf(b1), mpf(b2), mpc(z), mpf(c), log)
        if lost > guard - 8 and attempt == 0:
            guard = int(lost) + GUARD_DIGITS
            continue
        return sums
    raise RuntimeError("unreachable")


def hyper0f2_theta(b1, b2, z, c=0, dps=None):
    """(S0, S1, S2) with S_m = sum_k (c+k)^m z^k / ((b1)_k (b2)_k k!).

    S0 is 0F2(-; b1, b2; z); S1 and S2 are the term-wise theta and theta^2
    sums for a solution z^c * 0F2(...), so that theta^m [z^c F] =
    z^c * S_m.  Raising ``c`` costs nothing extra: the weights multiply
    term by term.

    The terms are summed in integer fixed point and the series stops on
    the geometric tail bound of :func:`_theta_sums`, which keeps the tail
    of every S_m below 2^-prec.  Retries once at raised precision if the
    largest term exceeded |S0| by more digits than the cancellation guard
    holds; raises :class:`SeriesConvergenceError` past _MAX_TERMS terms.
    """
    return _guarded_theta_sums(b1, b2, z, c, _resolve_dps(dps), False)


def hyper0f2_log_theta(b1, b2, z, c=0, dps=None):
    """(S0, S1, S2, R0, R1, R2): the sums of :func:`hyper0f2_theta` and

        R_m = sum_k (c+k)^m h_k z^k / ((b1)_k (b2)_k k!),
        h_k = sum_{j=1..k} [1/j + 1/(b1+j-1) + 1/(b2+j-1)],

    so that -R_m is the derivative of S_m when b1, b2 and the 1 of k! move
    together.  These are the sums of the logarithmic (double-pole) family
    of a resonant Meijer G (:func:`mbhalf.meijer.g303_series`).  Summed,
    stopped and retried as :func:`hyper0f2_theta`, with the tail bound
    widened by the growth of h_k.
    """
    return _guarded_theta_sums(b1, b2, z, c, _resolve_dps(dps), True)


def hyper0f2(b1, b2, z, dps=None):
    """0F2(-; b1, b2; z); entire in z."""
    return hyper0f2_theta(b1, b2, z, dps=dps)[0]


def _wright_growth(b):
    """The growth power of J_{a,b}(x): its terms peak like
    exp(c |x|^{1/(1+b)})."""
    return 1.0 / (1.0 + max(float(b), 0.1))


def _wright_terms(a, b, x, d):
    """Terms (-x)^j / (j! Gamma(a+bj)) of J_{a,b}(x) at the ambient precision;
    the last STOP_RUN terms are each below 10^-(d+5) of the running sum.
    Raises :class:`SeriesConvergenceError` past _MAX_TERMS terms.

    For a > 0 with 2b exactly a positive integer (the cases 1/theta = 2,
    theta = 1/2 and the classical b = 1) the reciprocal gamma of term j+2
    follows from that of term j by dividing by (a+bj)(a+bj+1)...(a+bj+2b-1).
    Any other b, however close to a half-integer, pays one reciprocal
    gamma per term, with poles contributing 0.
    """
    stop_eps = mpf(10) ** (-(d + 5))
    fast = a > 0 and 2 * b >= 1 and mp.isint(2 * b)
    if fast:
        p = int(2 * b)
        rg, rg_next = rgamma(a), rgamma(a + b)
    power, total, terms, run = mpf(1), 0 * x, [], 0
    for j in range(_MAX_TERMS):
        if fast:
            term = power * rg
            rg, rg_next = rg_next, rg / mp.fprod(a + b * j + i for i in range(p))
        else:
            term = power * rgamma(a + b * j)
        terms.append(term)
        total += term
        if abs(term) <= stop_eps * (abs(total) or 1):
            run += 1
            if run >= STOP_RUN:
                return terms
        else:
            run = 0
        power *= -x / (j + 1)
    raise SeriesConvergenceError(
        "Wright-Bessel series did not settle within %d terms" % _MAX_TERMS,
        partial_sums=(total - terms[-1], total))


def wright_bessel(a, b, x, dps=None):
    """Wright's generalized Bessel J_{a,b}(x) = sum_j (-x)^j / (j! Gamma(a+bj)).

    The sum of :func:`_wright_terms` (whose terms the kernel's integral
    route pairs one by one) at d + :func:`_series_guard` digits; ``x`` may
    be complex.  As :func:`_guarded_theta_sums` does, it retries once if the
    largest term exceeded the sum by more digits than that guard holds,
    then with the digits it lost and GUARD_DIGITS more.
    """
    d = _resolve_dps(dps)
    guard = _series_guard(abs(x), _wright_growth(b))
    for attempt in range(2):
        with mp.workdps(d + guard):
            xx = mpc(x) if isinstance(x, (complex, mpc)) else mpf(x)
            terms = _wright_terms(mpf(a), mpf(b), xx, d)
            total = mp.fsum(terms)
            big = max(abs(t) for t in terms)
            if not big:
                lost = 0
            elif not total:  # every digit lost
                lost = d + guard
            else:
                lost = (mp.mag(big) - mp.mag(total)) * _LOG10_2
        if attempt or lost <= guard - 8:
            return total
        guard = int(lost) + GUARD_DIGITS


def _frobenius(z, x, table, dps):
    """z^c * (S0, S1, S2) of 0F2(-; b1, b2; x) for each (b1, b2, c) of
    ``table``, the power on the principal branch."""
    d = _resolve_dps(dps)
    out = []
    with mp.workdps(d + GUARD_DIGITS):
        for b1, b2, c in table:
            inner = hyper0f2_theta(b1, b2, x, c=c, dps=d)
            pref = mp.exp(mpf(c) * mp.log(mpc(z)))
            out.append(tuple(pref * s for s in inner))
    return out


def frobenius_forward(alpha, z, dps=None):
    """Frobenius basis of theta(theta+a)(theta+a+1/2) phi = -z phi.

    Indices at 0 are 0, -a, -a-1/2:

        0F2(-; 1+a, 3/2+a; -z)
        z^{-a}     0F2(-; 1-a, 3/2; -z)
        z^{-a-1/2} 0F2(-; 1/2-a, 1/2; -z)

    Principal branches.  Each entry is the triple (f, theta f, theta^2 f).
    """
    check_nonresonant(alpha)
    a = mpf(alpha)
    return _frobenius(z, -mpc(z), (
        (1 + a, mpf("1.5") + a, mpf(0)),
        (1 - a, mpf("1.5"), -a),
        (mpf("0.5") - a, mpf("0.5"), -a - mpf("0.5")),
    ), dps)


def frobenius_adjoint(alpha, z, dps=None):
    """Frobenius basis of theta(theta-a)(theta-a-1/2) psi = z psi.

    Indices at 0 are 0, a, a+1/2.  The indicial recursion
    c_m (c+m)(c+m-a)(c+m-a-1/2) = c_{m-1} forces

        0F2(-; 1-a, 1/2-a; z)
        z^a       0F2(-; 1+a, 1/2; z)
        z^{a+1/2} 0F2(-; 3/2+a, 3/2; z)

    (equivalently: the forward basis under a -> -a-1/2, z -> -z).  Each
    entry is the triple (g, theta g, theta^2 g).
    """
    check_nonresonant(alpha)
    a = mpf(alpha)
    return _frobenius(z, mpc(z), (
        (1 - a, mpf("0.5") - a, mpf(0)),
        (1 + a, mpf("0.5"), a),
        (mpf("1.5") + a, mpf("1.5"), a + mpf("0.5")),
    ), dps)
