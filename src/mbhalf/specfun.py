"""Entire hypergeometric building blocks.

Provides the generalized hypergeometric series 0F2 (plus term-wise
theta-derivatives, theta = z d/dz), the same sums weighted by the terms'
sums of reciprocals for the logarithmic Meijer G series, and Wright's
generalized Bessel function.

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
weighted term (see :func:`hyper0f2_theta`).

The Wright-Bessel terms (real x, b > 0) are integers at one scale as well,
set by the two seed terms, the only ones that need a reciprocal gamma when
2b is a positive integer and a > 0: the rest follow by an exact two-step
recurrence, one floor division each.  They stop on an a priori tail bound
too: the one-step ratio |x| / (j+1) Gamma(a+bj) / Gamma(a+b(j+1))
decreases in j once a + bj > 0, so once a two-step ratio is at most 1/2
the rest of the series is below twice the next two terms (see
:func:`_wright_terms`; Gautschi's inequality bounds the gamma ratio for
any other b).
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .mpcore import NumericalError, working

#: term budget of every series; running out raises SeriesConvergenceError
_MAX_TERMS = 20000
#: passes a series with a measured cancellation makes before it gives up
_MAX_PASSES = 3
#: digits beyond the requested ones that must survive a pass's measured loss
_KEEP_DIGITS = 8
#: bits of the fixed-point scales of the 0F2 and Wright-Bessel term loops
#: beyond the working precision
_GUARD_BITS = 20
_LOG10_2 = math.log10(2)


class SeriesConvergenceError(NumericalError, RuntimeError):
    """A series used up its _MAX_TERMS terms before its stopping rule held,
    or still lost too many digits to cancellation after _MAX_PASSES passes.

    ``partial_sums`` holds the sums where it stopped: (S0, S1, S2) for
    :func:`hyper0f2_theta`, the last two partial sums for the Wright-Bessel
    terms; after the passes, the values of the last two; none when the
    series was refused before its first term.
    """

    def __init__(self, message, partial_sums):
        super().__init__(message)
        self.partial_sums = partial_sums


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


def _float_modulus(z):
    """|z| as a float, from the float parts of z: the series' float
    estimates need no modulus at the working precision."""
    return math.hypot(float(z.real), float(z.imag))


def _series_guard(radius, growth_power):
    """The ``extra`` digits of the :class:`~mbhalf.mpcore.working` raise an
    entire series is summed at: its :func:`_cancellation_digits` and 2 more,
    which with the guard digits make 12 for the terms' own roundoff."""
    return _cancellation_digits(radius, growth_power) + 2


def _measured_passes(dps, extra, run):
    """``run(d)``, which returns a value and the digits it measured lost to
    cancellation, under ``working(dps, extra) as d``.  A pass is kept when
    d + _KEEP_DIGITS of its digits survive the loss, else rerun with that
    loss as ``extra``.  A pass that loses every digit measures at most its
    own: when the loss reaches its working digits less _KEEP_DIGITS, the
    rerun works at no fewer than twice those digits.  After _MAX_PASSES
    passes this raises :class:`SeriesConvergenceError` with the last two
    values."""
    values = []
    for _ in range(_MAX_PASSES):
        with working(dps, extra) as d:
            value, lost = run(d)
            wp = mp.dps
            if lost <= wp - d - _KEEP_DIGITS:
                return value
        values.append(value)
        # working(d, extra) works at d + extra + GUARD_DIGITS = wp digits,
        # so extra + wp more makes the next pass work at 2 wp
        dps, extra = d, (max(int(lost), extra + wp)
                         if lost >= wp - _KEEP_DIGITS else int(lost))
    raise SeriesConvergenceError(
        "series still lost %.1f digits to cancellation after %d passes"
        % (lost, _MAX_PASSES), partial_sums=tuple(values[-2:]))


def _check_lower_param(b):
    bf = float(b)
    if abs(bf - round(bf)) < 1e-9 and round(bf) <= 0:
        raise ValueError(f"lower 0F2 parameter {bf} is a nonpositive integer")


def _theta_combine(t0, t1, t2, c, f, prec):
    """(S0, S1, S2) as mpc from T_m = sum_k k^m t_k, given as (re, im)
    integer pairs at the scale 2^-f: S1 = c T0 + T1, S2 = c^2 T0 + 2c T1
    + T2, each rounded once."""
    cf = to_fixed(c._mpf_, f)
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


def _theta_sums(b1, b2, z, c, log=False, guard=_GUARD_BITS):
    """(S0, S1, S2) of :func:`hyper0f2_theta` at the working precision, and
    the decimal digits lost to cancellation in S0; with ``log``, also
    (R0, R1, R2) of :func:`hyper0f2_log_theta` after them, the loss being
    the larger of those in S0 and R0.

    Integers at the scale 2^-f, f = prec + ``guard``, carry the
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
    that, with |t_k| counted two units high, is below 2^-prec (2^guard
    units).  Since (|c|+k+3)^2 only grows, once twice it reaches 2^guard no
    later step can stop (from k + |c| = 722 on with the default 20 bits);
    the sums then restart with the weight's bits added to ``guard``, so
    every series that stops at the default guard keeps its stop and its
    bytes.  With ``log`` every later step adds at most
    D = 1/(k+1) + 1/(b1+k) + 1/(b2+k) to |h|, so |h_j| <= G_j =
    |h_k| + 1 + (j-k) D, which grows by at most 1 + D a step: the stop then
    asks q (1 + D) < 1/2 and counts the rest G_(k+1) times larger.
    """
    prec = mp.prec
    f = prec + guard
    one = 1 << f
    zr, zi = to_fixed(z.real._mpf_, f), to_fixed(z.imag._mpf_, f)
    p1, p2 = to_fixed(b1._mpf_, f), to_fixed(b2._mpf_, f)
    bsum, bprod = p1 + p2, (p1 * p2) >> f
    zabs = _float_modulus(z)
    b1f, b2f, cabs = float(b1), float(b2), abs(float(c))
    kmin = max(-b1f, -b2f)
    tiny = 1 << guard
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
            wi = w2 = (int(cabs) + k + 3) ** 2
            if log:
                grow = 1 / (b1f + k) + 1 / (b2f + k) + 1 / (k + 1)
                q *= 1 + grow
                wi *= int(abs(h) / one + grow) + 2
            if q < 0.5 and (mag + 2) * wi < tiny:
                break
            if 2 * w2 >= tiny:
                return _theta_sums(b1, b2, z, c, log, guard + wi.bit_length())
    # an S0 below the scale counts as every digit lost
    lost = (big.bit_length() - (abs(t0r) + abs(t0i)).bit_length()) * _LOG10_2
    if log:
        lost = max(lost, (hbig.bit_length()
                          - (abs(h0r) + abs(h0i)).bit_length()) * _LOG10_2)
    return _theta_out((t0r, t0i, t1r, t1i, t2r, t2i),
                      (h0r, h0i, h1r, h1i, h2r, h2i) if log else None,
                      c, f, prec), lost


def _guarded_theta_sums(b1, b2, z, c, dps, log):
    """:func:`_theta_sums` at dps digits plus the cancellation guard,
    rerun by the rule of :func:`_measured_passes`."""
    guard = _series_guard(_float_modulus(z), 1.0 / 3.0)
    _check_lower_param(b1)
    _check_lower_param(b2)
    return _measured_passes(dps, guard, lambda d: _theta_sums(
        mpf(b1), mpf(b2), mpc(z), mpf(c), log))


def hyper0f2_theta(b1, b2, z, c=0, dps=None):
    """(S0, S1, S2) with S_m = sum_k (c+k)^m z^k / ((b1)_k (b2)_k k!).

    S0 is 0F2(-; b1, b2; z); S1 and S2 are the term-wise theta and theta^2
    sums for a solution z^c * 0F2(...), so that theta^m [z^c F] =
    z^c * S_m.  Raising ``c`` costs nothing extra: the weights multiply
    term by term.

    The terms are summed in integer fixed point and the series stops on
    the geometric tail bound of :func:`_theta_sums`, which keeps the tail
    of every S_m below 2^-prec.  Reruns at raised precision while the
    largest term exceeds |S0| by more digits than the pass can lose
    (:func:`_measured_passes`); raises :class:`SeriesConvergenceError` past
    _MAX_TERMS terms or _MAX_PASSES passes.
    """
    return _guarded_theta_sums(b1, b2, z, c, dps, False)


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
    return _guarded_theta_sums(b1, b2, z, c, dps, True)


def hyper0f2(b1, b2, z, dps=None):
    """0F2(-; b1, b2; z); entire in z."""
    return hyper0f2_theta(b1, b2, z, dps=dps)[0]


def _wright_growth(b):
    """The growth power of J_{a,b}(x): its terms peak like
    exp(c |x|^{1/(1+b)})."""
    return 1.0 / (1.0 + max(float(b), 0.1))


def _ratio_bound(xf, af, bf, j):
    """An upper bound on |T_(j+1) / T_j| = |x| / (j+1) Gamma(y) / Gamma(y+b),
    y = a + b j > 0, for the Wright-Bessel terms of :func:`_wright_terms`:
    with b = n + s, n an integer and 0 <= s < 1, Gamma(y+b) =
    Gamma(y+s) prod_(i<n) (y+s+i), and Gautschi's inequality
    Gamma(y+1) / Gamma(y+s) < (y+1)^(1-s) bounds Gamma(y) / Gamma(y+s) by
    (y+1)^(1-s) / y.  The bound decreases in j; it is inf where y rounds
    to 0 or below in floats."""
    n = int(bf)
    s = bf - n
    y = af + bf * j
    if y <= 0:
        return math.inf
    g = xf / (j + 1) * (y + 1) ** (1 - s) / y
    for i in range(n):
        g /= y + s + i
    return g


def _wright_terms(a, b, x):
    """Terms T_j = (-x)^j / (j! Gamma(a+bj)) of J_{a,b}(x), real x, b > 0,
    as Python integers at one scale 2^e, e = top - prec - _GUARD_BITS: the
    list and e.  The seeds are T_0 .. T_(j0+1), j0 the first index with
    a + b j0 > 0 (j0 = 0 for a > 0), computed as mpf with one reciprocal
    gamma each and floored to the scale.  top is the magnitude of the larger
    seed, or on the fast path of the smaller nonzero one.  1/Gamma is
    entire: ``mp.rgamma`` is 0 only at a pole, and for small a > 0 the
    seed T_0 ~ a keeps its digits, and with it the whole even chain.
    Raises :class:`SeriesConvergenceError` past _MAX_TERMS terms, with the
    last two partial sums.

    Fast path, a > 0 and 2b = p a positive integer (1/theta = 2,
    theta = 1/2 and the classical b = 1): the terms follow the exact
    two-step recurrence T_(j+2) = T_j r_j,

        r_j = x^2 / ((j+1)(j+2) prod_(i<p) (a+bj+i)),

    whose numerator and denominator are integers built exactly from the
    mpf mantissas of x and a, so each step is a few integer products and
    one floor division, off by under one unit.  Each term then carries the
    relative error of its parity chain's seed: for small a, T_0 ~ a sits
    far below T_1 while r_0 ~ x^2 / 2a is huge.  Scaled to the smaller seed, both seeds hold at least
    prec + _GUARD_BITS - 1 bits; as the r_j decrease, a chain rises to its
    peak P and then falls, so after n steps a term is off by under
    (n+1) max(1, |P / seed|) units, below (n+1) 2^(1-prec-_GUARD_BITS)
    max |T| whenever that exceeds a unit, which the measured loss of
    :func:`wright_bessel` counts.

    Any other b, however close to a half-integer, pays one reciprocal
    gamma per term (poles give 0), floored to the scale; r_j is then
    g_j g_(j+1), the product of two :func:`_ratio_bound` values, raised by
    1e-9 against float rounding.

    Stop: for m >= j >= j0 the one-step ratio |T_(m+1) / T_m| =
    |x| / (m+1) Gamma(a+bm) / Gamma(a+bm+b) decreases in m, because psi
    increases on (0, inf), so r_j bounds every two-step ratio
    |T_(m+2) / T_m| with m >= j.  Once r_j <= 1/2, each parity chain after
    T_(j+1) sums to under twice its next term, and the whole tail

        sum_(m >= j+2) |T_m| <= 2 r_j (|T_j| + |T_(j+1)|).

    The loop stops after T_(j+1) when that bound, with the stored terms
    for the exact ones, is below one unit of the scale (an exact integer
    test on the fast path).  So the exact tail is below one unit plus
    2 r_j (err_j + err_(j+1)) <= err_j + err_(j+1), with err_j the error
    of the stored T_j in units.
    """
    prec = mp.prec
    # rounding -a/b to nearest never lowers j0 below the first index with
    # a + b j0 > 0
    j0 = 0 if a > 0 else int(mp.floor(-a / b)) + 1
    if j0 + 2 > _MAX_TERMS:
        raise SeriesConvergenceError(
            "Wright-Bessel series starts beyond %d terms" % _MAX_TERMS,
            partial_sums=())
    seeds, power = [], mpf(1)
    for j in range(j0 + 2):
        seeds.append(power * mp.rgamma(a + b * j))
        power *= -x / (j + 1)
    fast = a > 0 and 2 * b >= 1 and mp.isint(2 * b)
    top = (min if fast else max)((mp.mag(t) for t in seeds if t), default=0)
    e = top - prec - _GUARD_BITS
    terms = [to_fixed(t._mpf_, -e) for t in seeds]
    if fast:
        # a + b j + i = (A + j B + i one) 2^es and x^2 = mx^2 2^(2 ex), so
        # r_j = num / ((j+1)(j+2) prod_(i<p) (A + j B + i one) << dsh)
        p = int(2 * b)
        _, ma, ea, _ = a._mpf_
        _, mx, ex, _ = x._mpf_
        es = min(ea, -1)
        big_a, big_b, one = ma << (ea - es), p << (-1 - es), 1 << -es
        sh = 2 * ex - p * es
        num, dsh = mx * mx << max(sh, 0), max(-sh, 0)
    else:
        xf, af, bf = abs(float(x)), float(a), float(b)
    j = j0
    u, v = terms[-2], terms[-1]
    while True:
        if fast:
            den = (j + 1) * (j + 2)
            y = big_a + j * big_b
            for i in range(p):
                den *= y + i * one
            den <<= dsh
            if 2 * num <= den and 2 * num * (abs(u) + abs(v)) < den:
                return terms, e
        else:
            r = (_ratio_bound(xf, af, bf, j) * _ratio_bound(xf, af, bf, j + 1)
                 * (1 + 1e-9))
            if r <= 0.5 and (not r or abs(u) + abs(v) < 0.5 / r):
                return terms, e
        if len(terms) >= _MAX_TERMS:
            raise SeriesConvergenceError(
                "Wright-Bessel series did not meet its tail bound within %d "
                "terms" % _MAX_TERMS, partial_sums=tuple(
                    mp.make_mpf(from_man_exp(sum(t), e, prec, round_nearest))
                    for t in (terms[:-1], terms)))
        if fast:
            w = u * num // den
        else:
            w = to_fixed((power * mp.rgamma(a + b * (j + 2)))._mpf_, -e)
            power *= -x / (j + 3)
        terms.append(w)
        u, v = v, w
        j += 1


def wright_bessel(a, b, x, dps=None):
    """Wright's generalized Bessel J_{a,b}(x) = sum_j (-x)^j / (j! Gamma(a+bj))
    for real a and x and b > 0.

    The integer terms of :func:`_wright_terms` (which the kernel's integral
    route pairs one by one) summed exactly and rounded once, with
    :func:`_series_guard` digits.  Its loss is mag(max |term|) - mag(sum),
    and it reruns by the rule of :func:`_measured_passes`, as
    :func:`_guarded_theta_sums` does.  Raises ValueError for b <= 0 or
    complex x, outside the envelope where the tail bound holds.
    """
    if isinstance(x, (complex, mpc)):
        raise ValueError("wright_bessel takes real x")
    if not mpf(b) > 0:
        raise ValueError("wright_bessel needs b > 0, where its tail bound "
                         "holds; got b = %s" % b)

    def run(d):
        terms, e = _wright_terms(mpf(a), mpf(b), mpf(x))
        total = sum(terms)
        big = max(map(abs, terms))
        value = mp.make_mpf(from_man_exp(total, e, mp.prec, round_nearest))
        if not total:  # every digit lost, unless every term is zero
            return value, mp.dps if big else 0
        return value, (big.bit_length() - abs(total).bit_length()) * _LOG10_2

    guard = _series_guard(abs(x), _wright_growth(b))
    return _measured_passes(dps, guard, run)
