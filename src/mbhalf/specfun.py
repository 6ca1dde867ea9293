"""Entire hypergeometric building blocks.

Provides the generalized hypergeometric series 0F2 (plus term-wise
theta-derivatives, theta = z d/dz), Wright's generalized Bessel function,
and the Frobenius solution triples of the two third-order model equations

    theta (theta + a)(theta + a + 1/2) phi + z phi = 0     (forward)
    theta (theta - a)(theta - a - 1/2) psi - z psi = 0     (adjoint)

that govern the hard-edge model problem at theta-parameter 1/2.

All series are entire, but their terms oscillate in sign and can grow by
exp(O(|z|^{1/3})) before decaying, so evaluation runs at a cancellation-
guarded working precision and the stopping rule requires 30 consecutive
negligible terms.
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc

from .mpcore import _resolve_dps, rgamma

RESONANCE_TOL = 1e-6

#: consecutive sub-threshold terms required before a series is declared done
STOP_RUN = 30

_MAX_TERMS = 20000


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


def _series_guard(radius, growth_power):
    """Extra digits to absorb cancellation in an entire series.

    ``growth_power`` is the exponent p such that the largest term scales
    like exp(c * radius^p); for 0F2, p = 1/3 and c <= 3, and the value can
    be as small as exp(-3 radius^{1/3}), so ~2.2 r^{1/3} digits vanish.
    """
    r = float(radius)
    if r <= 1:
        return 12
    return int(2.4 * r ** growth_power) + 12


def _check_lower_param(b):
    bf = float(b)
    if abs(bf - round(bf)) < 1e-9 and round(bf) <= 0:
        raise ValueError(f"lower 0F2 parameter {bf} is a nonpositive integer")


def hyper0f2_theta(b1, b2, z, c=0, dps=None):
    """(S0, S1, S2) with S_m = sum_k (c+k)^m z^k / ((b1)_k (b2)_k k!).

    S0 is 0F2(-; b1, b2; z); S1 and S2 are the term-wise theta and theta^2
    sums for a solution z^c * 0F2(...), so that theta^m [z^c F] =
    z^c * S_m.  Raising ``c`` costs nothing extra: the weights multiply
    term by term.

    Retries once at raised precision if the observed term growth exceeded
    the cancellation guard.
    """
    d = _resolve_dps(dps)
    guard = _series_guard(abs(z), 1.0 / 3.0)
    _check_lower_param(b1)
    _check_lower_param(b2)
    for attempt in range(2):
        wp = d + guard
        with mp.workdps(wp):
            zz = mpc(z)
            bb1, bb2, cc = mpf(b1), mpf(b2), mpf(c)
            term = mpc(1)
            s0 = mpc(1)
            s1 = cc * 1
            s2 = cc * cc
            maxmag = mpf(1)
            stop_eps = mpf(10) ** (-(d + 5))
            run = 0
            k = 0
            while k < _MAX_TERMS:
                term = term * zz / ((bb1 + k) * (bb2 + k) * (k + 1))
                k += 1
                w = cc + k
                s0 += term
                s1 += w * term
                s2 += w * w * term
                t = abs(term)
                if t > maxmag:
                    maxmag = t
                if t <= stop_eps * (abs(s0) or mpf(1)):
                    run += 1
                    if run >= STOP_RUN:
                        break
                else:
                    run = 0
            lost = 0.0
            if abs(s0) > 0:
                lost = float(mp.log10(maxmag / abs(s0)))
            if lost > guard - 8 and attempt == 0:
                guard = int(lost) + 15
                continue
            return +s0, +s1, +s2
    raise RuntimeError("unreachable")


def hyper0f2(b1, b2, z, dps=None):
    """0F2(-; b1, b2; z); entire in z."""
    return hyper0f2_theta(b1, b2, z, dps=dps)[0]


def _wright_guard(b, x):
    """Cancellation guard digits for J_{a,b}(x): the terms peak like
    exp(c |x|^{1/(1+b)})."""
    return _series_guard(abs(x), 1.0 / (1.0 + max(float(b), 0.1)))


def _wright_terms(a, b, x, d):
    """Terms (-x)^j / (j! Gamma(a+bj)) of J_{a,b}(x) at the ambient precision;
    the last STOP_RUN terms are each below 10^-(d+5) of the running sum.

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
                break
        else:
            run = 0
        power *= -x / (j + 1)
    return terms


def wright_bessel(a, b, x, dps=None):
    """Wright's generalized Bessel J_{a,b}(x) = sum_j (-x)^j / (j! Gamma(a+bj)).

    The sum of :func:`_wright_terms` (whose terms the kernel's integral
    route pairs one by one) at d + :func:`_wright_guard` digits; ``x`` may
    be complex.
    """
    d = _resolve_dps(dps)
    with mp.workdps(d + _wright_guard(b, x)):
        xx = mpc(x) if isinstance(x, (complex, mpc)) else mpf(x)
        return mp.fsum(_wright_terms(mpf(a), mpf(b), xx, d))


def _frobenius(z, x, table, dps):
    """z^c * (S0, S1, S2) of 0F2(-; b1, b2; x) for each (b1, b2, c) of
    ``table``, the power on the principal branch."""
    d = _resolve_dps(dps)
    out = []
    for b1, b2, c in table:
        inner = hyper0f2_theta(b1, b2, x, c=c, dps=d)
        with mp.workdps(d + 10):
            pref = mp.exp(mpf(c) * mp.log(mpc(z)))
            out.append(tuple(+(pref * s) for s in inner))
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
