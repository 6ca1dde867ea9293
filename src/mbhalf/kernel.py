"""Limiting hard-edge correlation kernels, by two independent routes.

The integral route works for every theta > 0:

    B^(a,th)(x,y) = th y^a int_0^1 J_{(a+1)/th, 1/th}(u x)
                                   J_{a+1, th}((u y)^th) u^a du,

with J_{a,b} the Wright-Bessel function.  Expanding both series and
integrating term by term, int_0^1 u^(j + th k + a) du = 1/(j + th k + a + 1),
gives the double series that is summed here:

    B^(a,th)(x,y) = th y^a sum_{j,k} A_j C_k / (j + th k + a + 1),
    A_j = (-x)^j / (j! Gamma((a+1+j)/th)),
    C_k = (-y^th)^k / (k! Gamma(a+1+th k)).

Every denominator is at least a + 1 > 0, so the sum is regular on the
diagonal and for a in (-1,0).  At th=1 it collapses to the classical
Bessel hard-edge kernel (a Lommel-integral identity used as an
independent test oracle).

The double series is summed in integers: A_j and C_k come as integers
from the Wright-Bessel term loop (:func:`mbhalf.specfun._wright_terms`,
which stops each series on an a priori tail bound), a + 1 and th become
fixed-point integers once, and the double sum is rounded to an mpf once
(:func:`_double_sum`, which states the error bound).  When 2 th is an
integer (th = 1/2, and the th = 1 oracle) a denominator depends on
2j + 2 th k alone, so the exact products A_j C_k are summed along each
such anti-diagonal and divided once; any other th takes each inner sum
sum_k C_k / (j + th k + a + 1) as a run of integer floor divisions.

Two normalizations of the limit kernel are in circulation, differing by
the choice of microscopic scale: the 'plain' one is B above (scale n^3
at th=1/2), while the scaling theorem for V(x)=x uses the scale
(c_V n)^3 with c_V = 2^{-2/3}, whose limit is

    K^(a,1/2)(x,y) = c_V^{-3} B^(a,1/2)(x / c_V^3, y / c_V^3)
                   = 4 B^(a,1/2)(4x, 4y).

The matrix route below produces K directly (verified to 1e-32), so at
th = 1/2 the integral route returns the same normalization; at any other
theta, including the th=1 Bessel reduction, it returns the bare integral B.

The matrix route is specific to th = 1/2:

    K^(a,1/2)(x,y) = (-1, 1, 0) Phi_+^{-1}(y) Phi_+(x) (1, 1, 0)^T
                     / (2 pi i (x - y)),

with Phi_+ the boundary value of the first-quadrant branch on the
positive axis and Phi^{-1} taken from the adjoint-frame identity (no
numerical inversion).  The form reads one column and one row of these
frames: Phi_+(x) (1, 1, 0)^T is the triple of phi4 = phi1 + phi2 at x,
and with Phi^{-1} = -Psi^T C / (4 pi^2) the row (-1, 1, 0) Phi_+^{-1}(y)
is -(theta^2 psi4, theta psi4, psi4)(y) C / (4 pi^2), psi4 = psi2 - psi1,
so that

    K^(a,1/2)(x,y) = -(theta^2 psi4, theta psi4, psi4)(y) C
                      (phi4, theta phi4, theta^2 phi4)(x)^T
                     / (8 pi^3 i (x - y)),

two sheets of G at x and two of Gt at y (:func:`meijer.phi4_triple`,
:func:`meijer.psi4_triple`).  The value is real; the imaginary residue is
a consistency diagnostic.  Near the origin and the diagonal the frames'
entries cancel in the bilinear form; the route raises its working digits
by an a priori bound on that loss (:func:`_meijer_loss`) and refuses a
point that would need more than MAX_LOSS_RAISE of them.

Both routes take node sets xs x ys (:func:`kernel_integral_grid`,
:func:`kernel_meijer_grid`), and a single value is the 1 x 1 node set.
A node's work is done once: its Wright-Bessel terms, at the most digits
any pair of the set works at, or its phi4 or psi4 triple, at the most
digits any of its own pairs needs.  Each pair then makes only its double
sum or its bilinear form, at its own digits.  The two routes share no
node work and stay independent.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import add, floordiv, mul

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .mpcore import NumericalError, working
from .specfun import (_LOG10_2, _cancellation_digits, _wright_growth,
                      _wright_terms)
from .meijer import SectorPoint, phi4_triple, psi4_triple
from .rhframe import c_matrix

#: relative diagonal gap below which the matrix route refuses to divide
DIAG_GUARD = 1e-6
#: bits of the double sum's fixed-point scales beyond the working precision
_SUM_GUARD = 24
#: guard digits the matrix route's value keeps beyond the requested ones
#: after its a priori loss (:func:`_meijer_loss`); its guard digits hold the
#: rest of the loss, and only a loss beyond them raises the working digits
_MARGIN_DIGITS = 5
#: most digits the matrix route raises its working precision by; a point
#: that needs more is refused with :class:`PrecisionLossError`
MAX_LOSS_RAISE = 400


class PrecisionLossError(NumericalError, ArithmeticError):
    """The matrix route would lose more digits near the origin or the
    diagonal than MAX_LOSS_RAISE extra working digits restore."""


def _near_diagonal(x, y):
    """True in the DIAG_GUARD band about the diagonal, where
    :func:`kernel_meijer` refuses its 1/(x-y)."""
    return abs(x - y) < DIAG_GUARD * max(x, y)


def _log10_inv(v):
    """An upper bound on log10(1/v) for v > 0, and 0 for v >= 1."""
    return max(0, 1 - mp.mag(v)) * _LOG10_2


def _meijer_loss(alpha, x, y):
    """A priori bound on the digits :func:`kernel_meijer` loses at (x, y):

        max(0, alpha + 1/2) log10(1/x) + log10(1/|x - y|),

    each logarithm counted only below 1.  The kernel stays O(1) as
    x -> 0 while the scalars of Phi_+(x) grow like x^-(alpha+1/2) (the
    exponents of G^{3,0}_{0,3}(x | 0, -a, -a-1/2)), and the bilinear form
    vanishes like x - y.  With the raise it sets,
    30-digit values at alpha in {-0.9, 0, 0.3, 1, 1.9}, x from 1e-100 to 1
    and gaps from 1e-99 to 2 carried at least 36 correct digits against
    kernel_integral at 60; without it, 12 at alpha = 1 and x = 1e-20.
    Small y alone costs nothing: the kernel vanishes like y^alpha there,
    and at (x, y) = (2, 1e-100) and (1, 1e-60), alpha in {0.3, 1}, the
    unraised route still carried 39 correct digits of 30.
    """
    return (max(0.0, float(alpha) + 0.5) * _log10_inv(x)
            + _log10_inv(abs(x - y)))


def _double_sum(xterms, ex, yterms, ey, s0, ds):
    """sum_j A_j sum_k C_k / (j + s_k) for A_j = ``xterms``[j] 2^ex,
    C_k = ``yterms``[k] 2^ey (the integer terms of
    :func:`~mbhalf.specfun._wright_terms`) and s_k = s0 + k ds (s0 > 0,
    ds >= 0), rounded once to the working precision.

    With w = prec + _SUM_GUARD, s0 and ds are truncated to the scale 2^-w,
    so s_k is off by under (k+1) 2^-w (exact for an mpf s0 >= 2^-24 and
    ds = 1/2).  When 2 ds = p is an exact integer (theta = 1/2, and the
    theta = 1 of the Bessel oracle), j + s_k = (2j + p k)/2 + s0 depends on
    m = 2j + p k alone: the exact integer products A_j C_k are summed into
    one bucket per m, and each of the 2(J-1) + p(K-1) + 1 buckets is one
    floor division at the scale 2^(ex+ey), off by under one unit
    (:func:`_bucket_sum`).  Every other ds takes each C_k / (j + s_k) as one
    floor division at the scale 2^ey, off by under one unit
    (:func:`_pair_sum`).  With |A_j| <= 2^(top A), |C_k| <= 2^(top C) and
    ey <= top C - prec - 20 (the term loops' scale), J x K terms are then
    off by at most J K (1 + K / 16) 2^(top A + top C - prec - 20)
    / min(1, s0)^2 beyond the terms' own errors, before the last rounding;
    the buckets by at most (2J + pK) 2^(ex+ey) plus the s0 truncation's
    J K 2^(top A + top C - w) / min(1, s0)^2.
    """
    w = mp.prec + _SUM_GUARD
    s0f = to_fixed(s0._mpf_, w)
    if 2 * ds >= 1 and mp.isint(2 * ds):
        total = _bucket_sum(xterms, yterms, s0f, int(2 * ds), w)
    else:
        total = _pair_sum(xterms, yterms, s0f, to_fixed(ds._mpf_, w), w)
    return mp.make_mpf(from_man_exp(total, ex + ey, mp.prec, round_nearest))


def _pair_sum(xterms, yterms, s0, ds, w):
    """sum_j a_j sum_k floor(c_k 2^w / (j 2^w + s0 + k ds)), the J x K
    floor divisions of :func:`_double_sum`, for the integers a_j, c_k and
    the fixed-point s0 and ds at the scale 2^-w."""
    c = [ck << w for ck in yterms]
    s = [s0 + k * ds for k in range(len(c))]
    total = 0
    for j, aj in enumerate(xterms):
        jw = j << w
        total += aj * sum(map(floordiv, c, [jw + sk for sk in s]))
    return total


def _bucket_sum(xterms, yterms, s0, p, w):
    """sum_m floor(B_m 2^w / (m 2^(w-1) + s0)), B_m the sum of the exact
    products a_j c_k with 2j + p k = m: :func:`_double_sum` for
    ds = p / 2, one floor division a bucket, for the integers a_j, c_k and
    the fixed-point s0 at the scale 2^-w."""
    kk = len(yterms)
    buckets = [0] * (2 * len(xterms) + p * (kk - 1) - 1)
    for j, aj in enumerate(xterms):
        row = slice(2 * j, 2 * j + p * kk, p)
        buckets[row] = map(add, buckets[row], map(mul, yterms, repeat(aj)))
    return sum(map(floordiv, [b << w for b in buckets],
                   [(m << (w - 1)) + s0 for m in range(len(buckets))]))


def kernel_integral(alpha, x, y, theta=None, dps=None):
    """Hard-edge kernel via the Wright-Bessel integral (any theta > 0),
    summed as the double series of the module docstring.

    At theta = 1/2 the value carries the scaling theorem's (c_V n)
    convention, K = 4 B(4x, 4y); at any other theta it is the bare
    integral B.

    The double sum is raised by the cancellation digits of both
    Wright-Bessel series, whose terms it pairs.  This is the 1 x 1 node
    set of :func:`kernel_integral_grid`.
    """
    return kernel_integral_grid(alpha, (x,), (y,), theta=theta, dps=dps)[0][0]


def kernel_integral_grid(alpha, xs, ys, theta=None, dps=None):
    """:func:`kernel_integral` at every (x, y) of the node set xs x ys, as
    one row of values per x.

    A pair (x, y) works at the digits d + l(x) + l(y), l the cancellation
    digits of its point's Wright-Bessel series.  Each distinct node's terms
    are taken once (:func:`~mbhalf.specfun._wright_terms`), all at the
    most digits any pair works at, d + max l(x) + max l(y): one precision
    a node set, so that mpmath builds its gamma coefficients once.  A pair
    then makes its double sum alone, at its own digits, from terms at
    least as fine as its own would be (:func:`_double_sum`).
    """
    with working(dps) as d:
        a = mpf(alpha)
        th = mpf(0.5) if theta is None else mpf(theta)
        xx, yy = [mpf(x) for x in xs], [mpf(y) for y in ys]
        if a <= -1 or th <= 0 or not all(v > 0 for v in xx + yy):
            raise ValueError("need alpha > -1, theta > 0 and x, y > 0")
        front = mpf(1)
        if th == mpf(0.5):
            xx, yy = [4 * v for v in xx], [4 * v for v in yy]
            front = mpf(4)
        yth = [v ** th for v in yy]
    lx = [_cancellation_digits(v, _wright_growth(1 / th)) for v in xx]
    ly = [_cancellation_digits(v, _wright_growth(th)) for v in yth]
    with working(d, max(lx) + max(ly)):
        # int_0^1 u^(j + th k + a) du = 1 / (j + th k + a + 1) <= 1 / (a + 1)
        xterms = _node_values(xx, lambda v: _wright_terms((a + 1) / th,
                                                          1 / th, v))
        yterms = _node_values(yth, lambda v: _wright_terms(a + 1, th, v))
    out = []
    for (xt, ex), li in zip(xterms, lx):
        row = []
        for v, (yt, ey), lj in zip(yy, yterms, ly):
            with working(d, li + lj):
                row.append(front * th * v ** a
                           * _double_sum(xt, ex, yt, ey, a + 1, th))
        out.append(row)
    return out


def _node_values(nodes, value):
    """``value(v)`` once for each distinct node v of ``nodes``, in their
    order; None for a node that is None."""
    done = {None: None}
    keys = [None if v is None else v._mpf_ for v in nodes]
    for v, key in zip(nodes, keys):
        if key not in done:
            done[key] = value(v)
    return [done[key] for key in keys]


#: the matrix route's constants are cached per exact alpha and digits;
#: least recently used ones are dropped beyond this many
_PLAN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _meijer_plan(akey, dps):
    """C (:func:`rhframe.c_matrix`) and 8 pi^3 i, the constants of the
    matrix route's bilinear form, for alpha given by its mpf tuple
    ``akey``, at ``dps`` digits (the raise of working(dps), so that the
    cache key fixes the precision)."""
    with working(dps) as d:
        c = tuple(map(tuple, c_matrix(mp.make_mpf(akey), dps=d)))
        return c, 8 * mp.pi ** 3 * mpc(0, 1)


def _meijer_extra(alpha, xx, yy, d):
    """The digits :func:`kernel_meijer` raises its working digits by at
    (x, y), from :func:`_meijer_loss` less the guard digits that hold it
    with _MARGIN_DIGITS left; more than MAX_LOSS_RAISE raises
    :class:`PrecisionLossError`."""
    with working(d):
        loss = math.ceil(_meijer_loss(alpha, xx, yy))
        extra = max(0, loss - (mp.dps - d - _MARGIN_DIGITS))
    if extra > MAX_LOSS_RAISE:
        raise PrecisionLossError(
            "the matrix route would lose %d digits at (x, y) = (%s, %s), "
            "more than its %d extra working digits restore; use "
            "kernel_integral" % (loss, mp.nstr(xx, 5), mp.nstr(yy, 5),
                                 MAX_LOSS_RAISE))
    return extra


def _matrix_route(alpha, xx, yy, d, return_complex):
    """The matrix route on the node set xx x yy (positive mpfs) at d
    digits: one row of values per x, None in the band of
    :func:`_near_diagonal`.  Each pair's digits are d + its
    :func:`_meijer_extra`; each distinct x takes its phi4 triple and each
    distinct y its psi4 triple once, at the most digits any of its pairs
    needs, and a pair forms the bilinear form alone, at its own digits."""
    extras = [[None if _near_diagonal(x, y) else _meijer_extra(alpha, x, y, d)
               for y in yy] for x in xx]

    def triples(triple, nodes, node_extras):
        digits = {v._mpf_: d + max(e for e in col if e is not None)
                  for v, col in zip(nodes, node_extras)
                  if any(e is not None for e in col)}
        return _node_values(
            [v if v._mpf_ in digits else None for v in nodes],
            lambda v: triple(alpha, SectorPoint(v, mpf(0)),
                             dps=digits[v._mpf_]))

    phis = triples(phi4_triple, xx, extras)
    psis = triples(psi4_triple, yy, list(zip(*extras)))
    out = []
    for x, right, row_extras in zip(xx, phis, extras):
        row = []
        for y, psi4, extra in zip(yy, psis, row_extras):
            if extra is None:
                row.append(None)
                continue
            with working(d, extra):
                c, eight_pi3_i = _meijer_plan(mpf(alpha)._mpf_, d + extra)
                # (theta^2 psi4, theta psi4, psi4) C, C lower triangular
                left = [sum(psi4[2 - i] * c[i][k] for i in range(k, 3))
                        for k in range(3)]
                bilinear = sum(l * r for l, r in zip(left, right))
                val = -bilinear / (eight_pi3_i * (x - y))
                row.append(val if return_complex else val.real)
        out.append(row)
    return out


def kernel_meijer(alpha, x, y, dps=None, return_complex=False):
    """Hard-edge kernel (theta = 1/2) via the boundary frame on R+, from
    the two frame entries its bilinear form reads: the phi4 triple at x
    and the psi4 triple at y (module docstring), each from two sheets of
    its G-function by the route of :func:`meijer.pick_route`.

    Near the origin and the diagonal the frames and the bilinear form work
    at the digits of :func:`_meijer_loss` beyond those its guard digits
    hold with _MARGIN_DIGITS left; a point that needs more than
    MAX_LOSS_RAISE of them raises :class:`PrecisionLossError`.  This is
    the 1 x 1 node set of :func:`kernel_meijer_grid`."""
    with working(dps) as d:
        xx, yy = mpf(x), mpf(y)
        if mpf(alpha) <= -1 or xx <= 0 or yy <= 0:
            raise ValueError("need alpha > -1 and x, y > 0")
        if _near_diagonal(xx, yy):
            raise ValueError(
                "x and y too close for the 1/(x-y) route; "
                "use kernel_diag_limit")
    return _matrix_route(alpha, [xx], [yy], d, return_complex)[0][0]


def kernel_meijer_grid(alpha, xs, ys, dps=None):
    """:func:`kernel_meijer` at every (x, y) of the node set xs x ys, as
    one row of values per x, and None for a pair in the band of
    :func:`_near_diagonal`, which the route refuses.

    A pair's digits are those :func:`kernel_meijer` takes for it.  Each
    distinct x takes its phi4 triple and each distinct y its psi4 triple
    once, at the most digits any of its pairs needs; a pair forms only
    its bilinear form, at its own digits.  A pair that would need more
    than MAX_LOSS_RAISE extra digits raises :class:`PrecisionLossError`
    before any triple is taken."""
    with working(dps) as d:
        xx, yy = [mpf(x) for x in xs], [mpf(y) for y in ys]
        if mpf(alpha) <= -1 or not all(v > 0 for v in xx + yy):
            raise ValueError("need alpha > -1 and x, y > 0")
    return _matrix_route(alpha, xx, yy, d, False)


def kernel_diag_limit(alpha, x, dps=None):
    """K^(a,1/2)(x,x), evaluated directly by the integral route's double
    series, whose denominators j + k/2 + a + 1 do not vanish at x = y."""
    return kernel_integral(alpha, x, x, theta=mpf(0.5), dps=dps)


def _meijer_or_diag(alpha, x, y, dps):
    """The kernel by the matrix route, or by :func:`kernel_diag_limit` at
    (x + y)/2 in the band of :func:`_near_diagonal`."""
    if _near_diagonal(x, y):
        return kernel_diag_limit(alpha, (x + y) / 2, dps=dps)
    return kernel_meijer(alpha, x, y, dps=dps)
