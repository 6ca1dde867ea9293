"""Hard-edge kernel: integral route vs. matrix route vs. Bessel reduction."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from mbhalf import kernel
from mbhalf.kernel import (
    DIAG_GUARD,
    PrecisionLossError,
    _meijer_loss,
    _near_diagonal,
    kernel_diag_limit,
    kernel_integral,
    kernel_meijer,
)
from mbhalf.meijer import SectorPoint
from mbhalf.rhframe import phi_inverse, phi_matrix

ROUTE_TOL = mpf("1e-30")


def test_reference_values():
    # frozen regression anchors (50-digit runs of both routes)
    with mp.workdps(40):
        v = kernel_integral(mpf(0), mpf(1), mpf(2), dps=30)
        assert abs(v - mpf("0.15533228594863747")) < mpf("1e-15")
        d = kernel_diag_limit(mpf(0), mpf(1), dps=30)
        assert abs(d - mpf("0.31343109753673500")) < mpf("1e-15")


def test_routes_agree_spotcheck():
    with mp.workdps(45):
        for a, x, y in ((mpf(0), mpf(1), mpf(2)),
                        (mpf("0.7"), mpf("0.3"), mpf("2.5")),
                        (mpf("-0.4"), mpf(3), mpf("0.2")),
                        (mpf(0), mpf(200), mpf(150)),
                        (mpf("-0.9"), mpf("0.5"), mpf(2))):
            vi = kernel_integral(a, x, y, dps=35)
            vm = kernel_meijer(a, x, y, dps=35)
            assert abs(vm - vi) / abs(vi) < ROUTE_TOL, (a, x, y)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]),
                       st.floats(-1.0, 2.0, exclude_min=True,
                                 exclude_max=True)),
       x=st.floats(0.05, 20.0), y=st.floats(0.05, 20.0))
def test_routes_agree_over_the_envelope(alpha, x, y):
    # alpha in (-1, 2), the resonant 2 alpha in Z among the draws (the
    # logarithmic series), and x, y in [0.05, 20] off the matrix route's
    # diagonal band; measured within 6e-40 at d = 30 (about 1 s)
    d = 30
    a, xx, yy = mpf(alpha), mpf(x), mpf(y)
    assume(not _near_diagonal(xx, yy))
    vi = kernel_integral(a, xx, yy, dps=d)
    vm = kernel_meijer(a, xx, yy, dps=d)
    with mp.workdps(d + 10):
        assert abs(vm - vi) <= mpf(10) ** -(d - 5) * abs(vi)


def test_integral_route_accuracy_at_requested_digits():
    # the integer double sum at d digits against itself at d + 40
    for a, x, y, d in ((mpf("-0.9"), mpf("0.5"), mpf(2), 40),
                       (mpf("0.3"), mpf("4.1"), mpf("0.7"), 50),
                       (mpf(0), mpf(30), mpf(25), 60)):
        got = kernel_integral(a, x, y, dps=d)
        ref = kernel_integral(a, x, y, dps=d + 40)
        with mp.workdps(d + 50):
            assert abs(got - ref) <= mpf(10) ** (-(d + 5)) * abs(ref), (a, x, y)


def test_kernel_is_not_symmetric():
    # the two polynomial families differ, so K(x,y) != K(y,x)
    with mp.workdps(40):
        a = mpf(0)
        k1 = kernel_integral(a, mpf("0.5"), mpf("1.1"), dps=30)
        k2 = kernel_integral(a, mpf("1.1"), mpf("0.5"), dps=30)
        assert abs(k1 - k2) > mpf("0.01")


def test_theta_one_reduces_to_conjugated_bessel_kernel():
    # at theta = 1 the Wright series collapse to classical Bessel J and the
    # kernel equals (y/x)^{a/2} Int_0^1 J_a(2 sqrt(xt)) J_a(2 sqrt(yt)) dt
    with mp.workdps(40):
        for a, x, y in ((mpf(0), mpf(1), mpf(2)),
                        (mpf("0.7"), mpf("0.5"), mpf("1.5")),
                        (mpf("-0.4"), mpf(2), mpf("0.3"))):
            ours = kernel_integral(a, x, y, theta=1, dps=30)
            sym = mp.quad(lambda t: mp.besselj(a, 2 * mp.sqrt(x * t))
                          * mp.besselj(a, 2 * mp.sqrt(y * t)), [0, 1])
            ref = (y / x) ** (a / 2) * sym
            assert abs(ours - ref) / abs(ref) < mpf("1e-25"), (a, x, y)


def _wright_series_oracle(a, b, x, terms=80):
    # direct definition with mpmath's own rgamma
    return mp.fsum((-x) ** j / mp.factorial(j) * mp.rgamma(a + b * j)
                   for j in range(terms))


def test_general_theta_matches_defining_integral():
    # theta = 0.37 takes the per-term rgamma path of both Wright series;
    # the oracle integrates their product in u with mpmath's own quadrature
    with mp.workdps(40):
        a, th = mpf("0.3"), mpf("0.37")
        for x, y in ((mpf("0.8"), mpf("1.7")), (mpf(2), mpf("0.5"))):
            ours = kernel_integral(a, x, y, theta=th, dps=30)

            def integrand(u):
                return (_wright_series_oracle((a + 1) / th, 1 / th, u * x)
                        * _wright_series_oracle(a + 1, th, (u * y) ** th)
                        * u ** a)

            ref = th * y ** a * mp.quad(integrand, [0, 1])
            assert abs(ours - ref) / abs(ref) < mpf("1e-25"), (x, y)


def test_matrix_route_imag_part_vanishes():
    with mp.workdps(40):
        v = kernel_meijer(mpf("0.3"), mpf("0.7"), mpf("1.9"), dps=30,
                          return_complex=True)
        assert abs(v.imag) / abs(v) < mpf("1e-25")


def test_return_complex_flag():
    with mp.workdps(40):
        v = kernel_meijer(mpf(0), mpf(1), mpf(2), dps=30, return_complex=True)
        assert isinstance(v, mp.mpc)
        assert abs(mp.im(v)) < mpf("1e-25")
        w = kernel_meijer(mpf(0), mpf(1), mpf(2), dps=30)
        assert isinstance(w, mp.mpf)
        assert abs(w - mp.re(v)) < mpf("1e-28")


def test_diag_limit_continuity():
    # off-diagonal values converge to the diagonal limit as y -> x
    with mp.workdps(40):
        a, x = mpf("0.3"), mpf("1.2")
        d = kernel_diag_limit(a, x, dps=30)
        prev = None
        for eps in (mpf("1e-2"), mpf("1e-3"), mpf("1e-4")):
            v = kernel_meijer(a, x, x + eps, dps=30)
            gap = abs(v - d)
            if prev is not None:
                assert gap < prev / 5, eps
            prev = gap
        assert prev < mpf("1e-3")


@pytest.mark.parametrize("alpha", ["0", "0.3", "1"])
def test_matrix_route_near_the_origin(alpha):
    # Phi_+(x)'s scalars grow like x^-(alpha+1/2) while the kernel stays
    # O(1), and the bilinear form vanishes like x - y: at 30 digits the
    # unraised route was 5.2e6 (alpha = 0) and 2.6e37 (alpha = 0.3) off
    # relative at (1e-100, 2), and 1.0 and about 1e136 off at
    # (1e-100, 1e-99).  Its loss bound now raises the working digits, and
    # a point beyond MAX_LOSS_RAISE of them is refused.  Small y alone, where
    # the kernel vanishes like y^alpha, needs no raise
    d, a = 30, mpf(alpha)
    for x, y in (("1e-100", "2"), ("1e-100", "1e-99"),
                 ("2", "1e-100"), ("1", "1e-60")):
        xx, yy = mpf(x), mpf(y)
        ref = kernel_integral(a, xx, yy, dps=50)
        got = kernel_meijer(a, xx, yy, dps=d)
        with mp.workdps(60):
            assert abs(got - ref) <= mpf(10) ** -(d + 5) * abs(ref), (x, y)
    with pytest.raises(PrecisionLossError):
        kernel_meijer(a, mpf("1e-300"), mpf("1e-299"), dps=d)


def test_integral_route_as_alpha_approaches_minus_one():
    # both Wright series start at a = 2(alpha+1) and alpha+1, where
    # 1/Gamma(a) ~ a is the seed of each even chain; against the matrix route
    d = 30
    with mp.workdps(60):
        a = mpf(-1) + mpf("1e-40")
    for x, y in ((mpf(1), mpf(2)), (mpf("0.3"), mpf(5))):
        vi = kernel_integral(a, x, y, dps=d)
        vm = kernel_meijer(a, x, y, dps=d)
        with mp.workdps(d + 10):
            assert abs(vi - vm) <= mpf(10) ** -(d + 5) * abs(vm), (x, y)


@pytest.mark.parametrize("alpha", ["-1", "-1.5"])
def test_routes_refuse_alpha_at_or_below_minus_one(alpha):
    # the kernel is defined for alpha > -1 only; the matrix route's frames
    # still return numbers below it (0.1131 at alpha = -1, (x, y) = (1, 2))
    for route in (kernel_integral, kernel_meijer, kernel._meijer_or_diag):
        with pytest.raises(ValueError, match="alpha > -1"):
            route(mpf(alpha), mpf(1), mpf(2), dps=30)


def test_matrix_route_refuses_near_diagonal():
    with pytest.raises(ValueError):
        kernel_meijer(mpf(0), mpf(1), mpf(1) + mpf(DIAG_GUARD) / 10, dps=30)


def test_diagonal_positive():
    # the diagonal is a one-point correlation density, hence positive
    with mp.workdps(35):
        for a in (mpf("-0.4"), mpf(0), mpf("1.2")):
            for x in (mpf("0.1"), mpf(1), mpf(5)):
                assert kernel_diag_limit(a, x, dps=25) > 0, (a, x)


def test_theta_default_matches_half():
    with mp.workdps(40):
        v1 = kernel_integral(mpf("0.3"), mpf(1), mpf(2), dps=30)
        v2 = kernel_integral(mpf("0.3"), mpf(1), mpf(2), theta=mpf("0.5"),
                             dps=30)
        assert abs(v1 - v2) < mpf("1e-28")



def _full_frame_kernel(alpha, x, y, dps):
    """(-1, 1, 0) Phi_+^{-1}(y) Phi_+(x) (1, 1, 0)^T / (2 pi i (x - y)) from
    the full 3x3 frames of rhframe."""
    with mp.workdps(dps):
        xx, yy = mpf(x), mpf(y)
        xmat = phi_matrix(alpha, SectorPoint(xx, mpf(0)), dps=dps, side="+")
        yinv = phi_inverse(alpha, SectorPoint(yy, mpf(0)), dps=dps, side="+")
        left = [yinv[1][k] - yinv[0][k] for k in range(3)]
        right = [xmat[k][0] + xmat[k][1] for k in range(3)]
        return (sum(l * r for l, r in zip(left, right))
                / (2 * mp.pi * mpc(0, 1) * (xx - yy)))


@pytest.mark.parametrize("d", [30, 50])
@pytest.mark.parametrize("alpha", ["-0.9", "-0.5", "0", "0.3", "0.5", "1.9"])
def test_two_frame_entries_match_the_full_frames(alpha, d):
    # the matrix route reads only the phi4 triple at x and the psi4 triple
    # at y; it must give the bilinear form of the full frames, taken here
    # at d + 10 digits beyond the a priori loss, to 10^-(d+5).  x = 1e-20
    # and the gap 1e-12 (relative 1e-5, outside the diagonal band) are
    # points where _meijer_loss raises the route's digits.  alpha = -0.5,
    # 0 and 0.5 put phi's or psi's b on the logarithmic series
    a = mpf(alpha)
    for x, y in (("0.3", "2.2"), ("4.9", "0.2"), ("1e-20", "1.5"),
                 ("1e-7", "1.00001e-7")):
        got = kernel_meijer(a, x, y, dps=d, return_complex=True)
        loss = math.ceil(_meijer_loss(a, mpf(x), mpf(y)))
        ref = _full_frame_kernel(a, x, y, d + loss + 10)
        with mp.workdps(d + loss + 10):
            assert abs(got - ref) <= mpf(10) ** -(d + 5) * abs(ref), (x, y)


def _double_sum_arguments(monkeypatch, alpha, x, y, theta):
    """The arguments kernel_integral hands _double_sum at (x, y), and the
    working precision it hands them at."""
    seen = []
    run = kernel._double_sum

    def record(*args):
        seen.append((args, mp.prec))
        return run(*args)

    monkeypatch.setattr(kernel, "_double_sum", record)
    kernel_integral(mpf(alpha), x, y, theta=theta, dps=30)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("theta", ["0.5", "1"])
@pytest.mark.parametrize("x, y", [("0.2", "0.3"), ("1", "2"), ("4.9", "0.21"),
                                  ("998", "1003"), ("1000", "0.5")])
def test_bucket_sum_meets_the_pair_sum(monkeypatch, theta, x, y):
    # when 2 theta = p is an integer the double sum divides once per
    # anti-diagonal m = 2j + p k; it must meet the J x K floor divisions
    # within the two bounds of _double_sum's docstring, in units of
    # 2^(ex+ey): under one a bucket, and under |A_j| (1 + K/16) / min(1,
    # s0)^2 a pair, the s_k truncation included
    (xt, ex, yt, ey, s0, ds), prec = _double_sum_arguments(
        monkeypatch, "0.3", x, y, mpf(theta))
    with mp.workprec(prec):
        w = prec + kernel._SUM_GUARD
        s0f, dsf = to_fixed(s0._mpf_, w), to_fixed(ds._mpf_, w)
        p = int(2 * ds)
        buckets = kernel._bucket_sum(xt, yt, s0f, p, w)
        pairs = kernel._pair_sum(xt, yt, s0f, dsf, w)
    jj, kk = len(xt), len(yt)
    bound = (2 * jj + p * kk
             + jj * kk * (1 + kk / 16) * max(map(abs, xt)) / min(1, s0) ** 2)
    assert abs(buckets - pairs) <= bound


# kernel_integral(0.3, x, y, theta=0.37) at 30 digits as (sign, hex
# mantissa, exponent): 2 theta is not an integer, so each pair keeps its
# floor division
_THETA_037_BITS = {
    ("1", "2"): (0, "0x29c662e6da67d837df821d2ae9255a61b3cb", -146),
    ("4.9", "0.3"): (0, "0x2686c500a90c9b9348b1f785fbee2d5df127", -146),
}


def test_other_theta_keeps_the_pair_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("bucket sum at 2 theta not an integer")

    monkeypatch.setattr(kernel, "_bucket_sum", refuse)
    for (x, y), bits in _THETA_037_BITS.items():
        v = kernel_integral(mpf("0.3"), mpf(x), mpf(y), theta=mpf("0.37"),
                            dps=30)
        assert (v._mpf_[0], hex(v._mpf_[1]), v._mpf_[2]) == bits, (x, y)
