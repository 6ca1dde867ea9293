"""Series engines: 0F2 with theta weights, its logarithmic sums, Wright Bessel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from mbhalf import specfun
from mbhalf.mpcore import working
from mbhalf.specfun import (
    SeriesConvergenceError,
    hyper0f2,
    hyper0f2_log_theta,
    hyper0f2_theta,
    wright_bessel,
)

TOL = mpf("1e-45")


def test_hyper0f2_matches_mpmath():
    cases = [
        (mpf("1.3"), mpf("1.8"), mpf("0.5")),
        (mpf("0.7"), mpf("1.5"), mpf("-2.0")),
        (mpf("2.2"), mpf("0.4"), mpc(1, 1)),
        (mpf("1.1"), mpf("2.5"), mpf("30")),
    ]
    with mp.workdps(60):
        for b1, b2, z in cases:
            ours = hyper0f2(b1, b2, z, dps=50)
            ref = mp.hyper([], [b1, b2], z)
            assert abs(ours - ref) / abs(ref) < TOL, (b1, b2, z)


def test_hyper0f2_large_negative_argument_cancellation():
    # naive summation at z = -300 loses ~ 2.4 * 300^{1/3} digits; the guard
    # has to absorb that
    with mp.workdps(60):
        ours = hyper0f2(mpf("1.5"), mpf("2.0"), mpf(-300), dps=50)
        ref = mp.hyper([], [mpf("1.5"), mpf("2.0")], mpf(-300))
        assert abs(ours - ref) / abs(ref) < mpf("1e-40")


def test_hyper0f2_rejects_nonpositive_lower_parameter():
    for b in (0, -1, -3.0):
        with pytest.raises(ValueError):
            hyper0f2(b, 1.5, 0.3, dps=30)


def test_theta_weights_match_log_derivative():
    # S1, S2 are the term-wise theta sums for z^c F(z); check them against
    # 5-point central differences in u = log z
    a, c = mpf("0.3"), mpf("-0.3")
    b1, b2 = 1 - a, mpf("1.5")
    z = mpf("0.8")
    h = mpf("1e-6")
    with mp.workdps(60):

        def func(k, m):
            zz = z * mp.exp(k * h)
            s = hyper0f2_theta(b1, b2, -zz, c=c, dps=50)[m]
            return mp.power(zz, c) * s

        for m in (0, 1):
            num = (-func(2, m) + 8 * func(1, m) - 8 * func(-1, m)
                   + func(-2, m)) / (12 * h)
            sym = func(0, m + 1)
            assert abs(num - sym) / abs(sym) < mpf("1e-20"), m


def _away_from_poles(b):
    # at least 0.05 from every nonpositive integer
    return b > 0.05 or abs(b - round(b)) >= 0.05


_lower = st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True).filter(
    _away_from_poles)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(b1=_lower, b2=_lower,
       c=st.floats(-1.5, 0.5, exclude_min=True, exclude_max=True),
       log_r=st.floats(-2.0, 3.0), arg=st.floats(-5 * np.pi, 5 * np.pi),
       d=st.sampled_from([30, 45, 60]))
def test_hyper0f2_theta_accuracy_property(b1, b2, c, log_r, arg, d):
    # S0, S1, S2 at d digits against the same function at d + 40, and S0
    # against mpmath's own 0F2
    with mp.workdps(d + 50):
        bb1, bb2, cc = mpf(b1), mpf(b2), mpf(c)
        z = mpf(10) ** log_r * mp.expjpi(mpf(arg) / mp.pi)
        got = hyper0f2_theta(bb1, bb2, z, c=cc, dps=d)
        ref = hyper0f2_theta(bb1, bb2, z, c=cc, dps=d + 40)
        tol = mpf(10) ** (-(d + 5))
        for m in range(3):
            assert abs(got[m] - ref[m]) <= tol * abs(ref[m]), m
        oracle = mp.hyper([], [bb1, bb2], z)
        assert abs(got[0] - oracle) <= tol * abs(oracle)


def test_hyper0f2_theta_stops_on_the_tail_bound(monkeypatch):
    # floor division leaves a small negative term at -1 unit for ever; a
    # stop that waits for the term to vanish ran all _MAX_TERMS here
    monkeypatch.setattr(specfun, "_MAX_TERMS", 200)
    b1, b2, z = mpf("1.3"), mpf("1.8"), mpf("1.3") * mp.expjpi(mpf("-0.25"))
    got = hyper0f2_theta(b1, b2, z, dps=67)
    with mp.workdps(80):
        ref = mp.hyper([], [b1, b2], z)
        assert abs(got[0] - ref) < mpf("1e-70") * abs(ref)


def test_theta_sums_stop_past_the_default_guard(monkeypatch):
    # from k + |c| = 722 on, twice the tail weight (|c|+k+3)^2 alone
    # exceeds the 2^20 guard units, so the stop could never pass and
    # b1 = -800.5 (S0 = 0.99975017490174118422648...) ran out of terms; the
    # sums restart once with the weight's bits added to the guard, while
    # b1 = -600.5 keeps its one pass.  mp.hyper at 30 digits is off near
    # 1e-20 at b1 = -600.5, so the oracle runs at 80
    calls = []
    theta_sums = specfun._theta_sums

    def counted(*args):
        calls.append(args)
        return theta_sums(*args)

    monkeypatch.setattr(specfun, "_theta_sums", counted)
    for b1, passes in ((-600.5, 1), (-800.5, 2)):
        calls.clear()
        got = hyper0f2_theta(b1, 1.5, 0.3, dps=30)
        assert len(calls) == passes, b1
        with mp.workdps(80):
            ref = mp.hyper([], [b1, 1.5], 0.3)
            assert abs(got[0] - ref) < mpf("1e-28"), b1


def test_series_out_of_terms_raise_with_partial_sums(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    b1, b2, c = mpf("1.3"), mpf("1.8"), mpf("0.5")
    with pytest.raises(SeriesConvergenceError) as info:
        hyper0f2_theta(b1, b2, mpf(40), c=c, dps=30)
    with mp.workdps(40):
        terms = [mpf(40) ** k / (mp.rf(b1, k) * mp.rf(b2, k) * mp.factorial(k))
                 for k in range(6)]
        for m, s in enumerate(info.value.partial_sums):
            ref = sum((c + k) ** m * t for k, t in enumerate(terms))
            assert abs(s - ref) < mpf("1e-28") * ref, m
    with pytest.raises(SeriesConvergenceError) as info:
        wright_bessel(1, 1, mpf(9), dps=30)
    prev, last = info.value.partial_sums
    with mp.workdps(40):
        ref = sum((-9) ** j / mp.factorial(j) ** 2 for j in range(5))
        assert abs(last - ref) < mpf("1e-28") * abs(ref)
        assert abs(last - prev - mpf(9) ** 4 / 576) < mpf("1e-28")


def _wright_oracle_terms(a, b, x, terms=200):
    # direct definition with mpmath's own rgamma
    out = []
    sign = 1
    xp = mpf(1)
    fact = mpf(1)
    for j in range(terms):
        out.append(sign * xp / fact * mp.rgamma(a + b * j))
        sign = -sign
        xp *= x
        fact *= j + 1
    return out


def _wright_series_oracle(a, b, x, terms=200):
    return mp.fsum(_wright_oracle_terms(a, b, x, terms))


def test_hyper0f2_log_theta_matches_direct_sums():
    # the h_k-weighted sums against plain mpf term sums at 40 more digits;
    # b1 < 0 makes h_k change sign, |z| = 10^3 makes the terms cancel by
    # about 13 digits
    d = 30
    for b1, b2, z, c in ((mpf("1.5"), mpf(1), mpc("-2.5", 1), mpf(0)),
                         (mpf("-0.7"), mpf("1.3"), mpc(3, 1), mpf("-0.5")),
                         (mpf("0.5"), mpf(2), mpf(-1000), mpf(1))):
        got = hyper0f2_log_theta(b1, b2, z, c=c, dps=d)
        with mp.workdps(d + 40):
            t, h = mpf(1), mpf(0)
            ref = [mpf(0)] * 6
            for k in range(400):
                if k:
                    t *= z / ((b1 + k - 1) * (b2 + k - 1) * k)
                    h += 1 / mpf(k) + 1 / (b1 + k - 1) + 1 / (b2 + k - 1)
                for m in range(3):
                    ref[m] += (c + k) ** m * t
                    ref[3 + m] += (c + k) ** m * t * h
            for m in range(6):
                assert abs(got[m] - ref[m]) <= mpf(10) ** -(d + 5) * abs(ref[m]), (b1, m)


def test_wright_bessel_matches_series_oracle():
    with mp.workdps(60):
        for a, b, x in ((mpf(1), mpf(1), mpf("2.5")),
                        (mpf("1.3"), mpf("0.5"), mpf("4.0")),
                        (mpf("0.7"), mpf("2.0"), mpf("1.1")),
                        (mpf("1.0"), mpf("0.37"), mpf("3.0"))):
            ours = wright_bessel(a, b, x, dps=50)
            ref = _wright_series_oracle(a, b, x)
            assert abs(ours - ref) / abs(ref) < TOL, (a, b, x)


def test_wright_bessel_classical_reduction():
    # J_{1,1}(x) = sum (-x)^j / (j!)^2 = J_0(2 sqrt(x))
    with mp.workdps(60):
        for x in (mpf("0.5"), mpf(2), mpf(9)):
            ours = wright_bessel(1, 1, x, dps=50)
            ref = mp.besselj(0, 2 * mp.sqrt(x))
            assert abs(ours - ref) / abs(ref) < TOL, x


def test_wright_bessel_fast_and_generic_paths_agree():
    # b = 1/2 takes the gamma product recurrence; b = 0.5 + 1e-13 is no
    # half-integer and must take per-term rgamma (a float-tolerance test
    # once sent it down the recurrence, 1e-11 off); both against the series
    with mp.workdps(40):
        for b in (mpf("0.5"), mpf("0.5") + mpf("1e-13")):
            v = wright_bessel(mpf("1.2"), b, mpf(3), dps=30)
            ref = _wright_series_oracle(mpf("1.2"), b, mpf(3))
            assert abs(v - ref) / abs(ref) < mpf("1e-22"), b


def test_wright_bessel_cancellation_retry(monkeypatch):
    # J_{1,1}(400) = J_0(40) loses about 18 digits to cancellation; with no
    # cancellation guard the first pass keeps about 22 of its 40 digits, and
    # the retry at the digits it lost and GUARD_DIGITS more restores them
    d, x = 30, mpf(400)
    ref = wright_bessel(1, 1, x, dps=d + 40)
    precs = []
    terms = specfun._wright_terms

    def counted(*args):
        precs.append(mp.prec)
        return terms(*args)

    monkeypatch.setattr(specfun, "_wright_terms", counted)
    wright_bessel(1, 1, x, dps=d)
    assert len(precs) == 1  # the default guard holds the loss
    monkeypatch.setattr(specfun, "_series_guard", lambda radius, power: 0)
    precs.clear()
    got = wright_bessel(1, 1, x, dps=d)
    assert len(precs) == 2 and precs[1] > precs[0]
    with mp.workdps(d + 40):
        assert abs(got - ref) <= mpf(10) ** -(d + 5) * abs(ref)


def test_wright_bessel_reruns_while_the_loss_exceeds_the_guard(monkeypatch):
    # J_{1.3,1/2}(x) loses 41, 65 and 87 digits to cancellation at x = 200,
    # 400 and 600.  With no cancellation guard the first pass (40 digits)
    # loses all of them, and a pass that loses every digit measures a loss
    # capped at its own digits, so its rerun works at no fewer than twice
    # its digits.  Passes go on while the loss exceeds what the pass can
    # lose: 40 and 80 digits at x = 200; 40, 80 and 105 at x = 400; 40, 80
    # and 160 at x = 600, where growing by the measured loss alone (40, 79,
    # 118) fell short after three passes.  With two passes allowed, x = 600
    # raises.
    d, a, b = 30, mpf("1.3"), mpf("0.5")
    refs = {x: wright_bessel(a, b, x, dps=d + 80) for x in (200, 400, 600)}
    precs = []
    terms = specfun._wright_terms

    def counted(*args):
        precs.append(mp.dps)
        return terms(*args)

    monkeypatch.setattr(specfun, "_wright_terms", counted)
    monkeypatch.setattr(specfun, "_series_guard", lambda radius, power: 0)
    for x, passes in ((200, [40, 80]), (400, [40, 80, 105]),
                      (600, [40, 80, 160])):
        precs.clear()
        got = wright_bessel(a, b, x, dps=d)
        assert precs == passes, (x, precs)
        with mp.workdps(d + 80):
            assert abs(got - refs[x]) <= mpf(10) ** -(d + 5) * abs(refs[x]), x
    monkeypatch.setattr(specfun, "_MAX_PASSES", 2)
    precs.clear()
    with pytest.raises(SeriesConvergenceError) as info:
        wright_bessel(a, b, 600, dps=d)
    assert precs == [40, 80] and len(info.value.partial_sums) == 2


def _wright_bound_cases():
    # the kernel's two series at theta = 1/2, 1 and 0.37 (alpha = 0.3), and
    # b = 0.5 + 1e-13 on the per-term gamma path
    a = mpf("1.3")
    for th in (mpf("0.5"), mpf(1), mpf("0.37")):
        yield a / th, 1 / th
        yield a, th
    yield a, mpf("0.5") + mpf("1e-13")


@pytest.mark.parametrize("x", ["3", "200", "600"])
def test_wright_terms_tail_bound(x):
    # the terms beyond the stop sum to below one unit of the scale plus the
    # stored last two terms' rounding errors, as _wright_terms states, and
    # the value meets 10^-(d+5) against the series summed at d + 40 digits
    # beyond its loss
    d, x = 30, mpf(x)
    for a, b in _wright_bound_cases():
        if b < mpf("0.4") and x > 200:
            continue  # b = 0.37 at x = 600 alone takes 2.5 s
        guard = specfun._series_guard(x, specfun._wright_growth(b))
        with working(d, guard):
            terms, e = specfun._wright_terms(a, b, x)
        n = len(terms)
        got = wright_bessel(a, b, x, dps=d)
        with mp.workdps(d + 40 + guard):
            exact = _wright_oracle_terms(a, b, x, n + 300)
            unit = mpf(2) ** e
            tail = mp.fsum(abs(t) for t in exact[n:])
            slack = sum(abs(terms[i] * unit - exact[i])
                        for i in (n - 2, n - 1))
            assert tail < unit + slack, (a, b, x)
            ref = mp.fsum(exact)
            assert abs(got - ref) <= mpf(10) ** -(d + 5) * abs(ref), (a, b, x)


def test_wright_bessel_fast_path_at_small_a():
    # for small a > 0, T_0 = 1/Gamma(a) ~ a sits far below T_1 while the
    # two-step ratio r_0 ~ x^2 / 2a is huge, so the whole even chain
    # carries T_0's relative error: scaled to the larger seed, or taken
    # from a reciprocal gamma that returns 0 near a pole, T_0 floored to 0
    # and dropped every even term (T_2 = 50 at x = 10)
    d = 30
    for a in (mpf("1e-40"), mpf("1e-80")):
        for b in (mpf("0.5"), mpf(2)):
            got = wright_bessel(a, b, mpf(10), dps=d)
            with mp.workdps(d + 40):
                ref = _wright_series_oracle(a, b, mpf(10))
                assert abs(got - ref) <= mpf(10) ** -(d + 5) * abs(ref), (a, b)


def test_wright_bessel_at_nonpositive_a():
    # a <= 0 seeds the scale with T_0 .. T_(j0+1), j0 the first index with
    # a + b j0 > 0, whose terms start the tail bound; at a = -3, b = 1 the
    # first four terms vanish (gamma poles) and x = 1e-30 leaves the value
    # near x^4 / 24; at a = -1 + 1e-20, a + b rounds to 0 in floats, where
    # the Gautschi ratio bound must not divide by it
    with mp.workdps(60):
        for a, b, x in ((mpf("-1.5"), mpf("0.5"), mpf(3)),
                        (mpf(-1) + mpf("1e-20"), mpf(1), mpf(2)),
                        (mpf(-3), mpf(1), mpf(2)),
                        (mpf(-3), mpf(1), mpf("1e-30")),
                        (mpf("-0.7"), mpf("0.37"), mpf(10))):
            got = wright_bessel(a, b, x, dps=40)
            ref = _wright_series_oracle(a, b, x)
            assert abs(got - ref) <= mpf("1e-45") * abs(ref), (a, b, x)


def test_wright_bessel_refuses_outside_the_tail_bound():
    # the tail bound needs b > 0 (ratios decreasing), and the term loop
    # takes real x
    for b in (0, -0.5, -2):
        with pytest.raises(ValueError, match="b > 0"):
            wright_bessel(1, b, 2, dps=30)
    with pytest.raises(ValueError, match="real x"):
        wright_bessel(1, 1, mpc(1, 1), dps=30)
