"""Series engines: 0F2 with theta weights, Wright Bessel, Frobenius bases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from mbhalf import specfun
from mbhalf.specfun import (
    ResonantParameterError,
    SeriesConvergenceError,
    check_nonresonant,
    frobenius_adjoint,
    frobenius_forward,
    hyper0f2,
    hyper0f2_log_theta,
    hyper0f2_theta,
    resonance_distance,
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


def _wright_series_oracle(a, b, x, terms=200):
    # direct definition with mpmath's own rgamma
    total = mpf(0)
    sign = 1
    xp = mpf(1)
    fact = mpf(1)
    for j in range(terms):
        total += sign * xp / fact * mp.rgamma(a + b * j)
        sign = -sign
        xp *= x
        fact *= j + 1
    return total


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
    # guard the first pass keeps about 12 of 30, and the retry at the digits
    # it lost and GUARD_DIGITS more restores them
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


def test_resonance_distance_and_guard():
    assert resonance_distance(0.3) == pytest.approx(0.4)
    assert resonance_distance(-0.4) == pytest.approx(0.2)
    for bad in (0, 0.5, 1, -0.5, 2.0000000001):
        with pytest.raises(ResonantParameterError):
            check_nonresonant(bad)
    check_nonresonant(0.3)  # no raise
    with pytest.raises(ResonantParameterError):
        frobenius_forward(1.0, 0.5, dps=30)
    with pytest.raises(ResonantParameterError):
        frobenius_adjoint(-0.5, 0.5, dps=30)


def _theta3_residual(alpha, z, sols_fn, sign):
    """Residual of theta(theta -+ a)(theta -+ a - 1/2) f = +-z f per basis
    element, with theta^3 f from a 5-point stencil over theta^2 f."""
    a = mpf(alpha)
    h = mpf("1e-6")

    def triples(k):
        return sols_fn(alpha, z * mp.exp(k * h))

    t0 = triples(0)
    tp1, tp2, tm1, tm2 = triples(1), triples(2), triples(-1), triples(-2)
    resids = []
    for i in range(3):
        f, tf, t2f = t0[i]
        t3f = (-tp2[i][2] + 8 * tp1[i][2] - 8 * tm1[i][2] + tm2[i][2]) / (12 * h)
        lhs = t3f + sign * (2 * a + mpf("0.5")) * t2f + a * (a + mpf("0.5")) * tf
        rhs = -sign * z * f
        resids.append(abs(lhs - rhs) / max(abs(rhs), mpf(1)))
    return resids


def test_frobenius_forward_satisfies_ode():
    with mp.workdps(60):
        resids = _theta3_residual(
            mpf("0.3"), mpf("0.8"),
            lambda a, zz: frobenius_forward(a, zz, dps=50),
            sign=+1)
        for r in resids:
            assert r < mpf("1e-19"), resids


def test_frobenius_adjoint_satisfies_ode():
    with mp.workdps(60):
        resids = _theta3_residual(
            mpf("-0.4"), mpf("1.3"),
            lambda a, zz: frobenius_adjoint(a, zz, dps=50),
            sign=-1)
        for r in resids:
            assert r < mpf("1e-19"), resids


def test_frobenius_indices_at_origin():
    # solution j behaves like z^{index_j} (1 + O(z)) as z -> 0
    a = mpf("0.3")
    z = mpf("1e-10")
    with mp.workdps(60):
        fwd = frobenius_forward(a, z, dps=40)
        for (val, _, _), idx in zip(fwd, (mpf(0), -a, -a - mpf("0.5"))):
            lead = val * mp.power(z, -idx)
            assert abs(lead - 1) < mpf("1e-9"), idx
        adj = frobenius_adjoint(a, z, dps=40)
        for (val, _, _), idx in zip(adj, (mpf(0), a, a + mpf("0.5"))):
            lead = val * mp.power(z, -idx)
            assert abs(lead - 1) < mpf("1e-9"), idx


def test_frobenius_bases_wronskian_structure():
    # the three forward solutions are independent: the matrix of
    # (f, theta f, theta^2 f) columns has determinant bounded away from 0
    rng = np.random.default_rng(31)
    with mp.workdps(50):
        for _ in range(4):
            a = mpf(float(rng.uniform(-0.45, 1.2)))
            if resonance_distance(a) < 0.05:
                continue
            z = mpf(float(rng.uniform(0.2, 2.0)))
            tr = frobenius_forward(a, z, dps=40)
            det = (
                tr[0][0] * (tr[1][1] * tr[2][2] - tr[1][2] * tr[2][1])
                - tr[1][0] * (tr[0][1] * tr[2][2] - tr[0][2] * tr[2][1])
                + tr[2][0] * (tr[0][1] * tr[1][2] - tr[0][2] * tr[1][1]))
            assert abs(det) > mpf("1e-8"), (a, z)
