"""Mellin-Barnes G: residue series vs. loop contour vs. external oracles."""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from mbhalf import meijer
from mbhalf.meijer import (
    ResonantParameterError,
    SectorPoint,
    _series_form,
    g303_series,
    mb_loop,
    phi_scalars,
    psi3_alternate,
    psi_scalars,
)
from mbhalf.mpcore import QuadratureConvergenceError

B_STD = (mpf(0), mpf("-0.3"), mpf("-0.8"))


def test_sector_point_bookkeeping():
    with mp.workdps(40):
        p = SectorPoint.from_complex(mpc(-1, 0), sheet=0, dps=30)
        assert abs(p.modulus - 1) < mpf("1e-28")
        assert abs(p.argument - mp.pi) < mpf("1e-28")
        p1 = SectorPoint.from_complex(2, sheet=1, dps=30)
        assert abs(p1.argument - 2 * mp.pi) < mpf("1e-28")
        # same complex number, different sheet of z^c
        assert abs(p1.to_mpc(dps=30) - 2) < mpf("1e-28")
        assert abs(p1.power(mpf("0.5"), dps=30) + mp.sqrt(2)) < mpf("1e-28")
        q = p1.rotated(-2 * mp.pi)
        assert abs(q.power(mpf("0.5"), dps=30) - mp.sqrt(2)) < mpf("1e-28")
        assert abs(q.clog(dps=30) - mp.log(2)) < mpf("1e-28")


def test_pairwise_resonance_predicate():
    assert _series_form(B_STD) == "plain"
    assert _series_form((0, 0, 0.5)) == (0, 1, 0)        # equal pair
    assert _series_form((0, -1.0, -1.7)) == (0, 1, 1)    # integer difference
    assert _series_form((0.2, -0.3, 0.7)) == (2, 1, 1)   # -0.3 - 0.7 = -1
    assert _series_form((0, -0.3, -0.55)) == "plain"
    assert _series_form((0, 1e-8, 0.5)) is None          # near, not exact
    assert _series_form((0, 1, 2)) is None               # triple resonance


def test_series_matches_mpmath_meijerg():
    # principal sheet: mpmath's meijerg is an independent evaluation
    with mp.workdps(50):
        for r in (mpf("0.4"), mpf(2), mpf(7)):
            pt = SectorPoint(r, mpf(0))
            ours = g303_series(B_STD, pt, dps=40)
            ref = mp.meijerg([[], []], [list(B_STD), []], r)
            assert abs(ours - ref) / abs(ref) < mpf("1e-35"), r


def test_loop_matches_mpmath_meijerg():
    with mp.workdps(50):
        pt = SectorPoint(mpf("1.7"), mpf("0.3"))
        z = pt.to_mpc(dps=45)
        ours = mb_loop(B_STD, pt, m=3, dps=40)
        ref = mp.meijerg([[], []], [list(B_STD), []], z)
        assert abs(ours - ref) / abs(ref) < mpf("1e-35")


def test_resonant_loop_matches_mpmath_meijerg():
    # at 2 alpha in Z the series route takes its logarithmic form; mpmath's
    # meijerg resolves the resonance on its own (principal sheet only) and
    # checks both routes
    with mp.workdps(50):
        for alpha in ("-0.5", "0", "0.5", "1"):
            a = mpf(alpha)
            b = (mpf(0), -a, -a - mpf("0.5"))
            for r in ("0.5", "2.5", "10"):
                for ang in ("0", "0.4", "2.5"):
                    pt = SectorPoint(mpf(r), mpf(ang))
                    ref = mp.meijerg([[], []], [list(b), []], pt.to_mpc(dps=45))
                    for ours in (mb_loop(b, pt, m=3, dps=40),
                                 g303_series(b, pt, dps=40)):
                        assert abs(ours - ref) / abs(ref) < mpf("1e-35"), (alpha, r, ang)


def _resonant_b(alpha, adjoint):
    """The forward (0, -a, -a-1/2) or adjoint (0, a, a+1/2) parameters."""
    a = mpf(alpha)
    return (mpf(0), a, a + mpf("0.5")) if adjoint else (mpf(0), -a, -a - mpf("0.5"))


def test_log_series_matches_loop_on_every_sheet():
    # the resonant G gate: both parameter triples of the model problem at
    # each resonant alpha, sheets -2..2, with the theta triples; at
    # |z| = 10^3, where the loop takes the cancellation digits into its step
    # and its working digits, against the loop at alpha = 0 (forward) and
    # against mpmath at every alpha
    worst = mpf(0)
    for alpha in ("-0.5", "0", "0.5", "1"):
        for adjoint in (False, True):
            b = _resonant_b(alpha, adjoint)
            assert meijer.pick_route(b, 3) == "series"
            pts = [SectorPoint(mpf(r), mpf("0.4") + 2 * mp.pi * sheet)
                   for r in ("0.5", "2.5", "10") for sheet in range(-2, 3)]
            far = SectorPoint(mpf(1000), mpf("0.4"))
            if alpha == "0" and not adjoint:
                pts.append(far)
            with mp.workdps(50):
                ref = mp.meijerg([[], []], [list(b), []], far.to_mpc(dps=50))
                got = g303_series(b, far, dps=40)
                worst = max(worst, abs(got - ref) / abs(ref))
            for pt in pts:
                vs = g303_series(b, pt, dps=40, with_theta=True)
                vl = mb_loop(b, pt, m=3, dps=40, with_theta=True)
                with mp.workdps(50):
                    worst = max([worst] + [abs(x - y) / abs(y)
                                           for x, y in zip(vs, vl)])
    assert worst <= mpf("1e-35"), worst


def test_log_series_general_collisions_match_mpmath():
    # collisions beyond the model problem's: N = 3 and 5 simple poles
    # before the double ones, the colliding pair in every index position,
    # a colliding pair of equal parameters, |c| = |b_r - b_p| up to 4.5
    cases = ((mpf("0.25"), mpf("-2.75"), mpf("0.45")),
             (mpf("1.5"), mpf("-0.5"), mpf("0.1")),
             (mpf("-0.375"), mpf("0.15"), mpf("4.625")),
             (mpf(2), mpf("0.3"), mpf(-3)),
             (mpf("0.25"), mpf("0.25"), mpf("-1.1")))
    for b in cases:
        assert meijer.pick_route(b, 3) == "series", b
        for r, ang in (("0.3", "0.2"), ("4", "-1"), ("40", "2.9")):
            pt = SectorPoint(mpf(r), mpf(ang))
            got = g303_series(b, pt, dps=40)
            with mp.workdps(60):
                ref = mp.meijerg([[], []], [list(b), []], pt.to_mpc(dps=60))
                assert abs(got - ref) / abs(ref) < mpf("1e-38"), (b, r, ang)


def test_log_series_accuracy_at_requested_digits():
    # the logarithmic branch at d digits against itself at d + 40, on both
    # sides of the collision (N = 0 and N = 1), off the principal sheet and
    # at |z| = 10^3 where the families cancel
    for d in (30, 45):
        for alpha in ("0", "0.5", "1"):
            for adjoint in (False, True):
                b = _resonant_b(alpha, adjoint)
                for r, ang in (("0.5", "0.3"), ("5", "0"), ("30", "-9"),
                               ("1000", "0")):
                    pt = SectorPoint(mpf(r), mpf(ang))
                    ref = g303_series(b, pt, dps=d + 40, with_theta=True)
                    got = g303_series(b, pt, dps=d, with_theta=True)
                    with mp.workdps(d + 40):
                        for x, y in zip(got, ref):
                            assert abs(x - y) <= mpf(10) ** (-d + 2) * abs(y), \
                                (d, alpha, adjoint, r, ang)


def test_log_series_continuous_in_alpha():
    # G is analytic in alpha: the mean of the ordinary series at
    # alpha0 +- eps is even in eps, and one Richardson step on eps = 1e-4,
    # 2e-4 leaves an O(eps^4) error against the logarithmic branch at
    # alpha0.  Inside the 1e-6 window the loop takes over from the series;
    # just outside it (2e-6) the two must still agree.
    with mp.workdps(50):
        eps = mpf("1e-4")
        for a0 in (mpf(0), mpf("0.5")):
            for adjoint in (False, True):
                pt = SectorPoint(mpf("0.7"), mpf("0.4") + 2 * mp.pi * adjoint)

                def mean(e):
                    return (g303_series(_resonant_b(a0 + e, adjoint), pt, dps=40)
                            + g303_series(_resonant_b(a0 - e, adjoint), pt, dps=40)) / 2

                logv = g303_series(_resonant_b(a0, adjoint), pt, dps=40)
                rich = (4 * mean(eps) - mean(2 * eps)) / 3
                assert abs(rich - logv) / abs(logv) < mpf("1e-12"), (a0, adjoint)
                for side in (1, -1):
                    near = _resonant_b(a0 + side * mpf("2e-6"), adjoint)
                    assert meijer.pick_route(near, 3) == "series"
                    vs = g303_series(near, pt, dps=40)
                    vl = mb_loop(near, pt, m=3, dps=40)
                    assert abs(vs - vl) / abs(vl) < mpf("1e-28"), (a0, adjoint, side)
                inside = _resonant_b(a0 + mpf("1e-8"), adjoint)
                assert meijer.pick_route(inside, 3) == "loop"


def test_loop_accuracy_at_requested_digits():
    # the loop's step follows its working digits; a step fixed at the one
    # of d = 30 would stop at about 10^-46 of the largest term
    for d in (45, 60):
        for r, ang in (("0.5", "0.3"), ("5", "0"), ("30", "0")):
            pt = SectorPoint(mpf(r), mpf(ang))
            ref = g303_series(B_STD, pt, dps=d + 40)
            got = mb_loop(B_STD, pt, m=3, dps=d)
            with mp.workdps(d + 40):
                assert abs(got - ref) <= mpf(10) ** (-d + 2) * abs(ref), (d, r, ang)


def test_loop_accuracy_at_large_modulus(monkeypatch):
    # near arg 0 at |z| = 10^3 G is recessive and the loop's terms cancel
    # by 9 to 10.5 digits, while its error bound M grows by the 23
    # cancellation digits of an entire series of |z|; the first pass takes
    # those into its working digits and its step and must deliver the
    # requested 30 digits.  The three angles share |z|, so they share the
    # digits and the step: one table of K = 26 nodes per unit of u is built
    # per b, counted from an empty cache, and no pass reruns.
    built = []

    def record(b, m, K, _make=meijer._LoopWeights):
        built.append((tuple(b), K))
        return _make(b, m, K)

    monkeypatch.setattr(meijer, "_LoopWeights", record)
    meijer._loop_weights.cache_clear()
    d = 30
    b_res = (mpf(0), mpf(0), mpf("-0.5"))
    for ang in ("0", "0.5", "2.5"):
        pt = SectorPoint(mpf(1000), mpf(ang))
        ref_std = g303_series(B_STD, pt, dps=80)
        with mp.workdps(70):
            ref_res = mp.meijerg([[], []], [list(b_res), []], pt.to_mpc(dps=70))
        for b, ref in ((B_STD, ref_std), (b_res, ref_res)):
            got = mb_loop(b, pt, m=3, dps=d)
            with mp.workdps(80):
                assert abs(got - ref) / abs(ref) <= mpf(10) ** (-d + 2), (b, ang)
    assert sorted(built) == sorted([(B_STD, 26), (b_res, 26)]), built


def test_loop_node_budget_reports_last_two_estimates(monkeypatch):
    monkeypatch.setattr(meijer, "_MAX_NODES", 2)
    with pytest.raises(QuadratureConvergenceError) as exc:
        mb_loop(B_STD, SectorPoint(mpf("1.3"), mpf("0.2")), m=3, dps=30)
    prev, last = exc.value.estimates
    assert prev != last


def test_loop_lower_m_matches_mpmath():
    # m < 3 keeps q = 3: the trailing parameters move to the denominator,
    # G^{m,0}_{0,3}.  mpmath evaluates the same split independently.  With
    # b_2 = 0.2 (and 0.2 + 1e-8) the loop crosses the real axis at a zero
    # of 1/Gamma(1 - b_2 - s) (next to one) for m = 1, where arg of the
    # integrand spins without any chirp
    with mp.workdps(50):
        for b in (B_STD, (mpf(0), mpf("0.2"), mpf("-0.8")),
                  (mpf(0), mpf("0.2") + mpf("1e-8"), mpf("-0.8"))):
            for m in (1, 2):
                for r in (mpf("0.5"), mpf(3)):
                    pt = SectorPoint(r, mpf(0))
                    ours = mb_loop(b, pt, m=m, dps=40)
                    ref = mp.meijerg([[], []], [list(b[:m]), list(b[m:])], r)
                    assert abs(ours - ref) / abs(ref) < mpf("1e-35"), (b, m, r)


def test_series_and_loop_agree_off_principal_sheet():
    with mp.workdps(55):
        for sheet in (-1, 1):
            pt = SectorPoint(mpf("1.2"), mpf("0.4") + 2 * mp.pi * sheet)
            vs = g303_series(B_STD, pt, dps=45)
            vl = mb_loop(B_STD, pt, m=3, dps=45)
            assert abs(vs - vl) / abs(vl) < mpf("1e-40"), sheet


def test_series_continuous_across_negative_axis():
    # the function is analytic on the cover: approaching arg = pi from both
    # sides (same total angle) must agree in the limit
    with mp.workdps(50):
        h = mpf("1e-8")
        a = g303_series(B_STD, SectorPoint(mpf(1), mp.pi - h), dps=40)
        b = g303_series(B_STD, SectorPoint(mpf(1), mp.pi + h), dps=40)
        assert abs(a - b) / abs(a) < mpf("1e-6")


def test_series_resonant_raises():
    # resonant to 8 digits but not exactly, and triply resonant: the series
    # has no form there.  At exact resonance in one pair it takes its
    # logarithmic form.
    pt = SectorPoint(mpf(1), mpf(0))
    for b in ((mpf(0), mpf("1e-8"), mpf("-0.5")), (mpf(0), mpf(-1), mpf(-2))):
        with pytest.raises(ResonantParameterError):
            g303_series(b, pt, dps=40)
        assert meijer.pick_route(b, 3) == "loop"
    b = (mpf(0), mpf(0), mpf("-0.5"))
    got = g303_series(b, pt, dps=40)
    with mp.workdps(50):
        ref = mp.meijerg([[], []], [list(b), []], 1)
        assert abs(got - ref) / abs(ref) < mpf("1e-38")


def test_decimal_resonance_is_resonant():
    # 0.2 - (-2.8) = 3 in decimal but not in binary: the difference is
    # within a few units in the last place of an integer at the precision
    # b was given in, so the series takes its logarithmic form with N = 3.
    # Off by 1e-40, far more than those units, the pair is near-resonant.
    pt = SectorPoint(mpf("1.7"), mpf("0.4"))
    with mp.workdps(50):
        b = (mpf("0.2"), mpf("-2.8"), mpf("0.45"))
        with mp.workdps(100):
            assert b[0] - b[1] != 3
        assert _series_form(b) == (0, 1, 3)
        assert meijer.pick_route(b, 3) == "series"
        vs = g303_series(b, pt, dps=40)
        vl = mb_loop(b, pt, m=3, dps=40)
        assert abs(vs - vl) / abs(vl) < mpf("1e-35")
        near = (b[0], b[1] + mpf("1e-40"), b[2])
        assert meijer.pick_route(near, 3) == "loop"
        with pytest.raises(ResonantParameterError):
            g303_series(near, pt, dps=40)


def test_theta_triples_match_log_derivative():
    # rotating the point differentiates in the argument: d/d(arg) = i theta
    with mp.workdps(55):
        h = mpf("1e-7")
        pt = SectorPoint(mpf("0.9"), mpf("0.2"))

        def g(k, m):
            return g303_series(B_STD, pt.rotated(k * h), dps=45,
                               with_theta=True)[m]

        for m in (0, 1):
            num = (-g(2, m) + 8 * g(1, m) - 8 * g(-1, m) + g(-2, m)) / (12 * h)
            sym = mpc(0, 1) * g(0, m + 1)
            assert abs(num - sym) / abs(sym) < mpf("1e-22"), m


def test_route_agreement_random_sweep():
    # six drawn alpha, then the resonant ones at drawn points
    rng = np.random.default_rng(17)

    def alphas():
        for _ in range(6):
            yield float(rng.uniform(-0.45, 1.3))
        yield from ("-0.5", "0", "0.5", "1")

    with mp.workdps(50):
        for alpha in alphas():
            b = (mpf(0), -mpf(alpha), -mpf(alpha) - mpf("0.5"))
            if meijer.pick_route(b, 3) != "series":
                continue
            r = mpf(float(rng.uniform(0.3, 4.0)))
            ang = mpf(float(rng.uniform(-2.5, 2.5)))
            pt = SectorPoint(r, ang)
            vs = g303_series(b, pt, dps=40)
            vl = mb_loop(b, pt, m=3, dps=40)
            assert abs(vs - vl) / abs(vl) < mpf("1e-35"), (alpha, r, ang)


def test_phi_scalars_internal_identity():
    # phi4 is assembled as phi1 + phi2 and must also equal the single-series
    # form -4 pi^2 0F2 / (Gamma(1+a) Gamma(3/2+a)); checked in the
    # acceptance suite at tighter tolerance, spot-checked here
    from mbhalf.mpcore import gamma
    from mbhalf.specfun import hyper0f2

    with mp.workdps(50):
        a = mpf("0.3")
        pt = SectorPoint(mpf("1.1"), mpf("0.7"))
        tr = phi_scalars(a, pt, dps=40)
        z = pt.to_mpc(dps=45)
        rhs = (-4 * mp.pi ** 2 / (gamma(1 + a, dps=45) * gamma(mpf("1.5") + a, dps=45))
               * hyper0f2(1 + a, mpf("1.5") + a, -z, dps=45))
        assert abs(tr.f4[0] - rhs) / abs(rhs) < mpf("1e-35")


def test_psi3_alternate_route_agrees():
    with mp.workdps(50):
        a = mpf("0.3")
        pt = SectorPoint(mpf("0.8"), mpf("0.3"))
        main = psi_scalars(a, pt, dps=40).f3
        alt = psi3_alternate(a, pt, dps=40)
        for x, y in zip(main, alt):
            assert abs(x - y) < mpf("1e-35")


def _ode_residuals(scalars, alpha, point, sign):
    """Per scalar f1..f4 of ``scalars(alpha, point)``: the residual of
    theta(theta +- a)(theta +- a +- 1/2) f = -+ z f (sign +1 forward, -1
    adjoint), theta^3 f from a 5-point stencil in log z over the returned
    theta^2 f; and the larger misfit of the stencil derivatives of f and
    theta f against the returned theta f and theta^2 f."""
    a = mpf(alpha)
    h = mpf("1e-6")

    def triples(k):
        s = scalars(a, SectorPoint(point.modulus * mp.exp(k * h),
                                   point.argument), dps=50)
        return (s.f1, s.f2, s.f3, s.f4)

    mid, near = triples(0), {k: triples(k) for k in (-2, -1, 1, 2)}
    z = point.to_mpc()
    ode, deriv = [], []
    for i, (f, tf, t2f) in enumerate(mid):
        def theta(m):
            return (-near[2][i][m] + 8 * near[1][i][m] - 8 * near[-1][i][m]
                    + near[-2][i][m]) / (12 * h)

        lhs = (theta(2) + sign * (2 * a + mpf("0.5")) * t2f
               + a * (a + mpf("0.5")) * tf)
        rhs = -sign * z * f
        ode.append(abs(lhs - rhs) / max(abs(rhs), 1))
        deriv.append(max(abs(theta(m) - mid[i][m + 1]) / max(abs(mid[i][m + 1]), 1)
                         for m in (0, 1)))
    return ode, deriv


# resonant (2 alpha in Z: the logarithmic series) and not, on sheets -2..2;
# at alpha = 0 the ODE's theta f coefficient a(a + 1/2) vanishes, so only the
# derivative check sees theta f there
_ODE_ALPHAS = ("-0.4", "0", "0.3", "0.5")


@pytest.mark.parametrize("scalars, sign, modulus", [
    (phi_scalars, +1, "0.8"), (psi_scalars, -1, "1.3")],
    ids=("phi_forward", "psi_adjoint"))
def test_scalars_satisfy_model_ode(scalars, sign, modulus):
    with mp.workdps(60):
        for alpha in _ODE_ALPHAS:
            for sheet in range(-2, 3):
                pt = SectorPoint(mpf(modulus), mpf("0.3") + 2 * mp.pi * sheet)
                ode, deriv = _ode_residuals(scalars, alpha, pt, sign)
                assert max(ode) < mpf("1e-19"), (alpha, sheet, ode)
                assert max(deriv) < mpf("1e-19"), (alpha, sheet, deriv)


def test_loop_cache_keyed_by_exact_parameters():
    # b2 differs from b1 below 25 significant digits; a cache keyed by a
    # rounded b returned b1's products for b2 (an error of 5e-30 at |G| = 0.13).
    # The series' cached gamma coefficients must not mix them up either.
    with mp.workdps(45):
        b1 = (mpf("0.03"), mpf("-0.35"), mpf("-0.7"))
        b2 = (b1[0] + mpf("1e-28"), b1[1], b1[2])
    pt = SectorPoint(mpf("1.25"), mpf("0.5"))
    mb_loop(b1, pt, m=3, dps=45)
    g303_series(b1, pt, dps=45)
    got = mb_loop(b2, pt, m=3, dps=45)
    ref = g303_series(b2, pt, dps=45)
    with mp.workdps(55):
        assert abs(got - ref) / abs(ref) < mpf("1e-43")
