"""Mellin-Barnes G: residue series vs. loop contour vs. external oracles."""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from mbhalf.meijer import (
    _GL_ORDER,
    SectorPoint,
    _LoopProducts,
    _pairwise_resonant,
    g303_series,
    mb_loop,
    phi_scalars,
    psi3_alternate,
    psi_frobenius_constants,
    psi_scalars,
)
from mbhalf.mpcore import legendre_nodes
from mbhalf.specfun import ResonantParameterError

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
    assert not _pairwise_resonant(B_STD)
    assert _pairwise_resonant((0, 0, 0.5))       # equal pair
    assert _pairwise_resonant((0, -1.0, -1.7))   # integer difference
    assert _pairwise_resonant((0.2, -0.3, 0.7))  # half pair differs by 1/2? no: 0.2-0.7
    assert not _pairwise_resonant((0, -0.3, -0.55))


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


def test_loop_lower_m_matches_mpmath():
    # m < 3 keeps q = 3: the trailing parameters move to the denominator,
    # G^{m,0}_{0,3}.  mpmath evaluates the same split independently.
    with mp.workdps(50):
        for m in (1, 2):
            for r in (mpf("0.5"), mpf(3)):
                pt = SectorPoint(r, mpf(0))
                ours = mb_loop(B_STD, pt, m=m, dps=40)
                ref = mp.meijerg([[], []], [list(B_STD[:m]), list(B_STD[m:])], r)
                assert abs(ours - ref) / abs(ref) < mpf("1e-35"), (m, r)


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
    with pytest.raises(ResonantParameterError):
        g303_series((mpf(0), mpf(0), mpf("-0.5")), SectorPoint(mpf(1), mpf(0)),
                    dps=40)


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
    rng = np.random.default_rng(17)
    with mp.workdps(50):
        for _ in range(6):
            alpha = float(rng.uniform(-0.45, 1.3))
            if _pairwise_resonant((0.0, -alpha, -alpha - 0.5)):
                continue
            b = (mpf(0), -mpf(alpha), -mpf(alpha) - mpf("0.5"))
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


def test_psi_frobenius_constants_are_real():
    with mp.workdps(45):
        consts, imag_resid = psi_frobenius_constants(mpf("0.3"), dps=35)
        assert imag_resid < mpf("1e-30")
        assert len(consts) == 3
        for c in consts:
            assert abs(c) > mpf("1e-6")  # nondegenerate combination


def test_loop_cache_keyed_by_exact_parameters():
    # b2 differs from b1 below 25 significant digits; a cache keyed by a
    # rounded b returned b1's products for b2 (an error of 5e-30 at |G| = 0.13)
    with mp.workdps(45):
        b1 = (mpf("0.03"), mpf("-0.35"), mpf("-0.7"))
        b2 = (b1[0] + mpf("1e-28"), b1[1], b1[2])
    pt = SectorPoint(mpf("1.25"), mpf("0.5"))
    mb_loop(b1, pt, m=3, dps=45)
    got = mb_loop(b2, pt, m=3, dps=45)
    ref = g303_series(b2, pt, dps=45)
    with mp.workdps(55):
        assert abs(got - ref) / abs(ref) < mpf("1e-43")


def test_loop_product_recurrence_far_panel():
    # panels past the first come from the two-step gamma recurrence; check
    # them at panel 31 against direct products times the node weight
    d = 40
    wp = d + 15
    pidx = 31
    xs, ws = legendre_nodes(_GL_ORDER, dps=wp)
    with mp.workdps(wp + 10):
        bb = [mpf(x) for x in B_STD]
        for m in (1, 2, 3):
            c = max(-bb[j] for j in range(m)) + 1
            g = _LoopProducts(bb, m, c, wp).panel(pidx)[0]
            for k in (0, 1, 17, 64, 126, 127):
                w = ws[k // 2] if k % 2 == 0 else -ws[k // 2]
                s = mpc(c - 1 + xs[k // 2] - 2 * pidx, -1 if k % 2 == 0 else 1)
                want = w
                for j in range(3):
                    want *= mp.gamma(bb[j] + s) if j < m else mp.rgamma(1 - bb[j] - s)
                assert abs(g[k] - want) / abs(want) < mpf(10) ** (-(d + 5)), (m, k)
