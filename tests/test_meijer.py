"""Mellin-Barnes G: residue series vs. loop contour vs. external oracles."""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from mbhalf import meijer
from mbhalf.kernel import kernel_meijer
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
from mbhalf.mpcore import QuadratureConvergenceError, working

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
        assert abs(q.argument) < mpf("1e-28")


def test_to_mpc_keeps_the_bits_of_cos_and_sin():
    # one mp.cos_sin call gives the bits of mp.cos and mp.sin, also for an
    # argument on a far sheet, not reduced mod 2 pi
    for d in (30, 45, 60):
        with mp.workdps(d):
            r = mpf("1.7")
            args = [mpf("0.5") + 4 * mp.pi, mpf("0.4") - 4 * mp.pi,
                    -7 * mp.pi, mpf("0.3"), mpf(-3), mpf(0)]
            for t in args:
                with working(d):
                    ref = r * mpc(mp.cos(t), mp.sin(t))
                got = SectorPoint(r, t).to_mpc(dps=d)
                assert got._mpc_ == ref._mpc_, (d, t)


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


@pytest.mark.parametrize("b, m, modulus, arg", [
    # the benchmark's sheet 2, whose largest term sits at node 38
    (("0.028403", "-0.363757", "-0.696444"), 3, "1.25", 0.5 + 4 * math.pi),
    # m = 2 at |z| = 10^3 and theta = -7 pi: the walk takes 91 and 196
    # nodes, and the largest term sits at node -114
    (("0", "-0.3", "-0.8"), 2, "1000", -7 * math.pi),
])
def test_loop_powers_cost_no_digits(b, m, modulus, arg):
    # q^(k^2) r^k takes k^2/2 + 4k rounded products at node k; the loop
    # sums must still be within a few units of 2^-prec of the largest term
    # of the same sums taken at three times the precision from the same
    # weights (a recurrence at the pass's own precision is off by 10^3.7
    # units at |z| = 10^3)
    with mp.workdps(46):
        bb = [mpf(x) for x in b]
        table = meijer._loop_weights(tuple(x._mpf_ for x in bb), m,
                                     meijer._nodes_per_unit(mp.dps), mp.dps)
        zeta = SectorPoint(mpf(modulus), mpf(arg))._log()
        walks = [meijer._walk(table, sign, float(zeta.real),
                              float(zeta.imag)) for sign in (1, -1)]
        (right, tops_r, _), (left, tops_l, _) = walks
        got = meijer._loop_sums(table, zeta, right, left)
        prec = mp.prec
        with mp.workprec(3 * prec):
            ref = meijer._loop_sums(table, zeta, right, left)
            for x, y, tr, tl in zip(got, ref, tops_r, tops_l):
                units = abs(x - y) / mp.exp(max(tr, tl)) * mpf(2) ** prec
                assert units < 8, (m, modulus, units)


def _table_and_walk(b, m, modulus, arg):
    """The loop table of (b, m) at the working digits, zeta = log z and
    the two sides' node counts of the walk at z."""
    bb = [mpf(x) for x in b]
    table = meijer._loop_weights(tuple(x._mpf_ for x in bb), m,
                                 meijer._nodes_per_unit(mp.dps), mp.dps)
    zeta = SectorPoint(mpf(modulus), mpf(arg))._log()
    right, left = (meijer._walk(table, sign, float(zeta.real),
                                float(zeta.imag))[0] for sign in (1, -1))
    return table, zeta, right, left


def _fdot_loop_sums(table, zeta, right, left):
    """The three loop sums over the nodes -left < k < right by mp.fdot at
    three times the working precision, from the table's weights (node -k
    takes minus their conjugates) and exp(-s_k zeta) at each node; and the
    modulus of each sum's largest term."""
    with mp.workprec(3 * mp.prec):
        ks = range(1 - left, right)
        powers = [mp.exp(-(table.a + meijer._MU * mpc(1, k * table.h) ** 2)
                         * zeta) for k in ks]
        out = []
        for ws in table.weights:
            ws = [mp.make_mpc(ws[abs(k)]) for k in ks]
            ws = [-mp.conj(w) if k < 0 else w for k, w in zip(ks, ws)]
            out.append((mp.fdot(ws, powers),
                        max(abs(w * p) for w, p in zip(ws, powers))))
        return out


def _assert_within_a_unit(got, ref, prec, where):
    # one unit of 2^-prec of the largest term beyond the rounding of the
    # sum, the difference taken at three times the precision
    with mp.workprec(3 * prec):
        for x, (y, top) in zip(got, ref):
            assert abs(x - y) <= mpf(2) ** -prec * (abs(y) + top), where


# the benchmark's five sheets of |z| = 1.25 (sheet 2's largest term sits
# at node 38 of 114); m = 2 at |z| = 10^3 and theta = -7 pi (the largest
# term at node -114 of 196, the power integers up to 1026 bits); m = 1; the
# resonant b of alpha = 0
_SUM_CASES = ([(("0.028403", "-0.363757", "-0.696444"), 3, "1.25",
                0.5 + 2 * k * math.pi) for k in range(-2, 3)]
              + [(("0", "-0.3", "-0.8"), 2, "1000", -7 * math.pi),
                 (("0", "0.2", "-0.8"), 1, "3", 0.3),
                 (("0", "0", "-0.5"), 3, "2.5", 2.2 + 2 * math.pi)])


@pytest.mark.parametrize("b, m, modulus, arg", _SUM_CASES)
def test_integer_loop_sums_match_fdot(b, m, modulus, arg):
    with mp.workdps(46):
        table, zeta, right, left = _table_and_walk(b, m, modulus, arg)
        got = meijer._loop_sums(table, zeta, right, left)
        ref = _fdot_loop_sums(table, zeta, right, left)
        _assert_within_a_unit(got, ref, mp.prec, (b, m, modulus, arg))


def test_integer_loop_sums_do_not_depend_on_the_tables_history():
    # sheet 2 of |z| = 1.25 asks for weights about 100 bits finer than
    # sheet 0; a table that served sheet 0 first gives the fine sheet to
    # within a unit, and the coarse sheet again to the bit
    b = ("0.028403", "-0.363757", "-0.696444")
    coarse, fine = 0.5, 0.5 + 4 * math.pi
    with mp.workdps(46):
        meijer._loop_weights.cache_clear()
        table, zeta, right, left = _table_and_walk(b, 3, "1.25", coarse)
        first = meijer._loop_sums(table, zeta, right, left)
        table_f, zeta_f, right_f, left_f = _table_and_walk(b, 3, "1.25", fine)
        assert table_f is table
        got = meijer._loop_sums(table, zeta_f, right_f, left_f)
        _assert_within_a_unit(got, _fdot_loop_sums(table, zeta_f, right_f,
                                                   left_f), mp.prec, "fine")
        again = meijer._loop_sums(table, zeta, right, left)
        assert [x._mpc_ for x in again] == [x._mpc_ for x in first]


def test_integer_loop_sums_on_the_node_budget_path(monkeypatch):
    # past _MAX_NODES a side the error carries the sums over the first
    # _MAX_NODES - 1 and _MAX_NODES nodes, the terms beyond the tail bound
    # included
    b = [mpf(x) for x in ("0.028403", "-0.363757", "-0.696444")]
    n = 30
    monkeypatch.setattr(meijer, "_MAX_NODES", n)
    meijer._loop_weights.cache_clear()
    pt = SectorPoint(mpf("1.25"), mpf(0.5 + 4 * math.pi))
    with pytest.raises(QuadratureConvergenceError) as exc:
        mb_loop(b, pt, m=3, dps=30)
    with mp.workdps(46):
        table = meijer._loop_weights(tuple(x._mpf_ for x in b), 3,
                                     meijer._nodes_per_unit(mp.dps), mp.dps)
        zeta = pt._log()
        for got, count in zip(exc.value.estimates, (n - 1, n)):
            ref = _fdot_loop_sums(table, zeta, count, count)[:1]
            _assert_within_a_unit([got], ref, mp.prec, count)


def test_loop_table_float_logs():
    # log|w_k| and log|s_k| from the mantissas and exponents, against the
    # mpmath modulus and log at the table's digits; m = 1 with b_2 = 0.2
    # puts |s_k| near 1 at some nodes
    for b, m in ((("0.028403", "-0.363757", "-0.696444"), 3),
                 (("0", "0.2", "-0.8"), 1), (("0", "-0.3", "-0.8"), 2)):
        with mp.workdps(46):
            bb = [mpf(x) for x in b]
            table = meijer._LoopWeights(bb, m, 17)
            table.grow(120)
            for k, (lw, ls) in enumerate(zip(table.lw, table.ls)):
                s = table.a + meijer._MU * mpc(1, k * table.h) ** 2
                w = mp.make_mpc(table.weights[0][k])
                for got, v in ((lw, w), (ls, s)):
                    ref = float(mp.log(abs(v)))
                    assert abs(got - ref) <= 1e-15 * abs(ref), (b, m, k)
    assert meijer._log_abs(mpc(0)._mpc_) == -math.inf


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


@pytest.mark.parametrize("d", [30, 60])
def test_shared_sheets_match_per_sheet_calls(d):
    # the series sums its 0F2 families once for all the turns of one point;
    # every sheet must agree with its own g303_series call at the rotated
    # point to 10^-d.  phi's b is plain at alpha = -0.4 and 0.3, a
    # logarithmic pair at 0, 1/2 and 1
    turns = (-2, -1, 0, 1, 2)
    with mp.workdps(d + 20):
        for alpha in ("-0.4", "0", "0.3", "0.5", "1"):
            a = mpf(alpha)
            b = (mpf(0), -a, -a - mpf("0.5"))
            assert meijer.pick_route(b, 3) == "series"
            for modulus in ("0.5", "10", "1000"):
                pt = SectorPoint(mpf(modulus), mpf("0.4"))
                shared = meijer._g3_rows(b, pt, [((t, 1),) for t in turns], d)
                for k, got in zip(turns, shared):
                    ref = g303_series(b, pt.rotated(2 * mp.pi * k), dps=d,
                                      with_theta=True)
                    for x, y in zip(got, ref):
                        assert abs(x - y) <= mpf(10) ** -d * abs(y), (
                            alpha, modulus, k)


# G^{3,0}_{0,3}(z | 0, -a, -a - 1/2) at z = 1.7 e^(i (0.4 + 2 pi k)), 30
# digits, as the (sign, hex mantissa, exponent) of its real and imaginary
# parts: each one sheet, whose powers z^(b_k) are exp(b_k log z) at the
# point itself, as they were before the sheets of one point shared them
_ONE_SHEET_BITS = {
    ("0.3", -1): ((0, "0x729aa9bc95ccb5f5a7af89828ce2acdf10d", -137),
                  (0, "0x11ddaed27d0d480cc7ec385e8a352a19858d", -137)),
    ("0.3", 1): ((0, "0x19d78ebb6837ab09307e2b119c308183a9b9", -138),
                 (1, "0x296560c827b138f89e6602474c7549dda4bf", -137)),
    ("0", -1): ((0, "0x2b7fa97d974703e6008036cff2f5011989f7", -138),
                (1, "0x4bf1234f778780241a7125a6224e7b1f08af", -143)),
    ("0", 1): ((0, "0x63322ca603aec122a30f40336c04380b3d2d", -138),
               (0, "0x68726b2094787c85a13d4109ef7efe9aa96b", -141)),
    ("0.5", -1): ((1, "0x40ea7f7e47900ae69912a9ec2d7702d1a023", -140),
                  (0, "0x7d9555fa39e2f5f3c3876fc7d4ab766b949f", -140)),
    ("0.5", 1): ((1, "0x5f86e26ca119a197c1699bf12d3b58cdd839", -139),
                 (1, "0x7b2ff8f1011e541688bac56d3287ee595ff3", -139)),
}


def test_one_sheet_series_values_keep_their_bits():
    # a single-sheet call takes turn 0 of its point, whose powers and log
    # are the point's own: plain (alpha = 0.3) and logarithmic (0, 1/2)
    for (alpha, k), bits in _ONE_SHEET_BITS.items():
        with mp.workdps(40):
            a = mpf(alpha)
            b = (mpf(0), -a, -a - mpf("0.5"))
            pt = SectorPoint(mpf("1.7"), mpf("0.4") + 2 * k * mp.pi)
        v = g303_series(b, pt, dps=30)
        got = tuple((x._mpf_[0], hex(x._mpf_[1]), x._mpf_[2])
                    for x in (v.real, v.imag))
        assert got == bits, (alpha, k)


# mb_loop at 30 digits as the (sign, hex mantissa, exponent) of its real and
# imaginary parts: the benchmark's G request, b = B_SWEEP, m = 3, at
# z = 1.25 e^(i (0.5 + 2 pi k)) for k = -2..2, and m = 2 at
# z = 10^3 e^(-7 pi i), whose walk takes 91 and 196 nodes
B_SWEEP = ("0.028403", "-0.363757", "-0.696444")
_LOOP_BITS = {
    (B_SWEEP, 3, "1.25", -2): (
        (0, "0xaea4212b3260fbad7706c8d6af38f4e94992f51", -151),
        (1, "0x21bc0063bec5d7820b04f7e7e62b49d2fb1ddfb", -149)),
    (B_SWEEP, 3, "1.25", -1): (
        (0, "0xef311b385948e35c0b8498ffd06b1ddc31d459", -149),
        (0, "0xc1ce62fc0ba94d3760931727a2038c93dbf5c05", -153)),
    (B_SWEEP, 3, "1.25", 0): (
        (0, "0x2ad82a5af0ad619a8fb55604d66e8345aac287d", -157),
        (1, "0x6706631009594ef4ce784022b490936aac59355", -158)),
    (B_SWEEP, 3, "1.25", 1): (
        (0, "0x83bd5935180e9066b33e328be1d21facf4dc61b", -151),
        (1, "0x23686aac561e9c7d70a8ada59cb9afd9013c247", -149)),
    (B_SWEEP, 3, "1.25", 2): (
        (0, "0x783a1e732ed1c26aa881201faec4f6bcd2a7b5", -147),
        (0, "0xa881aac37395ef24513d203ab08f6074d07440f", -152)),
    (("0", "-0.3", "-0.8"), 2, "1000", None): (
        (0, "0xbc5226acd18c92ee17c7f70bc742d820a1c5eb748a5dde485366b72d49"
            "04c9b7a3ebd2ceb", -278),
        (0, "0x29073526eb1b9b5a35a190374594a698582af8f677053e0f773958f70b"
            "270e5d17edf57ced", -281)),
}


def test_loop_values_keep_their_bits():
    # the loop's table bookkeeping (node columns, integer weights, walk)
    # must not move a bit of its values
    for (b, m, modulus, k), bits in _LOOP_BITS.items():
        with mp.workdps(40):
            arg = -7 * mp.pi if k is None else mpf("0.5") + 2 * k * mp.pi
            bb = [mpf(x) for x in b]
            pt = SectorPoint(mpf(modulus), arg)
        v = mb_loop(bb, pt, m=m, dps=30)
        got = tuple((x._mpf_[0], hex(x._mpf_[1]), x._mpf_[2])
                    for x in (v.real, v.imag))
        assert got == bits, (m, modulus, k)


def test_shared_sheets_near_resonance_take_the_loop():
    # inside the resonance window without exact resonance every sheet is
    # its own mb_loop call at the rotated point
    b = (mpf(0), mpf("-1e-8"), mpf("-0.5"))
    assert meijer.pick_route(b, 3) == "loop"
    turns = (-2, -1, 0, 1, 2)
    with mp.workdps(40):
        pt = SectorPoint(mpf("0.5"), mpf("0.4"))
        shared = meijer._g3_rows(b, pt, [((t, 1),) for t in turns], 30)
        for k, got in zip(turns, shared):
            ref = mb_loop(b, pt.rotated(2 * mp.pi * k), m=3, dps=30,
                          with_theta=True)
            for x, y in zip(got, ref):
                assert abs(x - y) <= mpf("1e-30") * abs(y), k


_ROW_ALPHAS = ("-0.9", "-0.5", "0", "0.3", "0.5", "1.9")
_ROW_MODULI = ("0.3", "1.7", "10", "1000")


def _weighted_sheets(b, point, row, d):
    """sum_t w_t G(point turned t) from one g303_series call a sheet."""
    return [sum(w * g303_series(b, point.rotated(2 * t * mp.pi), dps=d,
                                with_theta=True)[m] for t, w in row)
            for m in range(3)]


def _assert_triples_close(got, ref, d, where):
    for x, y in zip(got, ref):
        assert abs(x - y) <= mpf(10) ** -(d + 5) * abs(y), where


@pytest.mark.parametrize("d", [30, 50])
def test_rows_match_weighted_single_sheets(d):
    # every row of (turn, weight) pairs equals the weighted sum of its
    # sheets' single-sheet g303_series values to 10^-(d+5): a row over the
    # turns -2..2 with weights that are not units, and the rows of phi1..4,
    # psi1..4 and psi3_alternate, whose weights i e^(+-2 pi i a) are taken
    # here at 20 more digits.  phi's and psi's b are plain at alpha = -0.9,
    # 0.3 and 1.9 and a logarithmic pair at -0.5, 0 and 1/2
    spread = tuple((t, mpc(t + 3, -t) / 7) for t in range(-2, 3))
    for alpha in _ROW_ALPHAS:
        for modulus in _ROW_MODULI:
            with mp.workdps(d + 20):
                a = mpf(alpha)
                ip = mpc(0, 1) * mp.expjpi(2 * a)
                im = mpc(0, 1) * mp.expjpi(-2 * a)
                pt = SectorPoint(mpf(modulus), mpf("0.4"))
                b_phi = (mpf(0), -a, -a - mpf("0.5"))
                b_psi = (mpf(0), a, a + mpf("0.5"))
                down, up = pt.rotated(-mp.pi), pt.rotated(mp.pi)
            where = (alpha, modulus)
            got = meijer._g3_rows(b_phi, pt, (spread,), d)[0]
            with mp.workdps(d + 20):
                _assert_triples_close(
                    got, _weighted_sheets(b_phi, pt, spread, d), d, where)
            phi = phi_scalars(a, pt, dps=d)
            psi = psi_scalars(a, pt, dps=d)
            alt = psi3_alternate(a, pt, dps=d)
            with mp.workdps(d + 20):
                for got, (b, point, row) in (
                        (phi.f1, (b_phi, pt, ((1, ip),))),
                        (phi.f2, (b_phi, pt, ((-1, -im),))),
                        (phi.f3, (b_phi, pt, ((0, 1),))),
                        (phi.f4, (b_phi, pt, ((1, ip), (-1, -im)))),
                        (psi.f1, (b_psi, down, ((0, 1),))),
                        (psi.f2, (b_psi, down, ((1, 1),))),
                        (psi.f3, (b_psi, down, ((-1, ip), (0, -ip)))),
                        (psi.f4, (b_psi, down, ((1, 1), (0, -1)))),
                        (alt, (b_psi, up, ((0, im), (1, -im))))):
                    _assert_triples_close(
                        got, _weighted_sheets(b, point, row, d), d, where)


@pytest.mark.parametrize("d", [30, 50])
def test_two_sheet_triples_match_the_scalars(d):
    # phi4_triple and psi4_triple are the phi4 and psi4 rows alone
    for alpha in _ROW_ALPHAS:
        for modulus in _ROW_MODULI:
            with mp.workdps(d + 20):
                a = mpf(alpha)
                pt = SectorPoint(mpf(modulus), mpf("0.4"))
            where = (alpha, modulus)
            _assert_triples_close(meijer.phi4_triple(a, pt, dps=d),
                                  phi_scalars(a, pt, dps=d).f4, d, where)
            _assert_triples_close(meijer.psi4_triple(a, pt, dps=d),
                                  psi_scalars(a, pt, dps=d).f4, d, where)


def _record_passes(monkeypatch):
    """Wrap the series' two 0F2 passes to keep (kind, c) of each call, c
    the exponent that weighs its terms."""
    seen = []
    for name, kind in (("hyper0f2_theta", "plain"),
                       ("hyper0f2_log_theta", "log")):
        def recorded(b1, b2, z, c=0, dps=None, _run=getattr(meijer, name),
                     _kind=kind):
            seen.append((_kind, c))
            return _run(b1, b2, z, c=c, dps=dps)

        monkeypatch.setattr(meijer, name, recorded)
    return seen


def test_rows_skip_families_weighed_by_exact_zeros(monkeypatch):
    # psi4 = Gt(z e^(pi i)) - Gt(z e^(-pi i)) weighs Gt's b = 0 family by
    # Lambda_0 = e^0 - 1 = 0 exactly: a plain b (alpha = -0.9, 0.3, 1.9)
    # makes two passes, none for that family.  Where b = 0 is in a
    # logarithmic pair (alpha = -0.5, 0, 1/2) the pair's Lambda_p is 0 as
    # well, and only its turn's 2 pi i log term is left: one plain pass
    # takes its sums S_m, and no pass takes the sums R_m.  phi4 at
    # alpha = 0 weighs its plain family and the pair by 0 too
    seen = _record_passes(monkeypatch)
    pt = SectorPoint(mpf("1.7"), mpf("0.4"))
    for alpha in _ROW_ALPHAS:
        del seen[:]
        meijer.psi4_triple(mpf(alpha), pt, dps=30)
        form = _series_form(meijer._psi_b(mpf(alpha)))
        if form == "plain":
            assert len(seen) == 2 and all(c != 0 for _, c in seen), alpha
        else:
            assert [kind for kind, _ in seen] == ["plain"] * 2, alpha
    del seen[:]
    meijer.phi4_triple(mpf(0), pt, dps=30)
    assert seen == [("plain", 0)]


def test_rows_sum_a_family_weighed_by_a_tiny_constant(monkeypatch):
    # a weight of 10^-60 is not zero: psi4's row with one more turn of
    # that weight weighs the b = 0 family by Lambda_0 = 10^-60, and that
    # family is summed
    seen = _record_passes(monkeypatch)
    with mp.workdps(50):
        b = meijer._psi_b(mpf("0.3"))
        pt = SectorPoint(mpf("1.7"), mpf("0.4"))
        row = ((1, 1), (0, -1), (2, mpf(10) ** -60))
    got = meijer._g3_rows(b, pt, (row,), 30)[0]
    assert [c for _, c in seen].count(0) == 1
    monkeypatch.undo()
    with mp.workdps(50):
        _assert_triples_close(got, _weighted_sheets(b, pt, row, 30), 30,
                              "tiny")


def test_rows_inside_the_resonance_window_still_take_the_loop(monkeypatch):
    # alpha = 1e-8 puts b inside the series' resonance window without an
    # exact pair: the kernel's triples take the loop, one call a turn
    calls = []
    loop = meijer.mb_loop

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return loop(*args, **kwargs)

    monkeypatch.setattr(meijer, "mb_loop", recorded)
    seen = _record_passes(monkeypatch)
    with mp.workdps(40):
        a = mpf("1e-8")
    assert meijer.pick_route(meijer._phi_b(a), 3) == "loop"
    assert meijer.pick_route(meijer._psi_b(a), 3) == "loop"
    kernel_meijer(a, mpf("0.7"), mpf("1.6"), dps=30)
    assert len(calls) == 4 and not seen


def test_series_plan_is_cached_per_b_rows_and_digits():
    # one plan per (b, rows, digits): moduli up to 1 lose no digits and
    # share one; |z| = 8 works at 4 more digits and takes another; phi4's
    # row, psi4's row and phi's four rows are three row sets
    meijer._series_plan.cache_clear()
    a = mpf("0.3")
    for modulus in ("0.2", "0.5", "1"):
        meijer.phi4_triple(a, SectorPoint(mpf(modulus), mpf(0)), dps=30)
    info = meijer._series_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    meijer.phi4_triple(a, SectorPoint(mpf(8), mpf(0)), dps=30)
    meijer.psi4_triple(a, SectorPoint(mpf("0.5"), mpf(0)), dps=30)
    meijer.phi_scalars(a, SectorPoint(mpf("0.5"), mpf(0)), dps=30)
    meijer.phi4_triple(a, SectorPoint(mpf("0.7"), mpf(0)), dps=30)
    meijer.phi4_triple(a, SectorPoint(mpf("0.7"), mpf(0)), dps=40)
    info = meijer._series_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (5, 3, 5)


def test_rows_near_resonance_take_the_loop():
    # inside the resonance window every turn is one mb_loop call, and a
    # row is the weighted sum of those calls
    b = (mpf(0), mpf("-1e-8"), mpf("-0.5"))
    row = tuple((t, mpc(t + 3, -t) / 7) for t in range(-2, 3))
    with mp.workdps(40):
        pt = SectorPoint(mpf("1.7"), mpf("0.4"))
        got = meijer._g3_rows(b, pt, (row,), 30)[0]
        ref = [sum(w * mb_loop(b, pt.rotated(2 * mp.pi * t), m=3, dps=30,
                               with_theta=True)[m] for t, w in row)
               for m in range(3)]
        _assert_triples_close(got, ref, 30, "loop")


def test_phi_scalars_internal_identity():
    # phi4 is assembled as phi1 + phi2 and must also equal the single-series
    # form -4 pi^2 0F2 / (Gamma(1+a) Gamma(3/2+a)); checked in the
    # acceptance suite at tighter tolerance, spot-checked here
    from mbhalf.specfun import hyper0f2

    with mp.workdps(50):
        a = mpf("0.3")
        pt = SectorPoint(mpf("1.1"), mpf("0.7"))
        tr = phi_scalars(a, pt, dps=40)
        z = pt.to_mpc(dps=45)
        rhs = (-4 * mp.pi ** 2 / (mp.gamma(1 + a) * mp.gamma(mpf("1.5") + a))
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
