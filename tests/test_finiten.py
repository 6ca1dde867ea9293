"""Finite-n biorthogonal systems: moments, LDU families, kernels, matrix
cross-checks."""

import dataclasses

import pytest
from mpmath import mp, mpc, mpf

from mbhalf.finiten import (
    DomainExtensionError,
    biortho_build,
    biortho_residual,
    cd_formula_check,
    finite_kernel,
    hard_edge_convergence,
    laguerre_kernel,
    moments,
    multiple_orthogonality_check,
    y_growth_residual,
)
from mbhalf import finiten
from mbhalf.cli import main
from mbhalf.finiten import _tail_box
from mbhalf.kernel import _meijer_or_diag
from mbhalf.mpcore import SingularMatrixError, working


def test_laguerre_moments_closed_form():
    mt = moments(mpf("0.5"), 3, "laguerre", smax=4, dps=40)
    with mp.workdps(50):
        # m(s) = Gamma(s + alpha + 1) / n^{s + alpha + 1}
        expect = mp.gamma(mpf("2.5")) / 3 ** mpf("2.5")
        assert abs(mt.value(1) - expect) < mpf("1e-35")
        assert mt.smax2 == 8


@pytest.mark.parametrize("alpha", ["-0.9", "-0.5", "0", "0.23"])
def test_laguerre_moments_recurrence_matches_gamma(alpha):
    # the closed-form table steps m(s+1) = m(s) (s+alpha+1)/n from two gamma
    # values; every moment the n = 32 build reads (2s <= 93, 320 digits)
    # must match a direct gamma call to 10^-(d+5)
    n, d, alpha = 32, 320, mpf(alpha)
    mt = moments(alpha, n, "laguerre", smax=mpf(93) / 2, dps=d)
    assert sorted(mt.values) == list(range(94))
    with mp.workdps(d + 20):
        for k2, v in mt.values.items():
            e = mpf(k2) / 2 + alpha + 1
            ref = mp.gamma(e) / mpf(n) ** e
            assert abs(v - ref) <= mpf(10) ** -(d + 5) * ref, k2


def test_custom_field_route_matches_closed_form():
    # V passed as a callable x -> x must integrate to the same table;
    # alpha = -1/2 puts a t^(-1/2) singularity under every moment
    for alpha, smax in (("0.3", 3), ("-0.5", 6)):
        mt_cf = moments(mpf(alpha), 2, "laguerre", smax=smax, dps=40)
        mt_q = moments(mpf(alpha), 2, lambda x: x, smax=smax, dps=40)
        with mp.workdps(50):
            for k2 in range(2 * smax + 1):
                a = mt_cf.values[k2]
                b = mt_q.values[k2]
                assert abs(a - b) / a < mpf("1e-35"), (alpha, k2)


@pytest.mark.parametrize("n,d", [(1, 60), (1, 80), (2, 60), (2, 80),
                                 (4, 60), (4, 80)])
def test_custom_field_moments_meet_the_requested_digits(n, d):
    # the callable route must carry the digits asked for, not a fixed
    # panel rule's: 64-node panels stopped at 1.1e-41 (n = 1), 1.7e-56
    # (n = 2) and 4.5e-76 (n = 4) here
    alpha, smax = mpf("0.5"), 15
    mt_cf = moments(alpha, n, "laguerre", smax=smax, dps=d)
    mt_q = moments(alpha, n, lambda x: x, smax=smax, dps=d)
    with mp.workdps(d + 10):
        for k2 in range(2 * smax + 1):
            a, b = mt_cf.values[k2], mt_q.values[k2]
            assert abs(a - b) / a < mpf(10) ** -d, k2


@pytest.mark.parametrize("alpha", ["-0.5", "0", "0.3"])
@pytest.mark.parametrize("n", [1, 4])
def test_callable_moments_of_a_nonlinear_field_meet_mp_quad(alpha, n):
    # V = x + 0.1 x^2 against mpmath's own integrator at 80 digits; alpha
    # and 0.1 are made once at the ambient digits, to which moments rounds
    # its alpha, so that both sides integrate the same weight
    alpha, c = mpf(alpha), mpf("0.1")
    mt = moments(alpha, n, lambda x: x + c * x ** 2, smax=3, dps=40)
    with mp.workdps(80):
        for k2, v in mt.values.items():
            e = mpf(k2) / 2 + alpha
            ref = mp.quad(lambda x: x ** e * mp.exp(-n * (x + c * x ** 2)),
                          [0, 1, 4, mp.inf])
            assert abs(v - ref) <= mpf("1e-41") * ref, k2


def test_callable_moments_share_one_pass_per_node(monkeypatch):
    # all 2*smax+1 moments ride on one vector quadrature: V is evaluated
    # once per node and once per tail-box probe, all at distinct points
    seen, passes, nodes, probes = [], [], [], []

    def V(x):
        seen.append(x)
        return x

    def quad(f, *args, **kwargs):
        passes.append(args)

        def counted(t):
            nodes.append(t)
            return f(t)

        return quad_ts(counted, *args, **kwargs)

    def box(alpha, n, field, smax):
        def counted(x):
            probes.append(x)
            return field(x)

        return tail_box(alpha, n, counted, smax)

    quad_ts, tail_box = finiten.quad_ts, finiten._tail_box
    monkeypatch.setattr(finiten, "quad_ts", quad)
    monkeypatch.setattr(finiten, "_tail_box", box)
    moments(mpf("0.3"), 2, V, smax=3, dps=40)
    assert len(passes) == 1 and nodes and probes
    assert len(seen) == len(nodes) + len(probes)
    assert len(seen) == len(set(seen))


def test_moment_table_validation():
    mt = moments(mpf(0), 2, "laguerre", smax=2, dps=30)
    with pytest.raises(KeyError):
        mt.value(mpf("2.5"))
    with pytest.raises(ValueError):
        mt.value(mpf("0.3"))  # not a half-integer
    with pytest.raises(ValueError):
        moments(mpf(-1), 2, smax=2, dps=30)


def test_tail_box_failure_for_shrinking_field():
    with pytest.raises(DomainExtensionError):
        moments(mpf(0), 2, lambda x: -x, smax=2, dps=30)


def test_tail_box_bisects_the_doubling_bracket():
    # the bound (3 + alpha) log X - 2 X = -50 log 10 + (3.1 log 4 - 8),
    # the largest probed value being the one at 4, crosses at X = 65.9;
    # doubling from 4 alone stops at 128, twice the needed box
    alpha, n, smax, d = mpf("0.1"), 2, mpf(3), 40
    with mp.workdps(d + 10):
        X, peaks = _tail_box(alpha, n, lambda x: x, smax)
        assert X <= 66 and peaks == []
        assert X ** (smax + alpha) * mp.exp(-n * X) < mpf(10) ** (-(d + 10))


def test_tail_box_finds_mass_beyond_the_first_small_point():
    # exp(-n (x - 10)^2) is already below the bound at x = 4; the box must
    # still reach past the bump at 10.  At n = 40 and 100 it is below the
    # bound at every doubling point too (8 and 16 bracket the bump), and
    # only its rise at 8 shows the well
    for n in (4, 40, 100):
        with mp.workdps(40):
            got = moments(mpf(0), n, lambda x: (x - 10) ** 2, smax=1, dps=30)
            ref = mp.quad(lambda x: mp.exp(-n * (x - 10) ** 2),
                          [0, 10, mp.inf])
            assert abs(got.value(mpf(0)) - ref) < mpf("1e-25"), n


def test_small_moments_keep_the_working_digits():
    # the top moment of V = x + x^2/10 at n = 32 is 4.3e-16; a box that
    # ended where the integrand fell below 10^-d absolutely left it 3.9e-57
    # off, and one relative to the integrand's size keeps d digits
    alpha, n, d = mpf("0.3"), 32, 60

    def V(x):
        return x + x ** 2 / 10

    top = 3 * (n - 1)
    mt = moments(alpha, n, V, smax=mpf(top) / 2, dps=d)
    with mp.workdps(d + 40):
        for k2 in (0, top):
            s = mpf(k2) / 2
            ref = mp.quad(lambda x: x ** (s + alpha) * mp.exp(-n * V(x)),
                          [0, 1, 2, 4, 8, mp.inf])
            assert abs(mt.values[k2] - ref) < mpf(10) ** -d * ref, k2


def _two_wells(x):
    return min((x - 6) ** 2, (x - 50) ** 2 + 1)


@pytest.mark.parametrize("n", [100, 1000, 3000])
def test_moments_resolve_a_narrow_well_inside_the_box(n):
    # the well at 6, about 1/sqrt(n) wide, peaks at 1; the doubling points
    # 4 and 8 bracket it, and the pass is split there.  The bound counts
    # that peak, so the well at 50, whose peak e^-n lies below it, is left
    # out of the box: X ends where the integrand falls below the bound
    # past 6 (6.19 at n = 3000).  A bound relative to the doubling points
    # alone (e^-4n) took the box to 51.75 and split off the peak at 50.
    # One pass over [0, X] raised QuadratureConvergenceError at n = 3000
    V = _two_wells
    got = moments(mpf(0), n, V, smax=0, dps=30)
    with mp.workdps(40):
        X, peaks = _tail_box(mpf(0), n, V, mpf(0))
        assert [round(float(x)) for x in peaks] == [6] and 6 < X < 8
        ref = mp.quad(lambda x: mp.exp(-n * V(x)), [0, 6, 50, mp.inf])
        assert abs(got.value(0) - ref) < mpf("1e-25") * ref, n


@pytest.mark.parametrize("d", [30, 40, 60])
def test_callable_moments_near_alpha_minus_one(d, monkeypatch):
    # x^alpha below alpha = -3/4 blows up faster than tanh-sinh's cutoff
    # allows for: the callable route was 4.8e-30 off at alpha = -0.9 and
    # raised QuadratureConvergenceError at -0.95 and -0.99.  Its first
    # piece is taken in u = x^(1/p), p = 1/(2 (1 + alpha)); from alpha =
    # -1/2 on it keeps x itself, and ends at the box X
    ends = []

    def quad(f, a, b, dps=None, **kwargs):
        ends.append(b)
        return quad_ts(f, a, b, dps=dps, **kwargs)

    quad_ts = finiten.quad_ts
    monkeypatch.setattr(finiten, "quad_ts", quad)
    for alpha in ("-0.5", "-0.9", "-0.95", "-0.99"):
        a = mpf(alpha)
        del ends[:]
        mt = moments(a, 2, lambda x: x, smax=3, dps=d)
        with mp.workdps(d + 10):
            X, _ = _tail_box(a, 2, lambda x: x, mpf(3))
            p = max(1, 1 / (2 * (1 + a)))
            assert ends == [X ** (1 / p)], alpha
            for k2, v in mt.values.items():
                e = mpf(k2) / 2 + a + 1
                ref = mp.gamma(e) / mpf(2) ** e
                assert abs(v - ref) <= mpf(10) ** -d * ref, (alpha, k2)


@pytest.mark.parametrize("alpha", ["-0.9", "0.3"])
@pytest.mark.parametrize("n,d", [(2, 40), (32, 60)])
def test_power_sums_meet_the_explicit_vector_integrand(n, d, alpha):
    # moments' integrand pair (w(t), t^(1/2)) for V = x + 0.1 x^2 over the
    # piece at 0, in u = t^(1/p) at alpha = -0.9 (p = 5): quad_ts's
    # integer power sums against the vector integrand [w r^k] of rounded
    # products, summed by mp.fdot, to 8 units of the working precision
    count = 3 * (n - 1) + 1
    V = lambda x: x + x ** 2 / 10
    with working(d):
        a = mpf(alpha)
        X, _ = _tail_box(a, n, V, mpf(count - 1) / 2)
        p = max(mpf(1), 1 / (2 * (1 + a)))
        unit = mpf(2) ** -mp.prec

        def pair(u):
            lu = mp.log(u)
            t = mp.exp(p * lu)
            return (p * mp.exp((p * (a + 1) - 1) * lu - n * V(t)),
                    mp.sqrt(t))

        def vector(u):
            v, r = pair(u)
            out = [v]
            for _ in range(count - 1):
                out.append(out[-1] * r)
            return out

        end = X ** (1 / p)
    got = finiten.quad_ts(pair, 0, end, dps=d, powers=count)
    ref = finiten.quad_ts(vector, 0, end, dps=d)
    assert len(got) == count
    with working(d):
        for k, (g, r) in enumerate(zip(got, ref)):
            assert abs(g - r) <= 8 * unit * r, k


def test_callable_table_of_190_moments_meets_the_closed_form():
    # the table an n = 64 system reads, 2s = 0..189, of V = x given as a
    # callable, against the Laguerre recurrence at 90 digits
    alpha, smax = mpf("0.3"), mpf(189) / 2
    mt_cf = moments(alpha, 64, "laguerre", smax=smax, dps=90)
    mt_q = moments(alpha, 64, lambda x: x, smax=smax, dps=90)
    assert len(mt_q.values) == 190
    with mp.workdps(100):
        for k2, a in mt_cf.values.items():
            assert abs(mt_q.values[k2] - a) <= mpf(10) ** -90 * a, k2


@pytest.fixture(scope="module")
def system6():
    mt = moments(mpf("0.5"), 6, "laguerre", smax=mpf(15), dps=80)
    return biortho_build(mt, 6)


def test_biortho_structure(system6):
    bs = system6
    assert bs.nmax == 6
    assert bs.p_coeffs[0][0] == 1
    with working(bs.table.dps):
        # q_0 = 1 / m(0)
        assert abs(bs.q_coeffs[0][0] - 1 / bs.table.value(0)) < mpf("1e-50")
        for j in range(6):
            assert bs.p_coeffs[j][j] == 1  # monic


def test_biortho_residual_small(system6):
    assert biortho_residual(system6) < mpf("1e-50")


@pytest.mark.parametrize("alpha", ["0", "0.23"])
def test_biortho_residual_at_n32(alpha):
    # each LDU, inverse and certificate entry is one exact-product dot sum
    # rounded once; sums of separately rounded products left 5.3e-283
    # (alpha = 0) and 8.1e-283 (alpha = 0.23) here
    mt = moments(mpf(alpha), 32, "laguerre", smax=mpf(93) / 2, dps=320)
    assert biortho_residual(biortho_build(mt, 32)) <= mpf("1e-284")


def _hard_edge_error(alpha, n, d):
    """The LDU system of a d-digit Laguerre table, its certificate, and its
    kernel's relative error against the closed form at (1, 2)/(n^3/4)."""
    alpha = mpf(alpha)
    mt = moments(alpha, n, "laguerre", smax=mpf(3 * (n - 1)) / 2, dps=d)
    bs = biortho_build(mt, n)
    s = mpf(n) ** 3 / 4
    with mp.workdps(d + 40):
        ref = laguerre_kernel(alpha, n, 1 / s, 2 / s, dps=d + 30)
        err = abs(finite_kernel(bs, 1 / s, 2 / s) - ref) / abs(ref)
    return biortho_residual(bs), err


@pytest.mark.parametrize("n", [24, 32, 48, 64])
def test_short_moment_table_is_refused(n):
    # the build works at its table's digits, so a 30-digit table too short
    # for its size fails the pivot test; at 10n digits it returned kernels
    # off by 3e-15 (n = 32), 2e-3 (48) and 0.13 (64) with certificates of
    # 1e-286 and below
    with pytest.raises(SingularMatrixError):
        _hard_edge_error("0.3", n, 30)


@pytest.mark.parametrize("alpha, n, d", [("0.3", 16, 30), ("0", 32, 44),
                                         ("0", 40, 60)])
def test_certificate_bounds_the_kernel_error(alpha, n, d):
    # tables that do build: the certificate, taken at the table's digits,
    # is no smaller than the kernel's error (3.3e-25 against 1.4e-30,
    # 2.4e-20 against 1.5e-28, 1.3e-26 against 2.5e-37)
    cert, err = _hard_edge_error(alpha, n, d)
    assert err <= cert


def test_thirty_digit_table_still_serves_n16():
    # about one digit of a 30-digit table is lost at n = 16 (1.4e-30)
    assert _hard_edge_error("0.3", 16, 30)[1] <= mpf("1e-29")


def test_residual_check_raises_the_typed_error(monkeypatch):
    # a build whose certificate fails names the whole system as its minor
    monkeypatch.setattr(finiten, "biortho_residual", lambda bs: mpf(1))
    mt = moments(mpf(0), 4, "laguerre", smax=mpf(9) / 2, dps=40)
    with pytest.raises(SingularMatrixError) as exc:
        biortho_build(mt, 4)
    assert exc.value.minor == 4


def test_multiple_orthogonality(system6):
    assert multiple_orthogonality_check(system6) < mpf("1e-50")


def test_residual_detects_corruption(system6):
    # sanity of the certificate itself: a 1e-10 bump in one coefficient
    # must be flagged, so a passing residual is meaningful
    bs = system6
    p = [list(row) for row in bs.p_coeffs]
    p[3][1] += mpf("1e-10")
    bad = dataclasses.replace(bs, p_coeffs=p)
    assert biortho_residual(bad) > mpf("1e-12")


def test_monicity_enforced(system6):
    p = [list(row) for row in system6.p_coeffs]
    p[2][2] = mpf(2)
    with pytest.raises(ValueError):
        dataclasses.replace(system6, p_coeffs=p)


def test_insufficient_moment_table():
    mt = moments(mpf(0), 4, "laguerre", smax=2, dps=40)
    with pytest.raises(ValueError):
        biortho_build(mt, 4)


def test_rank_one_kernel_closed_form():
    # n = 1, alpha = 0: K_1(x, y) = w(y) p_0(x) q_0(sqrt y) = e^{-y}
    mt = moments(mpf(0), 1, "laguerre", smax=1, dps=40)
    bs = biortho_build(mt, 1)
    with mp.workdps(50):
        for y in (mpf("0.3"), mpf(2)):
            v = finite_kernel(bs, mpf("0.7"), y)
            assert abs(v - mp.exp(-y)) < mpf("1e-45"), y


def test_kernel_asymmetry(system6):
    with mp.workdps(40):
        k1 = finite_kernel(system6, mpf("0.5"), mpf("1.1"))
        k2 = finite_kernel(system6, mpf("1.1"), mpf("0.5"))
        assert abs(k1 - k2) > mpf("1e-3")


def test_kernel_trace_counts_particles():
    # integral of K_n(x,x) dx = n (projection of rank n); n = 3 here
    mt = moments(mpf("0.5"), 3, "laguerre", smax=mpf(6), dps=64)
    bs = biortho_build(mt, 3)
    with mp.workdps(50):
        total = mp.quad(lambda x: finite_kernel(bs, x, x), [0, 1, 30])
        assert abs(total - 3) < mpf("1e-12")


def test_cd_matrix_form_agrees(system6):
    resid = cd_formula_check(system6, mpf("0.5"), mpf("1.1"), dps=30)
    assert resid < mpf("1e-30")


@pytest.mark.parametrize("alpha, n, dps", [
    ("0", 2, 30), ("0", 8, 30), ("0.3", 2, 30), ("0.3", 8, 30),
    ("0", 2, 60), ("0.3", 2, 60), ("0.3", 3, 30), ("0", 5, 30)])
def test_cd_residual_meets_the_working_digits(alpha, n, dps):
    # the boundary values are taken at z = x itself, so the identity holds
    # to the working digits; boundary values from x + i delta and
    # x + i delta/2 with one Richardson step left 2e-11..4e-9 at 30 digits
    mt = moments(mpf(alpha), n, "laguerre", smax=mpf(3 * n) / 2,
                 dps=dps + 34)
    bs = biortho_build(mt, n)
    resid = cd_formula_check(bs, mpf("0.4"), mpf("0.9"), dps=dps)
    assert resid < mpf(10) ** -dps


def test_cd_guards():
    mt = moments(mpf(0), 2, "laguerre", smax=mpf(6), dps=64)
    bs = biortho_build(mt, 2)
    with pytest.raises(ValueError):
        cd_formula_check(bs, mpf("0.5"), mpf("0.5"))
    with pytest.raises(ValueError):
        cd_formula_check(bs, mpf("-1"), mpf("0.5"))
    mt1 = moments(mpf(0), 1, "laguerre", smax=mpf(3), dps=64)
    bs1 = biortho_build(mt1, 1)
    with pytest.raises(ValueError):
        cd_formula_check(bs1, mpf("0.5"), mpf("1.5"))


def test_y_growth_normalization(system6):
    # an odd n takes the other pair of edge rows
    for n in (3, 4):
        mt = moments(mpf(0), n, "laguerre", smax=mpf(9), dps=64)
        bs = biortho_build(mt, n)
        resid = y_growth_residual(bs, mpc(0, 500), dps=30)
        assert resid < mpf("0.05"), n
    with pytest.raises(ValueError):
        y_growth_residual(bs, mpf(3), dps=30)


def test_hard_edge_convergence_regression():
    # frozen values of the scaled-kernel error at (alpha, x, y) = (0, 1, 2)
    rows = hard_edge_convergence(mpf(0), mpf(1), mpf(2), [4, 6], ref_dps=30)
    assert [n for n, _ in rows] == [4, 6]
    errs = [float(e) for _, e in rows]
    assert errs[0] == pytest.approx(0.0494513, abs=2e-6)
    assert errs[1] == pytest.approx(0.0626362, abs=2e-6)


@pytest.mark.parametrize("alpha", ["0", "0.23", "-0.5"])
def test_laguerre_kernel_matches_the_ldu_route(alpha):
    # the closed-form sums at 30 digits against the LDU system built at
    # its table's max(64, 10n) digits: at hard-edge points x, y ~ 4/n^3
    # they hardly cancel; at the bulk point (0.5, 1.5) they lose 5 digits
    # at n = 8 and 10 at n = 16, so only the measured-loss rerun keeps 35
    # of the 40 working digits
    alpha = mpf(alpha)
    for n in (1, 2, 4, 8, 16, 32):
        mt = moments(alpha, n, "laguerre", smax=mpf(3 * max(n - 1, 1)) / 2,
                     dps=max(64, 10 * n))
        bs = biortho_build(mt, n)
        s = mpf(n) ** 3 / 4
        points = [(1 / s, 2 / s), (mpf("0.7") / s, mpf("1.9") / s)]
        if n <= 16:
            points.append((mpf("0.5"), mpf("1.5")))
        for x, y in points:
            got = laguerre_kernel(alpha, n, x, y, dps=30)
            ref = finite_kernel(bs, x, y)
            with working(bs.table.dps):
                assert abs(got - ref) <= mpf("1e-35") * abs(ref), (n, x, y)


def test_laguerre_kernel_next_to_alpha_minus_one():
    # 1/Gamma(alpha + 1) ~ 10^-20 seeds the rows: it is small there, not 0
    with mp.workdps(40):
        alpha = -1 + mpf(10) ** -20
        k1 = laguerre_kernel(alpha, 1, 1, 2, dps=30)
        ref = 2 ** alpha * mp.exp(-2) * mp.rgamma(alpha + 1)
        assert abs(k1 - ref) <= mpf("1e-28") * ref
        for n in (2, 4, 8):
            mt = moments(alpha, n, "laguerre", smax=mpf(3 * (n - 1)) / 2,
                         dps=80)
            bs = biortho_build(mt, n)
            for x, y in ((mpf(1), mpf(2)), (mpf("0.3"), mpf("0.9"))):
                got = laguerre_kernel(alpha, n, x, y, dps=30)
                ref = finite_kernel(bs, x, y)
                assert abs(got - ref) <= mpf("1e-35") * abs(ref), (n, x, y)


def test_alpha_is_read_at_the_working_digits():
    # a 40-digit alpha = -1 + 1e-20 called at ambient 15 digits: the
    # closed-form kernel and the Laguerre moments read it under their raise,
    # where it still exceeds -1 (rounded to 15 digits it is -1, and the
    # kernel's 1/Gamma recurrence divided by zero)
    with mp.workdps(40):
        alpha = -1 + mpf(10) ** -20
    with mp.workdps(60):
        k1_ref = 2 ** alpha * mp.exp(-2) * mp.rgamma(alpha + 1)
        m0_ref = mp.gamma(alpha + 1) / 3 ** (alpha + 1)
    with mp.workdps(15):
        k1 = laguerre_kernel(alpha, 1, 1, 2, dps=40)
        m0 = moments(alpha, 3, "laguerre", smax=1, dps=40).value(0)
    with mp.workdps(60):
        assert abs(k1 - k1_ref) <= mpf("1e-38") * k1_ref
        assert abs(m0 - m0_ref) <= mpf("1e-38") * m0_ref


@pytest.mark.parametrize("alpha", ["-1.5", "-1"])
def test_alpha_at_or_below_minus_one_is_refused(alpha):
    with pytest.raises(ValueError, match="alpha must exceed -1"):
        laguerre_kernel(alpha, 4, 1, 2, dps=30)
    with pytest.raises(ValueError, match="alpha must exceed -1"):
        moments(alpha, 4, "laguerre", dps=30)


def test_hard_edge_convergence_builds_no_ldu(monkeypatch, capsys):
    # every n of the table, and of `converge`, comes from the closed form
    def refuse(*args, **kwargs):
        raise AssertionError("LDU route called")

    monkeypatch.setattr(finiten, "biortho_build", refuse)
    monkeypatch.setattr(finiten, "moments", refuse)
    rows = hard_edge_convergence(0, 1, 2, (4, 8, 16, 32))
    assert [n for n, _ in rows] == [4, 8, 16, 32]
    assert main(["converge", "--alpha", "0", "--x", "1", "--y", "2",
                 "--ns", "1,2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("alpha, x, y, tol", [("0", "1", "2", "1e-5"),
                                              ("0.3", "0.7", "1.9", "5e-5")])
def test_richardson_in_one_over_n_meets_the_limit(alpha, x, y, tol):
    # the scaled kernel is K(x, y) + a/n + b/n^2 + ...: err(n) is 0.0227,
    # 0.0121 and 0.00621 at n = 32, 64, 128 for (0, 1, 2), and two
    # Richardson steps over those n meet the limiting kernel to 4.9e-6;
    # (0.3, 0.7, 1.9) to 2.4e-5
    alpha, x, y = mpf(alpha), mpf(x), mpf(y)
    with mp.workdps(40):
        k = []
        for n in (32, 64, 128):
            s = mpf(n) ** 3 / 4
            k.append(laguerre_kernel(alpha, n, x / s, y / s, dps=30) / s)
        once = [2 * k[1] - k[0], 2 * k[2] - k[1]]
        twice = (4 * once[1] - once[0]) / 3
        ref = _meijer_or_diag(alpha, x, y, 30)
        assert abs(k[2] - ref) > 0.005 * abs(ref)
        assert abs(twice - ref) <= mpf(tol) * abs(ref)
