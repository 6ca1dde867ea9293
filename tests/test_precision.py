"""The precision policy: working digits that do not stack from layer to
layer, and the requested digits still delivered."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp, mpf

from mbhalf import equilibrium, finiten, kernel, meijer, specfun
from mbhalf.kernel import kernel_integral, kernel_meijer
from mbhalf.meijer import SectorPoint, g303_series, mb_loop
from mbhalf.rhframe import phi_matrix, psi_matrix


def test_working_digits_do_not_stack(monkeypatch):
    # kernel_meijer -> frames -> G series -> 0F2 and gamma.  Each layer
    # hands down the digits its callees' results need, not its working
    # digits, so at d = 30 the 0F2 term loop runs at d + the cancellation
    # of |z| <= 2 + the series guard and gamma at d + that cancellation +
    # GUARD_DIGITS.  With guards stacked (59-63 and 57-58 digits) both
    # fail.
    seen = {"theta": [], "gamma": []}
    theta_sums, gamma = specfun._theta_sums, mp.gamma

    def record_theta(*args, **kwargs):
        seen["theta"].append(mp.dps)
        return theta_sums(*args, **kwargs)

    def record_gamma(*args, **kwargs):
        seen["gamma"].append(mp.dps)
        return gamma(*args, **kwargs)

    monkeypatch.setattr(specfun, "_theta_sums", record_theta)
    monkeypatch.setattr(mp, "gamma", record_gamma)
    meijer._plain_coef.cache_clear()
    kernel_meijer(mpf("0.3"), 1, 2, dps=30)
    assert seen["theta"] and seen["gamma"]
    assert max(seen["theta"]) <= 50, seen["theta"]
    assert max(seen["gamma"]) <= 45, seen["gamma"]


def test_working_digits_of_the_term_loops(monkeypatch):
    # pinned at 30 digits: the Wright-Bessel term loops of kernel_integral
    # at alpha = 0.3, (x, y) = (1, 2) run at d + GUARD_DIGITS + the 7 digits
    # their two series lose (47), and the sums of a first pass of the loop
    # route at |z| <= 10 at d + _LOOP_EXTRA + GUARD_DIGITS (46); a cold loop
    # takes the gamma and reciprocal gamma values of its weight table at the
    # pass's own 46 digits (56 when they were raised once more)
    seen = []

    def record(mod, name):
        def recorded(*args, _run=getattr(mod, name)):
            seen.append((name, mp.dps))
            return _run(*args)

        monkeypatch.setattr(mod, name, recorded)

    for mod, name in ((kernel, "_wright_terms"), (meijer, "_loop_sums")):
        record(mod, name)
    kernel_integral(mpf("0.3"), 1, 2, dps=30)
    for name in ("gamma", "rgamma"):
        record(mp, name)
    meijer._loop_weights.cache_clear()
    for m in (3, 2):
        mb_loop((0, mpf("-0.3"), mpf("-0.8")),
                SectorPoint(mpf(2), mpf("0.3")), m=m, dps=30)
    assert seen[:2] == [("_wright_terms", 47)] * 2
    loops = [item for item in seen[2:] if item[0] == "_loop_sums"]
    weights = [item for item in seen[2:] if item[0] != "_loop_sums"]
    assert loops == [("_loop_sums", 46)] * 2
    assert {name for name, _ in weights} == {"gamma", "rgamma"}
    assert {digits for _, digits in weights} == {46}


@pytest.mark.parametrize("d", [30, 45, 60])
def test_series_route_accuracy_over_the_envelope(d):
    # G and its theta triple at d digits against the same route at d + 40,
    # for alpha in {-1/2, 0, 0.3, 1} (the log series at three of them),
    # both model triples, |z| from 0.5 to 10^3 and sheets -2..2; measured
    # 4.9e-39 at d = 30, 8 digits better than the 10^-(d+5) asked here
    tol = mpf(10) ** (-(d + 5))
    for alpha in ("-0.5", "0", "0.3", "1"):
        a = mpf(alpha)
        for b in ((mpf(0), -a, -a - mpf("0.5")), (mpf(0), a, a + mpf("0.5"))):
            for r in ("0.5", "1", "2", "5", "10", "30", "100", "1000"):
                for sheet in range(-2, 3):
                    with mp.workdps(d + 60):
                        pt = SectorPoint(mpf(r), mpf("0.3") + 2 * mp.pi * sheet)
                    ref = g303_series(b, pt, dps=d + 40, with_theta=True)
                    got = g303_series(b, pt, dps=d, with_theta=True)
                    with mp.workdps(d + 50):
                        for x, y in zip(got, ref):
                            assert abs(x - y) <= tol * abs(y), (alpha, b, r, sheet)


# the loop's envelope: alpha in (-1, 1.5), the resonant 2 alpha in Z among
# them, |z| from 10^-2 to 10^3 and sheets -2..2, for both model triples
_ALPHA = st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
                   st.floats(-0.99, 1.49))
_LOOP_POINT = dict(alpha=_ALPHA, adjoint=st.booleans(),
                   log_r=st.floats(-2.0, 3.0), arg=st.floats(-np.pi, np.pi),
                   sheet=st.integers(-2, 2))


def _model_b(alpha, adjoint, dps):
    """The model triple (0, -a, -a-1/2), or (0, a, a+1/2) for the adjoint,
    exact at ``dps`` digits."""
    with mp.workdps(dps):
        a = mpf(alpha) if adjoint else -mpf(alpha)
        return (mpf(0), a, a + mpf("0.5"))


def _sector(log_r, arg, sheet, dps):
    with mp.workdps(dps):
        return meijer.SectorPoint(mpf(10) ** log_r, mpf(arg) + 2 * mp.pi * sheet)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([30, 45, 60]), **_LOOP_POINT)
@example(d=30, alpha=0.0, adjoint=False, log_r=3.0, arg=0.0, sheet=0)
@example(d=30, alpha=0.3, adjoint=False, log_r=3.0, arg=0.5, sheet=0)
def test_loop_accuracy_over_the_envelope(d, alpha, adjoint, log_r, arg, sheet):
    # the theta triple of G^{3,0}_{0,3} by the loop at d digits against the
    # residue series (its logarithmic form at 2 alpha in Z) at d + 40.  At
    # |z| = 10^3 near arg 0 the rule's bound M exceeds G by about the 23
    # cancellation digits of an entire series: a step that leaves them out
    # stops near 10^-21 there.
    b = _model_b(alpha, adjoint, d + 60)
    assume(meijer.pick_route(b, 3) == "series")
    pt = _sector(log_r, arg, sheet, d + 60)
    ref = g303_series(b, pt, dps=d + 40, with_theta=True)
    got = mb_loop(b, pt, m=3, dps=d, with_theta=True)
    with mp.workdps(d + 50):
        for x, y in zip(got, ref):
            assert abs(x - y) <= mpf(10) ** (-d + 2) * abs(y)


def _meijerg_lower_m(b, m, pt, dps):
    """G^{m,0}_{0,3}(z|b), m = 1 or 2, on the sheet of ``pt`` from mpmath's
    meijerg, which takes the principal branch: off it, G is the sum of its
    residue families z^(b_h) E_h(z) (E_h entire), each turned by
    e^(2 pi i k b_h).  For m = 2 family h is, with j the other numerator
    index, pi / sin(pi (b_j - b_h)) e^(-+ i pi b_h) times G^{1,0}_{0,3}(w |
    b_h; b_j, b_3) at w = z e^(+- i pi), whose 0F2 takes -w = z."""
    with mp.workdps(dps):
        arg = mpf(pt.argument)
        k = int(mp.floor((arg + mp.pi) / (2 * mp.pi)))
        if arg - 2 * mp.pi * k == -mp.pi:
            k -= 1
        z = mpf(pt.modulus) * mp.expj(arg - 2 * mp.pi * k)
        if m == 1:
            return (mp.expj(2 * mp.pi * k * b[0])
                    * mp.meijerg([[], []], [[b[0]], [b[1], b[2]]], z))
        side = -1 if mp.arg(z) > 0 else 1
        total = 0
        for h, j in ((0, 1), (1, 0)):
            w = z * mp.expj(side * mp.pi)
            fam = (mp.pi / mp.sin(mp.pi * (b[j] - b[h]))
                   * mp.expj(-side * mp.pi * b[h])
                   * mp.meijerg([[], []], [[b[h]], [b[j], b[2]]], w))
            total += mp.expj(2 * mp.pi * k * b[h]) * fam
        return total


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.sampled_from([1, 2]), **_LOOP_POINT)
@example(m=1, alpha=0.3, adjoint=False, log_r=2.0, arg=3.1, sheet=2)
def test_loop_lower_m_over_the_envelope(m, alpha, adjoint, log_r, arg, sheet):
    # G^{1,0} and G^{2,0} at 30 digits against mpmath's meijerg; on the
    # principal sheet meijerg is used as it is, so there the resonant
    # alpha are checked too.  The explicit example sits at the envelope's
    # edge, theta near 5 pi, where the terms chirp (see
    # test_loop_resolves_the_chirp_on_far_sheets)
    d = 30
    b = _model_b(alpha, adjoint, d + 60)
    with mp.workdps(d + 20):
        gap = b[0] - b[1]
        assume(m == 1 or sheet == 0 or abs(gap - mp.nint(gap)) > mpf("1e-3"))
    pt = _sector(log_r, arg, sheet, d + 60)
    got = mb_loop(b, pt, m=m, dps=d)
    if sheet == 0:
        with mp.workdps(d + 40):
            ref = mp.meijerg([[], []], [list(b[:m]), list(b[m:])],
                             pt.to_mpc(dps=d + 40))
    else:
        ref = _meijerg_lower_m(b, m, pt, d + 40)
    with mp.workdps(d + 40):
        assert abs(got - ref) <= mpf(10) ** (-d + 2) * abs(ref)


def test_lower_m_oracle_matches_meijerg_on_the_principal_sheet():
    # the family split of _meijerg_lower_m against meijerg itself
    b = _model_b(0.3, False, 60)
    for m in (1, 2):
        for arg in ("-2.5", "0.4", "3"):
            pt = _sector(0.4, float(arg), 0, 60)
            with mp.workdps(50):
                ref = mp.meijerg([[], []], [list(b[:m]), list(b[m:])],
                                 pt.to_mpc(dps=50))
            got = _meijerg_lower_m(b, m, pt, 50)
            with mp.workdps(50):
                assert abs(got - ref) <= mpf("1e-40") * abs(ref), (m, arg)


@pytest.mark.parametrize("m, r, turns", [
    (1, "100", 5), (1, "10", -5), (2, "100", -7), (3, "1", 8),
    (3, "0.01", -8)])
def test_loop_resolves_the_chirp_on_far_sheets(m, r, turns):
    # far out on a high sheet the phase of z^(-s) on the loop's parabola
    # turns like theta u^2 / 2, theta = arg z + 2 pi k; with the step of the
    # working digits alone the relative errors were 2e-18 (m = 1, |z| = 100),
    # 3e16 (m = 2) and 2e-24, 4e-24 (m = 3); the m = 1 point at |z| = 10
    # passed only by the digits of its rerun
    d = 30
    b = (mpf("-0.3"), mpf(0), mpf("-0.8"))
    with mp.workdps(d + 60):
        pt = meijer.SectorPoint(mpf(r), turns * mp.pi)
    got = mb_loop(b, pt, m=m, dps=d)
    if m == 3:
        ref = g303_series(b, pt, dps=d + 40)
    else:
        ref = _meijerg_lower_m(b, m, pt, d + 40)
    with mp.workdps(d + 40):
        assert abs(got - ref) <= mpf(10) ** (-d + 2) * abs(ref)


def test_frames_carry_the_requested_digits_at_any_ambient_precision():
    # the frame builders raise at their entry: the 2 pi turn that puts a
    # point of the negative axis on its sheet and the signs of the layout
    # are taken at dps + GUARD_DIGITS, not at the caller's 15 digits
    # (3.5e-16 off before)
    with mp.workdps(60):
        alpha = mpf("0.3")
        points = [SectorPoint(mpf(2), +mp.pi), SectorPoint(mpf("1.3"), mpf("0.4"))]
        refs = [build(alpha, pt, dps=40, side="+")
                for pt in points for build in (phi_matrix, psi_matrix)]
    gots = [build(alpha, pt, dps=40, side="+")
            for pt in points for build in (phi_matrix, psi_matrix)]
    with mp.workdps(60):
        for got, ref in zip(gots, refs):
            for row_g, row_r in zip(got, ref):
                for x, y in zip(row_g, row_r):
                    assert abs(x - y) <= mpf("1e-38") * abs(y)



def test_equilibrium_values_carry_the_requested_digits_at_any_ambient_precision():
    # the closed-form densities, the edge fit, the Lagrange constant and the
    # scaling chain return inside their raise: at ambient 15 they rounded
    # to 15 digits after it (density_vx_explicit(1, dps=30) was 1.0e-16 off)
    # the g-functions of a 40-cell grid measure (discrete sums, no density)
    # keep the scaling chain cheap; its digits are what is checked
    sol = equilibrium.EquilibriumSolution(
        mu=equilibrium.weights_from_density(
            lambda t: equilibrium.density_vx_explicit(t, dps=20),
            equilibrium.VX_SUPPORT, 40, dps=20),
        q=27 / 8, ell=-2.5, c0=0.17, c1=0.09, cV=0.63, field=lambda z: z)

    def values():
        dens = lambda t: equilibrium.density_vx_explicit(t, dps=40)
        gf = equilibrium.g_functions(sol, dps=40)
        return [equilibrium.density_vx_explicit(1, dps=40),
                equilibrium.density_vx_cardano(1, dps=40),
                equilibrium.endpoint_fit(dens, equilibrium.VX_SUPPORT,
                                         "edge", dps=40),
                equilibrium._vx_ell(40),
                *equilibrium.scaling_constants(gf, sol, dps=40)]

    with mp.workdps(15):
        low = values()
    with mp.workdps(60):
        high = values()
        for got, ref in zip(low, high):
            assert abs(got - ref) <= mpf("1e-38") * abs(ref)


def test_scalars_and_checks_convert_their_arguments_under_the_raise():
    # alpha, x, y and z are converted at dps + GUARD_DIGITS, not at the
    # caller's 15 digits: phi_scalars was 1.6e-16 and psi_scalars 2.4e-17
    # off their ambient-60 values before
    with mp.workdps(60):
        alpha = mpf("0.3")
        pt = SectorPoint(mpf("1.3"), mpf("0.4"))
        x, y, z = mpf("0.4"), mpf("0.9"), mp.mpc("-3.3", "2.1")
    bs = finiten.biortho_build(
        finiten.moments(alpha, 2, "laguerre", smax=mpf(6), dps=64), 2)

    def values():
        phi, psi = (f(alpha, pt, dps=40) for f in (meijer.phi_scalars,
                                                    meijer.psi_scalars))
        triples = [t for sc in (phi, psi)
                   for t in (sc.f1, sc.f2, sc.f3, sc.f4)]
        return [*(v for triple in triples for v in triple),
                *meijer.psi3_alternate(alpha, pt, dps=40),
                finiten.cd_formula_check(bs, x, y, dps=40),
                finiten.y_growth_residual(bs, z, dps=40)]

    with mp.workdps(15):
        low = values()
    with mp.workdps(60):
        high = values()
        for got, ref in zip(low, high):
            assert abs(got - ref) <= mpf("1e-45") * abs(ref)
