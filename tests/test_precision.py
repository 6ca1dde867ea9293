"""The precision policy: working digits that do not stack from layer to
layer, and the requested digits still delivered."""

import pytest
from mpmath import mp, mpf

from mbhalf import kernel, meijer, specfun
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
    # their two series lose (47), and a first pass of the loop route at
    # d + _LOOP_GUARD + GUARD_DIGITS (55)
    seen = []
    for mod, name in ((kernel, "_wright_terms"), (meijer, "_loop_moments")):
        def record(*args, _run=getattr(mod, name), _name=name):
            seen.append((_name, mp.dps))
            return _run(*args)

        monkeypatch.setattr(mod, name, record)
    kernel_integral(mpf("0.3"), 1, 2, dps=30)
    mb_loop((0, mpf("-0.3"), mpf("-0.8")), SectorPoint(mpf(2), mpf("0.3")),
            dps=30)
    assert seen == [("_wright_terms", 47)] * 2 + [("_loop_moments", 55)]


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
