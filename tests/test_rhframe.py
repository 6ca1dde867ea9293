"""Piecewise-analytic 3x3 frames: jumps, determinant, inverse, asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from mbhalf import meijer, rhframe
from mbhalf.cli import main
from mbhalf.meijer import SectorPoint
from mbhalf.mpcore import (
    det3,
    mat_mul,
    mat_transpose,
    norm_max,
)
from mbhalf.rhframe import (
    RAYS,
    _gamma_exponents,
    c_matrix,
    det_phi_predicted,
    exp_diag,
    expansion_residual,
    jump_residual,
    l_matrix,
    phi_inverse,
    phi_jump,
    phi_matrix,
    phi_psi_product,
    psi_jump,
    psi_matrix,
    t_matrix,
    t_tilde_matrix,
)

ALPHA = mpf("0.3")
_EYE = [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def _sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def test_ray_points_require_a_side():
    pt = SectorPoint(mpf(1), mpf(0))
    with pytest.raises(ValueError):
        phi_matrix(ALPHA, pt, dps=30)
    with pytest.raises(ValueError):
        psi_matrix(ALPHA, pt, dps=30, side="up")
    # off-ray points need no side
    phi_matrix(ALPHA, SectorPoint(mpf(1), mpf("0.4")), dps=30)


def test_argument_range_guard():
    # the quadrant layouts hold on -pi <= arg z <= pi; just past +-pi an
    # argument is neither the negative axis nor a quadrant of that range
    # (3.145 would be laid out as Q3 but evaluated on the sheet above)
    beyond = (mpf(5), mpf("3.145"), mpf("-3.145"),
              mp.pi + mpf("2e-9"), -mp.pi - mpf("2e-9"))
    for th in beyond:
        pt = SectorPoint(mpf("1.3"), th)
        for frame in (phi_matrix, psi_matrix, phi_inverse, phi_psi_product):
            with pytest.raises(ValueError, match="-pi <= arg z <= pi"):
                frame(ALPHA, pt, dps=30)


@pytest.mark.parametrize("angle, plus, minus", [
    (0, 1, 4), (0.5, 2, 1), (-0.5, 4, 3), (1, 3, 2), (-1, 3, 2)])
def test_each_side_of_each_ray_takes_its_quadrant(angle, plus, minus):
    # the + side of a ray is the quadrant reached counterclockwise; the
    # negative axis, at +pi or -pi, evaluates its + side at -pi and its
    # - side at +pi; 2 _RAY_EPS off a ray is inside the quadrant beside it
    th = mpf(angle) * mp.pi
    for side, quadrant, neg_at in (("+", plus, -mp.pi), ("-", minus, mp.pi)):
        q, ev = rhframe._classify(SectorPoint(mpf(1), th), side)
        assert q == quadrant
        assert ev.argument == (neg_at if abs(angle) == 1 else th)
    off = 2 * rhframe._RAY_EPS
    if angle != 1:
        assert rhframe._classify(SectorPoint(mpf(1), th + off), None)[0] == plus
    if angle != -1:
        assert rhframe._classify(SectorPoint(mpf(1), th - off), None)[0] == minus


def test_jump_residuals_all_rays_both_frames():
    with mp.workdps(45):
        for frame in ("phi", "psi"):
            for ray in RAYS:
                r = jump_residual(ALPHA, ray, mpf("0.7"), dps=35, frame=frame)
                assert r < mpf("1e-30"), (frame, ray)


def test_psi_jumps_are_inverse_transpose_of_phi_jumps():
    # the two frames solve dual problems: J_psi = J_phi^{-T} ray by ray
    rng = np.random.default_rng(43)
    with mp.workdps(45):
        for _ in range(4):
            a = mpf(float(rng.uniform(-0.45, 1.3)))
            for ray in RAYS:
                jp = phi_jump(ray, a, dps=35)
                jq = psi_jump(ray, a, dps=35)
                expect = mat_transpose(mp.inverse(jp).tolist())
                assert norm_max(_sub(jq, expect)) < mpf("1e-30"), (ray, a)


def test_jump_determinants():
    # three rays are unimodular; the negative axis carries -e^{+-4 pi i a},
    # matching the branch jump of z^{-2 beta} in the determinant identity
    with mp.workdps(40):
        for a in (mpf(0), ALPHA, mpf("-0.4")):
            for ray in ("pos", "ipos", "ineg"):
                assert abs(det3(phi_jump(ray, a, dps=30)) - 1) < mpf("1e-25")
                assert abs(det3(psi_jump(ray, a, dps=30)) - 1) < mpf("1e-25")
            want = -mp.exp(mpc(0, 4) * mp.pi * a)
            assert abs(det3(phi_jump("neg", a, dps=30)) - want) < mpf("1e-25")
            assert abs(det3(psi_jump("neg", a, dps=30)) - 1 / want) < mpf("1e-25")


def test_det_phi_at_reference_point():
    # at alpha = 0, z = 1 the determinant is 8 pi^3 i = 248.0502...i
    with mp.workdps(45):
        pt = SectorPoint(mpf(1), mpf(0))
        m = phi_matrix(mpf(0), pt, dps=35, side="+")
        d = det3(m)
        assert abs(mp.re(d)) < mpf("1e-30")
        assert abs(mp.im(d) - 8 * mp.pi ** 3) < mpf("1e-28")
        pred = det_phi_predicted(mpf(0), pt, dps=35)
        assert abs(d - pred) / abs(pred) < mpf("1e-30")


def test_det_phi_tracks_power_law():
    # det is 8 pi^3 i z^{-2 beta}, beta = alpha + 1/4: check the z-dependence
    with mp.workdps(45):
        a = mpf("0.3")
        beta = a + mpf("0.25")
        p1 = SectorPoint(mpf("0.6"), mpf("0.5"))
        p2 = SectorPoint(mpf("1.9"), mpf("-1.1"))
        d1 = det3(phi_matrix(a, p1, dps=35))
        d2 = det3(phi_matrix(a, p2, dps=35))
        ratio = d1 / d2
        expect = (p1.power(-2 * beta, dps=40) / p2.power(-2 * beta, dps=40))
        assert abs(ratio - expect) / abs(expect) < mpf("1e-30")


def test_phi_inverse_is_inverse():
    with mp.workdps(45):
        pt = SectorPoint(mpf("1.3"), mpf("0.8"))
        m = phi_matrix(ALPHA, pt, dps=35)
        mi = phi_inverse(ALPHA, pt, dps=35)
        r = _sub(mat_mul(mi, m), _EYE)
        assert norm_max(r) < mpf("1e-28")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]),
                       st.floats(-1.0, 2.0, exclude_min=True,
                                 exclude_max=True)),
       log_modulus=st.floats(math.log(0.05), math.log(1e3)),
       quadrant=st.sampled_from([-2, -1, 0, 1]),
       offset=st.floats(0.02, math.pi / 2 - 0.02))
def test_det_and_inverse_over_the_envelope(alpha, log_modulus, quadrant,
                                           offset):
    # alpha in (-1, 2) with the resonant 2 alpha in Z among the draws, |z|
    # log-uniform in [0.05, 10^3], arg z at least 0.02 off the four rays.
    # Phi^-1 Phi - I grows with the entries (3e-25 at |z| = 10^3), so it is
    # taken relative to || |Phi^-1| |Phi| ||
    a = mpf(alpha)
    pt = SectorPoint(mp.exp(log_modulus), quadrant * mp.pi / 2 + offset)
    with mp.workdps(45):
        m = phi_matrix(a, pt, dps=35)
        mi = phi_inverse(a, pt, dps=35)
        pred = det_phi_predicted(a, pt, dps=35)
        assert abs(det3(m) - pred) <= mpf("1e-33") * abs(pred)
        scale = norm_max(mat_mul([[abs(v) for v in row] for row in mi],
                                 [[abs(v) for v in row] for row in m]))
        resid = norm_max(_sub(mat_mul(mi, m), _EYE))
        assert resid <= mpf("1e-33") * scale


def test_phi_psi_product_is_z_independent():
    with mp.workdps(45):
        p1 = SectorPoint(mpf("0.5"), mpf("1.1"))
        p2 = SectorPoint(mpf("2.4"), mpf("-0.7"))
        a1 = phi_psi_product(ALPHA, p1, dps=35)
        a2 = phi_psi_product(ALPHA, p2, dps=35)
        assert norm_max(_sub(a1, a2)) / norm_max(a1) < mpf("1e-28")


def test_inverse_identity_constant():
    # T (Phi Psi^T) Tt^T = -4 pi^2 I
    with mp.workdps(45):
        pt = SectorPoint(mpf("1.2"), mpf("0.4"))
        prod = phi_psi_product(ALPHA, pt, dps=35)
        t = t_matrix(ALPHA, dps=35)
        tt = t_tilde_matrix(ALPHA, dps=35)
        m = mat_mul(mat_mul(t, prod), mat_transpose(tt))
        four_pi2 = 4 * mp.pi ** 2
        for i in range(3):
            for j in range(3):
                want = -four_pi2 if i == j else 0
                assert abs(m[i][j] - want) < mpf("1e-28"), (i, j)


def test_frame_constant_identities():
    with mp.workdps(50):
        for a in (mpf("-0.4"), mpf(0), ALPHA, mpf("1.2")):
            t = t_matrix(a, dps=40)
            tt = t_tilde_matrix(a, dps=40)
            c = c_matrix(a, dps=40)
            r = _sub(mat_mul(mat_transpose(tt), t), c)
            assert norm_max(r) < mpf("1e-33"), a
            pt = SectorPoint(mpf("0.9"), mpf("0.6"))
            L = l_matrix(a, pt, dps=40, frame="phi")
            Lt = l_matrix(a, pt, dps=40, frame="psi")
            m = mat_mul(L, mat_transpose(Lt))
            r = _sub(m, [[3 * e for e in row] for row in _EYE])
            assert norm_max(r) < mpf("1e-33"), a


def test_c_matrix_entries():
    with mp.workdps(40):
        a = ALPHA
        c = c_matrix(a, dps=30)
        expect = [[1, 0, 0],
                  [-2 * a - mpf("0.5"), -1, 0],
                  [a * (a + mpf("0.5")), 2 * a + mpf("0.5"), 1]]
        for i in range(3):
            for j in range(3):
                assert abs(c[i][j] - expect[i][j]) < mpf("1e-25")


def test_exp_diag_unimodular():
    # returns the three diagonal exponentials; their product is exactly 1
    # (the three cube-root phases sum to zero)
    with mp.workdps(40):
        pt = SectorPoint(mpf(50), mpf("0.3"))
        for frame in ("phi", "psi"):
            e = exp_diag(pt, dps=30, frame=frame)
            assert len(e) == 3
            assert abs(e[0] * e[1] * e[2] - 1) < mpf("1e-25"), frame


def test_expansion_residual_decays_like_one_over_x():
    with mp.workdps(40):
        for frame in ("phi", "psi"):
            r3 = expansion_residual(ALPHA, mpf("1e3"), dps=30, frame=frame)
            r4 = expansion_residual(ALPHA, mpf("1e4"), dps=30, frame=frame)
            slope = (math.log(float(r4)) - math.log(float(r3))) / math.log(10.0)
            assert -1.15 < slope < -0.85, (frame, slope)


def test_expansion_residual_constant_is_m1():
    # x * residual(x) = |m1| + c/x + d/x^2 + ..., m1 = a^2/3 + a/6 - 1/36
    # the constant of T (the adjoint frame's mt1 is the same): two
    # Richardson steps in 1/x over x = 250, 500, 1000 remove c and d
    with mp.workdps(40):
        for alpha in (mpf("-0.4"), mpf(0), mpf("0.3"), mpf("0.7")):
            m1 = abs(_gamma_exponents(alpha)[1])
            for frame in ("phi", "psi"):
                r = [x * expansion_residual(alpha, x, dps=30, frame=frame)
                     for x in (mpf(250), mpf(500), mpf(1000))]
                r1 = [2 * r[1] - r[0], 2 * r[2] - r[1]]
                limit = (4 * r1[1] - r1[0]) / 3
                assert abs(limit - m1) <= mpf("1e-8") * m1, (alpha, frame, limit)


def test_jump_residual_seeded_moduli():
    rng = np.random.default_rng(59)
    with mp.workdps(40):
        for _ in range(3):
            r = mpf(float(rng.uniform(0.2, 4.0)))
            a = mpf(float(rng.uniform(-0.4, 1.2)))
            ray = RAYS[rng.integers(0, 4)]
            assert jump_residual(a, ray, r, dps=30) < mpf("1e-25"), (ray, r, a)


@pytest.fixture
def series_passes(monkeypatch):
    """The 0F2 passes of the residue series: a list that grows by one name
    per call of the hyper0f2_theta / hyper0f2_log_theta that meijer binds."""
    calls = []
    for name in ("hyper0f2_theta", "hyper0f2_log_theta"):
        def counted(*args, _name=name, _f=getattr(meijer, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(meijer, name, counted)
    return calls


@pytest.mark.parametrize("alpha, passes", [("0.3", 3), ("0", 2)])
def test_phi_matrix_sums_each_family_once(series_passes, alpha, passes):
    # Phi takes G on three sheets of one point; the 0F2 families depend on
    # z alone and are summed once: three plain families at alpha = 0.3, a
    # logarithmic pair and a plain family at alpha = 0 (9 and 6 passes when
    # every sheet summed its own)
    phi_matrix(mpf(alpha), SectorPoint(mpf("1.3"), mpf("0.7")), dps=30)
    assert len(series_passes) == passes


@pytest.mark.parametrize("frame", ["phi", "psi"])
def test_jump_residual_shares_the_scalars_of_both_sides(monkeypatch, frame):
    # off the negative axis both sides of a ray evaluate the scalars at the
    # same point: one scalar set there, two on the negative axis
    name = frame + "_scalars"
    sets = []

    def counted(*args, _f=getattr(rhframe, name), **kwargs):
        sets.append(args[1])
        return _f(*args, **kwargs)

    monkeypatch.setattr(rhframe, name, counted)
    for ray, count in (("pos", 1), ("ipos", 1), ("ineg", 1), ("neg", 2)):
        sets.clear()
        assert jump_residual(ALPHA, ray, mpf("0.7"), dps=30,
                             frame=frame) < mpf("1e-25")
        assert len(sets) == count, ray


def test_rhcheck_series_passes(series_passes, capsys):
    # the 16-row battery at alpha = 0 evaluates 18 scalar sets, each a
    # logarithmic pair and a plain family summed once for its three sheets
    # (144 passes when every sheet and both sides of each ray had their own)
    assert main(["rhcheck", "--alpha", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    assert len(series_passes) == 36
    assert series_passes.count("hyper0f2_log_theta") == 18
