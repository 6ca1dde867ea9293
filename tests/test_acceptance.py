"""Release gate: the headline identities, each with a pinned tolerance.

One test per gate, run in file order.  Every test prints a single line

    [PASS] 04 jump conditions, all rays   max resid 3.1e-59 (tol 1e-18)

(visible under ``pytest -s``, or in the captured output of a failure), so a
full run reads as a checklist.  Budgeted tests also enforce a wall-clock
ceiling.  Measurements are always completed before any assertion fires, so
the printed line reports the actual achieved numbers either way.
"""

import time

from mpmath import mp, mpf

from mbhalf.equilibrium import (
    VX_SUPPORT,
    density_vx_cardano,
    density_vx_explicit,
    endpoint_fit,
    equilibrium_minimize,
    g_functions,
    scaling_constants,
    variational_residual,
    vx_reference_solution,
)
from mbhalf.finiten import (
    biortho_build,
    biortho_residual,
    cd_formula_check,
    finite_kernel,
    hard_edge_convergence,
    moments,
    multiple_orthogonality_check,
)
from mbhalf.kernel import kernel_integral, kernel_meijer
from mbhalf.meijer import SectorPoint, g303_series, mb_loop, phi_scalars
from mbhalf.mpcore import (
    det3,
    mat_mul,
    mat_transpose,
    norm_max,
    quad_ts,
)
from mbhalf.rhframe import (
    RAYS,
    c_matrix,
    det_phi_predicted,
    expansion_residual,
    jump_residual,
    l_matrix,
    phi_matrix,
    phi_psi_product,
    t_matrix,
    t_tilde_matrix,
)
from mbhalf.specfun import hyper0f2

ALPHAS4 = (mpf("-0.4"), mpf(0), mpf("0.3"), mpf("1.2"))


def _line(num, name, ok, detail):
    print("[%s] %02d %-36s %s" % ("PASS" if ok else "FAIL", num, name, detail))


def test_01_series_and_loop_routes_agree():
    # the power-series route and the contour-integral route are independent
    # evaluations of the same G^{3,0}_{0,3}; they must coincide on every
    # sheet and at every modulus sampled here, the resonant 2a in Z (where
    # the series takes its logarithmic form) included
    t0 = time.monotonic()
    worst = mpf(0)
    with mp.workdps(50):
        for a in (mpf("-0.4"), mpf("0.3"), mpf("1.2"),
                  mpf("-0.5"), mpf(0), mpf("0.5"), mpf(1)):
            b = (mpf(0), -a, -a - mpf("0.5"))
            for r in (mpf("0.5"), mpf("1.5"), mpf(5)):
                for sheet in (-1, 0, 1):
                    pt = SectorPoint(r, mpf("0.4") + 2 * mp.pi * sheet)
                    vs = g303_series(b, pt, dps=40)
                    vl = mb_loop(b, pt, m=3, dps=40)
                    worst = max(worst, abs(vs - vl) / abs(vl))
    took = time.monotonic() - t0
    ok = worst <= mpf("1e-20") and took <= 120.0
    _line(1, "series vs loop, 63 points", ok,
          "max rel diff %s (tol 1e-20), %.1fs (budget 120s)"
          % (mp.nstr(worst, 3), took))
    assert worst <= mpf("1e-20")
    assert took <= 120.0


def test_02_fourth_scalar_collapses_to_0f2():
    # phi4 is assembled from two rotated sector evaluations; the pair must
    # collapse to the single entire series -4 pi^2 0F2(; 1+a, 3/2+a; -z)
    # / (Gamma(1+a) Gamma(3/2+a))
    cases = ((mpf("0.3"), SectorPoint(mpf("0.8"), mpf("0.3"))),
             (mpf("-0.4"), SectorPoint(mpf("1.5"), mpf("-0.7"))),
             (mpf("1.2"), SectorPoint(mpf("2.5"), mpf("1.1"))))
    worst = mpf(0)
    with mp.workdps(60):
        for a, pt in cases:
            tr = phi_scalars(a, pt, dps=45)
            z = pt.to_mpc(dps=50)
            rhs = (-4 * mp.pi ** 2
                   / (mp.gamma(1 + a) * mp.gamma(mpf("1.5") + a))
                   * hyper0f2(1 + a, mpf("1.5") + a, -z, dps=50))
            worst = max(worst, abs(tr.f4[0] - rhs) / abs(rhs))
    ok = worst <= mpf("1e-20")
    _line(2, "phi4 = -4pi^2 0F2 / (Gamma Gamma)", ok,
          "max rel resid %s (tol 1e-20), 3 points" % mp.nstr(worst, 3))
    assert ok


def test_03_determinant_power_law():
    # det Phi(z) = 8 pi^3 i z^(-2 beta), beta = alpha + 1/4, exactly: the
    # scalar prefactor cubes to (2 pi/sqrt 3)^3, the spectral frame
    # contributes det = -3 sqrt(3) i and the left normalizer det = -1, so
    # the constant is (2 pi/sqrt 3)^3 * 3 sqrt(3) i = 8 pi^3 i -- purely
    # imaginary, not the real value -(2 pi/sqrt 3)^3 the prefactor alone
    # would suggest
    worst = mpf(0)
    with mp.workdps(50):
        for a in ALPHAS4:
            for th in (mpf("0.6"), mpf("2.3"), mpf("-0.6"), mpf("-2.3")):
                pt = SectorPoint(mpf("1.3"), th)
                d = det3(phi_matrix(a, pt, dps=40))
                pred = det_phi_predicted(a, pt, dps=40)
                worst = max(worst, abs(d - pred) / abs(pred))
        one = SectorPoint(mpf(1), mpf(0))
        d0 = det3(phi_matrix(mpf(0), one, dps=40, side="+"))
        const_err = abs(d0 - 8 * mp.pi ** 3 * mp.mpc(0, 1)) / (8 * mp.pi ** 3)
        ratio = d0 / (-(2 * mp.pi / mp.sqrt(3)) ** 3)
    ok = worst <= mpf("1e-18") and const_err <= mpf("1e-18")
    _line(3, "det Phi = 8 pi^3 i z^(-2 beta)", ok,
          "max rel resid %s (tol 1e-18), 4 quadrants x 4 alpha; "
          "det(0, 1) / (-(2pi/sqrt3)^3) = %s = -3 sqrt(3) i"
          % (mp.nstr(worst, 3), mp.nstr(ratio, 5)))
    assert worst <= mpf("1e-18")
    assert const_err <= mpf("1e-18")


def test_04_jump_conditions_on_all_rays():
    worst = mpf(0)
    with mp.workdps(50):
        for frame in ("phi", "psi"):
            for ray in RAYS:
                for r in (mpf("0.3"), mpf(1), mpf(3)):
                    res = jump_residual(mpf("0.3"), ray, r, dps=40,
                                        frame=frame)
                    worst = max(worst, res)
    ok = worst <= mpf("1e-18")
    _line(4, "jump conditions, all rays", ok,
          "max rel resid %s (tol 1e-18), both frames, |z| in {0.3, 1, 3}"
          % mp.nstr(worst, 3))
    assert ok


def test_05_inverse_pairing_and_z_independence():
    a = mpf("0.3")
    pts = (SectorPoint(mpf("0.7"), mpf("0.4")),
           SectorPoint(mpf("1.2"), mpf("2.1")),
           SectorPoint(mpf("0.5"), mpf("-0.5")),
           SectorPoint(mpf(2), mpf("-2.4")),
           SectorPoint(mpf(1), mpf(1)))
    with mp.workdps(50):
        four_pi2 = 4 * mp.pi ** 2
        t = t_matrix(a, dps=40)
        tt = t_tilde_matrix(a, dps=40)
        prods = [phi_psi_product(a, pt, dps=40) for pt in pts]
        worst_inv = mpf(0)
        for prod in prods:
            m = mat_mul(mat_mul(t, prod), mat_transpose(tt))
            r = norm_max([[m[i][j] + (four_pi2 if i == j else 0)
                           for j in range(3)] for i in range(3)])
            worst_inv = max(worst_inv, r / four_pi2)
        base = norm_max(prods[0])
        worst_z = max(norm_max([[u - v for u, v in zip(row, row0)]
                                for row, row0 in zip(p, prods[0])])
                      for p in prods[1:]) / base
    ok = worst_inv <= mpf("1e-16") and worst_z <= mpf("1e-16")
    _line(5, "T Phi Psi^T Tt^T = -4 pi^2 I", ok,
          "max resid %s, z-independence %s (tol 1e-16), 5 points"
          % (mp.nstr(worst_inv, 3), mp.nstr(worst_z, 3)))
    assert worst_inv <= mpf("1e-16")
    assert worst_z <= mpf("1e-16")


def test_06_constant_frame_identities():
    worst_l = mpf(0)
    worst_t = mpf(0)
    with mp.workdps(55):
        pt = SectorPoint(mpf("0.9"), mpf("0.6"))
        for a in ALPHAS4:
            L = l_matrix(a, pt, dps=45, frame="phi")
            Lt = l_matrix(a, pt, dps=45, frame="psi")
            m = mat_mul(L, mat_transpose(Lt))
            r = norm_max([[m[i][j] - (3 if i == j else 0) for j in range(3)]
                          for i in range(3)])
            worst_l = max(worst_l, r)
            t = t_matrix(a, dps=45)
            tt = t_tilde_matrix(a, dps=45)
            c = c_matrix(a, dps=45)
            m = mat_mul(mat_transpose(tt), t)
            worst_t = max(worst_t, norm_max([[m[i][j] - c[i][j]
                                              for j in range(3)]
                                             for i in range(3)]))
    ok = worst_l <= mpf("1e-25") and worst_t <= mpf("1e-25")
    _line(6, "L Lt^T = 3I and Tt^T T = C", ok,
          "max resid %s / %s (tol 1e-25), 4 alpha"
          % (mp.nstr(worst_l, 3), mp.nstr(worst_t, 3)))
    assert worst_l <= mpf("1e-25")
    assert worst_t <= mpf("1e-25")


def test_07_large_z_decay_slope():
    # the normalized frames must approach I at rate 1/z: consecutive-decade
    # log-log slopes over x = 1e3, 1e4, 1e5, both frames
    a = mpf("0.3")
    slopes = []
    with mp.workdps(50):
        for frame in ("phi", "psi"):
            rs = [expansion_residual(a, mpf(10) ** k, dps=40, frame=frame)
                  for k in (3, 4, 5)]
            for i in (0, 1):
                slopes.append(float(mp.log(rs[i + 1] / rs[i]) / mp.log(10)))
    ok = all(-1.15 <= s <= -0.85 for s in slopes)
    _line(7, "large-z residual decay slope", ok,
          "decade slopes %s (want -1 +- 0.15), both frames"
          % ", ".join("%.3f" % s for s in slopes))
    assert ok


def test_08_kernel_routes_and_theta_one_reduction():
    worst = mpf(0)
    with mp.workdps(40):
        for a in (mpf("-0.4"), mpf(0), mpf("0.7")):
            for x in (mpf("0.2"), mpf(1), mpf(3)):
                for y in (mpf("0.2"), mpf(1), mpf(3)):
                    if x == y:
                        continue
                    vm = kernel_meijer(a, x, y, dps=30)
                    vi = kernel_integral(a, x, y, dps=30)
                    worst = max(worst, abs(vm - vi) / abs(vi))
        # at theta = 1 the two Wright series collapse to classical Bessel J
        # and the kernel is the conjugated hard-edge Bessel kernel
        worst_b = mpf(0)
        for a, x, y in ((mpf(0), mpf(1), mpf(2)),
                        (mpf("0.7"), mpf("0.5"), mpf("1.5")),
                        (mpf("-0.4"), mpf(2), mpf("0.3"))):
            ours = kernel_integral(a, x, y, theta=1, dps=30)
            sym = mp.quad(lambda t: mp.besselj(a, 2 * mp.sqrt(x * t))
                          * mp.besselj(a, 2 * mp.sqrt(y * t)), [0, 1])
            ref = (y / x) ** (a / 2) * sym
            worst_b = max(worst_b, abs(ours - ref) / abs(ref))
    ok = worst <= mpf("1e-8") and worst_b <= mpf("1e-8")
    _line(8, "kernel route equivalence", ok,
          "matrix vs integral max rel diff %s; theta=1 Bessel oracle %s "
          "(tol 1e-8)" % (mp.nstr(worst, 3), mp.nstr(worst_b, 3)))
    assert worst <= mpf("1e-8")
    assert worst_b <= mpf("1e-8")


def test_09_linear_field_closed_form_density():
    q = VX_SUPPORT
    with mp.workdps(40):
        worst = mpf(0)
        for i in range(1, 40):
            s = q * i / 40
            worst = max(worst, abs(density_vx_explicit(s, dps=30)
                                   - density_vx_cardano(s, dps=30)))
        mass = quad_ts(lambda t: density_vx_explicit(t, dps=30), 0, q, dps=30)
        c0 = endpoint_fit(lambda t: density_vx_explicit(t, dps=40), q,
                          "origin", dps=30)
        c1 = endpoint_fit(lambda t: density_vx_explicit(t, dps=40), q,
                          "edge", dps=30)
        mass_err = abs(mass - 1)
        c0_err = abs(c0 - mpf("0.17366"))
        c1_err = abs(c1 - mpf("0.08893"))
    ok = (worst <= mpf("1e-12") and mass_err <= mpf("1e-10")
          and c0_err <= mpf("1e-3") and c1_err <= mpf("1e-3")
          and float(q) == 3.375)
    _line(9, "closed-form density, V(x) = x", ok,
          "cardano vs explicit %s (tol 1e-12); mass err %s (tol 1e-10); "
          "edge fits -> %s, %s (want 0.17366, 0.08893 +- 1e-3); q = %s"
          % (mp.nstr(worst, 3), mp.nstr(mass_err, 3), mp.nstr(c0, 6),
             mp.nstr(c1, 6), float(q)))
    assert worst <= mpf("1e-12")
    assert mass_err <= mpf("1e-10")
    assert c0_err <= mpf("1e-3") and c1_err <= mpf("1e-3")
    assert float(q) == 3.375


def test_10_optimizer_recovers_linear_field_measure():
    t0 = time.monotonic()
    sol = equilibrium_minimize(lambda x: x, 6.0, 2000)
    h = sol.mu.cell_width()
    s, w = sol.mu.nodes, sol.mu.weights
    window = (s >= 0.05 * sol.q) & (s <= 0.95 * sol.q)
    with mp.workdps(30):
        sup = max(abs(mpf(float(wi)) / mpf(h)
                      - density_vx_explicit(mpf(float(si)), dps=20))
                  for si, wi in zip(s[window], w[window]))
    dev, strict = variational_residual(sol, lambda x: x)
    took = time.monotonic() - t0
    ok = (sup <= mpf("5e-3") and dev <= 5e-3 and strict and took <= 300.0)
    _line(10, "optimizer vs closed form, m=2000", ok,
          "sup density err %s (tol 5e-3); equality defect %.2e (tol 5e-3); "
          "inequality strict beyond q: %s; %.1fs (budget 300s)"
          % (mp.nstr(sup, 3), dev, strict, took))
    assert sup <= mpf("5e-3")
    assert dev <= 5e-3
    assert strict
    assert took <= 300.0


def test_11_scaling_constant_chain():
    ref = vx_reference_solution(m=300, dps=30)
    gf = g_functions(ref, dps=30)
    cv, f1_0, fp_0 = scaling_constants(gf, ref, dps=30)
    with mp.workdps(40):
        cv_err = abs(cv - mpf(2) ** (mpf(-2) / 3))
        fp_err = abs(fp_0 - cv ** 3)
    ok = cv_err <= mpf("1e-4") and fp_err <= mpf("1e-6")
    _line(11, "scaling chain cV, f'(0)", ok,
          "|cV - 2^(-2/3)| = %s (tol 1e-4); |f'(0) - cV^3| = %s (tol 1e-6)"
          % (mp.nstr(cv_err, 3), mp.nstr(fp_err, 3)))
    assert cv_err <= mpf("1e-4")
    assert fp_err <= mpf("1e-6")


def test_12_finite_n_certificates():
    # the nmax = 16 family builds at its 160-digit table's digits
    mt16 = moments(mpf("0.5"), 16, "laguerre", smax=mpf(45) / 2, dps=160)
    bs16 = biortho_build(mt16, 16)
    r_bi = biortho_residual(bs16)
    r_mo = multiple_orthogonality_check(bs16)
    mt6 = moments(mpf("0.5"), 6, "laguerre", smax=mpf(15), dps=80)
    bs6 = biortho_build(mt6, 6)
    with mp.workdps(60):
        trace = mp.quad(lambda x: finite_kernel(bs6, x, x), [0, 1, 5, 30])
        tr_err = abs(trace - 6)
    r_cd = cd_formula_check(bs6, mpf("0.5"), mpf("1.1"), dps=30)
    ok = (r_bi <= mpf("1e-30") and r_mo <= mpf("1e-30")
          and tr_err <= mpf("1e-8") and r_cd <= mpf("1e-30"))
    _line(12, "finite-n certificates", ok,
          "biortho %s, split-orthogonality %s (tol 1e-30, nmax=16, 160 dig); "
          "trace err %s (tol 1e-8, n=6); matrix-form resid %s (tol 1e-30)"
          % (mp.nstr(r_bi, 3), mp.nstr(r_mo, 3), mp.nstr(tr_err, 3),
             mp.nstr(r_cd, 3)))
    assert r_bi <= mpf("1e-30")
    assert r_mo <= mpf("1e-30")
    assert tr_err <= mpf("1e-8")
    assert r_cd <= mpf("1e-30")


def test_13_scaled_kernel_converges_to_limit():
    # K_n under the n^3/4 hard-edge rescaling against the limiting kernel
    # at (alpha, x, y) = (0, 1, 2); the tail n = 8, 16, 32 must decrease
    # strictly (the error is O(1/n): err(64)/err(32) = 0.53 and
    # err(128)/err(64) = 0.51) and close below 0.05.  The single
    # pre-asymptotic point n = 4 sits below that trend, so the 4 -> 8 step
    # rises; the end-to-end decrease err(32) < err(4) is asserted instead.
    t0 = time.monotonic()
    rows = hard_edge_convergence(0, 1, 2, ns=(4, 8, 16, 32), ref_dps=30)
    took = time.monotonic() - t0
    errs = {n: e for n, e in rows}
    tail = errs[8] > errs[16] > errs[32]
    ok = (tail and errs[32] < errs[4] and errs[32] <= mpf("0.05")
          and took <= 600.0)
    table = ", ".join("err(%d)=%s" % (n, mp.nstr(e, 4)) for n, e in rows)
    _line(13, "hard-edge convergence trend", ok,
          "%s; tail 8>16>32 strict: %s; err(32) < err(4): %s; "
          "err(32) <= 0.05: %s; %.1fs (budget 600s)"
          % (table, tail, errs[32] < errs[4], errs[32] <= mpf("0.05"), took))
    assert tail
    assert errs[32] < errs[4]
    assert errs[32] <= mpf("0.05")
    assert took <= 600.0
