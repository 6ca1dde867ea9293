"""Core numerics: gamma contract, quadrature, cubic solver, LDU, 3x3 helpers."""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from mbhalf.mpcore import (
    GammaPoleError,
    QuadratureConvergenceError,
    SingularMatrixError,
    det3,
    gamma,
    identity3,
    inv3,
    ldu_decompose,
    legendre_nodes,
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_vec,
    norm_max,
    quad_gl,
    quad_ts,
    rgamma,
    solve3,
    solve_cubic,
    unit_lower_inverse,
    unit_upper_inverse,
)

GAMMA_TOL = mpf("1e-48")

# gamma and rgamma are mp.gamma / mp.rgamma behind a contract: a pole
# threshold of 10^(-dps/2), an exact 0 from rgamma inside it, mpf out for
# real input, and values rounded to dps + 10 digits.  The tests check the
# contract, not mpmath's gamma itself.


def test_gamma_real_in_mpf_out():
    for z in (mpf("0.5"), 7, mpf("-2.3"), mpc("3.75", 0), 2.5):
        assert isinstance(gamma(z, dps=50), type(mpf(1))), z
        assert isinstance(rgamma(z, dps=50), type(mpf(1))), z
    for z in (mpc(2, 3), mpc("-1.5", "0.25"), mpc(0, 1)):
        assert isinstance(gamma(z, dps=50), type(mpc(1))), z
        assert isinstance(rgamma(z, dps=50), type(mpc(1))), z
    # values carry dps + 10 digits: Gamma(1/2) = sqrt(pi) to well below 1e-50
    with mp.workdps(80):
        assert abs(gamma(mpf("0.5"), dps=50) - mp.sqrt(mp.pi)) < mpf("1e-58")
        assert abs(rgamma(mpf("2.5"), dps=50) * 3 * mp.sqrt(mp.pi) - 4) < mpf("1e-58")


def test_gamma_pole_threshold():
    # the threshold is 10^(-dps/2) = 1e-20 at dps 40, in both directions
    with mp.workdps(50):
        for n in (0, -3, -40):
            for off in (mpf("1e-21"), mpc(0, "1e-21"), mpc("-1e-21", "1e-21")):
                with pytest.raises(GammaPoleError):
                    gamma(n + off, dps=40)
            for off in (mpf("1e-19"), mpc(0, "1e-19")):
                v = gamma(n + off, dps=40)
                # Gamma(n + e) ~ (-1)^n / (|n|! e) next to the pole
                want = (-1) ** (-n) / (mp.factorial(-n) * off)
                assert abs(v - want) / abs(want) < mpf("1e-15"), (n, off)
        # positive integers are no poles, however close
        assert gamma(1 + mpf("1e-30"), dps=40) != 0


def test_gamma_complex_reflection_inputs():
    # left half-plane complex inputs, some a hair outside the pole threshold:
    # Gamma(z) Gamma(1 - z) = pi / sin(pi z)
    pts = [mpc("-2.5", "0.3"), mpc("-7.2", "-1e-3"), mpc(-4, "1e-15"),
           mpc("-0.5", -6), mpc(-30, "0.5")]
    with mp.workdps(60):
        for z in pts:
            lhs = gamma(z, dps=50) * gamma(1 - z, dps=50)
            rhs = mp.pi / mp.sinpi(z)
            assert abs(lhs - rhs) / abs(rhs) < GAMMA_TOL, z
            assert abs(rgamma(z, dps=50) * gamma(z, dps=50) - 1) < GAMMA_TOL, z


def test_gamma_pole_raises():
    for n in (0, -1, -5):
        with pytest.raises(GammaPoleError):
            gamma(n, dps=40)


def test_rgamma_zero_at_poles():
    assert rgamma(0, dps=40) == 0
    assert rgamma(-3, dps=40) == 0
    with mp.workdps(50):
        # exactly 0 (an mpf) anywhere inside the threshold, nonzero outside
        for z in (-3 + mpf("1e-21"), mpc(-3, "1e-21")):
            v = rgamma(z, dps=40)
            assert v == 0 and isinstance(v, type(mpf(0))), z
        assert rgamma(-3 + mpf("1e-19"), dps=40) != 0
        assert abs(rgamma(mpf("0.5"), dps=40) - 1 / mp.sqrt(mp.pi)) < mpf("1e-38")


def test_legendre_nodes_basic():
    x, w = legendre_nodes(12, dps=40)
    with mp.workdps(40):
        assert abs(sum(w) - 2) < mpf("1e-38")
        # symmetry of nodes about 0
        for xi, xj in zip(x, reversed(x)):
            assert abs(xi + xj) < mpf("1e-38")
        # degree-exactness: order-12 rule integrates x^22 on [-1,1] exactly
        val = sum(wi * xi ** 22 for xi, wi in zip(x, w))
        assert abs(val - mpf(2) / 23) < mpf("1e-36")


def test_quad_gl_smooth():
    with mp.workdps(45):
        v = quad_gl(mp.exp, 0, 1, order=48, dps=40)
        assert abs(v - (mp.e - 1)) < mpf("1e-38")


def test_quad_ts_endpoint_singularities():
    with mp.workdps(45):
        v = quad_ts(mp.log, 0, 1, dps=40)
        assert abs(v + 1) < mpf("1e-38")
        v = quad_ts(lambda t: 1 / mp.sqrt(t), 0, 1, dps=40)
        assert abs(v - 2) < mpf("1e-38")
        # interior smooth case agrees with closed form
        v = quad_ts(lambda t: t * mp.exp(-t), 0, 5, dps=40)
        assert abs(v - (1 - 6 * mp.exp(-5))) < mpf("1e-38")


def test_quad_ts_nonintegrable_raises():
    with pytest.raises(QuadratureConvergenceError):
        quad_ts(lambda t: 1 / t, 0, 1, dps=30, max_level=8)


def _sorted_roots(roots):
    return sorted(roots, key=lambda r: (mp.re(r), mp.im(r)))


def test_solve_cubic_known_real_roots():
    with mp.workdps(40):
        roots = _sorted_roots(solve_cubic(1, -6, 11, -6, dps=30))
        for r, expect in zip(roots, (1, 2, 3)):
            assert abs(r - expect) < mpf("1e-28")


def test_solve_cubic_complex_pair():
    # x^3 + x = x (x - i)(x + i)
    with mp.workdps(40):
        roots = _sorted_roots(solve_cubic(1, 0, 1, 0, dps=30))
        assert abs(roots[0] - mpc(0, -1)) < mpf("1e-28")
        assert abs(roots[1]) < mpf("1e-28")
        assert abs(roots[2] - mpc(0, 1)) < mpf("1e-28")


def test_solve_cubic_triple_root():
    with mp.workdps(40):
        roots = solve_cubic(1, -3, 3, -1, dps=30)
        for r in roots:
            assert abs(r - 1) < mpf("1e-9")  # triple root: cube-root precision loss


def test_solve_cubic_random_roots_roundtrip():
    rng = np.random.default_rng(101)
    with mp.workdps(40):
        for _ in range(20):
            r1, r2, r3 = (mpf(v) for v in rng.uniform(-3, 3, size=3))
            c2 = -(r1 + r2 + r3)
            c1 = r1 * r2 + r1 * r3 + r2 * r3
            c0 = -r1 * r2 * r3
            got = _sorted_roots(solve_cubic(1, c2, c1, c0, dps=30))
            want = sorted([r1, r2, r3])
            for g, w in zip(got, want):
                assert abs(g - w) < mpf("1e-24")


def test_solve_cubic_rejects_quadratic():
    with pytest.raises(ValueError):
        solve_cubic(0, 1, 2, 3, dps=30)


def test_ldu_reconstructs():
    rng = np.random.default_rng(23)
    n = 5
    a = rng.uniform(0.5, 2.0, size=(n, n)) + n * np.eye(n)  # safely nonsingular
    g = [[mpf(float(v)) for v in row] for row in a]
    L, D, U = ldu_decompose(g, dps=40)
    with mp.workdps(40):
        for i in range(n):
            assert L[i][i] == 1 and U[i][i] == 1
            for j in range(n):
                ldu = mp.fsum(L[i][k] * D[k] * U[k][j] for k in range(n))
                assert abs(ldu - g[i][j]) < mpf("1e-36")


def test_ldu_singular_minor_reported():
    g = [[1, 2, 0], [2, 4, 1], [0, 1, 5]]  # leading 2x2 minor vanishes
    with pytest.raises(SingularMatrixError) as exc:
        ldu_decompose(g, dps=40)
    assert exc.value.minor == 2


def test_triangular_inverses():
    rng = np.random.default_rng(5)
    n = 4
    L = [[mpf(1) if i == j else (mpf(float(rng.standard_normal())) if i > j else mpf(0))
          for j in range(n)] for i in range(n)]
    U = [[mpf(1) if i == j else (mpf(float(rng.standard_normal())) if i < j else mpf(0))
          for j in range(n)] for i in range(n)]
    with mp.workdps(40):
        Linv = unit_lower_inverse(L)
        Uinv = unit_upper_inverse(U)
        for i in range(n):
            for j in range(n):
                li = mp.fsum(L[i][k] * Linv[k][j] for k in range(n))
                ui = mp.fsum(U[i][k] * Uinv[k][j] for k in range(n))
                assert abs(li - (1 if i == j else 0)) < mpf("1e-36")
                assert abs(ui - (1 if i == j else 0)) < mpf("1e-36")


def _random_mat3(rng):
    return [[mpf(float(v)) for v in row] for row in rng.uniform(-2, 2, (3, 3))]


def test_mat3_inverse_and_det():
    rng = np.random.default_rng(11)
    with mp.workdps(40):
        for _ in range(10):
            A = _random_mat3(rng)
            if abs(det3(A)) < mpf("0.01"):
                continue
            R = mat_sub(mat_mul(A, inv3(A)), identity3())
            assert norm_max(R) < mpf("1e-34")
            # det of product = product of dets
            B = _random_mat3(rng)
            assert abs(det3(mat_mul(A, B)) - det3(A) * det3(B)) < mpf("1e-32")


def test_mat3_transpose_and_solve():
    rng = np.random.default_rng(13)
    with mp.workdps(40):
        A = _random_mat3(rng)
        At = mat_transpose(A)
        for i in range(3):
            for j in range(3):
                assert At[i][j] == A[j][i]
        b = [mpf(float(v)) for v in rng.uniform(-1, 1, 3)]
        x = solve3(A, b)
        r = mat_vec(A, x)
        for ri, bi in zip(r, b):
            assert abs(ri - bi) < mpf("1e-34")
