"""Core numerics: quadrature, cubic solver, LDU, 3x3 helpers."""

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from mbhalf.mpcore import (
    QuadratureConvergenceError,
    SingularMatrixError,
    det3,
    ldu_decompose,
    mat_mul,
    mat_transpose,
    norm_max,
    quad_ts,
    solve_cubic,
    unit_lower_inverse,
    unit_upper_inverse,
    working,
)
from mbhalf.mpcore import _ts_nodes


def test_quad_ts_endpoint_singularities():
    with mp.workdps(45):
        v = quad_ts(mp.log, 0, 1, dps=40)
        assert abs(v + 1) < mpf("1e-38")
        v = quad_ts(lambda t: 1 / mp.sqrt(t), 0, 1, dps=40)
        assert abs(v - 2) < mpf("1e-38")
        # interior smooth case agrees with closed form
        v = quad_ts(lambda t: t * mp.exp(-t), 0, 5, dps=40)
        assert abs(v - (1 - 6 * mp.exp(-5))) < mpf("1e-38")


def test_quad_ts_node_cache_exact():
    # (level, dps) fixes both the working precision and the cutoff, so
    # cached nodes and integrals are bitwise those of a fresh build,
    # whatever the ambient precision of the caller
    def bits(built):
        h, nodes = built
        return h._mpf_, [tuple(x._mpf_ for x in node) for node in nodes]

    f = lambda t: mp.log(t) * mp.exp(-t)
    _ts_nodes.cache_clear()
    with mp.workdps(15):
        cold = quad_ts(f, 0, 2, dps=30)
    with mp.workdps(60):
        warm = quad_ts(f, 0, 2, dps=30)
    assert _ts_nodes.cache_info().hits > 0
    assert cold._mpf_ == warm._mpf_
    for level in range(6):
        with mp.workdps(80):
            cached = bits(_ts_nodes(level, 30))
        assert cached == bits(_ts_nodes.__wrapped__(level, 30))


@pytest.mark.parametrize("d", [20, 40, 80])
def test_ts_nodes_match_their_definition(d):
    # g = 1 - tanh u and w = (pi/2) cosh t / cosh^2 u, u = (pi/2) sinh t, at
    # d + 30 digits; 1 - tanh u is taken as e^-u / cosh u, the same number
    # without the subtraction that cancels all of it in the far tail.  The
    # rounding of u reaches both through a factor of about 2u, and each
    # node must stay within (4u + 16) units of the working precision
    with working(d):
        unit = mpf(2) ** -mp.prec
    for level in range(11):
        h, nodes = _ts_nodes(level, d)
        with mp.workdps(d + 30):
            for t, g, w in nodes:
                u = mp.pi / 2 * mp.sinh(t)
                cu = mp.cosh(u)
                gr = mp.exp(-u) / cu
                wr = mp.pi / 2 * mp.cosh(t) / cu ** 2
                bound = (4 * u + 16) * unit
                assert abs(g - gr) <= bound * gr, (level, t)
                assert abs(w - wr) <= bound * wr, (level, t)
    if d == 40:
        counts = [len(_ts_nodes(level, d)[1]) for level in range(9)]
        assert counts == [7, 6, 13, 25, 50, 100, 201, 402, 803]


def test_quad_ts_nonintegrable_raises():
    with pytest.raises(QuadratureConvergenceError):
        quad_ts(lambda t: 1 / t, 0, 1, dps=30, max_level=8)


#: (sign, hex mantissa, exponent) of the values of
#: test_quad_ts_without_powers_keeps_its_bits, as the vector mp.fdot level
#: sums give them
_PLAIN_BITS = [
    (0, "0x6fd0715e418050bcc6f35c9e54a6619b8b", -134),
    (1, "0x1", 0),
    (0, "0x43a54e4e988641ca8a4270fadf560de44acff4aa95", -168),
    (0, "0xd76aa47848677020c6e9e909c50f3c3289e511132f", -168),
    (0, "0xeb5d7f04af9746dc7b7324d12f1c85acbb918aed61", -169),
]


def test_quad_ts_without_powers_keeps_its_bits():
    # a scalar integrand, and a vector one with a complex component
    s = quad_ts(lambda t: mp.exp(-t) / mp.sqrt(t), 0, 3, dps=30)
    v = quad_ts(lambda t: [mp.log(t), t * mp.exp(-t), mp.expj(t)], 0, 1,
                dps=40)
    got = [(x._mpf_[0], hex(x._mpf_[1]), x._mpf_[2])
           for x in (s, v[0], v[1], v[2].real, v[2].imag)]
    assert got == _PLAIN_BITS


def test_quad_ts_powers_closed_form():
    # integral_0^1 t^(k/2) dt = 1 / (k/2 + 1), from the pair (1, t^(1/2));
    # a plain number is taken as an mpf, and a zero v adds nothing
    got = quad_ts(lambda t: (1, mp.sqrt(t)), 0, 1, dps=40, powers=6)
    with working(40):
        for k, v in enumerate(got):
            assert abs(v - 1 / (mpf(k) / 2 + 1)) < mpf("1e-38"), k
    assert quad_ts(lambda t: (mpf(0), t), 0, 1, dps=30, powers=2) == [0, 0]


@pytest.mark.parametrize("pair", [
    lambda t: (-t, t), lambda t: (t, -t), lambda t: (t, 0 * t),
    lambda t: (mp.inf, t), lambda t: (mp.nan, t), lambda t: (t, mp.inf)],
    ids=["v<0", "r<0", "r=0", "v=inf", "v=nan", "r=inf"])
def test_quad_ts_powers_refuse_a_negative_value_or_ratio(pair):
    with pytest.raises(ValueError):
        quad_ts(pair, 0, 1, dps=30, powers=3)


def test_quad_vector_components_match_scalar_calls():
    # a sequence integrand gives a list with one integral per component;
    # each agrees with its own scalar call (which stays an mpf) to the
    # default tolerance 10^-(dps-10), and with its closed form
    fs = [mp.log, lambda t: 1 / mp.sqrt(t), lambda t: t * mp.exp(-t),
          lambda t: mp.expj(t)]
    with mp.workdps(45):
        exact = [mpf(-1), mpf(2), 1 - 2 / mp.e, -1j * (mp.expj(1) - 1)]
        vec = quad_ts(lambda t: [f(t) for f in fs], 0, 1, dps=40)
        assert isinstance(vec, list) and len(vec) == len(fs)
        for f, v, e in zip(fs, vec, exact):
            s = quad_ts(f, 0, 1, dps=40)
            assert isinstance(s, (mpf, mpc)) and not isinstance(v, list)
            assert abs(v - s) <= mpf("1e-30") * abs(s)
            assert abs(v - e) < mpf("1e-38")


def test_quad_ts_vector_each_component_own_tolerance():
    # components 10^60 apart in size: the small one, a peak of width 0.05,
    # needs 9 levels on its own and the big smooth one 5; the small one must
    # get its 9, and a component that is zero everywhere comes out exactly 0
    with mp.workdps(45):
        big, small, eps = mpf(10) ** 30, mpf(10) ** -30, mpf("0.05")
        vec = quad_ts(lambda t: [big * mp.exp(-t),
                                 small / ((t - mpf("0.5")) ** 2 + eps ** 2),
                                 mpf(0)], 0, 1, dps=40)
        assert abs(vec[0] / big - (1 - 1 / mp.e)) / (1 - 1 / mp.e) < mpf("1e-30")
        peak = 2 / eps * mp.atan(1 / (2 * eps))
        assert abs(vec[1] / small - peak) / peak < mpf("1e-30")
        assert vec[2] == 0


def test_quad_vector_zero_component_and_failure():
    # one non-integrable component sinks the whole call; the error carries
    # its last two (distinct, growing) level estimates, not the converged
    # component's
    with pytest.raises(QuadratureConvergenceError) as exc:
        quad_ts(lambda t: [mp.exp(t), 1 / t], 0, 1, dps=30, max_level=8)
    prev, last = exc.value.estimates
    assert 100 < prev < last


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
    # complex entries take mp.fdot's complex branch
    g = [[mpc(2, 1), mpc("0.5", -1), mpc(0, "0.3")],
         [mpc(-1, "0.25"), mpc(3, -2), mpc(1, 1)],
         [mpc("0.7", 0), mpc(-2, "0.5"), mpc(4, 3)]]
    L, D, U = ldu_decompose(g, dps=40)
    with mp.workdps(40):
        assert all(isinstance(p, mpc) for p in D)
        for i in range(3):
            assert L[i][i] == 1 and U[i][i] == 1
            for j in range(3):
                ldu = mp.fsum(L[i][k] * D[k] * U[k][j] for k in range(3))
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
            P = mat_mul(A, mp.inverse(A).tolist())
            assert norm_max([[P[i][j] - (1 if i == j else 0) for j in range(3)]
                             for i in range(3)]) < mpf("1e-34")
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
        b = [[mpf(float(v))] for v in rng.uniform(-1, 1, 3)]
        r = mat_mul(A, mat_mul(mp.inverse(A).tolist(), b))
        for ri, bi in zip(r, b):
            assert abs(ri[0] - bi[0]) < mpf("1e-34")
