"""Equilibrium measure for the square-root interaction: density, minimizer,
log-potentials, scaling constants."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from mbhalf import equilibrium
from mbhalf.equilibrium import (
    VX_C0,
    VX_C1,
    VX_SUPPORT,
    BranchSelectionError,
    DomainError,
    GridMeasure,
    StagnationError,
    density_vx_cardano,
    density_vx_explicit,
    endpoint_fit,
    equilibrium_minimize,
    g_functions,
    scaling_constants,
    variational_residual,
    vx_reference_solution,
    weights_from_density,
)
from mbhalf.equilibrium import (
    COARSE_FACTOR,
    _canonical_base,
    _cell_log_table,
    _energy_operator,
    _icbrt,
    _kkt_active_set,
    _mirror_upper,
    _near_border,
    _sqrt_log_kernel,
    _sqrt_log_orders,
)
from mbhalf.mpcore import quad_ts, working


@pytest.fixture(scope="module")
def reference():
    return vx_reference_solution(m=300, dps=30)


@pytest.fixture(scope="module")
def gfuncs(reference):
    return g_functions(reference, dps=30)


def test_closed_form_constants():
    with mp.workdps(40):
        c0 = VX_C0(dps=30)
        c1 = VX_C1(dps=30)
        assert abs(c0 - mp.sqrt(3) / (2 ** mpf("5/3") * mp.pi)) < mpf("1e-28")
        assert abs(c1 - 16 * mp.sqrt(2) / (81 * mp.pi)) < mpf("1e-28")
        assert abs(float(c0) - 0.17366) < 1e-5
        assert abs(float(c1) - 0.08893) < 1e-5


def test_density_routes_agree():
    q = VX_SUPPORT
    with mp.workdps(40):
        for i in range(1, 40):
            s = q * i / 40
            ve = density_vx_explicit(s, dps=30)
            vc = density_vx_cardano(s, dps=30)
            assert abs(ve - vc) < mpf("1e-28"), s


@pytest.mark.parametrize("offset", ["0", "1e-12", "-1e-12"])
def test_density_keeps_its_digits_next_to_three(offset):
    # b + a of the closed form vanishes at s = 3; the cube root of that
    # difference lost about 2/3 of the digits (3.0e-14 relative at 30
    # digits) before the bracket was written without it
    with mp.workdps(40):
        s = 3 + mpf(offset)
    got = density_vx_explicit(s, dps=30)
    ref = density_vx_explicit(s, dps=110)
    with mp.workdps(110):
        assert abs(got - ref) <= mpf("1e-35") * ref
        assert abs(ref - density_vx_cardano(s, dps=110)) <= mpf("1e-100") * ref


@pytest.mark.parametrize("d", [20, 30, 60])
def test_density_one_cube_root_meets_110_digits(d):
    # the one-cube-root form against the spectral cubic at 110 digits, the
    # independent route: on a grid over (0, 27/8), next to s = 3, where
    # b + a vanishes, and next to the soft edge, where the density vanishes
    # like a square root and the sum of two cube roots was 1.2e-23
    # relative off at 27/8 - 1e-9 and d = 20 (30 working digits)
    with mp.workdps(120):
        points = [VX_SUPPORT * i / 64 for i in range(1, 64)]
        points += [mpf(3), 3 + mpf("1e-12"), 3 - mpf("1e-12"),
                   VX_SUPPORT - mpf("1e-9")]
    for s in points:
        with mp.workdps(d):
            s = +s  # an input that every precision below holds exactly
        got = density_vx_explicit(s, dps=d)
        ref = density_vx_cardano(s, dps=110)
        with mp.workdps(120):
            assert abs(got - ref) <= mpf(10) ** -(d + 5) * ref, s
    assert density_vx_explicit(VX_SUPPORT, dps=d) == 0


def _mpf_density(s, dps):
    """The one-cube-root form in mpf arithmetic, as the integer pass's
    reference at many more digits than it works with."""
    with mp.workdps(dps):
        s = mpf(s)
        r = 27 - 8 * s
        u = mp.cbrt((mp.sqrt(27 * r) + abs((8 * s - 36) * s + 27)) ** 2 / s)
        p = 12 - 4 * s
        return 3 * mp.sqrt(r) * u / (2 * mp.pi * s * (u * (u - p) + p * p))


def _working_bits(d):
    """The working precision of density_vx_explicit at d digits, in bits."""
    with working(d):
        return mp.prec


def _meets(got, ref, d):
    with mp.workdps(200):
        return abs(got - ref) <= mpf(10) ** -(d + 5) * ref


def test_integer_density_meets_cardano_at_110_digits():
    # the grid of test_density_one_cube_root_meets_110_digits at d = 110;
    # 27/8 - 1e-9 is left out, since cardano at 110 digits keeps only
    # 1.3e-112 relative there, short of the 10^-115 asked of the density
    d = 110
    with mp.workdps(120):
        points = [VX_SUPPORT * i / 64 for i in range(1, 64)]
        points += [mpf(3), 3 + mpf("1e-12"), 3 - mpf("1e-12")]
    for s in points:
        assert _meets(density_vx_explicit(s, dps=d),
                      density_vx_cardano(s, dps=110), d), s


@pytest.mark.parametrize("d", [20, 60])
def test_integer_density_at_small_s(d):
    # s^(2/3) rho(s) = c0 (1 + O(s^(1/3))), the first correction measured
    # at 0.84 s^(1/3); at these s, t in s = S 2^-t far exceeds the working
    # bits, so the radicands and 27|a| 4^t are shifted down, not up
    c0 = VX_C0(dps=150)
    for s in (mpf("1e-40"), mpf("1e-300")):
        got = density_vx_explicit(s, dps=d)
        assert _meets(got, _mpf_density(s, 150), d), s
        with mp.workdps(150):
            lead = got * s ** (mpf(2) / 3) / c0
            assert abs(lead - 1) < mp.cbrt(s) + mpf(10) ** -(d + 5)


@pytest.mark.parametrize("s", [1, "2", 3.0])
def test_integer_density_takes_plain_numbers(s):
    # an mpf exponent >= 0 (1, 2, 3) gives t = 0 in s = S 2^-t
    for d in (20, 60):
        assert _meets(density_vx_explicit(s, dps=d), _mpf_density(s, 150), d)


@pytest.mark.parametrize("d", [20, 60, 110])
def test_integer_density_next_to_the_soft_edge(d):
    # 27/8 - 2^-(prec-4) lies four units of the working precision below the
    # edge, where r = 27 - 8s is a few units of 2^-prec but exact
    for k in (60, _working_bits(d) - 4):
        with mp.workdps(200):
            s = VX_SUPPORT - mpf(2) ** -k
        got = density_vx_explicit(s, dps=d)
        assert got > 0
        assert _meets(got, _mpf_density(s, 200), d), k


@pytest.mark.parametrize("d", [20, 60])
def test_integer_density_where_a_vanishes(d):
    # 27|a| = |8s^2 - 36s + 27| vanishes at s = (9 - 3 sqrt 3)/4 ~ 0.950962,
    # where the cube root's argument is sqrt(27 r) alone
    with working(d):
        s = (9 - 3 * mp.sqrt(3)) / 4
    assert abs(float(s) - 0.950962) < 1e-6
    for t in (s, s + mpf(2) ** -(_working_bits(d) - 2)):
        assert _meets(density_vx_explicit(t, dps=d), _mpf_density(t, 200), d)


def test_integer_density_next_to_three():
    for off in ("1e-30", "-1e-30"):
        with mp.workdps(60):
            s = 3 + mpf(off)
        for d in (20, 30, 60):
            assert _meets(density_vx_explicit(s, dps=d),
                          _mpf_density(s, 150), d), (off, d)


def test_integer_density_domain_and_bits():
    for d in (20, 60):
        edge = density_vx_explicit(VX_SUPPORT, dps=d)
        assert isinstance(edge, mpf) and edge == 0
        with working(d):
            beyond = VX_SUPPORT + mpf(2) ** -(_working_bits(d) - 4)
        assert beyond > VX_SUPPORT
        for bad in (0, -1, "-1e-30", beyond, 4, mp.inf, mp.nan):
            with pytest.raises(DomainError):
                density_vx_explicit(bad, dps=d)
    # a repeat call returns the same bits, whatever ran in between
    with mp.workdps(30):
        s = VX_SUPPORT * 17 / 64
    first = density_vx_explicit(s, dps=20)._mpf_
    density_vx_explicit(s, dps=60)
    density_vx_explicit(mpf("1e-300"), dps=20)
    assert density_vx_explicit(s, dps=20)._mpf_ == first


def test_integer_density_takes_s_as_given():
    # an mpf s finer than the working digits is not rounded to them first:
    # at d = 30 the density of 27/8 - 10^-k given at 120 digits was that of
    # the rounded s, 1.4e-12 relative off at k = 30 and 0 at k = 45 and 60
    d = 30
    for k in (20, 30, 45, 60):
        with mp.workdps(120):
            s = VX_SUPPORT - mpf(10) ** -k
        got = density_vx_explicit(s, dps=d)
        assert got > 0, k
        assert _meets(got, density_vx_explicit(s, dps=110), d), k
    # and one just beyond the edge is refused, not rounded onto it, with s
    # shown to the digits that tell it from 27/8
    with mp.workdps(120):
        s = VX_SUPPORT + mpf(10) ** -45
    with pytest.raises(DomainError, match=r"3\.375" + "0" * 41 + "1"):
        density_vx_explicit(s, dps=d)


def test_icbrt_is_the_floor_of_the_cube_root():
    rng = random.Random(3)
    cases = [1, 2, 7, 8, 9, 26, 27, 28, 2 ** 120, 2 ** 121 - 1, 3 ** 200]
    for bits in (10, 119, 120, 121, 150, 400, 1500):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        cases += [n, n + 1]
        c = 1 << (bits // 3)
        cases += [c ** 3 - 1, c ** 3, c ** 3 + 1, (c + 1) ** 3 - 1]
    for n in cases:
        x = _icbrt(n)
        assert x ** 3 <= n < (x + 1) ** 3, n


def test_cardano_resolves_the_soft_edge():
    # the root's imaginary part resolves to about half the working digits
    # next to the double root at 27/8; an absolute cut of 1e-20 refused
    # these points, where the density is 8.9e-22, 2.8e-24 and 8.9e-27
    for off in ("1e-40", "1e-45", "1e-50"):
        with mp.workdps(80):
            s = VX_SUPPORT - mpf(off)
        got = density_vx_cardano(s, dps=60)
        ref = density_vx_explicit(s, dps=60)
        with mp.workdps(80):
            assert ref > 0
            if off == "1e-40":
                assert abs(got - ref) <= mpf("1e-25") * ref
            else:
                assert abs(got - ref) <= mpf("1e-15") * ref
    with mp.workdps(80):
        s = VX_SUPPORT + mpf("1e-40")
    with pytest.raises(BranchSelectionError):
        density_vx_cardano(s, dps=60)


def test_cardano_keeps_its_digits_up_to_the_soft_edge():
    # at 27/8 - 10^-k Cardano's roots err by about 10^k units of the
    # working precision, which the gap must raise, and the points at
    # k > d + 10 must not round to the edge.  The explicit route is asked
    # for d + k digits, so that it keeps s to 10^-d of the gap
    for d in (30, 60):
        for k in (10, 30, 45, 80):
            with mp.workdps(d + k + 20):
                s = VX_SUPPORT - mpf(10) ** -k
            got = density_vx_cardano(s, dps=d)
            ref = density_vx_explicit(s, dps=d + k)
            with mp.workdps(d + k + 20):
                assert abs(got - ref) <= mpf(10) ** -d * ref, (d, k)
    with mp.workdps(80):
        s = VX_SUPPORT + mpf("1e-40")
    for d in (30, 60):
        with pytest.raises(BranchSelectionError):
            density_vx_cardano(s, dps=d)


def test_cardano_refuses_the_hard_edge_and_below():
    for s in (0, -1):
        with pytest.raises(DomainError):
            density_vx_cardano(s, dps=30)


def test_density_integrates_to_one():
    with mp.workdps(40):
        total = quad_ts(lambda t: density_vx_explicit(t, dps=35), 0,
                        VX_SUPPORT, dps=30)
        assert abs(total - 1) < mpf("1e-25")


def test_density_edge_behaviour():
    with mp.workdps(40):
        # s^{2/3} rho(s) -> c0 at the hard edge
        s = mpf("1e-12")
        lead = s ** mpf("2/3") * density_vx_explicit(s, dps=30)
        assert abs(lead - VX_C0(dps=30)) < mpf("1e-3")
        # rho(s)/sqrt(q-s) -> c1 at the soft edge
        s = VX_SUPPORT - mpf("1e-10")
        lead = density_vx_explicit(s, dps=30) / mp.sqrt(VX_SUPPORT - s)
        assert abs(lead - VX_C1(dps=30)) < mpf("1e-4")
        # vanishes at the endpoint like a square root (no jump)
        assert density_vx_explicit(VX_SUPPORT - mpf("1e-20"), dps=30) < mpf("1e-9")


def test_endpoint_fit_recovers_constants():
    with mp.workdps(40):
        dens = lambda t: density_vx_explicit(t, dps=40)
        c0 = endpoint_fit(dens, VX_SUPPORT, "origin", dps=30)
        c1 = endpoint_fit(dens, VX_SUPPORT, "edge", dps=30)
        assert abs(c0 - VX_C0(dps=30)) < mpf("1e-6")
        assert abs(c1 - VX_C1(dps=30)) < mpf("1e-9")


def test_grid_measure_validation():
    nodes = np.array([0.5, 1.5, 2.5])
    w = np.array([0.25, 0.5, 0.25])
    GridMeasure(nodes=nodes, weights=w, mass=1.0)  # valid
    with pytest.raises(ValueError):
        GridMeasure(nodes=nodes[::-1].copy(), weights=w, mass=1.0)
    with pytest.raises(ValueError):
        GridMeasure(nodes=nodes, weights=np.array([0.5, -0.1, 0.6]), mass=1.0)
    with pytest.raises(ValueError):
        GridMeasure(nodes=nodes, weights=w, mass=2.0)


def test_weights_from_density_mass():
    gm = weights_from_density(lambda t: density_vx_explicit(t, dps=22),
                              VX_SUPPORT, 60, dps=20)
    assert abs(gm.mass - 1.0) < 1e-10
    assert len(gm.nodes) == 60
    h = float(VX_SUPPORT) / 60
    assert gm.nodes[0] == pytest.approx(h / 2)


def test_minimizer_linear_field():
    sol = equilibrium_minimize(lambda x: x, 6.0, 150)
    assert abs(sol.mu.mass - 1.0) < 1e-12
    assert abs(sol.q - 3.375) < 0.15
    assert sol.c1 > 0
    # objective strictly decreases along the accepted steps
    tr = sol.objective_trace
    assert all(b < a for a, b in zip(tr, tr[1:]))
    assert len(tr) >= 2  # the start point and at least the KKT point
    dev, ineq_ok = variational_residual(sol, lambda x: x)
    assert dev < 1e-3
    assert ineq_ok
    # a multiplier 0.5 too low lifts U - V - ell by 0.5 everywhere: the
    # equality defect reads 0.5 and the strict inequality fails beyond q
    low = dataclasses.replace(sol, ell=sol.ell - 0.5)
    dev, ineq_ok = variational_residual(low, lambda x: x)
    assert dev == pytest.approx(0.5, abs=1e-3)
    assert not ineq_ok


def test_minimizer_warns_when_the_support_reaches_the_box_edge():
    # at Q = 2 the V = x measure (support [0, 27/8]) is clipped: the last
    # cell carries about three times the weight of the one before it
    with pytest.warns(RuntimeWarning, match="last cell"):
        sol = equilibrium_minimize(lambda x: x, 2.0, 200)
    assert sol.mu.weights[-1] > sol.mu.weights[-2] > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = equilibrium_minimize(lambda x: x, 6.0, 200)
    assert sol.mu.weights[-1] == 0


def test_minimizer_growth_warning_survives_the_error_filter():
    # 3 log(1 + x) grows slower than log x beyond the box: the warning must
    # raise under the error filter, not be swallowed with the probes' errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="not increasing"):
            equilibrium_minimize(lambda x: 3 * np.log1p(x), 6.0, 60)


def test_minimizer_skips_the_growth_probes_of_an_overflowing_field():
    # V = x in the box and e^(1000 x) beyond it: the probes at 2Q, 4Q and
    # 8Q overflow, and the field solves with no warning
    V = lambda x: x if x <= 6 else math.exp(1e3 * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = equilibrium_minimize(V, 6.0, 60)
    assert abs(sol.mu.mass - 1.0) < 1e-12
    assert sol.mu.weights[-1] == 0


def test_minimizer_quadratic_field():
    sol = equilibrium_minimize(lambda x: 0.5 * x * x, 4.0, 150)
    assert abs(sol.mu.mass - 1.0) < 1e-12
    assert 0.5 < sol.q < 3.0  # support ends well inside the box
    dev, ineq_ok = variational_residual(sol, lambda x: 0.5 * x * x)
    assert dev < 1e-3
    assert ineq_ok


def test_variational_residual_probe_on_empty_cell():
    # for this field at m = 200 the probe 1.8 q is exactly an empty cell's
    # midpoint; its 0 * log 0 must not turn the strict inequality into nan
    V = lambda x: x + 0.1 * x * x
    sol = equilibrium_minimize(V, 6.0, 200)
    probe = 1.8 * sol.q
    hit = np.isclose(sol.mu.nodes, probe, rtol=0, atol=1e-12)
    assert hit.any() and np.all(sol.mu.weights[hit] == 0)
    dev, ineq_ok = variational_residual(sol, V)
    assert dev < 1e-3
    assert ineq_ok


def _gl_cell_averages(h, m, npts):
    """Cell-pair averages of log(sqrt x + sqrt y) by the npts x npts
    Gauss-Legendre rule in u = sqrt x on every pair, built in full, row by
    row, by broadcasting: no symmetric fill and no matrix products."""
    x, wq = np.polynomial.legendre.leggauss(npts)
    edges = np.sqrt(np.arange(m + 1) * h)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    u_nodes = mid[:, None] + rad[:, None] * x[None, :]
    u_wts = (rad[:, None] * wq[None, :]) * 2.0 * u_nodes
    smat = np.empty((m, m))
    for i in range(m):
        lg = np.log(u_nodes[i][:, None, None] + u_nodes[None, :, :])
        smat[i] = (u_wts[i][:, None, None] * (u_wts[None, :, :] * lg)).sum(
            axis=(0, 2)) / h / h
    return smat


def _uniform_order_kernel(h, m, npts=8):
    """The same cell averages with the npts x npts rule on every pair, in
    the arithmetic `_sqrt_log_kernel` had before its rows took their own
    orders (row 0, whose order is 8, still has it), and the first cell's
    closed form, as there: the reference for the row orders."""
    x, wq = np.polynomial.legendre.leggauss(npts)
    edges = np.sqrt(np.arange(m + 1) * h)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    u_nodes = mid[:, None] + rad[:, None] * x[None, :]
    u_wts = (rad[:, None] * wq[None, :]) * 2.0 * u_nodes / h
    smat = np.empty((m, m))
    buf = np.empty((npts, m, npts))
    for i in range(m):
        lg = buf[:, :m - i, :]
        np.add(u_nodes[i][:, None, None], u_nodes[None, i:, :], out=lg)
        np.log(lg, out=lg)
        inner = (u_wts[i] @ lg.reshape(npts, -1)).reshape(m - i, npts)
        smat[i, i:] = np.einsum("jb,jb->j", inner, u_wts[i:])
        smat[i:, i] = smat[i, i:]
    smat[0, 0] = 0.25 + 0.5 * np.log(h)
    return smat


def test_cell_log_table_meets_mpmath_at_m_2000():
    # the closed form at 50 digits (its k^2 log k terms cancel about 8 of
    # them); in floats that form was 5.6e-9 off near k = 2000
    m = 2000
    tab = _cell_log_table(m)
    with mp.workdps(50):
        def sq_log(a):
            return a * a * mp.log(a) if a else mpf(0)

        worst = max(abs((sq_log(mpf(k + 1)) + sq_log(mpf(abs(k - 1)))
                         - 2 * sq_log(mpf(k))) / 2 - mpf(1.5) - mpf(tab[k]))
                    for k in range(m))
    assert worst <= 2e-15


def test_energy_operator_matches_two_matrix_form():
    # reference: both cell-pair matrices built in full, row by row, without
    # the symmetric fill, the in-place Toeplitz subtraction or the matrix
    # products; the operator must agree entry-wise to a few ulps
    # (the first cell takes its closed form in both)
    m, box = 40, 6.0
    h = box / m
    smat = _gl_cell_averages(h, m, 8)
    smat[0, 0] = 0.25 + 0.5 * np.log(h)
    tab = _cell_log_table(m) + np.log(h)
    idx = np.arange(m)
    lam = tab[np.abs(np.subtract.outer(idx, idx))]
    A = _energy_operator(h, m)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A - (0.5 * smat - lam))) < 1e-14


@pytest.mark.parametrize("m", [60, 800])
def test_energy_operator_toeplitz_view_keeps_the_row_loop_bits(m):
    # Lambda is subtracted as one strided view of its table; that must give
    # the bits of subtracting it row by row from the same table
    h = 6.0 / m
    ref = _sqrt_log_kernel(h, m)
    ref *= 0.5
    tab = _cell_log_table(m) + np.log(h)
    for i in range(m):
        ref[i, i:] -= tab[:m - i]
        ref[i, :i] -= tab[i:0:-1]
    assert np.array_equal(_energy_operator(h, m), ref)


@pytest.mark.parametrize("m", [40, 250, 2000])
def test_sqrt_log_kernel_row_orders(m):
    # each row's order comes from an error bound: the entries stay within
    # roundoff of 8 points on every pair, and off the singular first cell
    # within roundoff of 20 points, which checks the bound and not only the
    # agreement with the old rule; row 0 keeps 8 nodes and its bits, but
    # for the singular first cell, which takes its closed form 1/4 + log(h)/2:
    # the 8-point value is 1.55e-7 low and the 20-point one 1.25e-10
    h = 6.0 / m
    S = _sqrt_log_kernel(h, m)
    orders = _sqrt_log_orders(m)
    assert orders[0] == 8 and orders.max() <= 8
    assert np.array_equal(S, S.T)
    assert S[0, 0] == 0.25 + 0.5 * np.log(h)
    assert 1.5e-7 < S[0, 0] - _gl_cell_averages(h, 1, 8)[0, 0] < 1.6e-7
    assert 1.2e-10 < S[0, 0] - _gl_cell_averages(h, 1, 20)[0, 0] < 1.3e-10
    S8 = _uniform_order_kernel(h, m)
    assert np.array_equal(S[0], S8[0]) and np.array_equal(S[:, 0], S8[:, 0])
    assert np.max(np.abs(S - S8)) <= 2e-15
    if m == 40:
        # the reference against the independent broadcast build
        ref = _gl_cell_averages(h, m, 8)
        ref[0, 0] = S8[0, 0]
        assert np.max(np.abs(S8 - ref)) < 1e-14
    del S8
    S20 = _uniform_order_kernel(h, m, 20)
    assert np.max(np.abs(S - S20)[1:, 1:]) <= 2e-15


@pytest.mark.parametrize("m", [1, 200, 255, 256, 257, 800, 2000])
def test_mirror_upper_matches_the_row_by_row_fill(m):
    # the kernel mirrors its upper triangle once, in column blocks, after
    # its row loop; that must give the bits of copying each row onto its
    # column as the row is made, across and on the block edges
    a = np.random.default_rng(m).standard_normal((m, m))
    ref = a.copy()
    for i in range(m):
        ref[i:, i] = ref[i, i:]
    _mirror_upper(a)
    assert np.array_equal(a, ref)


@pytest.mark.parametrize("V, box, m", [
    (lambda x: x, 6.0, 300),
    (lambda x: x + 0.1 * x * x, 6.0, 200),
    (lambda x: x + 0.1 * x * x, 6.0, 800),
    (lambda x: 0.5 * x * x, 4.0, 150),
])
def test_minimizer_kkt_certificate(V, box, m):
    # the discrete problem min w.A.w + v.w on the simplex is solved exactly:
    # 2Aw + v = l on the support, >= l off it, with l = -ell
    sol = equilibrium_minimize(V, box, m)
    w = sol.mu.weights
    h = sol.mu.cell_width()
    v = np.array([V(x) for x in sol.mu.nodes])
    slack = 2.0 * (_energy_operator(h, m) @ w) + v + sol.ell
    on = w > 0
    assert np.max(np.abs(slack[on])) <= 1e-10
    assert np.min(slack[~on]) >= -1e-10
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    # the carried potential and the one recomputed from the weights give
    # the same certificate
    dev, strict = variational_residual(sol, V)
    dev_re, strict_re = variational_residual(
        dataclasses.replace(sol, potential=None), V)
    assert abs(dev - dev_re) <= 1e-12
    assert strict == strict_re


def _all_cells_problem(V, box, m):
    """Operator, field values and start point of equilibrium_minimize's
    fine grid, for pivoting started from all cells."""
    h = box / m
    s = (np.arange(m) + 0.5) * h
    w0 = s ** (-2.0 / 3.0) / np.sum(s ** (-2.0 / 3.0))
    return _energy_operator(h, m), np.array([float(V(x)) for x in s]), w0


def _same_bits(sol, w, ell, aw):
    return (np.array_equal(sol.mu.weights, w) and sol.ell == -ell
            and np.array_equal(sol.potential, -2.0 * aw))


def test_minimizer_pivot_cap_and_singular_system():
    # with max_iter=1 the coarse stage stagnates, so the fine loop starts
    # from all cells and raises with the objective of the fine grid
    for m in (150, 800):
        A, v, w0 = _all_cells_problem(lambda x: x, 6.0, m)
        with pytest.raises(StagnationError) as ref:
            _kkt_active_set(A, v, w0, 1)
        del A
        with pytest.raises(StagnationError) as err:
            equilibrium_minimize(lambda x: x, 6.0, m, max_iter=1)
        assert err.value.objective == ref.value.objective
    # a zero operator makes the bordered KKT system singular
    with pytest.raises(StagnationError) as err:
        _kkt_active_set(np.zeros((3, 3)), np.zeros(3), np.full(3, 1 / 3), 10)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# the fields of the pivoting tests
_PIVOT_FIELDS = [
    (lambda x: x, 6.0, 1001),
    (lambda x: x + 0.1 * x * x, 6.0, 800),
    (lambda x: x + 0.1 * x * x, 6.0, 803),
    (lambda x: 0.5 * x * x, 4.0, 400),
    (lambda x: x ** 4 / 4 - 1.5 * x * x + 0.3 * x, 4.0, 800),
    # support on cells 204-583, away from the origin
    (lambda x: (x - 3) ** 2, 6.0, 800),
    # support on cells 254-726
    (lambda x: (x - 3) ** 2, 6.0, 997),
]

# fine factorizations from the coarse start, in _PIVOT_FIELDS order: two
# where the final support's lower end lies above another coarse cell than
# the start's
_COARSE_START_FACTORIZATIONS = [1, 1, 1, 1, 1, 2, 1]


# the quartic and (x - 3)^2 fields are not one-cut by the x V'(x) test
@pytest.mark.filterwarnings("ignore:x V'\\(x\\) is not increasing")
@pytest.mark.parametrize("V, box, m", _PIVOT_FIELDS)
def test_coarse_start_reaches_the_same_kkt_point(V, box, m, monkeypatch):
    # the KKT point is unique, so the fine pivoting started from the coarse
    # grid's support ends on the same bordered system as when started from
    # all cells: the same weights, multiplier and potential, to the bit
    A, v, w0 = _all_cells_problem(V, box, m)
    w, ell, aw, trace = _kkt_active_set(A, v, w0, 6000)
    del A
    solves = []  # (cells of the grid, sizes of its bordered systems)
    solve, pivot = np.linalg.solve, equilibrium._kkt_active_set

    def counted_solve(a, b):
        solves[-1][1].append(a.shape[0])
        return solve(a, b)

    def tagged_pivot(A, v, *args):
        solves.append((len(v), []))
        return pivot(A, v, *args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(equilibrium, "_kkt_active_set", tagged_pivot)
    sol = equilibrium_minimize(V, box, m)
    assert _same_bits(sol, w, ell, aw)
    (coarse_m, _), (fine_m, fine) = solves
    assert (coarse_m, fine_m) == (m // COARSE_FACTOR, m)
    assert len(fine) <= 6 and max(fine) < m + 1
    tr = sol.objective_trace
    assert tr[0] == trace[0] and tr[-1] == trace[-1]
    assert all(b < a for a, b in zip(tr, tr[1:]))


@pytest.mark.filterwarnings("ignore:x V'\\(x\\) is not increasing")
@pytest.mark.parametrize("V, box, m", _PIVOT_FIELDS)
def test_row_orders_move_the_weights_by_roundoff(V, box, m, monkeypatch):
    # the row orders move the operator's entries by roundoff; the KKT point
    # of the operator with 8 points on every pair has the same support, and
    # its weights and multiplier differ by roundoff too
    sol = equilibrium_minimize(V, box, m)
    monkeypatch.setattr(equilibrium, "_sqrt_log_kernel", _uniform_order_kernel)
    A, v, w0 = _all_cells_problem(V, box, m)
    w, ell, _, _ = _kkt_active_set(A, v, w0, 6000, sol.mu.weights > 0)
    assert np.array_equal(w > 0, sol.mu.weights > 0)
    assert np.max(np.abs(w - sol.mu.weights)) <= 1e-14
    assert abs(ell + sol.ell) <= 1e-14


def test_schur_step_matches_the_direct_solve():
    # a trial support that moves only cells within COARSE_FACTOR of a
    # border of the factorized one is solved by the Schur complement of
    # that factorization: the same weights and multiplier as a direct
    # solve on it, to roundoff; a support that moves another cell is not
    A, v, _ = _all_cells_problem(lambda x: (x - 3) ** 2, 6.0, 400)
    support = np.zeros(400, dtype=bool)
    support[80:240] = True
    base = equilibrium._Bordered(A, v, support)
    near = _near_border(support, COARSE_FACTOR)
    for gone, come in (([80, 81], []), ([], [78, 79, 240]),
                       ([239, 237, 80], [241, 72])):
        trial = support.copy()
        trial[gone], trial[come] = False, True
        assert not np.any((trial != support) & ~near)
        w, ell = base.schur(trial)
        w_ref, ell_ref = equilibrium._Bordered(A, v, trial).weights()
        assert np.all(w[~trial] == 0)
        assert np.max(np.abs(w - w_ref)) <= 1e-12
        assert abs(ell - ell_ref) <= 1e-12
    for cell in (71, 100, 248):
        trial = support.copy()
        trial[cell] = not trial[cell]
        assert np.any((trial != support) & ~near)


def _record_solves(monkeypatch):
    """Sizes of the systems np.linalg.solve is given, one list for each run
    of _kkt_active_set."""
    sizes = []
    solve, pivot = np.linalg.solve, equilibrium._kkt_active_set

    def counted_solve(a, b):
        sizes[-1].append(a.shape[0])
        return solve(a, b)

    def tagged_pivot(A, v, *args):
        sizes.append([])
        return pivot(A, v, *args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(equilibrium, "_kkt_active_set", tagged_pivot)
    return sizes


@pytest.mark.filterwarnings("ignore:x V'\\(x\\) is not increasing")
@pytest.mark.parametrize("V, box, m", _PIVOT_FIELDS)
def test_fine_pivots_reuse_one_factorization(V, box, m, monkeypatch):
    # every iterate is the Schur solve of its support S from the
    # factorization of the canonical base B(S), kept while B(S) stays: from
    # the final support the pivoting factorizes B(final) alone, and from the
    # coarse start one or two bordered systems of more than m // 8 + 1
    # cells; the result has the same bits whichever start reached it
    sizes = _record_solves(monkeypatch)
    sol = equilibrium_minimize(V, box, m)
    A, v, w0 = _all_cells_problem(V, box, m)
    final = sol.mu.weights > 0
    for start in (final, None):
        w, ell, aw, trace = equilibrium._kkt_active_set(A, v, w0, 6000, start)
        assert _same_bits(sol, w, ell, aw)
        assert trace[-1] == float(w @ aw + v @ w)
    assert sol.objective_trace[-1] == trace[-1]
    large = [k for k in sizes[1] if k > m // 8 + 1]
    assert len(large) == _COARSE_START_FACTORIZATIONS[
        _PIVOT_FIELDS.index((V, box, m))]
    base = _canonical_base(final)
    added = np.count_nonzero(final & ~base)
    assert sizes[2] == [base.sum() + 1] + ([added] if added else [])


@pytest.mark.parametrize("V, m", [(lambda x: x, 2000),
                                  (lambda x: x + 0.1 * x * x, 800)])
def test_benchmark_fields_factorize_once(V, m, monkeypatch):
    # the benchmark's two minimizer fields: one bordered system of more
    # than m // 8 + 1 cells on the fine grid, and weights and multiplier
    # within roundoff of the direct solve on the final support
    sizes = _record_solves(monkeypatch)
    sol = equilibrium_minimize(V, 6.0, m)
    monkeypatch.undo()
    assert len([k for k in sizes[1] if k > m // 8 + 1]) == 1
    A, v, _ = _all_cells_problem(V, 6.0, m)
    w, ell = equilibrium._Bordered(A, v, sol.mu.weights > 0).weights()
    assert np.max(np.abs(w - sol.mu.weights)) <= 1e-14
    assert abs(ell + sol.ell) <= 1e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_canonical_base_properties(data):
    # S has one to three runs [cuts[0], cuts[1]), [cuts[2], cuts[3]), ...
    m = data.draw(st.integers(10, 2000), label="m")
    cuts = sorted(data.draw(st.lists(st.integers(0, m), min_size=2,
                                     max_size=6, unique=True), label="cuts"))
    cuts = cuts[:len(cuts) // 2 * 2]

    def runs(cuts):
        mask = np.zeros(m, dtype=bool)
        for a, e in zip(cuts[::2], cuts[1::2]):
            mask[a:e] = True
        return mask

    support = runs(cuts)
    base = _canonical_base(support)
    assert not np.any(base & ~support)
    assert not np.any(support & ~base & ~_near_border(base, COARSE_FACTOR))
    cell = equilibrium._coarse_cells(m)
    for a, e in zip(cuts[::2], cuts[1::2]):
        assert base[a:e].any()
        # a run between two borders inside one coarse cell, above its
        # lower end, is too short to shrink
        if 0 < a and e < m and cell[a - 1] == cell[e - 1]:
            assert base[a:e].all()
    # the coarse cell just below each border, -1 below cell 0 and one past
    # the last cell at m; moving every border within its coarse cell keeps
    # B when those cells are at most COARSE_FACTOR + 1 wide and two apart
    below = [-1 if p == 0 else cell[p - 1] + (p == m) for p in cuts]
    lo = np.searchsorted(cell, below)
    hi = np.searchsorted(cell, below, side="right")
    if (np.all(np.diff(below) >= 2)
            and all(h - l <= COARSE_FACTOR + 1 for p, l, h in zip(cuts, lo, hi)
                    if 0 < p < m)):
        moved = [p if p in (0, m)
                 else data.draw(st.integers(l + 1, min(h, m - 1)))
                 for p, l, h in zip(cuts, lo, hi)]
        assert np.array_equal(_canonical_base(runs(moved)), base)


def test_coarse_stagnation_starts_from_all_cells(monkeypatch):
    V, box, m = (lambda x: x + 0.1 * x * x), 6.0, 800
    A, v, w0 = _all_cells_problem(V, box, m)
    w, ell, aw, _ = _kkt_active_set(A, v, w0, 6000)
    del A
    starts = []
    pivot = equilibrium._kkt_active_set

    def stagnating_coarse(A, v, w0, max_iter, start=None):
        if len(v) < m:
            raise StagnationError("forced on the coarse grid", 0.0)
        starts.append(start)
        return pivot(A, v, w0, max_iter, start)

    monkeypatch.setattr(equilibrium, "_kkt_active_set", stagnating_coarse)
    sol = equilibrium_minimize(V, box, m)
    assert starts == [None]
    assert _same_bits(sol, w, ell, aw)


def test_minimizer_single_cell_converges():
    # a one-cell simplex is a single point: the solver must detect the
    # trivial constrained minimum instead of raising StagnationError
    with pytest.warns(RuntimeWarning, match="last cell"):
        sol = equilibrium_minimize(lambda x: x, 2.0, 1)
    assert abs(sol.mu.mass - 1.0) < 1e-15


def test_cell_width_needs_two_nodes():
    # one cell has no width to read off the nodes: a typed error, not an
    # IndexError from an empty diff
    V = lambda x: x
    with pytest.warns(RuntimeWarning, match="last cell"):
        sol = equilibrium_minimize(V, 6.0, 1)
    with pytest.raises(ValueError, match="at least two nodes"):
        variational_residual(sol, V)


def test_reference_solution_constants(reference):
    with mp.workdps(40):
        assert abs(reference.q - float(VX_SUPPORT)) == 0
        assert abs(reference.c0 - float(VX_C0(dps=30))) < 1e-7
        assert abs(reference.c1 - float(VX_C1(dps=30))) < 1e-10
        assert abs(reference.cV - 2 ** (-2.0 / 3.0)) < 1e-6
        assert abs(reference.mu.mass - 1.0) < 1e-10


def test_moment_oracles(gfuncs):
    # first moment 3/4 and half moment 1/sqrt(2), closed forms for V(x)=x
    with mp.workdps(40):
        assert abs(gfuncs.m1 - mpf(3) / 4) < mpf("1e-20")
        assert abs(gfuncs.m_half - 1 / mp.sqrt(2)) < mpf("1e-20")


def test_g1_branch_cut_guard(gfuncs):
    for bad in (mpf(1), mpf(0), mpf(-2), mpf("3.375")):
        with pytest.raises(BranchSelectionError):
            gfuncs.g1(bad)
    # off the cut: fine (real axis beyond q, or complex)
    gfuncs.g1(mpf(5))
    gfuncs.g1(mp.mpc(1, 1))


def test_g1_large_z_expansion(gfuncs):
    with mp.workdps(40):
        z = mp.mpc(0, 1000)
        resid = abs(gfuncs.g1(z) - (mp.log(z) - gfuncs.m1 / z))
        assert resid < mpf("1e-5")  # next term is m2/(2 z^2)


def test_g2_large_z_expansion(gfuncs):
    with mp.workdps(40):
        z = mpf(4000)
        expand = mp.log(z) / 2 + gfuncs.m_half / mp.sqrt(z) - gfuncs.m1 / (2 * z)
        assert abs(gfuncs.g2(z) - expand) < mpf("1e-4")


def test_phi1_boundary_value_is_mass_integral(gfuncs):
    # on (0, q) the boundary value is pi*i times the mass of [0, x]
    with mp.workdps(40):
        x = mpf(1)
        mass01 = quad_ts(lambda t: density_vx_explicit(t, dps=35), 0, x, dps=30)
        resid = abs(gfuncs.phi1(x) - mp.pi * mp.mpc(0, 1) * mass01)
        assert resid < mpf("1e-10")


def test_phi2_boundary_value_purely_imaginary(gfuncs):
    # the second phase function is purely imaginary on the negative axis,
    # where the pushed-out measure lives
    with mp.workdps(40):
        for x in (mpf("-0.5"), mpf("-1.5")):
            assert abs(mp.re(gfuncs.phi2(x))) < mpf("1e-20"), x


def test_conformal_map_real_on_axis(gfuncs):
    with mp.workdps(40):
        for x in (mpf("0.05"), mpf("-0.05")):
            assert abs(mp.im(gfuncs.f(x))) < mpf("1e-12"), x


def test_g_functions_on_a_grid_measure():
    # without a density the integrals are sums over the minimizer's cells;
    # measured at m = 400: m1 off 3/4 by 8.2e-3, m_half off 1/sqrt(2) by
    # 1.1e-2, large-z residuals 4.0e-4 (g1) and 1.1e-3 (g2), |Im f(1)| 7.5e-5
    sol = equilibrium_minimize(lambda x: x, 6.0, 400)
    assert sol.density is None
    gf = g_functions(sol, dps=30)
    with mp.workdps(40):
        assert abs(gf.m1 - mpf(3) / 4) < mpf("2e-2")
        assert abs(gf.m_half - 1 / mp.sqrt(2)) < mpf("3e-2")
        z = mp.mpc(40, 5)
        assert abs(gf.g1(z) - (mp.log(z) - gf.m1 / z)) < mpf("1e-3")
        expand = mp.log(z) / 2 + gf.m_half / mp.sqrt(z) - gf.m1 / (2 * z)
        assert abs(gf.g2(z) - expand) < mpf("3e-3")
        assert abs(mp.im(gf.f(mpf(1)))) < mpf("3e-4")


def test_scaling_constant_chain(reference, gfuncs):
    with mp.workdps(40):
        cv, f1_0, fp_0 = scaling_constants(gfuncs, reference, dps=30)
        assert abs(cv - 2 ** (-mpf(2) / 3)) < mpf("1e-6")
        expect_f1 = 3 * mp.sqrt(3) * mp.pi * VX_C0(dps=35)
        assert abs(f1_0 - expect_f1) < mpf("1e-8")
        assert abs(fp_0 - mpf("0.25")) < mpf("1e-6")
        assert abs(fp_0 - cv ** 3) < mpf("1e-6")


def test_stagnation_error_is_runtime_error():
    assert issubclass(StagnationError, RuntimeError)
