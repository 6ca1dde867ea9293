"""Equilibrium measure for the square-root interaction: density, minimizer,
log-potentials, scaling constants."""

import dataclasses

import numpy as np
import pytest
from mpmath import mp, mpf

from mbhalf.equilibrium import (
    VX_C0,
    VX_C1,
    VX_SUPPORT,
    BranchSelectionError,
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
from mbhalf.equilibrium import _cell_log_table, _energy_operator, _kkt_active_set
from mbhalf.mpcore import quad_ts


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


def test_energy_operator_matches_two_matrix_form():
    # reference: both cell-pair matrices built in full, row by row, without
    # the symmetric fill, the in-place Toeplitz subtraction or the matrix
    # products; the operator must agree entry-wise to a few ulps
    m, box, npts = 40, 6.0, 8
    h = box / m
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
    tab = _cell_log_table(m) + np.log(h)
    idx = np.arange(m)
    lam = tab[np.abs(np.subtract.outer(idx, idx))]
    A = _energy_operator(h, m)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A - (0.5 * smat - lam))) < 1e-14


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


def test_minimizer_pivot_cap_and_singular_system():
    with pytest.raises(StagnationError):
        equilibrium_minimize(lambda x: x, 6.0, 150, max_iter=1)
    # a zero operator makes the bordered KKT system singular
    with pytest.raises(StagnationError) as err:
        _kkt_active_set(np.zeros((3, 3)), np.zeros(3), np.full(3, 1 / 3), 10)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_minimizer_single_cell_converges():
    # a one-cell simplex is a single point: the solver must detect the
    # trivial constrained minimum instead of raising StagnationError
    sol = equilibrium_minimize(lambda x: x, 2.0, 1)
    assert abs(sol.mu.mass - 1.0) < 1e-15


def test_cell_width_needs_two_nodes():
    # one cell has no width to read off the nodes: a typed error, not an
    # IndexError from an empty diff
    V = lambda x: x
    with pytest.raises(ValueError, match="at least two nodes"):
        variational_residual(equilibrium_minimize(V, 6.0, 1), V)


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
