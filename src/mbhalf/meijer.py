"""Meijer G-functions of type G^{m,0}_{0,3} on arbitrary sheets.

The convention here is

    G^{m,0}_{0,3}(z | b1,b2,b3)
        = (1/2 pi i) oint_L  prod_{j<=m} Gamma(b_j + s)
                             prod_{j>m} 1/Gamma(1 - b_j - s)  z^{-s} ds,

with L a counterclockwise loop around the leftward ray containing the
poles s = -b_j - k (j <= m) of the numerator.  ``z`` is given as a
:class:`SectorPoint` (modulus, unrestricted argument), so the same code
evaluates every analytic continuation: z^{-s} = exp(-s (log r + i theta))
with the *total* angle.

Two independent evaluation routes:

* :func:`mb_loop` -- direct quadrature of the loop (two horizontal legs at
  Im s = +-1 plus a short vertical segment), valid for every parameter
  choice including resonant ones; Gamma decay beats z^{-s} on the legs.
* :func:`g303_series` -- residue series: three Frobenius families

      G = sum_k z^{b_k} prod_{j!=k} Gamma(b_j - b_k)
                 0F2(-; 1 + b_k - b_{j1}, 1 + b_k - b_{j2}; -z),

  the fast path, requiring pairwise non-integer parameter differences.

theta-derivative triples (f, theta f, theta^2 f) come for free on both
routes: term weights (b_k + n)^m in the series, moments (-s)^m under the
integral.

The scalar assemblies phi_scalars / psi_scalars build the model-problem
entries: with B = (0, -a, -a-1/2) and G = G^{3,0}_{0,3}(. | B),

    phi3(z) = G(z),   phi1(z) = i e^{2 pi i a} G(z e^{2 pi i}),
    phi2(z) = -i e^{-2 pi i a} G(z e^{-2 pi i}),   phi4 = phi1 + phi2,

and with Bt = (0, a, a+1/2), Gt = G^{3,0}_{0,3}(. | Bt),

    psi1(z) = Gt(z e^{-pi i}),  psi2(z) = Gt(z e^{pi i}),
    psi3(z) = i e^{2 pi i a} (Gt(z e^{-3 pi i}) - Gt(z e^{-pi i})),
    psi4 = psi2 - psi1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .mpcore import (_resolve_dps, gamma, rgamma, legendre_nodes,
                     QuadratureConvergenceError)
from .specfun import hyper0f2_theta, ResonantParameterError

#: legs of the loop contour run at Im s = +- LOOP_ETA
LOOP_ETA = 1
#: panel width; the product recurrence in _LoopProducts assumes 2
_PANEL_WIDTH = 2
_MAX_PANELS = 160
_GL_ORDER = 64


@dataclass(frozen=True)
class SectorPoint:
    """A point z = modulus * exp(i * argument) with unrestricted argument.

    The argument is *not* reduced mod 2 pi: (r, 0) and (r, 2 pi) are the
    same complex number on different sheets of z^c.
    """
    modulus: object
    argument: object

    @classmethod
    def from_complex(cls, z, sheet=0, dps=None):
        d = _resolve_dps(dps)
        with mp.workdps(d + 10):
            zz = mpc(z)
            return cls(abs(zz), mp.arg(zz) + 2 * mp.pi * sheet)

    def rotated(self, dtheta):
        return SectorPoint(self.modulus, mpf(self.argument) + dtheta)

    def clog(self, dps=None):
        """log z = log r + i theta with the total angle."""
        d = _resolve_dps(dps)
        with mp.workdps(d + 5):
            return mpc(mp.log(mpf(self.modulus)), mpf(self.argument))

    def power(self, c, dps=None):
        d = _resolve_dps(dps)
        with mp.workdps(d + 5):
            return mp.exp(mpc(c) * self.clog(dps=d))

    def to_mpc(self, dps=None):
        d = _resolve_dps(dps)
        with mp.workdps(d + 5):
            r, t = mpf(self.modulus), mpf(self.argument)
            return r * mpc(mp.cos(t), mp.sin(t))


def _pairwise_resonant(b):
    bs = [float(x) for x in b]
    for i in range(3):
        for j in range(i + 1, 3):
            diff = bs[i] - bs[j]
            if abs(diff - round(diff)) < 1e-6:
                return True
    return False


# ----------------------------------------------------------------------
# residue series route
# ----------------------------------------------------------------------

def g303_series(b, point, dps=None, with_theta=False):
    """G^{3,0}_{0,3}(z|b) by the three-family residue series.

    Requires pairwise differences of the parameters to stay a safe
    distance (1e-6) from the integers; otherwise two families collide
    (log case) and :class:`ResonantParameterError` is raised -- callers
    should fall back to :func:`mb_loop`.
    """
    if _pairwise_resonant(b):
        raise ResonantParameterError(
            f"parameter differences of {tuple(float(x) for x in b)} are "
            "within 1e-6 of integers; series families collide")
    d = _resolve_dps(dps)
    r = float(point.modulus)
    wp = d + int(2.4 * max(r, 1.0) ** (1.0 / 3.0)) + 15
    with mp.workdps(wp):
        bb = [mpf(x) for x in b]
        zc = point.to_mpc(dps=wp)
        acc = [mpc(0), mpc(0), mpc(0)]
        for k in range(3):
            others = [bb[j] for j in range(3) if j != k]
            coef = gamma(others[0] - bb[k], dps=wp) * gamma(others[1] - bb[k], dps=wp)
            pref = point.power(bb[k], dps=wp)
            inner = hyper0f2_theta(1 + bb[k] - others[0], 1 + bb[k] - others[1],
                                   -zc, c=bb[k], dps=wp)
            for m in range(3):
                acc[m] += coef * pref * inner[m]
        acc = [+a for a in acc]
    if with_theta:
        return tuple(acc)
    return acc[0]


# ----------------------------------------------------------------------
# Mellin-Barnes loop route
# ----------------------------------------------------------------------

#: loop product tables kept per exact (b, m, dps); least recently used
#: tables are dropped beyond this many
_LOOP_CACHE_SIZE = 16
_loop_cache = OrderedDict()


def _integrand_products(nodes, weights, b, m, dps):
    """w * P(s) at each node, P(s) = prod_{j<m} Gamma(b_j+s)
    prod_{j>=m} 1/Gamma(1-b_j-s), by direct gamma calls."""
    out = []
    for s, w in zip(nodes, weights):
        for j in range(3):
            if j < m:
                w *= gamma(b[j] + s, dps=dps)
            else:
                w *= rgamma(1 - b[j] - s, dps=dps)
        out.append(w)
    return out


def _moment_weights(nodes, g):
    """(g, -s g, s^2 g): dotted with z^(-s) they give the theta^0..2 moments."""
    gs = [-s * x for s, x in zip(nodes, g)]
    return g, gs, [-s * x for s, x in zip(nodes, gs)]


class _LoopProducts:
    """Moment weights of the loop integrand for one (b, m, dps).

    Holds the weighted products w * P(s) at the nodes as the three lists of
    :func:`_moment_weights`.  The vertical segment Re s = c,
    Im s in [-eta, eta] (weights include the i from ds) and panel 0, the
    horizontal legs over t in [c - 2, c] (bottom leg weight +w, top leg -w,
    i.e. counterclockwise), come from direct gamma calls.  Panel p covers
    t in [c - 2(p+1), c - 2p]; its node k is node k of panel p-1 shifted by
    -2 and, the half-width being 1 on every panel, carries the same weight.
    With s' = s - 2 both Gamma(b+s') = Gamma(b+s) / ((b+s')(b+s'+1))
    and 1/Gamma(1-b-s') = (1/Gamma(1-b-s)) / ((b+s')(b+s'+1)), so each
    later panel follows from the one before by one division per node.
    Panels are added on demand.
    """

    def __init__(self, b, m, c, dps):
        self.b = b
        self.dps = dps
        xs, ws = legendre_nodes(_GL_ORDER, dps=dps)
        with mp.workdps(dps + 10):
            eta = mpf(LOOP_ETA)
            self.vertical_s = [mpc(c, eta * x) for x in xs]
            vw = [mpc(0, 1) * eta * w for w in ws]
            self.vertical = _moment_weights(
                self.vertical_s,
                _integrand_products(self.vertical_s, vw, b, m, dps))
            self.panel0_s = []
            pw = []
            for x, w in zip(xs, ws):
                t = c - 1 + x                                  # half-width 1
                self.panel0_s += [mpc(t, -eta), mpc(t, eta)]   # bottom ->, top <-
                pw += [w, -w]
            self._s = self.panel0_s
            self._g = _integrand_products(self._s, pw, b, m, dps)
            self.panels = [_moment_weights(self._s, self._g)]

    def panel(self, pidx):
        with mp.workdps(self.dps + 10):
            while len(self.panels) <= pidx:
                s_next, g_next = [], []
                for s, g in zip(self._s, self._g):
                    s = s - _PANEL_WIDTH
                    div = 1
                    for bj in self.b:
                        bs = bj + s
                        div *= bs * (bs + 1)
                    s_next.append(s)
                    g_next.append(g / div)
                self._s, self._g = s_next, g_next
                self.panels.append(_moment_weights(s_next, g_next))
        return self.panels[pidx]


def _loop_products(b, m, c, dps):
    """The cached :class:`_LoopProducts`, keyed by the exact b, m and dps."""
    key = (tuple(b), m, dps)
    got = _loop_cache.get(key)
    if got is None:
        got = _LoopProducts(b, m, c, dps)
        _loop_cache[key] = got
        if len(_loop_cache) > _LOOP_CACHE_SIZE:
            _loop_cache.popitem(last=False)
    else:
        _loop_cache.move_to_end(key)
    return got


def mb_loop(b, point, m=3, dps=None, with_theta=False):
    """G^{m,0}_{0,3}(z|b) by loop-contour quadrature.

    Works on every sheet and for resonant parameters.  The loop consists
    of horizontal legs at Im s = +-1 from Re s = c down to Re s = -X and
    the closing vertical segment at Re s = c, with
    c = max_j(-Re b_j over numerator factors) + 1 so all integrand poles
    sit inside with margin 1.  X grows panel by panel (width 2,
    Gauss-Legendre 64 per leg piece) until two consecutive panels
    contribute below tolerance; the omitted closing piece at Re s = -X is
    then negligible because 1/Gamma(X)^m crushes |z|^X superexponentially.

    Gamma is called only on the vertical segment and the first panel.
    Every panel has the same half-width (1), so a node of panel p is the
    matching node of panel p-1 shifted by -2 with the same weight; the
    weighted gamma products follow by a two-step recurrence (see
    :class:`_LoopProducts`, cached per exact (b, m, dps)) and z^(-s) by one
    multiplication with z^2 = exp(2 zeta) per panel.
    """
    d = _resolve_dps(dps)
    wp = d + 15
    with mp.workdps(wp + 10):
        bb = [mpf(x) for x in b]
        c = max(-bb[j] for j in range(m)) + 1
        zeta = point.clog(dps=wp)
        tol = mpf(10) ** (-(d + 5))
        prods = _loop_products(bb, m, c, wp)

        zv = [mp.exp(-s * zeta) for s in prods.vertical_s]
        acc = [mp.fdot(g, zv) for g in prods.vertical]
        # panels must at least clear the pole region before tail checks count
        p_min = int(max(4.0, (max(float(-x) for x in bb) + 6.0) / _PANEL_WIDTH))
        # z^(-s) on panel p is z^(-s) on panel 0 times (z^2)^p
        z0 = [mp.exp(-s * zeta) for s in prods.panel0_s]
        z2 = mp.exp(_PANEL_WIDTH * zeta)
        zp = mpc(1)
        quiet = 0
        for pidx in range(_MAX_PANELS):
            if pidx:
                zp *= z2
            t0, t1, t2 = (zp * mp.fdot(g, z0) for g in prods.panel(pidx))
            acc[0] += t0
            acc[1] += t1
            acc[2] += t2
            scale = max(abs(acc[0]), abs(acc[1]), abs(acc[2]))
            psize = max(abs(t0), abs(t1), abs(t2))
            if pidx >= p_min and psize <= tol * (scale or mpf(1)):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
        else:
            raise QuadratureConvergenceError(
                "loop contour tail did not decay within the panel budget",
                estimates=(acc[0], acc[0]))
        front = 1 / (2 * mp.pi * mpc(0, 1))
        out = tuple(+(front * a) for a in acc)
    if with_theta:
        return out
    return out[0]


# ----------------------------------------------------------------------
# scalar assemblies for the model problem
# ----------------------------------------------------------------------

@dataclass
class ScalarTriples:
    """Holder for (f, theta f, theta^2 f) triples of the four scalars."""
    f1: tuple
    f2: tuple
    f3: tuple
    f4: tuple
    route: str


def _g3_triple(b, point, dps, route):
    if route == "series":
        return g303_series(b, point, dps=dps, with_theta=True)
    if route == "loop":
        return mb_loop(b, point, m=3, dps=dps, with_theta=True)
    raise ValueError(f"unknown route {route!r}")


def _pick_route(b, route):
    if route == "auto":
        return "loop" if _pairwise_resonant(b) else "series"
    return route


def _txc(triple, const):
    return tuple(const * x for x in triple)


def _tadd(t1, t2):
    return tuple(x + y for x, y in zip(t1, t2))


def phi_scalars(alpha, point, dps=None, route="auto"):
    """Triples for phi1..phi4 at a sector point (any argument).

    phi4 is assembled as phi1 + phi2; downstream the identity
    phi4 = -4 pi^2 phi0 / (Gamma(1+a) Gamma(3/2+a)) ties it to the 0F2
    route.
    """
    d = _resolve_dps(dps)
    a = mpf(alpha)
    b = (mpf(0), -a, -a - mpf("0.5"))
    r = _pick_route(b, route)
    with mp.workdps(d + 15):
        twopi = 2 * mp.pi
        e_plus = mp.exp(mpc(0, 1) * twopi * a)   # e^{2 pi i a}
        g0 = _g3_triple(b, point, d, r)
        gp = _g3_triple(b, point.rotated(+twopi), d, r)
        gm = _g3_triple(b, point.rotated(-twopi), d, r)
        phi1 = _txc(gp, mpc(0, 1) * e_plus)
        phi2 = _txc(gm, mpc(0, -1) / e_plus)
        phi3 = tuple(+x for x in g0)
        phi4 = _tadd(phi1, phi2)
        return ScalarTriples(phi1, phi2, phi3, phi4, r)


def psi_scalars(alpha, point, dps=None, route="auto"):
    """Triples for psi1..psi4 at a sector point."""
    d = _resolve_dps(dps)
    a = mpf(alpha)
    b = (mpf(0), a, a + mpf("0.5"))
    r = _pick_route(b, route)
    with mp.workdps(d + 15):
        pi_ = mp.pi
        e_plus = mp.exp(mpc(0, 1) * 2 * pi_ * a)
        g_m1 = _g3_triple(b, point.rotated(-pi_), d, r)
        g_p1 = _g3_triple(b, point.rotated(+pi_), d, r)
        g_m3 = _g3_triple(b, point.rotated(-3 * pi_), d, r)
        psi1 = tuple(+x for x in g_m1)
        psi2 = tuple(+x for x in g_p1)
        psi3 = _txc(_tadd(g_m3, _txc(g_m1, mpc(-1))), mpc(0, 1) * e_plus)
        psi4 = _tadd(psi2, _txc(psi1, mpc(-1)))
        return ScalarTriples(psi1, psi2, psi3, psi4, r)


def psi3_alternate(alpha, point, dps=None, route="auto"):
    """psi3 via the other analytic-continuation identity (consistency check):
    psi3 = i e^{-2 pi i a} (G(z e^{pi i}) - G(z e^{3 pi i})).
    """
    d = _resolve_dps(dps)
    a = mpf(alpha)
    b = (mpf(0), a, a + mpf("0.5"))
    r = _pick_route(b, route)
    with mp.workdps(d + 15):
        pi_ = mp.pi
        e_minus = mp.exp(mpc(0, -1) * 2 * pi_ * a)
        g_p1 = _g3_triple(b, point.rotated(+pi_), d, r)
        g_p3 = _g3_triple(b, point.rotated(+3 * pi_), d, r)
        return _txc(_tadd(g_p1, _txc(g_p3, mpc(-1))), mpc(0, 1) * e_minus)


def psi_frobenius_constants(alpha, dps=None):
    """Recover (c1, c2, c3) with

        psi1(z) = c1 g1(z) + c2 e^{-pi i a} g2(z) - c3 i e^{-pi i a} g3(z),

    g_j the adjoint Frobenius basis, by a 3x3 solve at three sample points.
    The constants are real for real alpha; the imaginary residue is
    returned for inspection.
    """
    from .mpcore import solve3
    from .specfun import frobenius_adjoint

    d = _resolve_dps(dps)
    a = mpf(alpha)
    with mp.workdps(d + 10):
        epia = mp.exp(mpc(0, -1) * mp.pi * a)
        rows = []
        rhs = []
        for zv in (mpf("0.3"), mpf("0.7"), mpf("1.1")):
            g1, g2, g3 = frobenius_adjoint(alpha, zv, dps=d)
            rows.append([g1, epia * g2, -mpc(0, 1) * epia * g3])
            pt = SectorPoint(zv, mpf(0))
            rhs.append(g303_series((mpf(0), a, a + mpf("0.5")),
                                   pt.rotated(-mp.pi), dps=d))
        c = solve3(rows, rhs)
        imag_resid = max(abs(x.imag) for x in c)
        return tuple(x.real for x in c), imag_resid
