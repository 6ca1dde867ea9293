"""3x3 model frames built from the Meijer-G scalars.

Phi(z) carries rows (f, theta f, theta^2 f) of three scalar solutions of
the order-3 hypergeometric ODE; Psi(z) carries rows (theta^2 g, theta g, g)
of the adjoint solutions.  Both are piecewise analytic on the four open
quadrants, with explicit jump matrices across the rays
arg z in {0, pi/2, -pi/2, pi}.

Column layouts per quadrant (signs included), derived from the analytic
continuations of the scalars:

    Phi:  Q1 (0 < arg < pi/2):    (phi1,  phi2, phi3)
          Q2 (pi/2 < arg < pi):   (phi4,  phi2, phi3)
          Q4 (-pi/2 < arg < 0):   (phi2, -phi1, phi3)
          Q3 (-pi < arg < -pi/2): (phi4, -phi1, phi3)

    Psi:  Q1: (psi1,  psi2, psi3)     Q2: (psi1, psi4, psi3)
          Q4: (psi2, -psi1, psi3)     Q3: (psi2, psi4, psi3)

On a ray the caller must say which side is meant (``side='+'`` or
``'-'``); the + side of each ray is the one reached counterclockwise
(above R+, left of iR+, right of iR-, below R- at total angle -pi).
An argument within ``_RAY_EPS`` (1e-9) of a ray lies on it; the layouts
hold on -pi <= arg z <= pi only, so an argument with
|arg z| > pi + ``_RAY_EPS`` raises ``ValueError``.

Global identities wired through here:

* det Phi(z) = 8 pi^3 i z^{-2 beta},  beta = alpha + 1/4;
* Phi(z)^{-1} = -(1/4 pi^2) Psi(z)^T C  with the constant unipotent-ish
  matrix C below, equivalently Phi Psi^T is z-independent;
* the large-z expansion T Phi = (2 pi/sqrt 3) z^{-2 beta/3}(I + O(1/z)) L D
  and its adjoint counterpart, which :func:`expansion_residual` probes.

The hard-edge kernel's bilinear form (-1, 1, 0) Phi_+^{-1}(y) Phi_+(x)
(1, 1, 0)^T on R+ (the Q1 layout) reads one column of each frame:
Phi(x) (1, 1, 0)^T is the phi4 triple at x, and Psi(y)'s columns 2 minus 1
are the psi4 triple at y, which C turns into the row (-1, 1, 0) Phi^{-1}(y).
:func:`mbhalf.kernel.kernel_meijer` takes those two triples alone
(:func:`mbhalf.meijer.phi4_triple`, :func:`mbhalf.meijer.psi4_triple`)
and C (:func:`c_matrix`); the full matrices here are the frame API of the
identities above and of the tests that hold the kernel to them.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, mpc

from .mpcore import mat_mul, mat_transpose, norm_max, working
from .meijer import SectorPoint, phi_scalars, psi_scalars
from .specfun import _cancellation_digits

#: ray -> (angle in units of pi, quadrant on its + side, quadrant on its
#: - side); the order is the order of rhcheck's rows
_RAYS = {"pos": (0.0, 1, 4), "ipos": (0.5, 2, 1), "ineg": (-0.5, 4, 3),
         "neg": (1.0, 3, 2)}
RAYS = tuple(_RAYS)

_RAY_EPS = 1e-9

# quadrant -> list of (scalar index 1..4, sign) per column
_PHI_LAYOUT = {
    1: ((1, 1), (2, 1), (3, 1)),
    2: ((4, 1), (2, 1), (3, 1)),
    4: ((2, 1), (1, -1), (3, 1)),
    3: ((4, 1), (1, -1), (3, 1)),
}
_PSI_LAYOUT = {
    1: ((1, 1), (2, 1), (3, 1)),
    2: ((1, 1), (4, 1), (3, 1)),
    4: ((2, 1), (1, -1), (3, 1)),
    3: ((2, 1), (4, 1), (3, 1)),
}


def _ray_at(k):
    """The ray at angle k pi/2 (mod 2 pi)."""
    return next(ray for ray, (angle, _, _) in _RAYS.items()
                if (2 * angle - k) % 4 == 0)


def _classify(point, side):
    """Map a sector point to (quadrant, evaluation point).

    Arguments within _RAY_EPS of a ray need an explicit side; the
    negative axis accepts total angle +pi or -pi and re-centers it so the
    + side evaluates at -pi and the - side at +pi.  An open quadrant is
    the + side of the ray it starts from.
    """
    th = float(point.argument)
    if not abs(th) <= math.pi + _RAY_EPS:
        raise ValueError(
            f"frame matrices live on -pi <= arg z <= pi, got {th}")
    quarters = 2 * th / math.pi
    k = round(quarters)
    if abs(th - k * math.pi / 2) >= _RAY_EPS:
        return _RAYS[_ray_at(math.floor(quarters))][1], point
    ray = _ray_at(k)
    if side not in ("+", "-"):
        raise ValueError(
            f"argument {th} lies on ray {ray!r}: pass side='+' or side='-'")
    # negative axis: + side at total angle -pi, - side at +pi
    if ray == "neg" and (th > 0) == (side == "+"):
        point = point.rotated(-2 * mp.pi if side == "+" else 2 * mp.pi)
    return _RAYS[ray][1 if side == "+" else 2], point


def _assemble(scalars, frame, quadrant):
    """The ``frame`` ("phi" or "psi") matrix of a quadrant from its scalar
    triples: the quadrant's column layout, and rows (f, theta f,
    theta^2 f) for Phi, (theta^2 g, theta g, g) for Psi."""
    if frame == "phi":
        layout, row_order = _PHI_LAYOUT[quadrant], (0, 1, 2)
    else:
        layout, row_order = _PSI_LAYOUT[quadrant], (2, 1, 0)
    triples = {1: scalars.f1, 2: scalars.f2, 3: scalars.f3, 4: scalars.f4}
    cols = [tuple(sign * x for x in triples[idx]) for idx, sign in layout]
    return [[cols[j][i] for j in range(3)] for i in row_order]


def phi_matrix(alpha, point, dps=None, side=None):
    """Phi_alpha at a sector point; rows (f, theta f, theta^2 f)."""
    with working(dps) as d:
        quadrant, ev = _classify(point, side)
        return _assemble(phi_scalars(alpha, ev, dps=d), "phi", quadrant)


def psi_matrix(alpha, point, dps=None, side=None):
    """Psi_alpha at a sector point; rows (theta^2 g, theta g, g)."""
    with working(dps) as d:
        quadrant, ev = _classify(point, side)
        return _assemble(psi_scalars(alpha, ev, dps=d), "psi", quadrant)


# ----------------------------------------------------------------------
# jump matrices
# ----------------------------------------------------------------------

def phi_jump(ray, alpha, dps=None):
    with working(dps):
        one, zero = mpc(1), mpc(0)
        if ray == "pos":
            return [[zero, one, zero], [-one, zero, zero], [zero, zero, one]]
        if ray in ("ipos", "ineg"):
            return [[one, zero, zero], [one, one, zero], [zero, zero, one]]
        if ray == "neg":
            c = mpc(0, 1) * mp.exp(mpc(0, 2) * mp.pi * mpf(alpha))
            return [[one, zero, zero], [zero, zero, c], [zero, -c, zero]]
    raise ValueError(f"unknown ray {ray!r}")


def psi_jump(ray, alpha, dps=None):
    with working(dps):
        one, zero = mpc(1), mpc(0)
        if ray == "pos":
            return [[zero, one, zero], [-one, zero, zero], [zero, zero, one]]
        if ray in ("ipos", "ineg"):
            return [[one, -one, zero], [zero, one, zero], [zero, zero, one]]
        if ray == "neg":
            c = mpc(0, 1) * mp.exp(mpc(0, -2) * mp.pi * mpf(alpha))
            return [[one, zero, zero], [zero, zero, -c], [zero, c, zero]]
    raise ValueError(f"unknown ray {ray!r}")


def jump_residual(alpha, ray, modulus, dps=None, frame="phi"):
    """Relative residual of F_+ = F_- J on the given ray at |z| = modulus.

    Off the negative axis both sides evaluate the scalars at the same
    point and differ only in their quadrant's column layout, so the
    scalars are computed once there."""
    scalars = phi_scalars if frame == "phi" else psi_scalars
    jump = phi_jump if frame == "phi" else psi_jump
    with working(dps) as d:
        th = mpf(_RAYS[ray][0]) * mp.pi
        pt = SectorPoint(mpf(modulus), th)
        (qp, ev_p), (qm, ev_m) = (_classify(pt, side) for side in "+-")
        sc_p = scalars(alpha, ev_p, dps=d)
        sc_m = sc_p if ev_m == ev_p else scalars(alpha, ev_m, dps=d)
        fp = _assemble(sc_p, frame, qp)
        fm = _assemble(sc_m, frame, qm)
        J = jump(ray, alpha, dps=d)
        resid = norm_max([[fp[i][j] - x for j, x in enumerate(row)]
                          for i, row in enumerate(mat_mul(fm, J))])
        return resid / (norm_max(fp) or mpf(1))


# ----------------------------------------------------------------------
# determinant and inverse identities
# ----------------------------------------------------------------------

def det_phi_predicted(alpha, point, dps=None):
    """Exact determinant 8 pi^3 i z^{-2 beta} on the principal domain.

    The constant is forced by the large-z factorization: the scalar
    prefactor contributes (2 pi/sqrt3)^3, the spectral frame contributes
    det V = -3 sqrt3 i, the left normalizer det T = -1, and the
    exponential diagonal is unimodular with product 1; Liouville then
    makes the identity exact.  (The z^{2 beta}-compensated determinant is
    continuous across all four rays: the only jump with non-unit
    determinant, -e^{4 pi i alpha} on the negative axis, matches the
    branch jump of z^{-2 beta} there.)
    """
    with working(dps) as d:
        beta = mpf(alpha) + mpf("0.25")
        return 8 * mp.pi ** 3 * mpc(0, 1) * point.power(-2 * beta, dps=d)


def c_matrix(alpha, dps=None):
    with working(dps):
        a = mpf(alpha)
        return [[mpf(1), mpf(0), mpf(0)],
                [-2 * a - mpf("0.5"), mpf(-1), mpf(0)],
                [a * (a + mpf("0.5")), 2 * a + mpf("0.5"), mpf(1)]]


def phi_inverse(alpha, point, dps=None, side=None):
    """Phi^{-1} from the adjoint frame: -(1/4 pi^2) Psi^T C."""
    with working(dps) as d:
        psi = psi_matrix(alpha, point, dps=d, side=side)
        prod = mat_mul(mat_transpose(psi), c_matrix(alpha, dps=d))
        s = -1 / (4 * mp.pi ** 2)
        return [[s * x for x in row] for row in prod]


def phi_psi_product(alpha, point, dps=None):
    """Phi Psi^T; z-independent, equal to -4 pi^2 C^{-1}."""
    with working(dps) as d:
        phi = phi_matrix(alpha, point, dps=d)
        psi = psi_matrix(alpha, point, dps=d)
        return mat_mul(phi, mat_transpose(psi))


# ----------------------------------------------------------------------
# large-z data: T factors, spectral L frames, exponential diagonals
# ----------------------------------------------------------------------

def _gamma_exponents(alpha):
    """(g, m1, m2) of Phi's expansion and (gt, mt1, mt2) of Psi's; the two
    m1 are one polynomial."""
    a = mpf(alpha)
    g = 2 * a / 3 + mpf(1) / 2
    m1 = a ** 2 / 3 + a / 6 - mpf(1) / 36
    m2 = (a ** 4 / 18 + a ** 3 / 54 - 17 * a ** 2 / 216 - a / 54
          + mpf(25) / 2592)
    gt = -2 * a / 3 + mpf(1) / 6
    mt2 = (a ** 4 / 18 + 5 * a ** 3 / 54 - 5 * a ** 2 / 216 - 5 * a / 108
           + mpf(1) / 2592)
    return g, m1, m2, gt, m1, mt2


def _t_entries(g, m1, m2):
    """The off-diagonal entries of T (the first negated) or of Tt, from
    the exponents of their frame."""
    return (g + m1, g * (g - mpf(1) / 3) + m1 * (m1 + g - mpf(2) / 3) - m2,
            2 * g - mpf(1) / 3 + m1)


def t_matrix(alpha, dps=None):
    """Constant left factor normalizing Phi at infinity."""
    with working(dps):
        t1, t2, t3 = _t_entries(*_gamma_exponents(alpha)[:3])
        return [[mpf(1), mpf(0), mpf(0)],
                [-t1, mpf(-1), mpf(0)],
                [t2, t3, mpf(1)]]


def t_tilde_matrix(alpha, dps=None):
    """Constant left factor normalizing Psi at infinity."""
    with working(dps):
        tt1, tt2, tt3 = _t_entries(*_gamma_exponents(alpha)[3:])
        return [[mpf(1), tt3, tt2],
                [mpf(0), mpf(1), tt1],
                [mpf(0), mpf(0), mpf(1)]]


def l_matrix(alpha, point, dps=None, frame="phi"):
    """Spectral frame L (or the adjoint Lt) at a sector point off R-.

    Phi's frame above the axis is diag(z^(-1/3), 1, z^(1/3)) V P with
    V = [[w^2, w, 1], [1, 1, 1], [w, w^2, 1]], w = e^(2 pi i/3), and
    P = diag(e^(2 pi i beta/3), e^(-2 pi i beta/3), 1).  Psi's frame, and
    either frame below the axis, swap w with w^2 and P's phase with its
    reciprocal (so Psi's below swaps twice); below the axis V's column 2
    is negated, and Psi's diagonal powers are Phi's reciprocals.
    """
    with working(dps) as d:
        beta = mpf(alpha) + mpf("0.25")
        w = mp.exp(mpc(0, 2) * mp.pi / 3)
        upper = float(point.argument) >= 0
        zr3 = point.power(mpf(1) / 3, dps=d)
        ph = mp.exp(mpc(0, 2) * mp.pi * beta / 3)
        a, b, P = w * w, w, (ph, 1 / ph, mpc(1))
        if (frame == "psi") == upper:
            a, b, P = b, a, (P[1], P[0], P[2])
        sgn = 1 if upper else -1
        V = [[a, sgn * b, 1], [1, sgn, 1], [b, sgn * a, 1]]
        dg = (1 / zr3, mpc(1), zr3)
        if frame == "psi":
            dg = dg[::-1]
        return [[dg[i] * V[i][j] * P[j] for j in range(3)] for i in range(3)]


def exp_diag(point, dps=None, frame="phi"):
    """Diagonal exponential factor of the large-z model."""
    with working(dps) as d:
        w = mp.exp(mpc(0, 2) * mp.pi / 3)
        w2 = w * w
        zr3 = point.power(mpf(1) / 3, dps=d)
        upper = float(point.argument) >= 0
        trio = (w, w2, mpc(1)) if upper else (w2, w, mpc(1))
        sgn = -3 if frame == "phi" else 3
        return [mp.exp(sgn * t * zr3) for t in trio]


def expansion_residual(alpha, x, dps=None, frame="phi"):
    """sup-norm distance of the normalized frame from I at real x > 0.

    For frame='phi' this is
        || T Phi(x) D^{-1} L^{-1} (sqrt3 / 2 pi) x^{2 beta/3} - I ||,
    evaluated on the + side of the positive axis; expected O(1/x).
    The adjoint frame uses Tt Psi, scale -(sqrt3/2 pi) x^{-2 beta/3}.

    The columns of Phi grow and decay like the exponentials of D, so the
    normalization cancels the digits an entire series of |z| = x loses
    (specfun's :func:`_cancellation_digits`): it is raised by that loss and
    asks T, L, D and the scale for d + that loss digits.
    """
    lost = _cancellation_digits(x, 1.0 / 3.0)
    with working(dps, lost) as d:
        dc = d + lost
        pt = SectorPoint(mpf(x), mpf(0))
        beta = mpf(alpha) + mpf("0.25")
        if frame == "phi":
            M = phi_matrix(alpha, pt, dps=d, side="+")
            T = t_matrix(alpha, dps=dc)
            scale = (2 * mp.pi / mp.sqrt(3)) * pt.power(-2 * beta / 3, dps=dc)
        else:
            M = psi_matrix(alpha, pt, dps=d, side="+")
            T = t_tilde_matrix(alpha, dps=dc)
            scale = -(2 * mp.pi / mp.sqrt(3)) * pt.power(2 * beta / 3, dps=dc)
        L = l_matrix(alpha, pt, dps=dc, frame=frame)
        D = exp_diag(pt, dps=dc, frame=frame)
        tm = mat_mul(T, M)
        tm = [[tm[i][j] / D[j] for j in range(3)] for i in range(3)]
        R = mat_mul(tm, mp.inverse(L).tolist())
        R = [[R[i][j] / scale - (1 if i == j else 0) for j in range(3)]
             for i in range(3)]
        return norm_max(R)
