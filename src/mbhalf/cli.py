"""Command-line front end: every computation as a scriptable subcommand.

Subcommands emit CSV (default) or JSON artifacts.  All numbers are printed
through a fixed 17-significant-digit rule, so identical flags and precision
give byte-identical output.  Exit codes: 0 success, 2 usage error, 3
numerical failure.
"""

import argparse
import json
import math
import os
import sys

from mpmath import mp, mpf

from . import __version__
from . import equilibrium as eq
from . import rhframe
from .finiten import DomainExtensionError, hard_edge_convergence
from .kernel import (_meijer_or_diag, _near_diagonal, kernel_integral,
                     kernel_meijer)
from .meijer import (ResonantParameterError, SectorPoint, g303_series,
                     mb_loop, pick_route)
from .mpcore import (
    GammaPoleError,
    QuadratureConvergenceError,
    SingularMatrixError,
    det3,
    mat_mul,
    mat_transpose,
    norm_max,
    working,
)
from .specfun import SeriesConvergenceError

DEFAULT_PRECISION = 50
MIN_PRECISION = 30
#: largest kernel size ``converge`` accepts; its closed-form sums cost O(n^2)
MAX_CONVERGE_N = 256

class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


class CheckFailure(RuntimeError):
    """An invariant-suite residual exceeded its tolerance; exit code 3."""


_NUMERICAL_ERRORS = (
    QuadratureConvergenceError,
    SingularMatrixError,
    GammaPoleError,
    ResonantParameterError,
    SeriesConvergenceError,
    DomainExtensionError,
    eq.BranchSelectionError,
    eq.DomainError,
    eq.StagnationError,
    ZeroDivisionError,
    CheckFailure,
)


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return mp.nstr(v, 17)


def _parse_real(text, what):
    """``text`` as a finite mpf, or a usage error naming ``what``."""
    try:
        value = mpf(text)
    except ValueError:
        raise UsageError("%s %r is not a real number" % (what, text))
    if not mp.isfinite(value):
        raise UsageError("%s %r is not a finite number" % (what, text))
    return value


def parse_grid(text):
    """a:b:k (k >= 2 points, endpoints inclusive) or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [_parse_real(parts[0], "grid value")]
    if len(parts) != 3:
        raise UsageError("grid must be a single value or a:b:k, got %r" % text)
    a, b = (_parse_real(part, "grid endpoint") for part in parts[:2])
    try:
        k = int(parts[2])
    except ValueError:
        raise UsageError("grid count %r is not an integer" % parts[2])
    if k < 2:
        raise UsageError("grid a:b:k needs k >= 2 (use a single value for one point)")
    step = (b - a) / (k - 1)
    return [a + step * i for i in range(k)]


def _parse_alpha(text):
    a = _parse_real(text, "--alpha")
    if not a > -1:
        raise UsageError("--alpha must exceed -1 (weight integrability)")
    return a


def _resolve_precision(args):
    if args.precision is not None:
        p = args.precision
    else:
        raw = os.environ.get("MB_PRECISION")
        if raw is None:
            p = DEFAULT_PRECISION
        else:
            try:
                p = int(raw)
            except ValueError:
                raise UsageError("MB_PRECISION=%r is not an integer" % raw)
    if p < MIN_PRECISION:
        raise UsageError("precision must be at least %d digits" % MIN_PRECISION)
    return p


# ----------------------------------------------------------------------
# subcommand handlers: each returns (header, rows, extra_meta)
# ----------------------------------------------------------------------

def cmd_kernel(args, precision):
    alpha = _parse_alpha(args.alpha)
    xs = parse_grid(args.x_grid)
    ys = parse_grid(args.y_grid)
    if any(v <= 0 for v in xs + ys):
        raise UsageError("kernel arguments must be positive")

    rows = []
    for x in xs:
        for y in ys:
            if args.route == "integral":
                rows.append([x, y, kernel_integral(alpha, x, y, dps=precision)])
            elif args.route == "meijer":
                rows.append([x, y, _meijer_or_diag(alpha, x, y, precision)])
            elif _near_diagonal(x, y):
                # the diagonal limit reuses the integral route, so there is
                # no independent value to difference against
                vi = kernel_integral(alpha, x, y, dps=precision)
                rows.append([x, y, vi, vi, ""])
            else:
                vi = kernel_integral(alpha, x, y, dps=precision)
                vm = kernel_meijer(alpha, x, y, dps=precision)
                rel = abs(vm - vi) / abs(vi)
                rows.append([x, y, vi, vm, rel])
    header = (["x", "y", "integral", "meijer", "rel_diff"]
              if args.route == "both" else ["x", "y", "value"])
    return header, rows, {}


def cmd_density(args, precision):
    q = mpf(27) / 8
    n = args.grid
    if n < 1:
        raise UsageError("--grid must be a positive point count")
    rows = []
    for i in range(1, n + 1):
        s = q * i / (n + 1)
        row = [s]
        if args.route in ("explicit", "both"):
            row.append(eq.density_vx_explicit(s, dps=precision))
        if args.route in ("cardano", "both"):
            row.append(eq.density_vx_cardano(s, dps=precision))
        if args.route == "both":
            row.append(abs(row[1] - row[2]))
        rows.append(row)
    header = {"explicit": ["s", "rho"], "cardano": ["s", "rho"],
              "both": ["s", "rho_explicit", "rho_cardano", "abs_diff"]}[args.route]
    return header, rows, {}


def _parse_poly(text):
    try:
        coeffs = [float(c) for c in text.split(",")]
    except ValueError:
        raise UsageError("--v expects comma-separated coefficients, got %r" % text)
    if not all(map(math.isfinite, coeffs)):
        raise UsageError("--v coefficients must be finite, got %r" % text)
    if not coeffs or all(c == 0 for c in coeffs[1:]):
        raise UsageError("external field must grow; give a nonconstant polynomial")

    def V(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return V


def cmd_eqsolve(args, precision):
    V = _parse_poly(args.v)
    if not 0 < args.box < math.inf or args.m < 10:
        raise UsageError("--box must be positive and finite and --m at least 10")
    sol = eq.equilibrium_minimize(V, args.box, args.m, max_iter=args.max_iter)
    rows = [[float(x), float(w)] for x, w in zip(sol.mu.nodes, sol.mu.weights)]
    extra = {"q": repr(sol.q), "ell": repr(sol.ell), "c0": repr(sol.c0),
             "c1": repr(sol.c1), "cV": repr(sol.cV), "mass": repr(sol.mu.mass)}
    print("q=%r ell=%r c0=%r c1=%r cV=%r" %
          (sol.q, sol.ell, sol.c0, sol.c1, sol.cV), file=sys.stderr)
    return ["node", "weight"], rows, extra


def cmd_converge(args, precision):
    alpha = _parse_alpha(args.alpha)
    try:
        ns = [int(s) for s in args.ns.split(",")]
    except ValueError:
        raise UsageError("--ns expects comma-separated integers, got %r" % args.ns)
    if ns != sorted(ns) or len(set(ns)) != len(ns) or ns[0] < 1:
        raise UsageError("--ns must be strictly ascending positive integers")
    if ns[-1] > MAX_CONVERGE_N:
        raise UsageError("--ns supports kernel sizes up to %d, got %d"
                         % (MAX_CONVERGE_N, ns[-1]))
    x, y = _parse_real(args.x, "--x"), _parse_real(args.y, "--y")
    if x <= 0 or y <= 0:
        raise UsageError("--x and --y must be positive")
    table = hard_edge_convergence(alpha, x, y, ns, ref_dps=precision)
    return ["n", "rel_err"], [[n, e] for n, e in table], {}


def cmd_meijer(args, precision):
    b = [_parse_real(s, "--b value") for s in args.b.split(",")]
    if len(b) != 3:
        raise UsageError("--b needs exactly three parameters")
    zs = parse_grid(args.z_grid)
    if any(z <= 0 for z in zs):
        raise UsageError("--z-grid moduli must be positive; use --sheet to rotate")
    route = args.route
    if route == "series" and args.m != 3:
        raise UsageError("the residue-series route only evaluates the m=3 function")
    if route == "auto":
        route = pick_route(b, args.m)
    rows = []
    for z in zs:
        pt = SectorPoint.from_complex(z, sheet=args.sheet, dps=precision)
        if route == "series":
            val = g303_series(b, pt, dps=precision)
        else:
            val = mb_loop(b, pt, m=args.m, dps=precision)
        im = mp.im(val)
        # an imaginary part below the requested digits is roundoff (of a
        # real G); its digits would change with any change of the route
        if abs(im) <= mpf(10) ** (-precision) * abs(val):
            im = mpf(0)
        rows.append([z, args.sheet, mp.re(val), im])
    return ["z", "sheet", "re", "im"], rows, {"route": route}


def cmd_rhcheck(args, precision):
    alpha = _parse_alpha(args.alpha)
    for flag in ("tol_det", "tol_jump", "tol_inverse", "tol_frame"):
        _parse_real(getattr(args, flag), "--" + flag.replace("_", "-"))
    rows = []

    for name, ang in (("Q1", "0.25"), ("Q2", "0.75"), ("Q3", "-0.75"),
                      ("Q4", "-0.25")):
        with working(precision):
            pt = SectorPoint(mpf("1.3"), mpf(ang) * mp.pi)
            m = rhframe.phi_matrix(alpha, pt, dps=precision)
            pred = rhframe.det_phi_predicted(alpha, pt, dps=precision)
            resid = abs(det3(m) - pred) / abs(pred)
        rows.append(["det", name, +resid, args.tol_det])

    for frame in ("phi", "psi"):
        for ray in rhframe.RAYS:
            resid = rhframe.jump_residual(alpha, ray, 1, dps=precision,
                                          frame=frame)
            rows.append(["jump_" + frame, ray, resid, args.tol_jump])

    for tag, r, ang in (("r=0.7", "0.7", "0.3"), ("r=2.0", "2.0", "-0.6")):
        with working(precision):
            pt = SectorPoint(mpf(r), mpf(ang) * mp.pi)
            prod = rhframe.phi_psi_product(alpha, pt, dps=precision)
            t = rhframe.t_matrix(alpha, dps=precision)
            tt = rhframe.t_tilde_matrix(alpha, dps=precision)
            m = mat_mul(mat_mul(t, prod), mat_transpose(tt))
            four_pi2 = 4 * mp.pi ** 2
            resid = norm_max([[m[i][j] + (four_pi2 if i == j else 0)
                               for j in range(3)] for i in range(3)]) / four_pi2
        rows.append(["inverse", tag, +resid, args.tol_inverse])

    with working(precision):
        pt = SectorPoint(mpf("1.1"), mpf("0.35") * mp.pi)
        L = rhframe.l_matrix(alpha, pt, dps=precision, frame="phi")
        Lt = rhframe.l_matrix(alpha, pt, dps=precision, frame="psi")
        m = mat_mul(L, mat_transpose(Lt))
        resid = norm_max([[m[i][j] - (3 if i == j else 0) for j in range(3)]
                          for i in range(3)]) / 3
        rows.append(["frame", "L.Lt^T=3I", +resid, args.tol_frame])
        t = rhframe.t_matrix(alpha, dps=precision)
        tt = rhframe.t_tilde_matrix(alpha, dps=precision)
        c = rhframe.c_matrix(alpha, dps=precision)
        m = mat_mul(mat_transpose(tt), t)
        resid = norm_max([[m[i][j] - c[i][j] for j in range(3)]
                          for i in range(3)]) / norm_max(c)
        rows.append(["frame", "Tt^T.T=C", +resid, args.tol_frame])

    failed = []
    for row in rows:
        status = "PASS" if row[2] <= mpf(row[3]) else "FAIL"
        if status == "FAIL":
            failed.append("%s/%s" % (row[0], row[1]))
        print("%s  %-9s %-10s residual %s  (tol %s)"
              % (status, row[0], row[1], mp.nstr(row[2], 3), row[3]))
        row.append(status)
    if failed:
        raise CheckFailure("residual over tolerance: " + ", ".join(failed))
    return ["check", "where", "residual", "tolerance", "status"], rows, {}


_HANDLERS = {
    "kernel": cmd_kernel,
    "density": cmd_density,
    "eqsolve": cmd_eqsolve,
    "converge": cmd_converge,
    "meijer": cmd_meijer,
    "rhcheck": cmd_rhcheck,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="mbhalf",
        description="Hard-edge biorthogonal-ensemble computations "
                    "(kernels, densities, finite-n convergence).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None,
                        help="working digits (default MB_PRECISION or %d, "
                             "minimum %d)" % (DEFAULT_PRECISION, MIN_PRECISION))
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", parents=[common],
                       help="limiting hard-edge kernel on a grid")
    k.add_argument("--alpha", required=True)
    k.add_argument("--x-grid", required=True, help="value or a:b:k")
    k.add_argument("--y-grid", required=True, help="value or a:b:k")
    k.add_argument("--route", choices=("integral", "meijer", "both"),
                   default="both")

    d = sub.add_parser("density", parents=[common],
                       help="equilibrium density for the linear field")
    d.add_argument("--v", choices=("laguerre",), default="laguerre",
                   help="external field tag (linear field)")
    d.add_argument("--route", choices=("explicit", "cardano", "both"),
                   default="both")
    d.add_argument("--grid", type=int, default=200,
                   help="number of interior sample points")

    e = sub.add_parser("eqsolve", parents=[common],
                       help="discretized equilibrium minimizer (CSV: node,weight;"
                            " scalars on stderr / JSON meta)")
    e.add_argument("--v", default="0,1",
                   help="ascending polynomial coefficients of the field "
                        "(default 0,1 = linear)")
    e.add_argument("--box", type=float, default=6.0)
    e.add_argument("--m", type=int, default=500, help="grid cells")
    e.add_argument("--max-iter", type=int, default=6000,
                   help="cap on the pivot iterations of each KKT solve (coarse "
                        "start and fine); exceeding it on the fine solve is a "
                        "numerical failure (exit 3), on the coarse one the "
                        "fine solve starts from all cells")

    c = sub.add_parser("converge", parents=[common],
                       help="scaled finite-n kernel vs. the limit")
    c.add_argument("--alpha", required=True)
    c.add_argument("--x", required=True)
    c.add_argument("--y", required=True)
    c.add_argument("--ns", default="4,8,16,32",
                   help="comma-separated ascending kernel sizes, "
                        "1 to %d" % MAX_CONVERGE_N)

    g = sub.add_parser("meijer", parents=[common],
                       help="Mellin-Barnes G-function values on a modulus grid")
    g.add_argument("--b", default="0,-0.3,-0.8",
                   help="three comma-separated parameters")
    g.add_argument("--z-grid", required=True, help="value or a:b:k (moduli)")
    g.add_argument("--sheet", type=int, default=0,
                   help="full 2-pi turns added to the argument")
    g.add_argument("--m", type=int, choices=(1, 2, 3), default=3,
                   help="number of gamma factors in the integrand")
    g.add_argument("--route", choices=("series", "loop", "auto"), default="auto")

    r = sub.add_parser("rhcheck", parents=[common],
                       help="matrix-frame invariant suite (report on stdout; "
                            "artifact only with --out)")
    r.add_argument("--alpha", required=True)
    r.add_argument("--tol-det", default="1e-18")
    r.add_argument("--tol-jump", default="1e-18")
    r.add_argument("--tol-inverse", default="1e-16")
    r.add_argument("--tol-frame", default="1e-25")

    return p


def _emit(args, precision, header, rows, extra_meta):
    formatted = [[_fmt(v) for v in row] for row in rows]
    if args.format == "csv":
        text = ",".join(header) + "\n"
        text += "".join(",".join(r) + "\n" for r in formatted)
    else:
        flags = {k: v for k, v in sorted(vars(args).items())
                 if k not in ("command", "format", "out", "precision")
                 and v is not None}
        meta = {"flags": {k: _fmt(v) for k, v in flags.items()},
                "precision": precision, "version": __version__}
        meta.update({k: v for k, v in extra_meta.items()})
        doc = {"meta": meta, "rows": [dict(zip(header, r)) for r in formatted]}
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.out is None:
        if args.command != "rhcheck":
            sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        precision = _resolve_precision(args)
        with mp.workdps(precision):
            header, rows, extra = _HANDLERS[args.command](args, precision)
            _emit(args, precision, header, rows, extra)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure in %r: %s" % (args.command, exc),
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
