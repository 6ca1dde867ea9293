"""Command-line front end: every computation as a scriptable subcommand.

Subcommands emit CSV (default) or JSON artifacts.  All numbers are printed
through a fixed 17-significant-digit rule, so identical flags and precision
give byte-identical output.  Exit codes: 0 success, 2 usage error
(:class:`UsageError`), 3 numerical failure (any
:class:`mbhalf.mpcore.NumericalError`, or a ``ZeroDivisionError``).
"""

import argparse
import functools
import json
import math
import os
import sys

from mpmath import mp, mpf

from . import __version__
from . import rhframe
from .finiten import hard_edge_convergence
from .kernel import (kernel_diag_limit, kernel_integral_grid,
                     kernel_meijer_grid)
from .meijer import SectorPoint, g303_series, mb_loop, pick_route
from .mpcore import (NumericalError, det3, mat_mul, mat_transpose, norm_max,
                     working)

DEFAULT_PRECISION = 50
MIN_PRECISION = 30
#: largest kernel size ``converge`` accepts; its closed-form sums cost O(n^2)
MAX_CONVERGE_N = 256
#: most cells ``eqsolve --m`` accepts; the minimizer builds m x m float64
#: matrices, 200 MB each at this size
MAX_EQ_CELLS = 5000
#: most points an a:b:k grid or ``density --grid`` accepts; each is an mpf
#: and a row of output
MAX_GRID_POINTS = 10000
#: the tolerance of each ``rhcheck`` residual, by check, as printed
RH_TOLERANCES = {"det": "1e-18", "jump_phi": "1e-18", "jump_psi": "1e-18",
                 "inverse": "1e-16", "frame": "1e-25"}

_GRID_HELP = "value or a:b:k (k from 2 to %d)" % MAX_GRID_POINTS


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


class CheckFailure(NumericalError, RuntimeError):
    """An invariant-suite residual exceeded its tolerance; exit code 3."""


def _fmt(v):
    if isinstance(v, str):
        return v
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
    if k > MAX_GRID_POINTS:
        raise UsageError("grid a:b:k supports up to %d points, got %d"
                         % (MAX_GRID_POINTS, k))
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

    # each route takes its node set once: the integral route one term loop
    # a node, the matrix route one frame triple a node
    vi = (None if args.route == "meijer"
          else kernel_integral_grid(alpha, xs, ys, dps=precision))
    vm = (None if args.route == "integral"
          else kernel_meijer_grid(alpha, xs, ys, dps=precision))
    rows = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if args.route == "integral":
                rows.append([x, y, vi[i][j]])
            elif args.route == "meijer":
                # the matrix route refuses the diagonal band
                v = vm[i][j]
                if v is None:
                    v = kernel_diag_limit(alpha, (x + y) / 2, dps=precision)
                rows.append([x, y, v])
            elif vm[i][j] is None:
                # the diagonal limit reuses the integral route, so there is
                # no independent value to difference against
                rows.append([x, y, vi[i][j], vi[i][j], ""])
            else:
                rel = abs(vm[i][j] - vi[i][j]) / abs(vi[i][j])
                rows.append([x, y, vi[i][j], vm[i][j], rel])
    header = (["x", "y", "integral", "meijer", "rel_diff"]
              if args.route == "both" else ["x", "y", "value"])
    return header, rows, {}


def cmd_density(args, precision):
    from . import equilibrium as eq
    q = mpf(27) / 8
    n = args.grid
    if not 1 <= n <= MAX_GRID_POINTS:
        raise UsageError("--grid must be a point count from 1 to %d, got %d"
                         % (MAX_GRID_POINTS, n))
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
    from . import equilibrium as eq
    V = _parse_poly(args.v)
    if not 0 < args.box < math.inf or not 10 <= args.m <= MAX_EQ_CELLS:
        raise UsageError("--box must be positive and finite and --m from 10 "
                         "to %d" % MAX_EQ_CELLS)
    sol = eq.equilibrium_minimize(V, args.box, args.m)
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
    rows = []

    for name, ang in (("Q1", "0.25"), ("Q2", "0.75"), ("Q3", "-0.75"),
                      ("Q4", "-0.25")):
        with working(precision):
            pt = SectorPoint(mpf("1.3"), mpf(ang) * mp.pi)
            m = rhframe.phi_matrix(alpha, pt, dps=precision)
            pred = rhframe.det_phi_predicted(alpha, pt, dps=precision)
            resid = abs(det3(m) - pred) / abs(pred)
        rows.append(["det", name, +resid])

    for frame in ("phi", "psi"):
        for ray in rhframe.RAYS:
            resid = rhframe.jump_residual(alpha, ray, 1, dps=precision,
                                          frame=frame)
            rows.append(["jump_" + frame, ray, resid])

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
        rows.append(["inverse", tag, +resid])

    with working(precision):
        pt = SectorPoint(mpf("1.1"), mpf("0.35") * mp.pi)
        L = rhframe.l_matrix(alpha, pt, dps=precision, frame="phi")
        Lt = rhframe.l_matrix(alpha, pt, dps=precision, frame="psi")
        m = mat_mul(L, mat_transpose(Lt))
        resid = norm_max([[m[i][j] - (3 if i == j else 0) for j in range(3)]
                          for i in range(3)]) / 3
        rows.append(["frame", "L.Lt^T=3I", +resid])
        t = rhframe.t_matrix(alpha, dps=precision)
        tt = rhframe.t_tilde_matrix(alpha, dps=precision)
        c = rhframe.c_matrix(alpha, dps=precision)
        m = mat_mul(mat_transpose(tt), t)
        resid = norm_max([[m[i][j] - c[i][j] for j in range(3)]
                          for i in range(3)]) / norm_max(c)
        rows.append(["frame", "Tt^T.T=C", +resid])

    failed = []
    for row in rows:
        tol = RH_TOLERANCES[row[0]]
        status = "PASS" if row[2] <= mpf(tol) else "FAIL"
        if status == "FAIL":
            failed.append("%s/%s" % (row[0], row[1]))
        print("%s  %-9s %-10s residual %s  (tol %s)"
              % (status, row[0], row[1], mp.nstr(row[2], 3), tol))
        row += [tol, status]
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


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once a process: its flags, choices
    and help are fixed, and each ``parse_args`` call returns a fresh
    namespace."""
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
    k.add_argument("--x-grid", required=True, help=_GRID_HELP)
    k.add_argument("--y-grid", required=True, help=_GRID_HELP)
    k.add_argument("--route", choices=("integral", "meijer", "both"),
                   default="both")

    d = sub.add_parser("density", parents=[common],
                       help="equilibrium density for the linear field")
    d.add_argument("--route", choices=("explicit", "cardano", "both"),
                   default="both")
    d.add_argument("--grid", type=int, default=200,
                   help="number of interior sample points, 1 to %d"
                        % MAX_GRID_POINTS)

    e = sub.add_parser("eqsolve", parents=[common],
                       help="discretized equilibrium minimizer (CSV: node,weight;"
                            " scalars on stderr / JSON meta)")
    e.add_argument("--v", default="0,1",
                   help="ascending polynomial coefficients of the field "
                        "(default 0,1 = linear)")
    e.add_argument("--box", type=float, default=6.0)
    e.add_argument("--m", type=int, default=500,
                   help="grid cells, 10 to %d" % MAX_EQ_CELLS)

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
    g.add_argument("--z-grid", required=True, help=_GRID_HELP + " (moduli)")
    g.add_argument("--sheet", type=int, default=0,
                   help="full 2-pi turns added to the argument")
    g.add_argument("--m", type=int, choices=(1, 2, 3), default=3,
                   help="number of gamma factors in the integrand")
    g.add_argument("--route", choices=("series", "loop", "auto"), default="auto")

    r = sub.add_parser("rhcheck", parents=[common],
                       help="matrix-frame invariant suite (report on stdout; "
                            "artifact only with --out)")
    r.add_argument("--alpha", required=True)

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
    except (NumericalError, ZeroDivisionError) as exc:
        print("numerical failure in %r: %s" % (args.command, exc),
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
