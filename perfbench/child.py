"""One benchmark repetition in a fresh interpreter.

Reads ``{"workload", "inputs", "trace", "inject_fail"}`` as JSON on stdin,
runs the workload's requests back to back, checks every output against its
independent route or identity, and prints one JSON object on stdout.

Each check records ``residual <= tol``.  Checks whose residual sits at the
roundoff of the working precision also give a margin, log10(tol/residual),
where a residual below 10^-dps (exactly 0 included) counts as 10^-dps: a
check claims no more digits than its request asked for.  Checks bounded by
discretization, truncation or the rounding of a pinned value are pass/fail
only: their margin says nothing about the digits a route achieved.

Times are raw seconds on :meth:`refclock.Sampler.now`, which leaves out the
reference chunks a :class:`refclock.Sampler` interleaves with the work.
Each request, and the whole run, carries the ``ref_factor`` of the chunks
taken while it ran, which turns its seconds into seconds at reference speed.
"""

import contextlib
import csv
import io
import json
import os
import re
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mpmath import mp, mpf  # noqa: E402

from mbhalf import (cli, equilibrium, finiten, kernel, meijer,  # noqa: E402
                    mpcore, rhframe, specfun)

import refclock  # noqa: E402

MODULES = {"mpcore": mpcore, "specfun": specfun, "meijer": meijer,
           "rhframe": rhframe, "kernel": kernel, "equilibrium": equilibrium,
           "finiten": finiten, "cli": cli}

# acceptance-gate tolerances (tests/test_acceptance.py) and the rhcheck
# defaults (cli.build_parser); none is loosened here
TOL_SERIES_LOOP = "1e-20"     # gate 01
TOL_KERNEL_ROUTES = "1e-8"    # gate 08
TOL_EQ = 5e-3                 # gate 10: sup density error, equality defect
TOL_CERT = "1e-30"            # gate 12: biorthogonality, split orthogonality
TOL_MOMENTS = "1e-35"         # tests/test_finiten.py, callable vs closed form
TOL_RH = {"det": "1e-18", "jump_phi": "1e-18", "jump_psi": "1e-18",
          "inverse": "1e-16", "frame": "1e-25"}
# |Im K| / |K| of the matrix route: no gate of its own, so the strictest
# identity tolerance rhcheck applies at this precision besides the frames
TOL_IMAG = "1e-18"
# err(n) of `converge --alpha 0 --x 1 --y 2` (gate 13), to half a unit in
# the last pinned digit
CONVERGE_PINS = {4: "0.04945", 8: "0.05941", 16: "0.03993", 32: "0.02270"}
TOL_PIN = "5e-6"
TOL_ERR32 = "0.05"            # gate 13, at alpha = 0

_RH_LINE = re.compile(
    r"^(PASS|FAIL)\s+(\S+)\s+(\S+)\s+residual (\S+)\s+\(tol (\S+)\)$")


class RequestFailed(RuntimeError):
    pass


class Client:
    """One closed-loop client: sends requests back to back, keeps their
    latencies and checks."""

    def __init__(self, sampler, inject_fail=False):
        self.sampler = sampler
        self.now = sampler.now
        self.requests = []
        self._checks = None
        self._inject = inject_fail

    def request(self, name, fn, *args):
        self._checks = []
        error = None
        chunks = len(self.sampler.samples)
        t0 = self.now()
        try:
            fn(self, *args)
        except Exception:
            error = traceback.format_exc(limit=3)
        took = self.now() - t0
        failed = error is not None or not all(c["ok"] for c in self._checks)
        self.requests.append({"name": name, "latency_s": took, "failed": failed,
                              "error": error, "checks": self._checks,
                              "chunks": [chunks, len(self.sampler.samples)]})

    def check(self, name, residual, tol, dps, digits=True):
        """Record residual <= tol; a margin only for roundoff-bound checks."""
        with mp.workdps(dps):
            residual, tol = mpf(residual), mpf(tol)
            if self._inject:      # self-test: one over-tolerance residual
                self._inject = False
                residual = 10 * tol
            ok = bool(residual <= tol)
            margin = None
            if digits and ok:
                floor = mpf(10) ** (-dps)
                margin = float(mp.log10(tol / max(residual, floor)))
        self._checks.append({"name": name, "residual": float(residual),
                             "tol": float(tol), "ok": ok, "margin": margin})

    def flag(self, name, ok):
        """A pass/fail check without a residual."""
        if self._inject:
            self._inject = False
            ok = False
        self._checks.append({"name": name, "residual": None, "tol": None,
                             "ok": bool(ok), "margin": None})


def run_cli(argv):
    """stdout of cli.main(argv); a non-zero exit raises RequestFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RequestFailed("mbhalf %s exited %d: %s"
                            % (" ".join(argv), code, err.getvalue().strip()))
    return out.getvalue()


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _rel(a, b):
    return abs(a - b) / abs(b)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------

def req_kernel_both(s, alpha, x, y, dps):
    rows = _csv_rows(run_cli(["kernel", "--alpha", alpha, "--x-grid", x,
                              "--y-grid", y, "--route", "both",
                              "--precision", str(dps)]))
    if len(rows) != 1 or not rows[0]["rel_diff"]:
        raise RequestFailed("expected one off-diagonal row, got %r" % rows)
    s.check("kernel integral vs meijer", rows[0]["rel_diff"],
            TOL_KERNEL_ROUTES, dps)


def req_kernel_diag(s, alpha, x, dps):
    """K(x, x) by the integral route against the matrix route extrapolated
    to the diagonal: the mean of K(x-h, x+h) and K(x+h, x-h) is even in h,
    and one Richardson step removes its h^2 term."""
    with mp.workdps(dps):
        a, xx = mpf(alpha), mpf(x)
        value = kernel.kernel_diag_limit(a, xx, dps=dps)

        def sym(h):
            return (kernel.kernel_meijer(a, xx - h, xx + h, dps=dps)
                    + kernel.kernel_meijer(a, xx + h, xx - h, dps=dps)) / 2

        h = xx * mpf("1e-5")
        ref = (4 * sym(h) - sym(2 * h)) / 3
        s.check("kernel diagonal vs extrapolated matrix route",
                _rel(value, ref), TOL_KERNEL_ROUTES, dps, digits=False)


def req_rhcheck(s, alpha, dps):
    text = run_cli(["rhcheck", "--alpha", alpha, "--precision", str(dps)])
    rows = [_RH_LINE.match(line) for line in text.splitlines()]
    if len(rows) != 16 or not all(rows):
        raise RequestFailed("unexpected rhcheck report:\n" + text)
    for m in rows:
        status, group, where, resid, tol = m.groups()
        if mpf(tol) != mpf(TOL_RH[group]):
            raise RequestFailed("rhcheck %s used tol %s" % (group, tol))
        s.check("rhcheck %s %s" % (group, where), resid, tol, dps)
        if status != "PASS":
            s.flag("rhcheck %s %s reported %s" % (group, where, status), False)


def req_g_sheets(s, b, modulus, arg, dps):
    """G^{3,0}_{0,3} on sheets -2..2 by the series and the loop route."""
    with mp.workdps(dps + 10):
        bb = [mpf(v) for v in b]
        r, th = mpf(modulus), mpf(arg)
        points = [meijer.SectorPoint(r, th + 2 * mp.pi * k) for k in range(-2, 3)]
    for k, pt in zip(range(-2, 3), points):
        vs = meijer.g303_series(bb, pt, dps=dps)
        vl = meijer.mb_loop(bb, pt, m=3, dps=dps)
        with mp.workdps(dps):
            s.check("G series vs loop, sheet %d" % k, _rel(vs, vl),
                    TOL_SERIES_LOOP, dps)


def req_kernel_meijer(s, alpha, x, y, dps):
    with mp.workdps(dps):
        v = kernel.kernel_meijer(mpf(alpha), mpf(x), mpf(y), dps=dps,
                                 return_complex=True)
        s.check("kernel |Im K|/|K|", abs(v.imag) / abs(v), TOL_IMAG, dps)


def req_converge(s, alpha, ns, dps):
    rows = _csv_rows(run_cli(["converge", "--alpha", alpha, "--x", "1",
                              "--y", "2", "--ns", ns, "--precision", str(dps)]))
    errs = {int(r["n"]): mpf(r["rel_err"]) for r in rows}
    if sorted(errs) != [int(n) for n in ns.split(",")]:
        raise RequestFailed("converge returned n = %s" % sorted(errs))
    _check_tail(s, errs)
    if mpf(alpha) != 0:
        return
    for n, pin in CONVERGE_PINS.items():
        if n in errs:
            s.check("converge err(%d) pin" % n, abs(errs[n] - mpf(pin)),
                    TOL_PIN, dps, digits=False)
    if 4 in errs and 32 in errs:
        s.flag("converge err(32) < err(4)", errs[32] < errs[4])
        s.check("converge err(32)", errs[32], TOL_ERR32, dps, digits=False)


def _check_tail(s, errs):
    """Gate 13's trend: strict decrease over n >= 8.  (Its other clauses,
    err(32) < err(4) and err(32) <= 0.05, hold at alpha = 0 only: the
    pre-asymptotic err(4) dips lower for alpha > 0.)"""
    tail = [errs[n] for n in sorted(errs) if n >= 8]
    s.flag("finite-n tail decreases", all(a > b for a, b in zip(tail, tail[1:])))


def req_minimize_vx(s, m, dps):
    """Gate 10: the minimizer for V = x against the closed-form density."""
    sol = equilibrium.equilibrium_minimize(lambda x: x, 6.0, m)
    h = sol.mu.cell_width()
    nodes, weights = sol.mu.nodes, sol.mu.weights
    window = (nodes >= 0.05 * sol.q) & (nodes <= 0.95 * sol.q)
    with mp.workdps(dps):
        sup = max(abs(mpf(float(w)) / mpf(h)
                      - equilibrium.density_vx_explicit(mpf(float(x)), dps=20))
                  for x, w in zip(nodes[window], weights[window]))
    s.check("V=x sup density error", sup, TOL_EQ, dps, digits=False)
    _check_variational(s, "V=x", sol, lambda x: x, dps)


def req_minimize_one_cut(s, c2, m, dps):
    c = float(c2)

    def V(x):
        return x + c * x * x

    sol = equilibrium.equilibrium_minimize(V, 6.0, m)
    _check_variational(s, "V=x+c2x^2", sol, V, dps)


def _check_variational(s, tag, sol, V, dps):
    dev, strict = equilibrium.variational_residual(sol, V)
    s.check(tag + " equality defect", dev, TOL_EQ, dps, digits=False)
    s.flag(tag + " strict inequality beyond q", strict)


def req_laguerre_table(s, alpha, ns, dps):
    rows = finiten.hard_edge_convergence(mpf(alpha), 1, 2, tuple(ns),
                                         ref_dps=dps)
    _check_tail(s, dict(rows))


def req_certificates(s, alpha, nmax):
    """Gate 12's certificates at 10 nmax digits (160 at nmax = 16)."""
    dps = 10 * nmax
    mt = finiten.moments(mpf(alpha), nmax, "laguerre",
                         smax=mpf(3 * (nmax - 1)) / 2, dps=dps)
    bs = finiten.biortho_build(mt, nmax)
    s.check("biorthogonality nmax=%d" % nmax, finiten.biortho_residual(bs),
            TOL_CERT, dps)
    s.check("split orthogonality nmax=%d" % nmax,
            finiten.multiple_orthogonality_check(bs), TOL_CERT, dps)


def req_callable_moments(s, alpha, dps):
    """Moments of V(x) = x given as a callable against the closed form, at
    the size and precision of the test this tolerance comes from."""
    dps += 10
    closed = finiten.moments(mpf(alpha), 2, "laguerre", smax=3, dps=dps)
    quad = finiten.moments(mpf(alpha), 2, lambda x: x, smax=3, dps=dps)
    with mp.workdps(dps):
        worst = max(_rel(quad.values[k], closed.values[k]) for k in closed.values)
    s.check("callable moments vs closed form", worst, TOL_MOMENTS, dps)


def run_workload(s, name, inp):
    dps = inp["dps"]
    if name == "nonresonant-sweep":
        # the loop route is the one whose caches start empty, so it goes
        # first and cold_req_s times its cold path
        for b in inp["g_params"]:
            s.request("G sheets -2..2", req_g_sheets, b, inp["g_modulus"],
                      inp["g_arg"], dps)
        a = inp["alpha"]
        for x, y in inp["points"]:
            s.request("kernel both", req_kernel_both, a, x, y, dps)
        s.request("kernel diagonal", req_kernel_diag, a, inp["diag_x"], dps)
        s.request("rhcheck", req_rhcheck, a, dps)
    elif name == "resonant-frames":
        a = inp["alpha"]
        for x, y in inp["points"]:
            s.request("kernel_meijer", req_kernel_meijer, a, x, y, dps)
        s.request("rhcheck", req_rhcheck, a, dps)
        s.request("converge", req_converge, a, inp["converge_ns"], dps)
    elif name == "log-gas":
        if inp["eq_m"]:
            s.request("minimize V=x", req_minimize_vx, inp["eq_m"], dps)
        s.request("minimize one-cut", req_minimize_one_cut, inp["one_cut_c2"],
                  inp["one_cut_m"], dps)
        s.request("laguerre table", req_laguerre_table, inp["laguerre_alpha"],
                  inp["laguerre_ns"], dps)
        s.request("certificates", req_certificates, inp["laguerre_alpha"],
                  inp["cert_nmax"])
        for alpha in inp["moments_alphas"]:
            s.request("callable moments", req_callable_moments, alpha, dps)
    else:
        raise ValueError("unknown workload %r" % name)


def main():
    spec = json.load(sys.stdin)
    here = os.path.dirname(os.path.abspath(mpcore.__file__))
    if os.path.dirname(here) != os.path.join(ROOT, "src"):
        raise SystemExit("imported mbhalf from %s, not this checkout" % here)
    sampler = refclock.Sampler()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(sampler.now)
        tracer.install(MODULES)
    s = Client(sampler, inject_fail=spec.get("inject_fail", False))
    sampler.start()
    t0 = sampler.now()
    run_workload(s, spec["workload"], spec["inputs"])
    wall = sampler.now() - t0
    sampler.stop()
    for r in s.requests:
        r["ref_factor"] = sampler.factor(*r.pop("chunks"))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"wall_s": wall, "peak_rss_mb": rss_kb / 1024.0,
           "ref_factor": sampler.factor(),
           "requests": s.requests,
           "trace": tracer.metrics() if tracer else None}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
