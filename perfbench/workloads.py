"""Seeded inputs for the benchmark workloads.

Each workload is a closed loop: one client sends its requests back to back,
each after the previous one returned.  This module only draws the inputs;
it imports nothing from ``mbhalf``, so the program under test receives the
generated values and never the seed.  Every drawn number is a decimal
string, so the child process parses exactly the value drawn here.
"""

import random

#: working precision, in decimal digits, of every request that has a choice
#: (the CLI refuses less than 30)
REQUEST_DPS = 30

WHY = {
    "nonresonant-sweep":
        "fresh non-resonant parameters on every request, so the work sits in "
        "the Wright-Bessel integral route and the cold loop path",
    "resonant-frames":
        "one resonant parameter triple (alpha = 0) reused by about 130 loop "
        "calls, so the warm loop path and gamma dominate",
    "log-gas":
        "numpy minimizer, LDU moment tables and tanh-sinh moment quadrature; "
        "the loop route and Wright-Bessel are never called",
}

NAMES = tuple(WHY)


def _dec(x, digits=6):
    return "%.*f" % (digits, x)


def _nonresonant_alpha(rng):
    # 2 alpha in [0.1, 0.9]: at least 0.1 from every integer
    return _dec(rng.uniform(0.05, 0.45))


def _off_diagonal_points(rng, count, lo=0.2, hi=5.0):
    points = []
    while len(points) < count:
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if abs(x - y) >= 0.2:
            points.append([_dec(x, 4), _dec(y, 4)])
    return points


def _stratified_points(rng, count, lo, hi):
    """``count`` points, x_i drawn in the i-th of ``count`` equal bins of
    (lo, hi) and y_i in the bin half the range away.  A warm loop call costs
    more the larger its modulus, so this keeps the cost of the set, and the
    median latency over it, alike from seed to seed."""
    width = (hi - lo) / count
    points = []
    for i in range(count):
        j = (i + count // 2) % count
        x = lo + (i + rng.random()) * width
        y = lo + (j + rng.random()) * width
        points.append([_dec(x, 4), _dec(y, 4)])
    return points


def _nonresonant_b(rng):
    """Three parameters whose pairwise differences stay >= 0.1 from Z."""
    while True:
        b = [rng.uniform(0.0, 0.1), rng.uniform(-0.4, -0.3),
             rng.uniform(-0.75, -0.65)]
        diffs = [b[i] - b[j] for i in range(3) for j in range(i + 1, 3)]
        if all(abs(d - round(d)) >= 0.1 for d in diffs):
            return [_dec(v) for v in b]


def make_inputs(name, seed, quick=False):
    """The request inputs of workload ``name`` drawn from ``seed``.

    ``quick`` shrinks every workload to a few cheap requests with the same
    checks and tolerances; the benchmark's own tests use it.
    """
    if name not in WHY:
        raise ValueError("unknown workload %r (have %s)" % (name, ", ".join(NAMES)))
    rng = random.Random("%s:%d" % (name, seed))
    if name == "nonresonant-sweep":
        return {
            "alpha": _nonresonant_alpha(rng),
            "points": _off_diagonal_points(rng, 1 if quick else 6),
            "diag_x": _dec(rng.uniform(0.5, 4.0), 4),
            # The cold loop request sits at a fixed point; only b is drawn.
            # Its panel count steps up with the modulus and the sheet angle:
            # a point drawn in modulus (0.5, 3), arg (-1.5, 1.5) spread
            # cold_req_s 9% over ten seeds (7.9 s below modulus 1.4, 9.2 s
            # above 2).
            "g_params": [] if quick else [_nonresonant_b(rng)],
            "g_modulus": "1.2500",
            "g_arg": "0.5000",
            "dps": REQUEST_DPS,
        }
    if name == "resonant-frames":
        # alpha is pinned to the paper's default case: the two resonant
        # candidates 0 and 1/2 differ in cost by ~13%, which would make the
        # time spread over seeds wider than the bound.  The first (cold)
        # point is fixed and lies beyond every modulus the later requests
        # visit, so it builds the same loop panels on every seed and the
        # rest stay warm.  (The panel count grows with the modulus: a cold
        # point drawn in (2, 2.5) spread cold_req_s 18% over five seeds.)
        points = [["2.5000", "2.2000"]]
        points += (_off_diagonal_points(rng, 1, 0.5, 2.0) if quick
                   else _stratified_points(rng, 8, 0.5, 2.0))
        return {
            "alpha": "0",
            "points": points,
            "converge_ns": "4" if quick else "4,8,16,32",
            "dps": REQUEST_DPS,
        }
    # The one-cut field is the README's `eqsolve --v 0,1,0.1 --m 800` example
    # and is not drawn: variational_residual reports a false "not strict"
    # when a probe q*fac lands exactly on an empty cell (0*log 0 = nan), as
    # at m = 200 or 600 for this field, so a drawn c2 fails on some seeds.
    return {
        "eq_m": 0 if quick else 2000,
        "one_cut_c2": "0.1",
        "one_cut_m": 300 if quick else 800,
        "laguerre_alpha": _nonresonant_alpha(rng),
        "laguerre_ns": [8, 16] if quick else [4, 8, 16, 32],
        "cert_nmax": 6 if quick else 16,
        # six of these ~1 s requests put the median request latency inside
        # a cluster of similar requests rather than between two unlike ones
        "moments_alphas": [_nonresonant_alpha(rng)
                           for _ in range(1 if quick else 6)],
        "dps": REQUEST_DPS,
    }
