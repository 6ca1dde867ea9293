"""Callable-field moment tables and their quadrature box keep their bits:
the tables against digests pinned from the all-mpf forms, and
``_tail_box``'s float-screened probes against the all-mpf rule kept here
as the reference."""

import hashlib

import pytest
from mpmath import mp, mpf

from mbhalf import finiten
from mbhalf.finiten import DomainExtensionError, _peak, _tail_box, moments
from mbhalf.mpcore import working


def _wells(x):
    return min((x - 6) ** 2, (x - 50) ** 2 + 1)


_FIELDS = {
    "x": lambda x: x,
    "quadratic": lambda x: x + x ** 2 / 10,
    # at smax = 3 its box is split at the peaks near 6 and 50
    "wells": _wells,
    # an int beyond the float range past x = 60, inside the box at n = 2
    "wall": lambda x: x if x < 60 else 10 ** 400,
    "falling": lambda x: -x,
}

#: sha256 (first 16 hex digits) of the sorted (2s, _mpf_) items of
#: moments(alpha, n, V, smax=3, dps=40), recorded when every node pair was
#: formed by mpmath's operators and every box probe by mp.log; alpha =
#: -0.9 and -0.6 take the piece at 0 in u = x^(1/p)
_PINNED = {
    ("x", 2, "-0.9"): "a6f76899bbbc1440",
    ("x", 2, "-0.6"): "637cfbfb0dabce22",
    ("x", 2, "0"): "32478852e5272e55",
    ("x", 2, "0.3"): "3316ab7869375a4d",
    ("x", 2, "1.7"): "d26db04bbe77a3a1",
    ("x", 8, "-0.9"): "452fd7e84b30cf92",
    ("x", 8, "-0.6"): "7656ec740a14d104",
    ("x", 8, "0"): "4359f7349622bc0f",
    ("x", 8, "0.3"): "088b442836ed90ef",
    ("x", 8, "1.7"): "189ff2649baade66",
    ("quadratic", 2, "-0.9"): "1ea33b843cca2b39",
    ("quadratic", 2, "0.3"): "7c635eb7cf3d016f",
    ("quadratic", 8, "-0.9"): "05cf5cebf783bc5d",
    ("quadratic", 8, "0.3"): "9ffa6f3a1a07aa7b",
    ("wells", 2, "-0.9"): "e69961ef9fb59caf",
    ("wells", 2, "0.3"): "53f906b480be3272",
    ("wells", 8, "-0.9"): "e46cbe2c89b9f6a1",
    ("wells", 8, "0.3"): "e66a4d6cba2d5d1a",
    ("wall", 2, "-0.9"): "d0ffdb9ebfaa962a",
    ("wall", 2, "0.3"): "b3fc681847bfbc12",
    ("falling", 2, "0.3"): "DomainExtensionError",
}


def _digest(name, n, alpha):
    try:
        mt = moments(mpf(alpha), n, _FIELDS[name], smax=3, dps=40)
    except DomainExtensionError:
        return "DomainExtensionError"
    text = repr(sorted((k, v._mpf_) for k, v in mt.values.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(_PINNED),
                         ids=lambda key: "%s-n%d-a%s" % key)
def test_callable_tables_keep_their_pinned_bits(key):
    assert _digest(*key) == _PINNED[key]


def test_pinned_grid_splits_at_peaks():
    # the wells field is the grid's case of a box split at peaks
    with working(40):
        for n in (2, 8):
            for alpha in ("-0.9", "0.3"):
                _, peaks = _tail_box(mpf(alpha), n, _wells, mpf(3))
                assert [round(float(x)) for x in peaks] == [6, 50], n


def _mpf_tail_box(alpha, n, V, smax):
    """_tail_box's rule with every probe's log-integrand formed by mp.log
    at the working precision: the reference its float screen must meet."""
    power = mpf(smax) + alpha

    def log_integrand(x):
        return power * mp.log(x) - n * V(x)

    def probe(x):
        here = log_integrand(x)
        return here, log_integrand(x + x / 2 ** 20) > here

    points = [mpf(4) * 2 ** i for i in range(60)]
    probes = [probe(x) for x in points]
    tops = [None] * len(points)
    for i, ((_, up), (_, up_next)) in enumerate(zip(probes, probes[1:])):
        if up and not up_next:
            x = _peak(log_integrand, points[i], points[i + 1])
            tops[i] = (x, log_integrand(x))
    log_bound = (max([here for here, _ in probes]
                     + [v for _, v in filter(None, tops)])
                 - mp.dps * mp.ln10)

    def passes(here, rising, top=None):
        return here < log_bound and (
            not rising or top is not None and top[1] < log_bound)

    failing = [x for x, pr, top in zip(points, probes, tops)
               if not passes(*pr, top)]
    if not failing:
        return points[0], []
    lo = failing[-1]
    if lo == points[-1]:
        raise DomainExtensionError(
            "moment integrand not below 10^-%d of its largest probed value "
            "by X=%s; V grows too slowly" % (mp.dps, mp.nstr(lo, 5)))
    X = 2 * lo
    for _ in range(8):
        mid = (lo + X) / 2
        if passes(*probe(mid)):
            X = mid
        else:
            lo = mid
    return X, [x for x, _ in filter(None, tops) if x < X]


def _box_bits(box, *args):
    try:
        X, peaks = box(*args)
    except DomainExtensionError as e:
        return str(e)
    return X._mpf_, [x._mpf_ for x in peaks]


def _exact_calls(monkeypatch):
    """A list that gains an entry each time a box comparison is settled
    at the working precision rather than by the floats."""
    calls = []
    exact = finiten._Level.exact

    def counted(self):
        calls.append(self)
        return exact(self)

    monkeypatch.setattr(finiten._Level, "exact", counted)
    return calls


def _tuned(alpha, n, smax, x0, delta, d):
    """V = x, but at x0 the log-integrand sits ``delta`` above the all-mpf
    rule's bound, and 2^-20 x0 beyond it V is one larger, so the test at
    x0 turns on that comparison alone."""
    with working(d):
        power = mpf(smax) + mpf(alpha)
        x0 = mpf(x0)
        x1 = x0 + x0 / 2 ** 20
        top = max(power * mp.log(x) - n * x
                  for x in (mpf(4) * 2 ** i for i in range(60)))
        bound = top - mp.dps * mp.ln10
        v0 = (power * mp.log(x0) - bound - delta) / n

    def V(x):
        if x == x0:
            return v0
        if x == x1:
            return v0 + 1
        return x
    return V


# (alpha, n, V, smax, dps)
_CLOSE_BOXES = {
    # the log-integrand 16 log x - 2x peaks at the doubling point 8, so the
    # rise read there is a second-order 8 (2^-20)^2 below its size's
    # rounding
    "flat-rise-at-a-maximum": ("0", 2, lambda x: x, 16, 40),
    # V constant on (0, 20): with no power the log-integrand is flat at
    # the doubling points 4, 8 and 16, and does not rise
    "flat-stretch": ("0", 2, lambda x: max(x - 20, 0), 0, 30),
    # the last failing doubling point 64, and the first halving point 96
    # of V = x, at and 1e-13 either side of the bound
    **{"bound-%s%+g" % (x0, delta): (
        "0.1", 2, _tuned("0.1", 2, 3, x0, delta, 40), 3, 40)
       for x0 in (64, 96) for delta in (-1e-13, 0, 1e-13)},
}

_FLOAT_RANGE_BOXES = {
    "exp-beyond-the-float-range": (
        "0.3", 2, lambda x: x + mp.exp(300 * x), 3, 30),
    "integer-wall": ("0.3", 2, _FIELDS["wall"], 3, 40),
    "float-overflow": (
        "0.3", 2, lambda x: float(x) - float(x) * 1e308 * 10, 3, 30),
    "nan": ("0.3", 2, lambda x: mp.nan if x > 5 else x, 3, 30),
}

_PLAIN_BOXES = {
    **{"well-at-6-n%d" % n: ("0", n, _wells, 0, 30)
       for n in (100, 1000, 3000)},
    **{"bump-at-10-n%d" % n: ("0", n, lambda x: (x - 10) ** 2, 1, 30)
       for n in (4, 40, 100)},
    **{"x-n%d-a%s-d%d" % (n, a, d): (a, n, lambda x: x, 3, d)
       for n in (2, 8) for a in ("-0.9", "0.1", "0.3") for d in (30, 40)},
    "quadratic-n32": ("0.3", 32, _FIELDS["quadratic"], mpf(93) / 2, 60),
    "falling": ("0.3", 2, _FIELDS["falling"], 3, 30),
}


def _compare(case, monkeypatch):
    alpha, n, V, smax, d = case
    calls = _exact_calls(monkeypatch)
    with working(d):
        args = (mpf(alpha), n, V, mpf(smax))
        got = _box_bits(_tail_box, *args)
        ref = _box_bits(_mpf_tail_box, *args)
    assert got == ref
    return calls


@pytest.mark.parametrize("name", sorted(_CLOSE_BOXES))
def test_close_probes_fall_back_to_the_working_precision(name, monkeypatch):
    calls = _compare(_CLOSE_BOXES[name], monkeypatch)
    assert calls, "no comparison needed the working precision"


@pytest.mark.parametrize("name", sorted(_FLOAT_RANGE_BOXES))
def test_fields_beyond_the_float_range_keep_the_box(name, monkeypatch):
    calls = _compare(_FLOAT_RANGE_BOXES[name], monkeypatch)
    assert calls, "no comparison needed the working precision"


@pytest.mark.parametrize("name", sorted(_PLAIN_BOXES))
def test_tail_box_matches_the_all_mpf_rule(name, monkeypatch):
    _compare(_PLAIN_BOXES[name], monkeypatch)


def test_benchmark_box_is_decided_by_floats(monkeypatch):
    # V = x at n = 2, 30 digits (the benchmark's callable-moments table):
    # every doubling and halving probe is settled by its float, so the box
    # takes no mp.log at all
    calls = _compare(("0.3", 2, lambda x: x, 3, 30), monkeypatch)
    assert calls == []
    logs = []
    log = mp.log

    def counted(x):
        logs.append(x)
        return log(x)

    monkeypatch.setattr(mp, "log", counted)
    with working(30):
        _tail_box(mpf("0.3"), 2, lambda x: x, mpf(3))
    assert logs == []


def test_probe_bound_covers_the_float_error():
    # a probe's float log-integrand lies within a hundredth of its bound of
    # the value at the working precision, over a spread of sizes
    for d in (20, 40, 90):
        with working(d):
            for alpha in ("-0.9", "0.3", "40.5"):
                power = mpf(3) + mpf(alpha)
                for x in (mpf("1e-30"), mpf("0.7"), mpf(4), mpf(2) ** 61,
                          mpf(10) ** 40):
                    for V in (lambda t: t, lambda t: t ** 2 / 3,
                              lambda t: 1 / t, lambda t: float(t) / 7):
                        level = finiten._probe(x, V(x), power, float(power),
                                               2, mp.prec)
                        assert (abs(mpf(level.f) - level.exact())
                                <= level.e / 100), (d, alpha, x)
