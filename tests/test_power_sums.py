"""Power-family tanh-sinh sums: the nodes an envelope skips and the steps a
node leaves add exactly 0, so every moment keeps the bits of the sums that
evaluate every node and step it through every power."""

import math
import random

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from mbhalf import finiten, mpcore
from mbhalf.finiten import DomainExtensionError, _tail_box, moments
from mbhalf.mpcore import _power_sums, quad_ts, working


def _every_node_totals(ws, pairs, count):
    """The integer sums (total, top exponent) of the level sums with every
    node stepped through every power: the loop of ``_power_sums`` without
    its drop rule."""
    bits = mp.prec + mpcore._POWER_BITS
    step = bits - 1
    ms, es, rs, cs = [], [], [], []
    for w, (v, r) in zip(ws, pairs):
        v, r = mpf(v), mpf(r)
        if v < 0 or not mp.isfinite(v) or not r > 0 or not mp.isfinite(r):
            raise ValueError("powers= needs an integrand pair (v, r) with "
                             "finite v >= 0 and r > 0; got (%s, %s)"
                             % (mp.nstr(v, 8), mp.nstr(r, 8)))
        if not v:
            continue
        _, wman, wexp, _ = w._mpf_
        _, vman, vexp, _ = v._mpf_
        _, rman, rexp, _ = r._mpf_
        m, e = mpcore._normalised(wman * vman, wexp + vexp, bits)
        rm, re = mpcore._normalised(rman, rexp, bits)
        ms.append(m)
        es.append(e)
        rs.append(rm)
        cs.append(re + step)
    out = []
    for k in range(count):
        if k:
            ms = [(m * rm) >> step for m, rm in zip(ms, rs)]
            es = [e + c for e, c in zip(es, cs)]
        top = max(es, default=0)
        out.append((sum(m >> (top - e) for m, e in zip(ms, es)), top))
    return out


def _every_node_power_sums(ws, pairs, count):
    """The every-node level sums, each rounded once to the working
    precision, as ``_power_sums`` rounds them."""
    return [mp.make_mpf(from_man_exp(total, top, mp.prec, round_nearest))
            for total, top in _every_node_totals(ws, pairs, count)]


def _every_node_moments(monkeypatch, *args, **kwargs):
    """moments(*args, **kwargs) with no node skipped and no step cut: each
    node's pair is finished from its envelope, so V is still called once
    a node, and summed by the every-node loop."""
    quad = finiten.quad_ts

    def every_node(f, a, b, dps=None, powers=None):
        return quad(lambda x: f(x)[2](), a, b, dps=dps, powers=powers)

    with monkeypatch.context() as m:
        m.setattr(finiten, "quad_ts", every_node)
        m.setattr(mpcore, "_power_sums", _every_node_power_sums)
        return moments(*args, **kwargs)


def _bits(table):
    return {k: v._mpf_ for k, v in table.values.items()}


def _wells(x):
    return min((x - 6) ** 2, (x - 50) ** 2 + 1)


# (alpha, n, V, smax, dps): the benchmark's table (V = x as a callable, n =
# 2, 40 digits) at two alpha; an n = 64 table of a nonlinear field; the
# piece at 0 in u = x^(1/p) (alpha = -0.9, p = 5); a box split at the well
# at 6; V = x^2
_TABLES = {
    "vx-n2-d40-a0.3": ("0.3", 2, lambda x: x, 3, 40),
    "vx-n2-d40-a0.1": ("0.1", 2, lambda x: x, 3, 40),
    "quadratic-n64-d90": ("0.3", 64, lambda x: x + x ** 2 / 10,
                          mpf(189) / 2, 90),
    "vx-n2-d40-a-0.9": ("-0.9", 2, lambda x: x, 3, 40),
    "wells-n100-d30": ("0", 100, _wells, 1, 30),
    "square-n8-d60": ("0.3", 8, lambda x: x * x, mpf(21) / 2, 60),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_moment_tables_keep_the_every_node_bits(name, monkeypatch):
    alpha, n, V, smax, d = _TABLES[name]
    alpha = mpf(alpha)
    if name.startswith("wells"):
        with working(d):
            assert [round(float(x)) for x in
                    _tail_box(alpha, n, V, mpf(smax))[1]] == [6]
    counts = {"V": 0, "nodes": 0, "quad V": 0}
    quad = finiten.quad_ts

    def counting_V(x):
        counts["V"] += 1
        return V(x)

    def counting_quad(f, a, b, dps=None, powers=None):
        def g(x):
            counts["nodes"] += 1
            return f(x)
        before = counts["V"]
        out = quad(g, a, b, dps=dps, powers=powers)
        counts["quad V"] += counts["V"] - before
        return out

    monkeypatch.setattr(finiten, "quad_ts", counting_quad)
    got = moments(alpha, n, counting_V, smax=smax, dps=d)
    monkeypatch.undo()
    # V is called once a node of the quadrature, in its envelope
    assert counts["quad V"] == counts["nodes"]
    ref = _every_node_moments(monkeypatch, alpha, n, V, smax=smax, dps=d)
    assert _bits(got) == _bits(ref)


def test_benchmark_table_evaluates_fewer_integrands_than_nodes(monkeypatch):
    # V = x as a callable at n = 2, 40 digits, alpha = 0.3: 487 of the 677
    # nodes can reach a power sum, measured when the skip went in
    counts = {"pairs": 0, "nodes": 0}
    quad = finiten.quad_ts

    def counting_quad(f, a, b, dps=None, powers=None):
        def g(x):
            counts["nodes"] += 1
            log_v, log_r, pair = f(x)

            def counted():
                counts["pairs"] += 1
                return pair()
            return log_v, log_r, counted
        return quad(g, a, b, dps=dps, powers=powers)

    monkeypatch.setattr(finiten, "quad_ts", counting_quad)
    moments(mpf("0.3"), 2, lambda x: x, smax=3, dps=40)
    assert 0 < counts["pairs"] < counts["nodes"]
    assert counts["pairs"] <= 0.8 * counts["nodes"]


@pytest.mark.parametrize("count", [1, 2, 7, 40])
@pytest.mark.parametrize("binades", [1, 24])
@pytest.mark.parametrize("seed", range(3))
def test_power_sums_drop_rule_keeps_the_every_node_sums(seed, binades,
                                                        count, monkeypatch):
    # nodes whose sizes spread over a thousand bits, some with v = 0, and
    # whose ratios r lie in one binade or spread over 24: dropping a node
    # after its last contributing power changes no integer sum, before its
    # rounding (which would hide a change in the low bits).  In one binade
    # the top exponent rises by each node's own step, and a node whose
    # term is 0 may still grow back into the sum: none may leave
    totals = []

    def recording(total, top, *args):
        totals.append((total, top))
        return from_man_exp(total, top, *args)

    monkeypatch.setattr(mpcore, "from_man_exp", recording)
    rng = random.Random(seed)
    low = -(binades // 2)
    with working(30):
        ws, pairs = [], []
        for i in range(300):
            ws.append(mp.ldexp(mpf(rng.random()) + 1, -rng.randrange(600)))
            v = (mpf(0) if i % 37 == 0 else
                 mp.ldexp(mpf(rng.random()) + mpf("0.5"),
                          rng.randrange(-400, 400)))
            r = mp.ldexp(mpf(rng.random()) + 1,
                         rng.randrange(low, low + binades))
            pairs.append((v, r))
        _power_sums(ws, pairs, count)
        assert totals == _every_node_totals(ws, pairs, count)


def _pair(t):
    return mp.exp(-t) * t ** mpf("0.3"), mp.sqrt(t)


@pytest.mark.parametrize("noise", [0.0, 0.45])
def test_quad_ts_envelope_keeps_the_sums(noise, monkeypatch):
    # an envelope off by up to a bit (here up to 0.45 bit in log v and in
    # k log r together) skips nodes and keeps every integer level sum, so
    # every bit of the integrals
    rng = random.Random(1)
    calls = {"pairs": 0, "nodes": 0}
    totals = []

    def recording(total, top, *args):
        totals.append((total, top))
        return from_man_exp(total, top, *args)

    monkeypatch.setattr(mpcore, "from_man_exp", recording)

    def pair(t):
        calls["pairs"] += 1
        return _pair(t)

    def f(t):
        calls["nodes"] += 1
        lt = finiten._float_log(t)
        jitter = noise * math.log(2) * (2 * rng.random() - 1) / 2
        return (0.3 * lt - float(t) + jitter, lt / 2 + jitter / 12,
                lambda: pair(t))

    ref = quad_ts(_pair, 0, 60, dps=40, powers=12)
    ref_totals = totals[:]
    del totals[:]
    got = quad_ts(f, 0, 60, dps=40, powers=12)
    assert totals == ref_totals
    assert [x._mpf_ for x in got] == [x._mpf_ for x in ref]
    assert 0 < calls["pairs"] < calls["nodes"]


def test_quad_ts_evaluates_every_node_without_a_finite_envelope():
    # a node whose envelope is not finite is always finished, and every
    # node of an integrand without an envelope is evaluated
    seen = {"plain": 0, "nan": 0, "inf": 0}

    def counted(key):
        def pair(t):
            seen[key] += 1
            return _pair(t)
        return pair

    def with_logs(log_v, log_r, pair):
        return lambda t: (log_v, log_r, lambda: pair(t))

    ref = quad_ts(counted("plain"), 0, 60, dps=30, powers=4)
    nan = quad_ts(with_logs(math.nan, 0.0, counted("nan")), 0, 60, dps=30,
                  powers=4)
    inf = quad_ts(with_logs(0.0, math.inf, counted("inf")), 0, 60, dps=30,
                  powers=4)
    assert seen["plain"] == seen["nan"] == seen["inf"]
    assert ([x._mpf_ for x in ref] == [x._mpf_ for x in nan]
            == [x._mpf_ for x in inf])


def test_a_zero_value_node_adds_nothing():
    # v = 0 below t = 2^-200, where w v r^k is far under every sum, gives
    # the bits of the pair that is nowhere 0, with and without an
    # envelope; a node with v = 0 has the envelope log v = -inf and is
    # finished
    def cut(t):
        v, r = _pair(t)
        return (v if t > mpf(2) ** -200 else mpf(0)), r

    def f(t):
        lt = finiten._float_log(t)
        log_v = -math.inf if t <= mpf(2) ** -200 else 0.3 * lt - float(t)
        return log_v, lt / 2, lambda: cut(t)

    ref = quad_ts(_pair, 0, 60, dps=30, powers=5)
    for got in (quad_ts(cut, 0, 60, dps=30, powers=5),
                quad_ts(f, 0, 60, dps=30, powers=5)):
        assert [x._mpf_ for x in got] == [x._mpf_ for x in ref]


def _bad_between(value):
    def V(x):
        return value if 1 < x < mpf(3) / 2 else x
    return V


@pytest.mark.parametrize("bad,shown", [
    (mp.nan, "nan"), (math.nan, "nan"), (mp.ninf, r"\+inf"),
    (-math.inf, r"\+inf")])
def test_a_field_that_is_not_finite_raises_as_before(bad, shown):
    # a V that is nan or -inf on (1, 3/2) gives the first node there a v
    # that is nan or +inf, and the same ValueError as when every node was
    # evaluated: a node whose envelope is not finite is never skipped
    with pytest.raises(ValueError, match=r"got \(%s, 1\.1498624\)" % shown):
        moments(mpf("0.3"), 2, _bad_between(bad), smax=3, dps=30)


@pytest.mark.parametrize("V", [lambda x: -x,
                               lambda x: float(x) - float(x) * 1e308 * 10],
                         ids=["falling", "overflowing"])
def test_a_falling_field_raises_domain_extension(V):
    # a V that falls, or whose float arithmetic overflows to -inf, never
    # lets the integrand fall below the box's bound
    with pytest.raises(DomainExtensionError, match="grows too slowly"):
        moments(mpf("0.3"), 2, V, smax=3, dps=30)


def test_a_field_beyond_the_float_range_keeps_its_bits(monkeypatch):
    # V = x + e^(300 x) passes the float range from x = 2.37 on, inside
    # the box: there float(V) is inf, the envelope is not finite, and
    # those nodes are evaluated, to a v of about e^(-2 e^(300 x))
    V = lambda x: x + mp.exp(300 * x)
    with working(30):
        assert _tail_box(mpf("0.3"), 2, V, mpf(3))[0] > mpf("2.37")
    got = moments(mpf("0.3"), 2, V, smax=3, dps=30)
    ref = _every_node_moments(monkeypatch, mpf("0.3"), 2, V, smax=3, dps=30)
    assert _bits(got) == _bits(ref)


def test_a_field_with_an_integer_wall_keeps_its_bits(monkeypatch):
    # V = 10^400, an int beyond the float range, past x = 60, where the
    # integrand is already below the table's digits: those nodes' envelope
    # is not finite, and they are evaluated as before
    V = lambda x: x if x < 60 else 10 ** 400
    got = moments(mpf("0.3"), 2, V, smax=3, dps=40)
    ref = _every_node_moments(monkeypatch, mpf("0.3"), 2, V, smax=3, dps=40)
    assert _bits(got) == _bits(ref)
