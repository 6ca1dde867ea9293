"""Outside-in tracer: wraps the public functions of the mbhalf modules.

The modules import each other's functions by name (``from .mpcore import
gamma``), so patching only the defining module would miss most callers.
:meth:`Tracer.install` therefore replaces every public function defined in
an mbhalf module in *every* mbhalf module namespace that binds it, with one
shared wrapper per function.

Each wrapper is a span.  Its self time is its duration minus the time of
the traced spans it encloses; a layer's self time is the sum over the
functions defined in that layer.  Calls made from the benchmark itself are
spans too (the checks call into the layers), and time spent outside every
span is attributed to no layer.  Spans are timed on the clock passed in
(``refclock.Sampler.now``), so the reference chunks interleaved with the
work count in no span.
"""

import functools
import inspect

LAYERS = ("mpcore", "specfun", "meijer", "rhframe", "kernel", "equilibrium",
          "finiten", "cli")


class Tracer:
    def __init__(self, now):
        self._now = now
        # "layer.function" -> [calls, self seconds, total seconds]
        self.stats = {}
        self._stack = []      # open spans: [start, seconds of child spans]
        self._depth = {}      # "layer.function" -> open activations
        self._loop_keys = set()
        self.loop_first = [0, 0.0]     # mb_loop calls on an unseen key, seconds
        self.loop_repeat = [0, 0.0]    # mb_loop calls on a seen key, seconds
        self.pgd_steps = 0

    def install(self, modules):
        """Wrap the public functions of ``modules`` (a layer -> module map)."""
        wrappers = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("mbhalf.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[obj] = self._wrap("%s.%s" % (layer, obj.__name__), obj)
                setattr(module, attr, wrappers[obj])

    def _wrap(self, name, fn):
        self.stats[name] = [0, 0.0, 0.0]
        observe = {"meijer.mb_loop": self._observe_loop,
                   "equilibrium.equilibrium_minimize": self._observe_pgd}.get(name)
        loop_args = inspect.signature(fn) if observe == self._observe_loop else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = self._loop_key(loop_args, args, kwargs) if loop_args else None
            self._depth[name] = self._depth.get(name, 0) + 1
            frame = [self._now(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                took = self._now() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += took
                self._depth[name] -= 1
                row = self.stats[name]
                row[0] += 1
                row[1] += took - frame[1]
                if self._depth[name] == 0:   # outermost activation only
                    row[2] += took
            if observe is not None:
                observe(key, result, took)
            return result

        return span

    @staticmethod
    def _loop_key(signature, args, kwargs):
        """The exact (b, m, dps) of an mb_loop call, from its arguments."""
        from mpmath import mp, mpf

        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        b = tuple(x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_
                  for x in bound.arguments["b"])
        dps = bound.arguments["dps"]
        return b, int(bound.arguments["m"]), mp.dps if dps is None else int(dps)

    def _observe_loop(self, key, result, took):
        slot = self.loop_repeat if key in self._loop_keys else self.loop_first
        self._loop_keys.add(key)
        slot[0] += 1
        slot[1] += took

    def _observe_pgd(self, key, result, took):
        self.pgd_steps += len(result.objective_trace)

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for layer in LAYERS:
            rows = [r for n, r in self.stats.items() if n.split(".")[0] == layer]
            out[layer + ".calls"] = (sum(r[0] for r in rows), "count")
            out[layer + ".self_s"] = (sum(r[1] for r in rows), "s")

        def row(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        for name in ("mpcore.gamma", "mpcore.quad_ts", "specfun.wright_bessel",
                     "specfun.hyper0f2_theta", "meijer.mb_loop",
                     "meijer.g303_series"):
            out[name + ".calls"] = (row(name)[0], "count")
            out[name + ".self_s"] = (row(name)[1], "s")
        for name in ("mpcore.legendre_nodes", "mpcore.ldu_decompose",
                     "equilibrium.equilibrium_minimize",
                     "equilibrium.variational_residual"):
            out[name + ".self_s"] = (row(name)[1], "s")
        for name in ("rhframe.phi_matrix", "rhframe.psi_matrix", "cli.main"):
            out[name + ".calls"] = (row(name)[0], "count")
        for name in ("kernel.kernel_integral", "kernel.kernel_meijer",
                     "finiten.moments", "finiten.biortho_build",
                     "finiten.hard_edge_convergence"):
            out[name + ".total_s"] = (row(name)[2], "s")
        out["meijer.mb_loop.first_calls"] = (self.loop_first[0], "count")
        out["meijer.mb_loop.first_s"] = (self.loop_first[1], "s")
        out["meijer.mb_loop.repeat_s"] = (self.loop_repeat[1], "s")
        out["equilibrium.pgd_steps"] = (self.pgd_steps, "count")
        return out
