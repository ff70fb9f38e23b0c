"""Span tracing of affsim from outside its sources.

`Tracer.install` replaces each traced public function with a wrapper under
every `affsim.*` module attribute that holds the same function object, so
calls made through `from .x import y` bindings are caught as well as calls
through the package. Spans (layer, start, end, parent) are kept in flat
arrays in memory; self time is a span's duration minus the durations of
its direct children. Nothing under `src/` is modified on disk.
"""

import sys
import time
from array import array

# (module, function name, layer). Layers are the names per-layer metrics
# are reported under; several functions may share one layer.
TRACED = (
    ("affsim.sim", "integrate_download", "sim.integrate_download"),
    ("affsim.sim", "run_session", "sim.run_session"),
    ("affsim.fairness", "run_fairness", "fairness"),
    ("affsim.estimators", "estimator_update", "estimators.dispatch"),
    ("affsim.estimators", "aff_update", "estimators.aff"),
    ("affsim.estimators", "ewma_update", "estimators.ewma"),
    ("affsim.estimators", "sliding_mean_update", "estimators.sliding_mean"),
    ("affsim.abr", "decide", "abr"),
    ("affsim.profiles", "load_profile", "profiles"),
    ("affsim.profiles", "profile_stats", "profiles"),
    ("affsim.profiles", "synthesize_profile", "profiles"),
    ("affsim.report", "summarize", "report.summarize"),
    ("affsim.report", "export", "report.export"),
    ("affsim.cli", "main", "cli"),
)

# The benchmark's own code inside a timed call (stdout redirection, the
# call loop). It is the root span of every top-level call.
ROOT_LAYER = "bench"

LAYERS = (ROOT_LAYER,) + tuple(dict.fromkeys(layer for _, _, layer in TRACED))


class Tracer:
    """Records spans while `recording` is true; passes calls through otherwise.

    While `collecting` is true, `decide` results are tallied by reason and
    every (profile, SessionTrace) returned by `run_session` is kept, so that
    exact per-pass counts can be computed after the timed region.
    """

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.recording = False
        self.collecting = False
        self.reasons = {}
        self.sessions = []
        self.fairness_cfgs = []
        self._patched = []  # (module, attribute, original)

    def install(self):
        originals = {}
        for mod_name, fn_name, layer in TRACED:
            fn = getattr(sys.modules[mod_name], fn_name)
            originals[id(fn)] = (fn, self._wrap(fn, self.layer_ids[layer]))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "affsim"
                                      or mod_name.startswith("affsim.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn, layer_id):
        hook = {"decide": self._count_reason,
                "run_session": self._keep_session,
                "run_fairness": self._keep_fairness}.get(fn.__name__)
        layer, parent, start, end = self.layer, self.parent, self.start, \
            self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None and self.collecting:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def wrap(self, fn, layer_name):
        """`fn` recording one span per call under `layer_name`."""
        return self._wrap(fn, self.layer_ids[layer_name])

    def _count_reason(self, args, kwargs, decision):
        self.reasons[decision.reason] = self.reasons.get(decision.reason, 0) \
            + 1

    def _keep_session(self, args, kwargs, trace):
        profile = args[0] if args else kwargs["profile"]
        self.sessions.append((profile, trace))

    def _keep_fairness(self, args, kwargs, result):
        self.fairness_cfgs.append(args[0] if args else kwargs["cfg"])

    def layer_totals(self):
        """{layer: (calls, self_s)} over every recorded span."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_s[lid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)}

    def root_total_s(self):
        """Summed duration of the top-level spans."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.layer)) if self.parent[i] < 0)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,layer,parent,start_s,end_s\n")
            for i in range(len(self.layer)):
                fh.write("%d,%s,%d,%r,%r\n" % (
                    i, LAYERS[self.layer[i]], self.parent[i], self.start[i],
                    self.end[i]))
