"""In-memory spans around risloc's public functions, for traced runs.

A wrapper is installed in every risloc module that holds the function
under that name, because ``harness`` and ``cli`` import ``estimate``,
``nf_grid_search_batch``, ``generate_snapshot`` and ``save_snapshot`` by
name. Each finished call appends one span: id, name, start, end, parent
id, thread id and an optional dict of facts taken from its arguments or
result. Calls on a pool thread have no parent on their own thread; they
take the innermost open span of the thread that last entered
``Tracer.call``.
"""

import itertools
import json
import sys
import threading
import time

#: (module, function, fact extractor) for every wrapped layer boundary.
#: An extractor maps (args, kwargs, result) to a dict stored on the span.
_TARGETS = (
    ("geometry", "build_composite_ris", None),
    ("channel", "generate_snapshot", None),
    ("channel", "save_snapshot", None),
    ("estimator", "estimate", None),
    ("estimator", "nf_grid_search_batch",
     lambda a, k, r: {"snapshots": sum(len(ys) for _, ys in a[0])}),
    ("estimator", "ff_grid_search", None),
    ("estimator", "nf_fine_grid_search",
     lambda a, k, r: {"coarse": [a[2].azimuth, a[2].elevation,
                                 a[2].range_m]}),
    ("estimator", "refine_loop",
     lambda a, k, r: {"iterations": r[2],
                      "max_iter": a[4] if len(a) > 4
                      else k.get("max_iter", 50)}),
    ("estimator", "gradient_descent_6d",
     lambda a, k, r: {"iterations": r[3]}),
    ("estimator", "steering_vector", None),
    ("estimator", "cost_and_grad", None),
    ("harness", "line_sweep", None),
    ("harness", "aoi_sweep", None),
    # The per-point unit of both sweeps; private, so it may disappear, in
    # which case harness.point_s reads 0.
    ("harness", "_point_traces", None),
    ("cli", "write_trace", None),
    ("cli", "write_manifest", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, facts=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._root_stack:
                parent = self._root_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if facts is not None:
                    extra = facts(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), extra))
        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; pool threads it starts nest under it."""
        self._root_stack = self._stack()
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        mods = {m: sys.modules[f"risloc.{m}"]
                for m in ("geometry", "channel", "estimator", "harness", "cli")
                if f"risloc.{m}" in sys.modules}
        for home, attr, facts in _TARGETS:
            if home not in mods or not hasattr(mods[home], attr):
                continue
            orig = getattr(mods[home], attr)
            wrapper = self.wrap(f"{home}.{attr.lstrip('_')}", orig, facts)
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def per_span_cost(self, n=20000):
        """Measured cost of one span record, seconds."""
        def noop():
            return None
        wrapped = self.wrap("calibration", noop)
        saved = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        del self.spans[saved:]
        return max((t2 - t1) - (t1 - t0), 0.0) / n


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def dump(spans, path, meta):
    """Write spans with their self times as JSON."""
    selfs = self_times(spans)
    rows = [{"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "thread": thread, "self_s": selfs[sid],
             **({"facts": extra} if extra else {})}
            for sid, name, start, end, parent, thread, extra in spans]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "spans": rows}, fh)
