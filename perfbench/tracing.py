"""Spans and counters installed around the engine's layer boundaries.

Nothing under ``src/`` is edited.  Each probe wraps one function of the
engine and is installed by replacing every module attribute of the
package that is bound to that function, because the engine looks such
names up at call time (``from .x import f`` binds ``f`` in the caller's
module too).  A probe whose function has disappeared is reported as
missing and the run carries on.

A span records name, start, end, parent and thread.  Counters use
``itertools.count``, whose step is atomic under the interpreter lock, so
counts stay exact when the engine runs bound searches on worker threads.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

PACKAGE = "cartwheel_discharge"

# (probe name, defining module, attribute, mode).  "span" records a span
# per call, "count" only counts calls, "after" counts calls and runs the
# probe's hook on return, without a span.
PROBES = (
    ("rules.derive", "rules", "derive_outlets", "span"),
    ("configurations.parse", "configurations", "parse_configurations", "span"),
    ("configurations.build", "configurations", "build_good_configuration",
     "span"),
    ("presentation.parse", "presentation", "parse_presentation", "span"),
    ("presentation.run", "presentation", "run_presentation", "span"),
    ("presentation.reducer", "presentation", "_make_reducer", "reducer"),
    ("presentation.pool", "presentation", "_pool_branch", "after"),
    ("axles.condition_wedge", "axles", "axle_wedge_condition", "count"),
    ("hubcaps.hubcap", "hubcaps", "check_hubcap", "span"),
    ("hubcaps.bound", "hubcaps", "check_bound", "span"),
    ("reducibility.reducible", "reducibility", "reducible", "span"),
    ("reducibility.semi", "reducibility", "semi_reducible", "span"),
    ("reducibility.skeleton", "reducibility", "skeleton_of", "span"),
    ("reducibility.iso", "reducibility", "check_iso", "count"),
    ("kernels.enforced", "_kernels", "outlet_enforced", "count"),
    ("kernels.permitted", "_kernels", "outlet_permitted", "count"),
    ("kernels.wedge", "_kernels", "outlet_wedge", "count"),
)

# every SAMPLE_EVERY-th check_bound call keeps its axle and the outlets
# it has still to decide, the arguments of the isolated kernel timing;
# at most SAMPLE_CAP (axle, outlet, spoke) triples per tracer
SAMPLE_EVERY = 16
SAMPLE_CAP = 2000


def _read(counter):
    # itertools.count has no getter; its repr is "count(N)"
    return int(repr(counter)[6:-1])


class Tracer:
    """Spans, counters and argument samples of one traced region."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, thread)
        self.counters = {}
        self.samples = []          # (axle, outlet, spoke) kernel arguments
        self.notes = {}            # per-probe data kept by hooks
        self.missing = {}          # probe name -> reason
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = None
        self._undo = []

    # -- installation

    def install(self):
        self._main = self._stack()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or
                                         name.startswith(PACKAGE + "."))]
        for name, modname, attr, mode in PROBES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError as e:
                self.missing[name] = f"module {modname} is gone ({e})"
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.missing[name] = f"{modname}.{attr} is gone"
                continue
            self.counters[name] = itertools.count()
            wrapper = self._wrap(name, mode, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))
        return self

    def uninstall(self):
        for m, key, orig in reversed(self._undo):
            setattr(m, key, orig)
        self._undo = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, mode, orig):
        if mode == "reducer":
            return self._wrap_reducer(name, orig)
        counter = self.counters[name]
        if mode == "count":
            def counted(*args, **kw):
                next(counter)
                return orig(*args, **kw)
            return counted
        hook = HOOKS.get(name)
        before = BEFORE.get(name)
        if mode == "after":
            def hooked(*args, **kw):
                next(counter)
                out = orig(*args, **kw)
                hook(self, args, out, None)
                return out
            return hooked

        def spanned(*args, **kw):
            n = next(counter)
            if before is not None:
                before(self, n, args)
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main[-1] if self._main else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kw)
            except BaseException as e:
                if hook is not None:
                    hook(self, args, None, e)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident()))
            if hook is not None:
                hook(self, args, out, None)
            return out
        return spanned

    def _wrap_reducer(self, name, make):
        """The reducer closure check_bound escalates through; calls
        into reducible made inside it count as escalations."""
        counter = self.counters[name]
        local = self._local

        def make_wrapped(*args, **kw):
            inner = make(*args, **kw)

            def escalate(ax):
                next(counter)
                local.escalating = True
                try:
                    return inner(ax)
                finally:
                    local.escalating = False
            return escalate
        return make_wrapped

    def escalating(self):
        return getattr(self._local, "escalating", False)

    def summary(self):
        """Plain data of the traced region, to be merged with other
        regions' by ``measure.layer_metrics``."""
        return dict(counts={name: _read(c)
                            for name, c in self.counters.items()},
                    times=span_times(self.spans), notes=self.notes,
                    missing=self.missing, samples=self.samples)


# -- hooks: per-probe data kept alongside the spans

def _note(tracer, key, default):
    return tracer.notes.setdefault(key, default)


def _on_derive(tracer, args, out, err):
    if out is not None:
        _note(tracer, "outlets", []).append(len(out))


def _on_run(tracer, args, out, err):
    # skeleton reuse within this run only: a verify call makes one run
    calls = len(tracer.notes.pop("skeleton_calls", ()))
    keys = tracer.notes.pop("skeleton_keys", set())
    shapes = tracer.notes.pop("skeleton_shapes", set())
    if calls:
        _note(tracer, "skeleton_runs", []).append(
            (calls, len(keys), len(shapes)))
    # pool peak up to the end of the run or its failing line
    peak = tracer.notes.pop("pool_run_peak", 0)
    if out is not None:
        peak = max(peak, out.pool_peak)
    _note(tracer, "pool_peak", []).append(peak)
    if out is not None:
        _note(tracer, "steps", []).append(out.steps)
        return
    line = getattr(err, "line", None)
    lines = args[1] if len(args) > 1 else ()
    if line is not None:
        _note(tracer, "steps", []).append(
            sum(1 for ln in lines if getattr(ln, "no", line + 1) <= line))


def _on_pool(tracer, args, out, err):
    # args[0] is the run's pool, just appended to or left as it was
    tracer.notes["pool_run_peak"] = max(
        tracer.notes.get("pool_run_peak", 0), len(args[0]))


def _on_reducible(tracer, args, out, err):
    key = "escalated" if tracer.escalating() else "disposition"
    _note(tracer, key, []).append(1)


def _on_semi(tracer, args, out, err):
    if out is not None:
        _note(tracer, "placements", []).append(1)


def _on_skeleton(tracer, args, out, err):
    a = args[0]
    _note(tracer, "skeleton_calls", []).append(1)
    _note(tracer, "skeleton_keys", set()).add((a.lo, a.hi))
    pins = tuple(h if h <= 8 else 0 for h in a.hi[1:a.d + 1])
    _note(tracer, "skeleton_shapes", set()).add(pins)


HOOKS = {
    "rules.derive": _on_derive,
    "presentation.run": _on_run,
    "presentation.pool": _on_pool,
    "reducibility.reducible": _on_reducible,
    "reducibility.semi": _on_semi,
    "reducibility.skeleton": _on_skeleton,
}


def _sample_bound(tracer, n, args):
    """Keep the axle and still undecided outlets of a check_bound call,
    taken on entry, before the call settles its sign vector."""
    if n % SAMPLE_EVERY or len(tracer.samples) >= SAMPLE_CAP:
        return
    ctx, _, s, _, a = args[:5]
    tracer.samples += [(a, out, x) for i, (out, x) in
                       enumerate(ctx.positioned) if s[i] == 0]


# calls made on entry to a span, with the call's ordinal
BEFORE = {"hubcaps.bound": _sample_bound}


# -- span arithmetic

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for s, e in sorted(intervals):
        s = max(s, end)
        e = min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def span_times(spans):
    """name -> (total duration, total self time, calls).  Self time is a
    span's duration minus the part of it its children cover; children
    on worker threads count too."""
    kids = {}
    for sid, name, t0, t1, parent, _ in spans:
        kids.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, name, t0, t1, parent, _ in spans:
        dur = t1 - t0
        own = dur - _covered(kids.get(sid, ()), t0, t1)
        tot, slf, n = out.get(name, (0.0, 0.0, 0))
        out[name] = (tot + dur, slf + own, n + 1)
    return out
