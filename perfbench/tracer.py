"""Call counts, busy time and spans for rnpm's public functions, taken from
outside the program.

`Tracer.install` replaces each function in `TRACED` with a timing wrapper in
every rnpm module that binds it: the defining module, each
`from .module import name` copy and the package's re-exports. A call through
any of those names is therefore seen. `uninstall` puts the originals back.

Counters live in one record per thread and are summed by `collect`, so the
sweep and Monte Carlo pools never share a counter. Every wrapper also keeps
the time its own wrapped callees took, which gives each function's self time.
Functions marked as spans additionally record one span per call; the other
ones are hot leaves that see millions of calls and only aggregate.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

#: (module, function, keeps per-call spans)
TRACED = (
    ("cli", "run", True),
    ("optimize", "sweep", False),
    ("optimize", "optimize_chain", True),
    ("chain", "generation_perf", False),
    ("chain", "swap_perf", False),
    ("chain", "chain_closed_form", False),
    ("chain", "simulate_waiting_time", True),
    ("chain", "waiting_time_stats", False),
    ("formulas", "performance", False),
    ("formulas", "performance_oracle", False),
    ("optics", "run_protocol", False),
    ("optics", "phase_error_split", False),
    ("distill", "recurrence_step", False),
    ("gadgets", "parity_check", False),
)

#: span attributes copied from a call's arguments
SPAN_ARGS = {"chain.simulate_waiting_time": "trials"}

NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)
PACKAGE = "rnpm"


class Tracer:
    """Wraps the `TRACED` functions of the imported ``rnpm`` package."""

    def __init__(self):
        self.trace_id = None      # set by the caller: one id per op
        self._bindings = []       # (module, attribute, original)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)   # next() is atomic under the GIL
        self._epoch = time.perf_counter()
        self.reset()

    # -- per-thread records ------------------------------------------------

    def reset(self) -> None:
        """Drop the counters and spans gathered so far."""
        self._tls = threading.local()
        self._records = []
        self._root = None

    def _thread_record(self, tls) -> dict:
        tls.acc = {name: [0, 0.0, 0.0] for name in NAMES}
        tls.child = 0.0
        tls.stack = []
        tls.spans = []
        with self._lock:
            self._records.append((tls.acc, tls.spans))
        return tls.acc

    def collect(self) -> tuple[dict, list]:
        """({name: (calls, seconds, self seconds)}, spans) since `reset`."""
        with self._lock:
            records = list(self._records)
        totals = {name: [0, 0.0, 0.0] for name in NAMES}
        spans = []
        for acc, thread_spans in records:
            for name, (calls, total, own) in acc.items():
                t = totals[name]
                t[0] += calls
                t[1] += total
                t[2] += own
            spans.extend(thread_spans)
        spans.sort(key=lambda s: s["start"])
        return {k: tuple(v) for k, v in totals.items()}, spans

    # -- wrappers ----------------------------------------------------------

    def _wrap_leaf(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = tracer._tls
            try:
                acc = tls.acc
            except AttributeError:
                acc = tracer._thread_record(tls)
            outer = tls.child
            tls.child = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec = acc[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - tls.child
                tls.child = outer + dt

        return wrapper

    def _wrap_span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        arg = SPAN_ARGS.get(name)
        signature = inspect.signature(fn) if arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = tracer._tls
            try:
                acc = tls.acc
            except AttributeError:
                acc = tracer._thread_record(tls)
            # a span opened with an empty stack in another thread (a pool
            # worker) belongs to the op's root span
            parent = tls.stack[-1] if tls.stack else tracer._root
            sid = next(tracer._ids)
            is_root = parent is None
            if is_root:
                tracer._root = sid
            tls.stack.append(sid)
            outer = tls.child
            tls.child = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                rec = acc[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - tls.child
                tls.child = outer + dt
                tls.stack.pop()
                if is_root:
                    tracer._root = None
                span = {"trace": tracer.trace_id, "span": sid,
                        "parent": parent, "name": name,
                        "thread": threading.get_ident(),
                        "start": t0 - tracer._epoch,
                        "end": t1 - tracer._epoch}
                if arg:
                    span[arg] = signature.bind(*args, **kwargs).arguments[arg]
                tls.spans.append(span)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every `TRACED` function."""
        if self._bindings:
            return
        for mod_name, fn_name, keeps_spans in TRACED:
            name = f"{mod_name}.{fn_name}"
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(module, fn_name)
            wrapper = (self._wrap_span if keeps_spans else self._wrap_leaf)(
                name, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        while self._bindings:
            mod, attr, original = self._bindings.pop()
            setattr(mod, attr, original)


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE
                                  or key.startswith(PACKAGE + "."))]
