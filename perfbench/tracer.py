"""Span tracing of corrls layers, wrapped from outside the package.

`Tracer.patch()` replaces each traced function by a timing wrapper in its
defining module and in every corrls module that imported the name, so calls
made inside the package are traced too.  Nothing under ``src/`` changes, and
`Tracer.unpatch()` puts the original functions back.

Each thread keeps its own span stack, so self time (a span's duration minus
the time its child spans in the same thread cover) is right for the
thread-pool grid.  A span that opens with an empty stack in a worker thread
takes as parent the span open at the bottom of the main thread's stack
(``experiment.run_grid`` for a grid).  Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lipschitz(args, kwargs, result):
    p = _arg(args, kwargs, 0, "G").shape[0]
    return {"flop": 2 * p**3}  # the dense G @ G


def _l1_fit(args, kwargs, result):
    return {"iters": result.iterations, "unconverged": int(not result.converged)}


def _post_fit(args, kwargs, result):
    return {"fallback": int(result.fallback_used)}


def _cross_validate(args, kwargs, result):
    losses = result[1]
    return {"points": len(losses), "inf": sum(1 for x in losses if x == float("inf"))}


def _corrected_loss(args, kwargs, result):
    p = _arg(args, kwargs, 1, "m").p
    return {"flop": 2 * p**2}  # the quadratic form b'Gb


def _read_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


#: module -> {function: observer of (args, kwargs, result) returning counters}
TRACED = {
    "selection": {"lipschitz_estimate": _lipschitz, "l1_cls_fit": _l1_fit,
                  "project_l1_ball": None, "cs_screen": None},
    "post": {"post_cls_fit": _post_fit, "cross_validate": _cross_validate},
    "moments": {"corrected_moments": None, "corrected_loss": _corrected_loss},
    "precision": {"neighborhood_moments": None, "assemble_precision": None,
                  "estimate_precision": None},
    "data": {"read_dataset_csv": _read_csv, "write_matrix_csv": None,
             "write_dataset_csv": None},
    "experiment": {"run_grid": None},
    "simulate": {"gen_regression": None},
    "cli": {"main": None},
}


class Tracer:
    """Records one span per call of every function in `TRACED`.

    A span is ``(span_id, parent_id, unit, thread, name, start, end)``;
    ``unit`` is the benchmark unit (a grid pass or a CLI call) that was
    running, set by the caller through the `unit` attribute.  ``stats`` holds
    per-function calls, self and total seconds, and the counters the
    function's observer derives from its arguments and result.
    """

    def __init__(self):
        self.unit = 0
        self.spans = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def take_stats(self):
        """Per-function totals since the last call, as plain dicts; spans stay."""
        with self._lock:
            stats, self.stats = self.stats, defaultdict(lambda: defaultdict(float))
        return {name: dict(entry) for name, entry in stats.items()}

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            else:
                main = tracer._main_stack
                parent = main[0][0] if main and stack is not main else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                counters = observe(args, kwargs, result) if ok and observe else {}
                with tracer._lock:
                    tracer.spans.append((frame[0], parent, tracer.unit,
                                         threading.get_ident(), name, start, end))
                    entry = tracer.stats[name]
                    entry["calls"] += 1
                    entry["self_s"] += duration - frame[1]
                    entry["total_s"] += duration
                    for key, value in counters.items():
                        entry[key] += value
            return result

        return traced

    def patch(self):
        """Wrap every traced function wherever a corrls module holds it."""
        if self._patched:
            return
        package = [m for n, m in list(sys.modules.items())
                   if n == "corrls" or n.startswith("corrls.")]
        for short, functions in TRACED.items():
            module = sys.modules[f"corrls.{short}"]
            for fname, observe in functions.items():
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, observe)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def unpatch(self):
        for holder, attr, original in self._patched:
            setattr(holder, attr, original)
        self._patched = []

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,unit,thread,name,start_s,end_s\n")
            for sid, parent, unit, thread, name, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{unit},{thread},"
                         f"{name},{start:.9f},{end:.9f}\n")
