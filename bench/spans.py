"""Span tracing from outside the program: every public function of the
toolkit's modules is wrapped at each name a caller resolves it by, for the
duration of a `Tracer.installed()` block, and restored afterwards.

A span records name, start, end, parent span and thread. Spans stay in
memory; `dump` writes them out once the benchmark ends. Spans opened in a
worker thread with no open span of its own (the `run_learn` pool) take the
innermost open span of the main thread as parent, which is the `run_learn`
call that is waiting on them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Private functions traced besides the public ones: the RK4 loop is the
# integrator layer under both simulate_* entry points.
EXTRA_FUNCTIONS = {"simulator": ("_rk4",)}


@dataclass
class Span:
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    thread: int
    ok: bool
    extra: dict = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.end - self.start


def _rk4_extra(args, result) -> dict:
    times, samples = result
    return {"steps": len(times) - 1, "dim": samples.shape[1]}


def _run_pi_extra(args, result) -> dict:
    return {"iterations": len(result.iterates), "converged": bool(result.converged)}


def _csv_extra(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


RESULT_HOOKS = {
    "simulator._rk4": _rk4_extra,
    "policy_iteration.run_pi": _run_pi_extra,
    "cli.write_trajectory_csv": _csv_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = hook(args, result) if ok and hook else {}
                span = Span(sid, name, start, end, parent, threading.get_ident(), ok, extra)
                with self._lock:
                    self.spans.append(span)

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap the public functions of `modules` (short name -> module) at
        every module attribute that refers to them; restore on exit."""
        wrappers = {}  # original function -> its traced wrapper
        for short, mod in modules.items():
            extra = EXTRA_FUNCTIONS.get(short, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        patched = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def mark(self) -> int:
        """Index of the next span, to slice out the spans of one pass."""
        with self._lock:
            return len(self.spans)

    def dump(self, path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({
                "meta": meta,
                "fields": ["sid", "name", "start_ns", "end_ns", "parent", "thread", "ok", "extra"],
                "spans": [[s.sid, s.name, s.start, s.end, s.parent, s.thread, s.ok, s.extra]
                          for s in self.spans],
            }, f)


def self_times(spans: list[Span]) -> dict:
    """sid -> span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = s.dur - covered
    return out
