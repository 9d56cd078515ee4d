"""Run one ``psg`` invocation in this process with its layers traced from
outside.

Usage: python psgbench/tracer.py {spans|memory} OUT.json -- PSG_ARGS...

The package is imported unchanged; the public functions of each traced
module are wrapped and every module namespace that refers to one of them
(the import sites) is pointed at the wrapper, so calls between modules pass
through it.  Spans are kept in memory and written to OUT.json when the
invocation ends, also when it crashes or is stopped with SIGTERM after a
timeout.

``spans`` records one span per call: name, start, end (ns), parent index,
and whether an exception escaped.  A recursive call of the function already
on top of the stack gets no span of its own.  ``memory`` wraps only the
functions in MEMORY_TARGETS and records the tracemalloc peak of each call
above its starting level; tracemalloc runs only inside those calls, so the
rest of the invocation pays nothing for it.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import sys
import time
import tracemalloc

from layers import LAYERS, PEAKS

MEMORY_TARGETS = tuple(PEAKS.values())


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, error]
        self.stack: list[int] = []
        self.memory: list[list] = []  # [name, peak_bytes]
        self.mem_stack: list[list[int]] = []  # [start_bytes, inner_peak]
        self.entries = 0  # k * (horizon + 1) summed over table growth

    def span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = True
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return wrapper

    def peak(self, name, fn):
        mem_stack, memory = self.mem_stack, self.memory

        def wrapper(*args, **kwargs):
            if not mem_stack:
                tracemalloc.start()
            mem_stack.append([tracemalloc.get_traced_memory()[0], 0])
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                start, inner = mem_stack.pop()
                top = max(tracemalloc.get_traced_memory()[1], inner)
                memory.append([name, top - start])
                if mem_stack:
                    mem_stack[-1][1] = max(mem_stack[-1][1], top)
                else:
                    tracemalloc.stop()

        return wrapper

    def close_open(self) -> None:
        now = time.perf_counter_ns()
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()


def install(recorder: Recorder, mode: str):
    """Wrap the traced functions and patch every import site; return the
    CLI entry point and the pseudo-Frobenius cache (for its counters)."""
    modules = {layer: importlib.import_module(f"psemigroups.{layer}") for layer in LAYERS}
    pf = getattr(modules["symmetry"], "pseudo_frobenius", None)
    replace: dict[int, object] = {}
    for layer, module in modules.items():
        for fname, fn in _public_functions(module):
            name = f"{layer}.{fname}"
            if mode == "spans":
                replace[id(fn)] = recorder.span(name, fn)
            elif name in MEMORY_TARGETS:
                replace[id(fn)] = recorder.peak(name, fn)
    table = getattr(modules["denumerant"], "DenumerantTable", None)
    if mode == "spans" and table is not None:
        _trace_table(recorder, table)
    package = [m for n, m in sys.modules.items() if n == "psemigroups" or n.startswith("psemigroups.")]
    for module in package:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in replace:
                namespace[key] = replace[id(value)]
    return modules["cli"].main, pf


def _trace_table(recorder: Recorder, table) -> None:
    """Span the table's construction and growth and count the entries they
    compute, from the public ``horizon``.  ``ensure`` is called once per
    index by the scans, so calls that need no growth get no span; ``count``
    is never wrapped."""
    init = recorder.span("denumerant.DenumerantTable", table.__init__)
    ensure = recorder.span("denumerant.DenumerantTable.ensure", table.ensure)

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.entries += len(self.generators) * (self.horizon + 1)

    def traced_ensure(self, n):
        before = self.horizon
        if n <= before:
            return None
        ensure(self, n)
        recorder.entries += len(self.generators) * (self.horizon - before)

    table.__init__, table.ensure = traced_init, traced_ensure


def write(path: str, recorder: Recorder, pf) -> None:
    info = pf.cache_info() if hasattr(pf, "cache_info") else None
    doc = {
        "spans": recorder.spans,
        "memory": recorder.memory,
        "entries": recorder.entries,
        "pf_cache": [info.hits, info.misses] if info else None,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    mode, out, sep, *psg_args = argv
    if mode not in ("spans", "memory") or sep != "--":
        raise SystemExit("usage: tracer.py {spans|memory} OUT.json -- PSG_ARGS...")
    recorder = Recorder()
    entry, pf = install(recorder, mode)

    def on_term(signum, frame):
        recorder.close_open()
        write(out, recorder, pf)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return entry(psg_args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        recorder.close_open()
        write(out, recorder, pf)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
