"""Run the zpflab CLI in this process with a span around every public function.

Usage: python -X importtime perfbench/tracer.py SPANS_JSON ARG...

ARG... are the zpflab CLI arguments.  Stdout and the exit code are the
CLI's own.  The spans go to SPANS_JSON when the command ends.

Each public function of each zpflab module is replaced by a wrapper in
every module namespace that binds it.  The program's own calls look
those names up as module attributes at call time, so they go through
the wrappers too.  A span records its name, start, end, thread and
parent span.  ``field.scaling_run`` also records the tracemalloc peak
of the allocations made inside it.
"""

import sys
import time

_import_start = time.perf_counter()
import zpflab.cli  # noqa: E402

_import_end = time.perf_counter()

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402

_spans = []
_ids = itertools.count(1)
_local = threading.local()
_counters = {}


def _traced(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _local.__dict__.setdefault("stack", [])
        span_id = next(_ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            _spans.append((span_id, parent, name, start, end, threading.get_ident()))

    return wrapper


def _with_alloc_peak(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _counters["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    return wrapper


def _install() -> int:
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("zpflab.") and m]
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", None) or ""
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if not owner.startswith("zpflab."):
                continue
            if id(obj) not in wrappers:
                name = owner.removeprefix("zpflab.") + "." + obj.__name__
                wrapped = _with_alloc_peak(obj) if name == "field.scaling_run" else obj
                wrappers[id(obj)] = (obj, _traced(wrapped, name))
            setattr(module, attr, wrappers[id(obj)][1])
    return len(wrappers)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    wrapped = _install()
    code = zpflab.cli.dispatch(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": _import_end - _import_start,
                "main_thread": threading.main_thread().ident,
                "wrapped_functions": wrapped,
                "counters": _counters,
                "spans": _spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
