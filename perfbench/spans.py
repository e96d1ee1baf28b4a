"""Span arithmetic and the per-layer metrics of one traced pass.

A span is (id, parent, name, start, end, thread).  A parent span is
always on its child's thread, because the tracer keeps one span stack
per thread.  A span's self time is its duration minus the part of it
that its child spans cover.  Self times are summed per thread, so spans
that overlap on two worker threads are each counted once, on their own
thread.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration
        - covered((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        for s in spans
    }


def self_by_thread(spans: list[Span]) -> dict[tuple[int, str], float]:
    """(thread, span name) -> summed self time on that thread."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[(s.thread, s.name)] += selfs[s.id]
    return dict(out)


def import_cumulative_s(importtime_stderr: str, package: str) -> float:
    """Seconds to import ``package`` and what it alone pulled in (-X importtime).

    Sums the cumulative time of each module of the package that was not
    imported from inside another module of the same package.
    """
    total_us = 0
    stack = []  # (depth, inside the package) of the ancestors of the current line
    # importtime prints each module after its imports; reversed, parents come first.
    for line in reversed(importtime_stderr.splitlines()):
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # not an importtime line, or its header
        raw = fields[2].rstrip()
        name = raw.lstrip()
        depth = len(raw) - len(name)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_parent = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not in_parent:
            total_us += int(fields[1])
        stack.append((depth, mine or in_parent))
    return total_us / 1e6


class TracedProcess(NamedTuple):
    spans: list[Span]
    import_s: float  # wall time of `import zpflab.cli`
    importtime: str  # the -X importtime lines from stderr
    stdout_bytes: int
    alloc_peak_bytes: int


# Per-layer metric -> unit.
PER_LAYER = {
    "import.zpflab_cli_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.mpmath_s": "s",
    "cli.build_parser_s": "s",
    "cli.dispatch_self_s": "s",
    "cli.stdout_bytes": "bytes",
    "units.constants_for_s": "s",
    "units.constants_for_calls": "count",
    "oscillator.sample_positions_s": "s",
    "casimir.regulated_cubic_sum_s": "s",
    "casimir.regulated_cubic_sum_calls": "count",
    "casimir.extrapolate_to_zero_s": "s",
    "lamb.self_s": "s",
    "coil.zpf_tap_estimate_s": "s",
    "field.spectrum_s": "s",
    "field.wavenumber_magnitudes_calls": "count",
    "field.draw_self_s": "s",
    "field.validate_self_s": "s",
    "field.synthesize_self_s": "s",
    "field.coarse_grain_s": "s",
    "field.fit_s": "s",
    "field.worker_utilization": "ratio",
    "field.alloc_peak_mb": "MB",
    "trace.overhead_s": "s",
}

# Spans that make up one draw's work inside field.scaling_run.
_DRAW_WORK = ("field.draw_modes", "field.synthesize_field")


def layer_metrics(procs: list[TracedProcess], workers: int) -> dict[str, float]:
    """Per-layer metrics summed over the processes of one traced pass.

    Times are seconds, totals over every process and thread.  Every
    metric of PER_LAYER is present except trace.overhead_s, which needs
    the untraced passes.
    """
    total = defaultdict(float)  # inclusive time per span name
    own = defaultdict(float)  # self time per span name
    calls = defaultdict(int)
    busy = 0.0
    run_capacity = 0.0
    m = defaultdict(float)
    m["cli.stdout_bytes"] = 0
    for p in procs:
        selfs = self_times(p.spans)
        for s in p.spans:
            total[s.name] += s.duration
            own[s.name] += selfs[s.id]
            calls[s.name] += 1
        for run in (s for s in p.spans if s.name == "field.scaling_run"):
            per_thread = defaultdict(list)
            for s in p.spans:
                if s.name in _DRAW_WORK and s.start < run.end and s.end > run.start:
                    per_thread[s.thread].append((max(s.start, run.start), min(s.end, run.end)))
            busy += sum(covered(iv) for iv in per_thread.values())
            run_capacity += workers * run.duration
        m["import.zpflab_cli_s"] += p.import_s
        for package in ("scipy", "numpy", "mpmath"):
            m[f"import.{package}_s"] += import_cumulative_s(p.importtime, package)
        m["cli.stdout_bytes"] += p.stdout_bytes
        m["field.alloc_peak_mb"] = max(m["field.alloc_peak_mb"], p.alloc_peak_bytes / 2**20)

    m["cli.build_parser_s"] = total["cli.build_parser"]
    m["cli.dispatch_self_s"] = own["cli.dispatch"]
    m["units.constants_for_s"] = total["units.constants_for"]
    m["units.constants_for_calls"] = calls["units.constants_for"]
    m["oscillator.sample_positions_s"] = total["oscillator.sample_positions"]
    m["casimir.regulated_cubic_sum_s"] = total["casimir.regulated_cubic_sum"]
    m["casimir.regulated_cubic_sum_calls"] = calls["casimir.regulated_cubic_sum"]
    m["casimir.extrapolate_to_zero_s"] = total["casimir.extrapolate_to_zero"]
    m["lamb.self_s"] = sum(v for k, v in own.items() if k.startswith("lamb."))
    m["coil.zpf_tap_estimate_s"] = total["coil.zpf_tap_estimate"]
    m["field.spectrum_s"] = own["field.mode_std"] + own["field.wavenumber_magnitudes"]
    m["field.wavenumber_magnitudes_calls"] = calls["field.wavenumber_magnitudes"]
    m["field.draw_self_s"] = own["field.draw_modes"]
    m["field.validate_self_s"] = own["field.validate_mode_draw"]
    m["field.synthesize_self_s"] = own["field.synthesize_field"]
    m["field.coarse_grain_s"] = total["field.coarse_grain_rms"]
    m["field.fit_s"] = total["field.fit_scaling"]
    m["field.worker_utilization"] = busy / run_capacity if run_capacity else 0.0
    return dict(m)
