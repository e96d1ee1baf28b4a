"""zpflab benchmark: CLI processes in a closed loop with one client.

Usage (from the root of a zpflab checkout):

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 40 --trace 0

One pass runs every process of the workload in order.  Passes repeat,
with the same derived seeds, while a typical pass still ends within
--seconds (at least MIN_PASSES of them); each pass is preceded by one
fresh set-up process.
With --trace 0 the last stdout line reports the end-to-end metrics as
medians over the passes.  With --trace 1 one more pass runs under
perfbench/tracer.py and the last line reports the per-layer metrics.
Earlier lines print every metric by name and unit, the run environment,
and any failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import bench
import envinfo
import spans

MIN_PASSES = 3
TRACER = Path(__file__).resolve().parent / "tracer.py"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_ratio": "ratio",
}


def run_passes(commands, env, workdir, seconds, tally):
    """Untraced passes; returns per-pass (wall, cpu, peak rss MB), set-up times, first stdouts."""
    passes, setups, cycles = [], [], []
    reference = None
    start = time.perf_counter()
    # Start another pass only if a typical one still ends within the budget.
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(cycles) <= seconds
    ):
        cycle_start = time.perf_counter()
        setup = bench.run_child(bench.SETUP_ARGV, env, workdir)
        if setup.code != 0:
            raise RuntimeError(f"set-up process failed: {setup.stderr.decode(errors='replace')}")
        setups.append(setup.wall_s)
        pass_start = time.perf_counter()
        children = [bench.run_child(bench.cli_argv(c), env, workdir) for c in commands]
        wall = time.perf_counter() - pass_start
        if reference is None:
            reference = [child.stdout for child in children]
        for command, child, ref in zip(commands, children, reference):
            tally.record(command.label, bench.failure(child, command, ref))
        passes.append((wall, sum(c.cpu_s for c in children), max(c.maxrss_kb for c in children) / 1024))
        cycles.append(time.perf_counter() - cycle_start)
    return passes, setups, reference


def traced_pass(commands, env, workdir, reference, tally):
    """One pass under the tracer; returns (pass wall, traced processes)."""
    procs = []
    pass_start = time.perf_counter()
    for i, (command, ref) in enumerate(zip(commands, reference)):
        out = workdir / f"spans-{i}.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-X", "importtime", str(TRACER), str(out), *command.args]
        child = bench.run_child(argv, env, workdir)
        # Byte-identical to the untraced stdout, or the wrappers changed the program.
        tally.record(f"traced {command.label}", bench.failure(child, command, ref))
        if not out.exists():
            continue
        record = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        main = record["main_thread"]
        procs.append(
            spans.TracedProcess(
                spans=[spans.Span(*s) for s in record["spans"]],
                import_s=record["import_s"],
                importtime=child.stderr.decode("utf-8", errors="replace"),
                stdout_bytes=len(child.stdout),
                alloc_peak_bytes=record["counters"].get("alloc_peak_bytes", 0),
            )
        )
        _print_thread_self_times(command.label, procs[-1].spans, main)
    return time.perf_counter() - pass_start, procs


def _print_thread_self_times(label, span_list, main_thread):
    threads = {}
    rows = sorted(spans.self_by_thread(span_list).items(), key=lambda kv: -kv[1])
    for (thread, name), self_s in rows[:12]:
        tag = threads.setdefault(thread, "main" if thread == main_thread else f"worker{len(threads)}")
        print(f"  self [{label}] {tag:8s} {name:34s} {self_s:.6f} s")


def _print_metrics(metrics):
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zpflab" / "cli.py").is_file():
        print(f"error: no zpflab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = root / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    env = bench.child_env(root)
    commands = bench.commands(args.workload, args.seed)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, one client")
    print("env " + json.dumps(envinfo.environment(root, commands), sort_keys=True))
    for c in commands:
        print("op  zpflab " + " ".join(c.args))

    # Compiles the zpflab bytecode once, as an installed package would have it.
    warm = bench.run_child(bench.SETUP_ARGV, env, workdir)
    if warm.code != 0:
        print(f"error: cannot import zpflab.cli:\n{warm.stderr.decode(errors='replace')}",
              file=sys.stderr)
        return 2

    tally = bench.Tally()
    passes, setups, reference = run_passes(commands, env, workdir, args.seconds, tally)
    walls, cpus, rss = (list(col) for col in zip(*passes))
    print(f"passes {len(passes)}: wall_s min {min(walls):.4f} max {max(walls):.4f}; "
          f"setup_s min {min(setups):.4f} max {max(setups):.4f}")

    if args.trace:
        traced_wall, procs = traced_pass(commands, env, workdir, reference, tally)
        values = spans.layer_metrics(procs, workers=int(env["ZPFLAB_THREADS"]))
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics = {n: {"value": values[n], "unit": u} for n, u in spans.PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
            "success_ratio": 1.0 - tally.fail_ratio,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}

    _print_metrics(metrics)
    print(f"fail_ratio {tally.fail_ratio:.6g} ratio ({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
