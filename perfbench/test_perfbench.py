"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root: python -m pytest perfbench -q
"""

import json
import math
import resource
import sys
from pathlib import Path

import bench
import run
import spans
from spans import Span

ROOT = Path(__file__).resolve().parents[1]


def test_self_time_of_nested_spans():
    trace = [
        Span(1, None, "outer", 0.0, 10.0, 7),
        Span(2, 1, "a", 1.0, 4.0, 7),
        Span(3, 2, "a.inner", 2.0, 3.0, 7),
        Span(4, 1, "b", 6.0, 7.0, 7),
    ]
    selfs = spans.self_times(trace)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(selfs.values()) == trace[0].duration


def test_self_time_on_two_threads_is_not_double_counted():
    # The main thread waits in scaling_run while two workers draw in parallel.
    trace = [
        Span(1, None, "field.scaling_run", 0.0, 10.0, 1),
        Span(2, None, "field.draw_modes", 1.0, 6.0, 2),
        Span(3, 2, "field.mode_std", 1.0, 2.0, 2),
        Span(4, None, "field.draw_modes", 2.0, 7.0, 3),
    ]
    per_thread = spans.self_by_thread(trace)
    assert per_thread == {
        (1, "field.scaling_run"): 10.0,
        (2, "field.draw_modes"): 4.0,
        (2, "field.mode_std"): 1.0,
        (3, "field.draw_modes"): 5.0,
    }
    proc = spans.TracedProcess(trace, import_s=0.5, importtime="", stdout_bytes=3,
                               alloc_peak_bytes=2**21)
    m = spans.layer_metrics([proc], workers=2)
    assert m["field.draw_self_s"] == 9.0
    assert m["field.spectrum_s"] == 1.0
    assert m["field.worker_utilization"] == (5.0 + 5.0) / (2 * 10.0)
    assert m["field.alloc_peak_mb"] == 2.0
    assert set(m) == set(spans.PER_LAYER) - {"trace.overhead_s"}


def test_covered_merges_overlaps_and_ignores_empty_intervals():
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == 4.0


def test_import_time_counts_outermost_modules_of_a_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     _helper",
        "import time:       200 |        300 |   scipy._lib",
        "import time:        50 |         50 |   unittest",
        "import time:       400 |        750 | scipy",
        "import time:        10 |         10 |     scipy.integrate._x",
        "import time:        20 |         30 |   scipy.integrate",
        "import time:         5 |         35 | zpflab.oscillator",
        "manifest line that is not importtime output",
    ])
    assert math.isclose(spans.import_cumulative_s(stderr, "scipy"), 780e-6)
    assert spans.import_cumulative_s(stderr, "numpy") == 0.0


def _child(stdout: str, code: int = 0) -> bench.Child:
    return bench.Child(("zpflab",), code, 1.0, 1.0, 1, stdout.encode(), b"")


CASIMIR = bench.Command(("casimir",), bench.check_casimir)


def _casimir_stdout(coefficient: float) -> str:
    return json.dumps({"energy_coefficient": coefficient, "zeta_check": 1.0 / 120.0})


def test_fail_ratio_counts_a_non_zero_exit():
    child = bench.run_child([sys.executable, "-c", "import sys; sys.exit(3)"])
    tally = bench.Tally()
    tally.record("exit", bench.failure(child, CASIMIR))
    tally.record("ok", bench.failure(_child(_casimir_stdout(math.pi**2 / 720.0)), CASIMIR))
    assert child.code == 3
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5)
    assert tally.reasons == ["exit: exit code 3"]


def test_fail_ratio_counts_out_of_tolerance_and_non_finite_results():
    exact = math.pi**2 / 720.0
    tally = bench.Tally()
    tally.record("close", bench.failure(_child(_casimir_stdout(exact * (1 + 5e-4))), CASIMIR))
    tally.record("far", bench.failure(_child(_casimir_stdout(exact * (1 + 2e-3))), CASIMIR))
    tally.record("nan", bench.failure(_child(_casimir_stdout(float("nan"))), CASIMIR))
    lamb = bench.Command(("lamb",), bench.check_lamb)
    tally.record("lamb", bench.failure(_child("quantity,value,unit\nshift_frequency,3001,MHz"), lamb))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fail_ratio == 0.75


def test_output_differing_between_passes_is_a_failure():
    stdout = _casimir_stdout(math.pi**2 / 720.0)
    assert bench.failure(_child(stdout), CASIMIR, reference=stdout.encode()) is None
    reason = bench.failure(_child(stdout), CASIMIR, reference=b"other")
    assert reason == "stdout differs from the first pass with the same seed"


def test_peak_rss_of_a_small_child_is_not_the_large_one_before_it():
    large = bench.run_child([sys.executable, "-c", "b = b'x' * (300 << 20)"])
    small = bench.run_child([sys.executable, "-c", "pass"])
    assert large.code == small.code == 0
    assert large.maxrss_kb > 300 * 1024
    # A child's max-RSS starts from this process's RSS at spawn, which a
    # test run that has imported numpy and scipy makes about 100 MB.
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert small.maxrss_kb < max(own_kb, 32 * 1024) + 32 * 1024 < large.maxrss_kb
    # The aggregate over all reaped children would have reported the large one.
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss >= large.maxrss_kb


def test_pinned_constants_match_the_snapshot_file():
    snapshot = {}
    data = ROOT / "src" / "zpflab" / "data" / "codata2018.txt"
    for line in data.read_text(encoding="utf-8").splitlines():
        if line.startswith("gaussian."):
            name, value = line.split("#")[0].split("=")
            snapshot[name.strip().removeprefix("gaussian.")] = float(value)
    assert {k: snapshot[k] for k in bench.GAUSSIAN_SNAPSHOT} == bench.GAUSSIAN_SNAPSHOT


def test_tracer_leaves_stdout_unchanged_and_records_nested_spans(tmp_path):
    env = bench.child_env(ROOT)
    command = bench.Command(("lamb", "--n", "2"), bench.check_lamb)
    plain = bench.run_child(bench.cli_argv(command), env, tmp_path)
    out = tmp_path / "spans.json"
    tracer = Path(bench.__file__).with_name("tracer.py")
    traced = bench.run_child([sys.executable, str(tracer), str(out), *command.args], env, tmp_path)
    assert plain.code == traced.code == 0
    assert traced.stdout == plain.stdout
    assert bench.failure(traced, command, reference=plain.stdout) is None
    trace = [Span(*s) for s in json.loads(out.read_text())["spans"]]
    by_id = {s.id: s for s in trace}
    shift = next(s for s in trace if s.name == "lamb.hydrogen_s_shift")
    assert by_id[shift.parent].name == "cli.dispatch"
    assert spans.layer_metrics(
        [spans.TracedProcess(trace, 0.0, "", len(traced.stdout), 0)], workers=1
    )["lamb.self_s"] > 0


def test_benchmark_json_names_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
