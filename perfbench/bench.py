"""Child processes, workloads and output checks for the zpflab benchmark.

Every operation is one ``python -m zpflab.cli ...`` process, run to
completion before the next starts (a closed loop with one client).
Outputs are checked against the paper's acceptance tolerances, not
against pinned digests, so a declared change in the printed digits is
not counted as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHILD_TIMEOUT_S = 150.0

# CODATA-2018 values of src/zpflab/data/codata2018.txt that the default
# `constants` table (Gaussian system) prints.
GAUSSIAN_SNAPSHOT = {
    "hbar": 1.0545718176461565e-27,
    "c": 29979245800.0,
    "e": 4.803204713884972e-10,
    "m_e": 9.1093837015e-28,
    "alpha": 7.2973525693e-3,
    "a0": 5.29177210903e-9,
    "lambda_C": 3.861592679608906e-11,
    "tau_C": 1.2880886681975522e-21,
}
OSCILLATOR_SAMPLES = 1_000_000
CASIMIR_EPSILONS = "0.016,0.008,0.004,0.002,0.001"


class CheckFailed(Exception):
    """An operation's output broke one of the acceptance tolerances."""


@dataclass(frozen=True)
class Child:
    argv: tuple
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(argv, env=None, workdir=None, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run argv to completion; take its CPU time and peak RSS from os.wait4.

    wait4 reports the rusage of this one child.  RUSAGE_CHILDREN would
    report the largest max-RSS of every child reaped so far, so a large
    early child would show up in every later measurement.  On Linux a
    child's max-RSS also starts from this process's RSS at spawn, so the
    runner imports neither numpy nor zpflab and stays near 20 MB.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            argv=tuple(argv),
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            stdout=out.read(),
            stderr=err.read(),
        )


# --- strict output parsing -------------------------------------------------


def _reject_constant(token):
    raise CheckFailed(f"non-finite JSON constant {token}")


def _require_finite(value, where="value"):
    if isinstance(value, float) and not math.isfinite(value):
        raise CheckFailed(f"non-finite {where}: {value!r}")
    if isinstance(value, dict):
        for k, v in value.items():
            _require_finite(v, k)
    elif isinstance(value, list):
        for v in value:
            _require_finite(v, where)


def strict_json(line: str):
    try:
        payload = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    _require_finite(payload)
    return payload


def strict_csv(text: str) -> list[list[str]]:
    """Rows of a comma-separated table whose numeric cells are all finite."""
    try:
        rows = list(csv.reader(text.splitlines(), strict=True))
    except csv.Error as exc:
        raise CheckFailed(f"stdout is not CSV: {exc}") from exc
    if len(rows) < 2 or not all(rows[0]):
        raise CheckFailed("stdout is not a CSV table with a header row")
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckFailed(f"non-finite CSV cell {cell!r}")
    return rows


def _keyed(rows) -> dict:
    return {row[0]: row[1] for row in rows[1:]}


def _near(value, expected, rel, what):
    if not abs(float(value) - expected) <= rel * abs(expected):
        raise CheckFailed(f"{what} {value} is not within {rel:g} (relative) of {expected!r}")


# --- per-command checks ----------------------------------------------------


def check_constants(text: str) -> None:
    rows = _keyed(strict_csv(text))
    if set(rows) != set(GAUSSIAN_SNAPSHOT):
        raise CheckFailed(f"constants table names {sorted(rows)} differ from the snapshot")
    for name, expected in GAUSSIAN_SNAPSHOT.items():
        if float(rows[name]) != expected:
            raise CheckFailed(f"constant {name} = {rows[name]} differs from snapshot {expected!r}")


def check_oscillator(text: str) -> None:
    rows = _keyed(strict_csv(text))
    n = int(rows["sample_count"])
    if n != OSCILLATOR_SAMPLES:
        raise CheckFailed(f"sample_count {n} != {OSCILLATOR_SAMPLES}")
    expected = GAUSSIAN_SNAPSHOT["hbar"] / 2.0  # hbar / (2 m omega) at m = omega = 1
    standard_error = expected * math.sqrt(2.0 / (n - 1))
    if abs(float(rows["sample_variance"]) - expected) > 5.0 * standard_error:
        raise CheckFailed(f"sample variance {rows['sample_variance']} is > 5 SE from {expected}")


def check_casimir(text: str) -> None:
    payload = strict_json(text)
    _near(payload["energy_coefficient"], math.pi**2 / 720.0, 1e-3, "energy_coefficient")
    if not abs(payload["zeta_check"] - 1.0 / 120.0) <= 1e-6:
        raise CheckFailed(f"zeta_check {payload['zeta_check']} is not within 1e-6 of 1/120")


def check_lamb(text: str) -> None:
    rows = _keyed(strict_csv(text))
    mhz = float(rows["shift_frequency"])
    if not 350.0 <= mhz <= 3000.0:
        raise CheckFailed(f"2s shift {mhz} MHz is outside [350, 3000]")


def check_coil(text: str) -> None:
    payload = strict_json(text)
    expected = 1.0 / math.sqrt(GAUSSIAN_SNAPSHOT["alpha"])
    _near(payload["ratio_exact_over_charge"], expected, 1e-10, "coil ratio")


def check_field(text: str) -> None:
    lines = text.splitlines()
    if len(lines) < 2:
        raise CheckFailed("field output lacks the CSV table or the JSON summary")
    strict_csv("\n".join(lines[:-1]))
    summary = strict_json(lines[-1])
    if not abs(summary["exponent"] + 2.0) <= 0.1:
        raise CheckFailed(f"field exponent {summary['exponent']} is outside -2 +/- 0.1")
    if not summary["r_squared"] >= 0.99:
        raise CheckFailed(f"field fit r^2 {summary['r_squared']} < 0.99")


# --- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    args: tuple  # zpflab CLI arguments
    check: Callable[[str], None]  # raises CheckFailed on a bad stdout

    @property
    def label(self) -> str:
        return " ".join(self.args[:2]) if self.args[0] == "field" else self.args[0]


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield str(rng.randrange(1, 2**31))


def _field(seed: str, *args: str) -> Command:
    return Command(("field", "scaling-run", *args, "--seed", seed), check_field)


def commands(workload: str, seed: int) -> list[Command]:
    """The CLI processes of one pass, with stochastic seeds derived from seed."""
    seeds = _seeds(workload, seed)
    if workload == "cli_mix":
        return [
            Command(("constants",), check_constants),
            Command(("oscillator", "--m", "1", "--omega", "1",
                     "--samples", str(OSCILLATOR_SAMPLES), "--seed", next(seeds)),
                    check_oscillator),
            Command(("casimir", "--area", "1", "--sep", "1", "--units", "natural", "--modesum",
                     "--epsilons", CASIMIR_EPSILONS, "--order", "4"), check_casimir),
            Command(("lamb", "--n", "2"), check_lamb),
            Command(("coil", "--turns", "100", "--area", "10", "--resistance", "1e-12",
                     "--scale", "1"), check_coil),
        ]
    if workload == "field_accept":
        return [_field(next(seeds), "--grid", "64", "--box", "1", "--draws", "50",
                       "--scales", "0.0625,0.125,0.25,0.5")]
    if workload == "field_scale":
        return [_field(next(seeds), "--grid", "128", "--box", "1", "--draws", "20")]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cli_mix", "field_accept", "field_scale")


def failure(child: Child, command: Command, reference: bytes | None = None) -> str | None:
    """Why this operation failed, or None when it met every check."""
    if child.code != 0:
        return f"exit code {child.code}"
    if reference is not None and child.stdout != reference:
        return "stdout differs from the first pass with the same seed"
    try:
        command.check(child.stdout.decode("utf-8"))
    except (CheckFailed, KeyError, ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- child environment -----------------------------------------------------


def zpflab_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ZPFLAB_THREADS"] = str(zpflab_threads())
    return env


def cli_argv(command: Command) -> list[str]:
    return [sys.executable, "-m", "zpflab.cli", *command.args]


SETUP_ARGV = [sys.executable, "-c", "import zpflab.cli as c; c.build_parser()"]
