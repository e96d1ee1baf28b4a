"""The run environment, read without changing anything on the machine."""

from __future__ import annotations

import importlib.metadata
import os
import platform
from pathlib import Path

from bench import zpflab_threads

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict[str, int | None]:
    """Data or unified cache bytes per level, as cpu0 sees them."""
    sizes = {"L2": None, "L3": None}
    for index in sorted(_CACHE_DIR.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Data", "Unified") and f"L{level}" in sizes:
            sizes[f"L{level}"] = _size_bytes(_read(index / "size"))
    return sizes


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(root: Path, commands) -> dict:
    caches = cache_sizes()
    record = {
        "affinity_cores": sorted(os.sched_getaffinity(0)),
        "zpflab_threads": zpflab_threads(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "cpu_model": cpu_model(),
        "l2_bytes": caches["L2"],
        "l3_bytes": caches["L3"],
        "git_commit": git_commit(root),
    }
    grids = [int(c.args[c.args.index("--grid") + 1]) for c in commands if "--grid" in c.args]
    if grids:
        array = max(grids) ** 3 * 16  # one complex128 coefficient array per draw
        record["field_array_bytes_per_draw"] = array
        if caches["L2"]:
            record["field_array_over_l2"] = array / caches["L2"]
        if caches["L3"]:
            record["four_l3_bytes"] = 4 * caches["L3"]
            record["note"] = (
                f"a bandwidth-bound array of 4 x L3 = {4 * caches['L3'] / 2**30:.2f} GiB is not "
                f"reachable here: the field run holds every draw's grid at once, and the "
                f"per-draw array of this workload is {array / 2**20:.0f} MiB"
            )
    return record
