"""Shared plumbing of the end-to-end benchmark.

Nothing here knows a workload: the program import, the clock, order
statistics, process memory, answer digests and the operation tally.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

#: the checkout root: ``run.py`` lives in ``<root>/e2ebench``
ROOT = Path(__file__).resolve().parent.parent

clock = time.perf_counter


def import_program() -> None:
    """Put ``<root>/src`` first on the path and check ``repro`` comes from it.

    The benchmark always measures the sources of the checkout it sits in;
    an installed copy elsewhere (or none at all) is a hard error.
    """
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro  # noqa: F401 - imported for the location check

    location = Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {source}")


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at
    least ten samples beyond it (nearest rank).

    With fewer than forty samples there is no tail worth the name, so the
    median is returned (percentile 50) instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 40:
        return median(ordered), 50.0, count
    rank = count - 10  # 1-based nearest rank: ten samples lie above it
    return float(ordered[rank - 1]), 100.0 * rank / count, count


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        # the command name may hold spaces; the ppid follows its ")"
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found: list[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mib() -> float:
    """Summed peak resident set (``VmHWM``) of this process and its live
    descendants, in MiB: the load generator plus the system under test."""
    pid = os.getpid()
    total = sum(_status_kib(p, "VmHWM") for p in [pid, *descendants(pid)])
    return total / 1024.0


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def digest(answers: Iterable[Any]) -> str:
    """Short stable hash of a sequence of JSON-able answers."""
    text = json.dumps(list(answers), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Tally:
    """Operations attempted and failed, with the reason of every failure.

    ``known`` names the failure kinds that stem from a fault the benchmark
    documents (README "Known fault"); any other kind makes the run
    incorrect.
    """

    def __init__(self, known: Iterable[str] = ()) -> None:
        self.known = frozenset(known)
        self.attempted = 0
        self.failed = 0
        self.kinds: dict[str, int] = {}
        self.examples: list[str] = []

    def record(self, problems: Sequence[tuple[str, str]]) -> bool:
        """Count one operation; ``problems`` are ``(kind, detail)`` pairs."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        for kind, detail in problems:
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind}: {detail}")
        return False

    def merge(self, other: "Tally") -> None:
        """Fold another process's tally into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        for kind, count in other.kinds.items():
            self.kinds[kind] = self.kinds.get(kind, 0) + count
        self.examples.extend(other.examples[: max(0, 5 - len(self.examples))])

    def counts(self) -> tuple[int, int, tuple[tuple[str, int], ...]]:
        """Attempted, failed and failures per kind, for comparing rounds."""
        return self.attempted, self.failed, tuple(sorted(self.kinds.items()))

    @property
    def unexpected(self) -> dict[str, int]:
        return {k: v for k, v in self.kinds.items() if k not in self.known}


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric is not finite: {value}")
    return value
