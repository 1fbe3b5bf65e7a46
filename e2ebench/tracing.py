"""Timing wrappers the traced run installs around the program's entry points.

Spans are recorded from the benchmark's own files: a wrapper replaces
``find_best_value`` in the namespaces of the heuristics that call it
(``repro.core.ils``, ``.gils`` and ``.sea`` bind it at import), counts and
times every call, and keeps a sample of penalty-free calls for the
brute-force audit in :func:`oracle.check_best_value`.  Everything is
restored on :meth:`BestValueProbe.uninstall`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from harness import clock

HEURISTIC_MODULES = ("repro.core.ils", "repro.core.gils", "repro.core.sea")


@dataclass
class BestValueSample:
    tree: Any
    windows: np.ndarray
    floor: float
    item: int | None
    satisfied: int | None


class BestValueProbe:
    """Counts, times and samples ``find_best_value`` calls."""

    def __init__(self, sample_every: int, sample_limit: int) -> None:
        self.sample_every = sample_every
        self.sample_limit = sample_limit
        self.calls = 0
        self.seconds = 0.0
        self.penalty_free = 0
        self.samples: list[BestValueSample] = []
        self._saved: list[tuple[Any, Callable[..., Any]]] = []

    def install(self) -> None:
        for name in HEURISTIC_MODULES:
            module = importlib.import_module(name)
            original = module.find_best_value
            self._saved.append((module, original))
            module.find_best_value = self._wrap(original)

    def uninstall(self) -> None:
        while self._saved:
            module, original = self._saved.pop()
            module.find_best_value = original

    def _wrap(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def timed(tree: Any, constraints: Any, floor_score: float, *args: Any, **kwargs: Any) -> Any:
            started = clock()
            found = original(tree, constraints, floor_score, *args, **kwargs)
            self.seconds += clock() - started
            self.calls += 1
            penalty = args[0] if args else kwargs.get("penalty")
            if penalty is None:
                self.penalty_free += 1
                if (
                    self.penalty_free % self.sample_every == 0
                    and len(self.samples) < self.sample_limit
                ):
                    self._keep(tree, constraints, floor_score, found)
            return found

        return timed

    def _keep(self, tree: Any, constraints: Any, floor: float, found: Any) -> None:
        if not all(predicate.name == "intersects" for predicate, _w in constraints):
            return
        windows = np.array([tuple(window) for _p, window in constraints], dtype=np.float64)
        self.samples.append(
            BestValueSample(
                tree=tree,
                windows=windows,
                floor=float(floor),
                item=None if found is None else int(found.item),
                satisfied=None if found is None else int(found.satisfied),
            )
        )


class ProgramCounters:
    """A process-wide observation for one traced round.

    Servers running in this process see it through ``repro.obs.current()``:
    they then run each job under an observation in the worker and replay
    its counters here, so the registered ``index.*``, ``best_value.*`` and
    ``eval.*`` counters cover work done in the worker processes.
    """

    def __enter__(self) -> "ProgramCounters":
        from repro.obs import Observation, activate

        self.observation = Observation()
        self._previous = activate(self.observation)
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.obs import activate

        activate(self._previous)

    def value(self, name: str) -> int:
        return int(self.observation.counter(name).value)

    def layer(self, solves: int) -> dict[str, tuple[float, str]]:
        searches = max(1, self.value("index.best_value_searches"))
        calls = self.value("best_value.kernel_searches") + self.value(
            "best_value.scalar_searches"
        )
        checks = self.value("eval.violation_checks") + self.value("eval.batch_rows")
        return {
            "core.best_value.calls": (float(calls), "count"),
            "index.node_reads_per_search": (self.value("index.node_reads") / searches, "count"),
            "index.leaf_reads_per_search": (self.value("index.leaf_reads") / searches, "count"),
            "core.evaluator.violation_checks_per_solve": (checks / max(1, solves), "count"),
        }
