"""Answer checks computed apart from the program under test.

Every check here works from the raw rectangles the benchmark generated
and from its own list of query edges, with plain NumPy: none of it calls
``QueryEvaluator``, ``find_best_value`` or any other scoring code of the
program.  Each check returns a list of ``(kind, detail)`` problems; an
empty list means the answer holds.

All workloads join with the paper's default condition, *intersects* on
closed rectangles, so that is the only predicate implemented.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

Problems = list[tuple[str, str]]

#: |similarity - (1 - violations/|E|)| allowed for float rounding
SIMILARITY_TOLERANCE = 1e-12


def rect_table(rects: Sequence[Sequence[float]]) -> np.ndarray:
    """``(n, 4)`` float array of ``(xmin, ymin, xmax, ymax)`` rows."""
    table = np.asarray([tuple(rect) for rect in rects], dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError(f"expected (n, 4) rectangles, got shape {table.shape}")
    return table


def intersects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise closed-rectangle overlap of two ``(..., 4)`` arrays."""
    return (
        (a[..., 0] <= b[..., 2])
        & (b[..., 0] <= a[..., 2])
        & (a[..., 1] <= b[..., 3])
        & (b[..., 1] <= a[..., 3])
    )


def count_violations(
    tables: Sequence[np.ndarray],
    edges: Sequence[tuple[int, int]],
    assignment: Sequence[int],
) -> int:
    """Join conditions of ``edges`` that ``assignment`` violates."""
    left = np.array([tables[i][assignment[i]] for i, _j in edges])
    right = np.array([tables[j][assignment[j]] for _i, j in edges])
    return int(np.count_nonzero(~intersects(left, right)))


def check_answer(
    tables: Sequence[np.ndarray],
    edges: Sequence[tuple[int, int]],
    *,
    assignment: Sequence[int],
    violations: int,
    similarity: float,
    exact: bool | None = None,
    iterations: int | None = None,
    budget: int | None = None,
) -> Problems:
    """The properties every returned answer must have.

    * the assignment names one existing object per variable;
    * ``violations`` equals a recount over the raw rectangles;
    * ``similarity == 1 - violations/|E|``;
    * ``exact == (violations == 0)`` (when the answer carries the flag);
    * the search used its whole iteration ``budget`` or stopped early
      only because it was exact (when a budget is given).
    """
    problems: Problems = []
    if len(assignment) != len(tables) or any(
        not 0 <= int(value) < len(tables[variable])
        for variable, value in enumerate(assignment)
    ):
        return [("assignment", f"not one object per variable: {list(assignment)}")]
    recount = count_violations(tables, edges, assignment)
    if recount != violations:
        problems.append(
            ("violations", f"reported {violations}, recount {recount}")
        )
    expected = 1.0 - recount / len(edges)
    if abs(similarity - expected) > SIMILARITY_TOLERANCE:
        problems.append(
            ("similarity", f"reported {similarity!r}, 1 - {recount}/{len(edges)}")
        )
    if exact is not None and exact != (recount == 0):
        problems.append(("exact-flag", f"exact={exact} with {recount} violations"))
    if budget is not None and iterations != budget and recount != 0:
        problems.append(
            ("budget", f"stopped after {iterations} of {budget} iterations, inexact")
        )
    return problems


def check_trace(
    points: Sequence[tuple[int, float]],
    violations: int,
    similarity: float,
    *,
    must_end_at_best: bool = True,
) -> Problems:
    """A convergence trace of ``(violations, similarity)`` points must be
    non-decreasing in similarity, never pass the reported best, and (with
    ``must_end_at_best``) end exactly at it."""
    sims = [point[1] for point in points]
    if any(later < earlier for earlier, later in zip(sims, sims[1:])):
        return [("trace", f"similarity decreases: {sims}")]
    if sims and sims[-1] > similarity + SIMILARITY_TOLERANCE:
        return [("trace", f"trace reaches {sims[-1]} above reported {similarity}")]
    if must_end_at_best and (not points or points[-1][0] != violations):
        last = points[-1] if points else None
        return [("trace", f"ends at {last}, reported {violations} violations")]
    return []


def best_window_counts(table: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """For each object of ``table``: how many of ``windows`` it intersects."""
    hits = intersects(table[:, None, :], windows[None, :, :])
    return hits.sum(axis=1)


def check_best_value(
    table: np.ndarray,
    windows: np.ndarray,
    floor: float,
    item: int | None,
    satisfied: int | None,
) -> Problems:
    """Brute-force audit of one penalty-free ``find_best_value`` call.

    No object may satisfy more windows than the returned one, the returned
    count must be the object's true count and beat ``floor``, and ``None``
    may come back only when no object beats ``floor``.
    """
    counts = best_window_counts(table, windows)
    best = int(counts.max())
    if item is None:
        if best > floor:
            return [("best-value", f"None returned, but an object meets {best} > {floor}")]
        return []
    true_count = int(counts[item])
    if satisfied != true_count:
        return [("best-value", f"object {item} reported {satisfied}, meets {true_count}")]
    if true_count < best:
        return [("best-value", f"object {item} meets {true_count}, best is {best}")]
    if true_count <= floor:
        return [("best-value", f"object {item} meets {true_count}, not above {floor}")]
    return []


def check_counters(
    observed: Mapping[str, Any], expected: Mapping[str, int]
) -> Problems:
    """Counter deltas must equal what the request schedule implies."""
    wrong = {
        name: (observed.get(name), value)
        for name, value in expected.items()
        if observed.get(name) != value
    }
    if wrong:
        return [("cache-counters", f"(observed, expected): {wrong}")]
    return []
