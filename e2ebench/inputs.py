"""Input generation: raw rectangles and query edge lists.

The benchmark draws every input itself from ``--seed`` and hands the
program only the generated rectangles and queries.  Rectangles follow the
paper's uniform model: square MBRs of one extent ``|r| = sqrt(d / N)``
with centers uniform over the unit workspace, so ``d`` is the density the
program's hard-region formula asks for.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Sequence

import numpy as np

Edges = list[tuple[int, int]]


def uniform_table(rng: np.random.Generator, count: int, density: float) -> np.ndarray:
    """``(count, 4)`` rows ``(xmin, ymin, xmax, ymax)`` at ``density``."""
    half = math.sqrt(density / count) / 2.0
    centers = rng.random((count, 2))
    return np.hstack([centers - half, centers + half])


def rects_of(table: np.ndarray) -> list[Any]:
    """The table as the program's :class:`~repro.geometry.Rect` objects."""
    from repro.geometry import Rect

    return [Rect(*row) for row in table.tolist()]


def edges_for(shape: str, variables: int) -> Edges:
    """Edge list of a named topology over ``variables`` join variables."""
    if shape == "chain":
        return [(i, i + 1) for i in range(variables - 1)]
    if shape == "clique":
        return list(itertools.combinations(range(variables), 2))
    raise ValueError(f"unknown shape {shape!r}")


def query_dict(variables: int, edges: Sequence[tuple[int, int]]) -> dict[str, Any]:
    """The protocol's explicit query form (all edges *intersects*)."""
    return {
        "num_variables": variables,
        "edges": [
            {"i": i, "j": j, "predicate": {"name": "intersects"}} for i, j in edges
        ],
    }


def query_graph(variables: int, edges: Sequence[tuple[int, int]]) -> Any:
    """The program's query graph for an edge list."""
    from repro.query.io import query_from_dict

    return query_from_dict(query_dict(variables, edges))


def renumber(
    edges: Sequence[tuple[int, int]], permutation: Sequence[int]
) -> Edges:
    """Edges after moving old variable ``v`` to ``permutation[v]``."""
    return sorted(
        (min(permutation[i], permutation[j]), max(permutation[i], permutation[j]))
        for i, j in edges
    )
