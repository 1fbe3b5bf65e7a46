"""Workload ``service-mixed``: one ``JoinServer`` under a fixed request mix.

The server runs a process executor with one worker and the warm plane on.
Two client connections, in a closed loop, each send a fixed sequence over
datasets that only they use.  Per query (a clique-4 over four of the
connection's seven datasets, in its own order, over-constrained so that
no search stops early on an exact answer) the sequence is:

1. a cold solve at a small iteration budget (cache miss, no near entry);
2. the same request again (exact cache hit);
3. the same query renumbered and sent inline (isomorphic hit through the
   canonical key);
4. a re-solve under a larger budget (miss, warm-started from the near
   entry of step 1).

The cache and the near-miss tier are the only state carried between
requests; each connection owns its datasets, so that state does not
depend on how the two connections interleave, and the cache is cleared
between rounds, so every round starts from the same state.

The datasets, the queries and their solve seeds are fixed; ``--seed``
draws each query's renumbering and the order in which a connection sends
its queries.  No state carries from one query to the next, so the answers
are the same for every seed.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import oracle
from harness import Tally, clock, median, tail
from inputs import edges_for, query_dict, query_graph, rects_of, renumber, uniform_table
from servers import LoopThread
from tracing import ProgramCounters

CONNECTIONS = 2
DATASETS_PER_CONNECTION = 7
QUERIES_PER_CONNECTION = 20
OBJECTS = 5_000
VARIABLES = 4
#: expected exact solutions per query: so few that no search stops early,
#: and every uncached solve runs its whole budget
EXPECTED_SOLUTIONS = 0.1
#: the datasets, queries and solve seeds are fixed; ``--seed`` draws the
#: renumberings and the order of each connection's queries.  Queries and
#: solve seeds drawn per seed moved the mean similarity of a run with the
#: seed (quartile spread 0.07 over ten seeds, up to 0.16)
DATA_SEED = 20_020_326
SOLVE_SEED = 1_000
COLD_ITERATIONS = 60
RESOLVE_ITERATIONS = 90
#: far above any solve time, so no answer depends on the machine's speed
DEADLINE_S = 30.0
ALGORITHM = "gils"


@dataclass
class Query:
    names: list[str]
    tables: list[np.ndarray]
    seed: int
    #: the renumbered form: variable v of the original becomes perm[v]
    perm: list[int]


@dataclass
class Round:
    answers: list[Any]
    elapsed: float
    requests: int
    similarities: list[float]
    samples: dict[str, list[float]]
    counters: dict[str, int]
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)


class Workload:
    name = "service-mixed"
    known_faults: tuple[str, ...] = ()

    def __init__(self, seed: int, tally: Tally) -> None:
        self.seed = seed
        self.tally = tally
        self.edges = edges_for("clique", VARIABLES)
        self.queries: list[list[Query]] = []
        self.runner: LoopThread | None = None
        self.clients: list[Any] = []

    # ------------------------------------------------------------------
    def setup(self) -> dict[str, float]:
        from repro import SpatialDataset
        from repro.query import density_for_solutions
        from repro.service.client import JoinClient
        from repro.service.registry import DatasetRegistry
        from repro.service.server import JoinServer

        data_rng = np.random.default_rng(DATA_SEED)
        rng = np.random.default_rng(self.seed)
        density = density_for_solutions(
            query_graph(VARIABLES, self.edges), OBJECTS, EXPECTED_SOLUTIONS
        )
        registry = DatasetRegistry()
        subsets = list(itertools.combinations(range(DATASETS_PER_CONNECTION), VARIABLES))
        for connection in range(CONNECTIONS):
            tables = [
                uniform_table(data_rng, OBJECTS, density)
                for _ in range(DATASETS_PER_CONNECTION)
            ]
            names = [f"c{connection}.d{k}" for k in range(DATASETS_PER_CONNECTION)]
            for name, table in zip(names, tables):
                registry.register_dataset(name, SpatialDataset(rects_of(table), name=name))
            picks = data_rng.choice(len(subsets), size=QUERIES_PER_CONNECTION, replace=False)
            queries = []
            for position, pick in enumerate(picks):
                order = [int(k) for k in data_rng.permutation(list(subsets[pick]))]
                perm = [int(v) for v in rng.permutation(VARIABLES)]
                while perm == list(range(VARIABLES)):
                    perm = [int(v) for v in rng.permutation(VARIABLES)]
                queries.append(
                    Query(
                        names=[names[k] for k in order],
                        tables=[tables[k] for k in order],
                        seed=SOLVE_SEED + connection * 100 + position,
                        perm=perm,
                    )
                )
            self.queries.append([queries[int(k)] for k in rng.permutation(len(queries))])
        server = JoinServer(
            registry,
            workers=1,
            executor="process",
            warm=True,
            max_deadline=2 * DEADLINE_S,
        )
        started = clock()
        self.runner = LoopThread(server).start()
        self.clients = [JoinClient(*server.address) for _ in range(CONNECTIONS)]
        # first job spawns the pool worker and attaches the warm plane
        for connection in range(CONNECTIONS):
            warm = self.queries[connection][0]
            self._request(connection, warm, COLD_ITERATIONS, seed=-1, cache=False)
        start_s = clock() - started
        return {"service.start_s": start_s}

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.runner is not None:
            self.runner.stop()
            self.runner = None
        gc.collect()

    # ------------------------------------------------------------------
    def _request(
        self,
        connection: int,
        query: Query,
        iterations: int,
        *,
        seed: int | None = None,
        cache: bool = True,
        renumbered: bool = False,
    ) -> tuple[float, dict[str, Any]]:
        edges, names = self.edges, query.names
        if renumbered:
            edges = renumber(self.edges, query.perm)
            names = [""] * VARIABLES
            for variable, name in enumerate(query.names):
                names[query.perm[variable]] = name
        started = clock()
        response = self.clients[connection].solve(
            check=False,
            query=query_dict(VARIABLES, edges),
            datasets=names,
            algorithm=ALGORITHM,
            seed=query.seed if seed is None else seed,
            max_iterations=iterations,
            deadline=DEADLINE_S,
            cache=cache,
        )
        return clock() - started, response

    def _connection_round(self, connection: int, out: list[Any]) -> None:
        for query in self.queries[connection]:
            out.append(("cold", query, *self._request(connection, query, COLD_ITERATIONS)))
            out.append(("exact_hit", query, *self._request(connection, query, COLD_ITERATIONS)))
            out.append(("iso_hit", query, *self._request(
                connection, query, COLD_ITERATIONS, renumbered=True)))
            out.append(("warm", query, *self._request(connection, query, RESOLVE_ITERATIONS)))

    def _stats(self) -> dict[str, int]:
        stats = self.clients[0].stats()
        cache, warm = stats["cache"], stats["warm"]
        return {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "near_hits": cache["near_hits"],
            "near_misses": cache["near_misses"],
            "warm.exact_hits": warm["exact_hits"],
            "warm.warm_starts": warm["warm_starts"],
            "warm.cold": warm["cold"],
        }

    def round(self, traced: bool) -> Round:
        assert self.runner is not None
        server = self.runner.target
        self.runner.call(server.cache.clear)
        counters_in = ProgramCounters() if traced else nullcontext()
        with counters_in as program:
            before = self._stats()
            logs, elapsed = self._send_round()
            after = self._stats()
        counters = {key: after[key] - before[key] for key in after}
        outcome = self._check(logs, elapsed, counters)
        if traced:
            samples = outcome.samples
            outcome.layer = {
                **program.layer(len(samples["cold"]) + len(samples["warm"])),
                "service.dispatch_overhead_p50_s": (median(samples["dispatch"]), "s"),
                "service.worker_solve_p50_s": (median(samples["worker"]), "s"),
                "service.warm_start_latency_p50_s": (median(samples["warm"]), "s"),
                "service.exact_hit_latency_p50_s": (median(samples["exact_hit"]), "s"),
                "service.iso_hit_latency_p50_s": (median(samples["iso_hit"]), "s"),
                "service.cache.hits": (float(counters["hits"]), "count"),
                "service.cache.misses": (float(counters["misses"]), "count"),
                "service.cache.near_hits": (float(counters["near_hits"]), "count"),
            }
        return outcome

    def _send_round(self) -> tuple[list[list[Any]], float]:
        """Both connections' sequences, concurrently; ``(logs, wall)``."""
        logs: list[list[Any]] = [[] for _ in range(CONNECTIONS)]
        threads = [
            threading.Thread(target=self._connection_round, args=(c, logs[c]))
            for c in range(CONNECTIONS)
        ]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return logs, clock() - started

    # ------------------------------------------------------------------
    def expected_counters(self) -> dict[str, int]:
        queries = CONNECTIONS * QUERIES_PER_CONNECTION
        return {
            "hits": 2 * queries,  # exact repeat + isomorphic renumbering
            "misses": 2 * queries,  # cold solve + re-solve
            "near_hits": queries,  # the re-solve finds the cold entry
            "near_misses": queries,  # the cold solve finds nothing
            "warm.exact_hits": 2 * queries,
            "warm.warm_starts": queries,
            "warm.cold": queries,
        }

    def _check(self, logs: list[list[Any]], elapsed: float, counters: dict[str, int]) -> Round:
        samples: dict[str, list[float]] = {
            key: [] for key in ("cold", "exact_hit", "iso_hit", "warm", "worker", "dispatch")
        }
        answers: list[Any] = []
        similarities: list[float] = []
        requests = 0
        for log in logs:
            cold: dict[str, Any] = {}
            for kind, query, latency, response in log:
                requests += 1
                problems = self._check_one(kind, query, response, cold)
                self.tally.record(problems)
                if response.get("status") != "ok":
                    continue
                if kind == "cold":
                    cold = response
                    samples["worker"].append(response["elapsed"])
                    samples["dispatch"].append(latency - response["elapsed"])
                samples[kind].append(latency)
                similarities.append(response["similarity"])
                answers.append([kind, query.names, response["assignment"],
                                response["violations"], response["similarity"]])
        self.tally.record(oracle.check_counters(counters, self.expected_counters()))
        return Round(answers, elapsed, requests, similarities, samples, counters)

    def _check_one(
        self, kind: str, query: Query, response: dict[str, Any], cold: dict[str, Any]
    ) -> oracle.Problems:
        if response.get("status") != "ok":
            return [("error", str(response.get("error")))]
        tables = query.tables
        edges = self.edges
        if kind == "iso_hit":
            tables = [np.empty((0, 4))] * VARIABLES
            for variable, table in enumerate(query.tables):
                tables[query.perm[variable]] = table
            edges = renumber(self.edges, query.perm)
        budget = {"cold": COLD_ITERATIONS, "warm": RESOLVE_ITERATIONS}.get(kind)
        problems = oracle.check_answer(
            tables,
            edges,
            assignment=response["assignment"],
            violations=response["violations"],
            similarity=response["similarity"],
            exact=response["exact"],
            iterations=response["iterations"] if budget else None,
            budget=budget,
        )
        cached = kind in ("exact_hit", "iso_hit")
        if response.get("cached") is not cached:
            problems.append(("schedule", f"{kind}: cached={response.get('cached')}"))
        if not cached and response.get("warm_started") is not (kind == "warm"):
            problems.append(("schedule", f"{kind}: warm_started={response.get('warm_started')}"))
        if kind != "cold" and cold:
            if cached and response["violations"] != cold["violations"]:
                problems.append(("hit-rescore", f"{kind}: {response['violations']} "
                               f"violations, filled with {cold['violations']}"))
            if kind == "warm" and response["violations"] > cold["violations"]:
                problems.append(("warm-start", f"re-solve worse than its warm start: "
                               f"{response['violations']} > {cold['violations']}"))
        return problems

    # ------------------------------------------------------------------
    def end_to_end(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        def uncached(r: Round) -> list[float]:
            return r.samples["cold"] + r.samples["warm"]

        return {
            "throughput_rps": (median([r.requests / r.elapsed for r in rounds]), "1/s"),
            "solves_per_s": (median([len(uncached(r)) / r.elapsed for r in rounds]), "1/s"),
            # the service returns only final answers: a client first sees
            # each best similarity when its response arrives
            "time_to_best_s": (median([sum(uncached(r)) for r in rounds]), "s"),
            "solve_latency_p50_s": (median([median(r.samples["cold"]) for r in rounds]), "s"),
            "solve_latency_tail_s": (median([tail(r.samples["cold"])[0] for r in rounds]), "s"),
            # per kind, never over the mix: exact hits are slower than
            # isomorphic ones, so a median of both would sit on the seam
            "hit_latency_p50_s": (
                median([
                    statistics.fmean([median(r.samples["exact_hit"]),
                                      median(r.samples["iso_hit"])])
                    for r in rounds
                ]),
                "s",
            ),
            "similarity_mean": (statistics.fmean(rounds[0].similarities), "similarity"),
        }

    def describe(self, rounds: list[Round]) -> list[str]:
        _value, percentile, count = tail(rounds[0].samples["cold"])
        return [f"solve latency: cold solves, p50 and p{percentile:.0f} of {count} "
                f"per round, median over {len(rounds)} rounds"]
