"""Workload ``fleet-scatter``: every request scatters over a 2-shard fleet.

A ``FleetHandle`` launches two unreplicated shard ``JoinServer``s (process
executor, one worker each) and the ``FleetRouter`` over a hard chain-4
(N = 2 000 per dataset, density for 20 expected exact solutions; the
instance has 19, and one of them straddles the tile boundary, so no shard
can return it).  One connection sends GILS
solves with the cache off, so each request plans, scatters both tiles,
and merges.  Unreplicated means no hedging and no failover.

The instance and the request seeds do not depend on ``--seed``: the
router's exact-flag fault (README, "Known fault") fails a fixed subset of
these requests, and that count must be the same in every run.  ``--seed``
only rotates the order in which a round sends them; no state carries
between requests, so the answers do not move.
"""

from __future__ import annotations

import gc
import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import oracle
from harness import Tally, clock, median, tail
from inputs import edges_for, query_graph, rects_of, uniform_table
from servers import LoopThread
from tracing import ProgramCounters

SHARDS = 2
OBJECTS = 2_000
VARIABLES = 4
EXPECTED_SOLUTIONS = 20.0
INSTANCE_SEED = 20_020_519
REQUESTS_PER_ROUND = 40
#: cache-on solves per round, each answered again from the router cache
HIT_FILLS = 10
HIT_REPEATS = 2
FILL_SEED_BASE = 1_000
ITERATIONS = 400
DEADLINE_S = 30.0
ALGORITHM = "gils"
#: ``FleetRouter._merge`` flags a 0-violation merge inexact when another
#: tile's partial answer was inexact (README, "Known fault")
MERGE_FAULT = "merge-exact-flag"


@dataclass
class Round:
    answers: list[Any]
    elapsed: float
    requests: int
    similarities: list[float]
    #: latencies of the cache-off scatters, the cache-on fills and the hits
    latencies: list[float]
    fills: list[float]
    hits: list[float]
    tile_elapsed: list[float]
    subqueries: int
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)


class Workload:
    name = "fleet-scatter"
    known_faults: tuple[str, ...] = (MERGE_FAULT,)

    def __init__(self, seed: int, tally: Tally) -> None:
        self.seed = seed
        self.tally = tally
        self.edges = edges_for("chain", VARIABLES)
        self.tables: list[np.ndarray] = []
        self.runner: LoopThread | None = None
        self.client: Any = None
        self.spec: Any = None

    # ------------------------------------------------------------------
    def setup(self) -> dict[str, float]:
        from repro import ProblemInstance, SpatialDataset
        from repro.fleet import FleetHandle, partition_instance
        from repro.query import density_for_solutions
        from repro.service.client import JoinClient

        query = query_graph(VARIABLES, self.edges)
        density = density_for_solutions(query, OBJECTS, EXPECTED_SOLUTIONS)
        rng = np.random.default_rng(INSTANCE_SEED)
        self.tables = [uniform_table(rng, OBJECTS, density) for _ in range(VARIABLES)]
        instance = ProblemInstance(
            query=query,
            datasets=[
                SpatialDataset(rects_of(table), name=f"fleet.{k}")
                for k, table in enumerate(self.tables)
            ],
            density=density,
        )
        started = clock()
        partition = partition_instance(instance, SHARDS, name="scatter")
        partition_s = clock() - started
        self.spec = partition.spec
        handle = FleetHandle(
            partition.spec,
            instances=partition.instances,
            executor="process",
            workers=1,
            max_deadline=2 * DEADLINE_S,
        )
        started = clock()
        self.runner = LoopThread(handle).start()
        self.client = JoinClient(*handle.address)
        # the first sub-query per shard spawns its pool worker
        self._request(seed=-1)
        start_s = clock() - started
        return {"fleet.partition_s": partition_s, "fleet.start_s": start_s}

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.runner is not None:
            self.runner.stop()
            self.runner = None
        gc.collect()

    # ------------------------------------------------------------------
    def _request(self, seed: int, cache: bool = False) -> tuple[float, dict[str, Any]]:
        started = clock()
        response = self.client.solve(
            check=False,
            instance=self.spec.name,
            algorithm=ALGORITHM,
            seed=seed,
            max_iterations=ITERATIONS,
            deadline=DEADLINE_S,
            cache=cache,
        )
        return clock() - started, response

    def request_seeds(self) -> list[int]:
        shift = self.seed % REQUESTS_PER_ROUND
        seeds = list(range(REQUESTS_PER_ROUND))
        return seeds[shift:] + seeds[:shift]

    def _dispatched(self) -> int:
        shards = self.client.stats()["fleet"]["shards"]
        return sum(shard["dispatched"] for shard in shards)

    def _clear_caches(self) -> None:
        assert self.runner is not None
        handle = self.runner.target
        handle.router.cache.clear()
        for server in handle.shard_servers.values():
            server.cache.clear()

    def round(self, traced: bool) -> Round:
        assert self.runner is not None
        self.runner.call(self._clear_caches)
        before = self._dispatched()
        scatters: list[Any] = []
        hits: list[Any] = []
        with ProgramCounters() if traced else nullcontext() as program:
            started = clock()
            for seed in self.request_seeds():
                scatters.append((seed, *self._request(seed)))
            for index in range(HIT_FILLS):
                seed = FILL_SEED_BASE + index
                hits.append(("fill", seed, *self._request(seed, cache=True)))
                for _repeat in range(HIT_REPEATS):
                    hits.append(("hit", seed, *self._request(seed, cache=True)))
            elapsed = clock() - started
        subqueries = self._dispatched() - before
        answers: list[Any] = []
        similarities: list[float] = []
        latencies: list[float] = []
        tiles: list[float] = []
        for seed, latency, response in sorted(scatters, key=lambda entry: entry[0]):
            self.tally.record(self._check_one(response))
            if response.get("status") != "ok":
                continue
            latencies.append(latency)
            tiles.append(response["elapsed"])
            similarities.append(response["similarity"])
            answers.append([seed, response["assignment"], response["violations"],
                            response["similarity"], response["exact"]])
        fills: list[float] = []
        hit_latencies: list[float] = []
        fill: dict[str, Any] = {}
        for kind, seed, latency, response in hits:
            problems = self._check_one(response, cached=kind == "hit")
            if kind == "fill":
                fill = response
            elif response.get("status") == "ok" and (
                response["assignment"] != fill.get("assignment")
                or response["violations"] != fill.get("violations")
            ):
                problems.append(("hit-rescore", f"seed {seed}: hit differs from its fill"))
            self.tally.record(problems)
            if response.get("status") != "ok":
                continue
            (fills if kind == "fill" else hit_latencies).append(latency)
            similarities.append(response["similarity"])
            answers.append([kind, seed, response["assignment"], response["violations"],
                            response["similarity"], response["exact"]])
        requests = len(scatters) + len(hits)
        outcome = Round(answers, elapsed, requests, similarities, latencies, fills,
                        hit_latencies, tiles, subqueries)
        if traced:
            overhead = [lat - tile for lat, tile in zip(latencies, tiles)]
            outcome.layer = {
                **program.layer(len(scatters) + HIT_FILLS),
                "fleet.overhead_p50_s": (median(overhead), "s"),
                "fleet.tile_solve_p50_s": (median(tiles), "s"),
                "fleet.subqueries_per_request": (
                    subqueries / (len(scatters) + HIT_FILLS), "count"),
            }
        return outcome

    def _check_one(self, response: dict[str, Any], cached: bool = False) -> oracle.Problems:
        if response.get("status") != "ok":
            return [("error", str(response.get("error")))]
        problems: oracle.Problems = []
        if response.get("cached") is not cached:
            problems.append(("schedule", f"cached={response.get('cached')}, expected {cached}"))
        coverage = response.get("fleet", {})
        if not cached and (
            coverage.get("degraded") or len(coverage.get("answered", ())) != SHARDS
        ):
            problems.append(("coverage", f"tiles answered: {coverage.get('answered')}"))
        # each tile searches ceil(budget / tiles) iterations; the merged
        # answer reports their sum
        budget = SHARDS * math.ceil(ITERATIONS / SHARDS)
        for kind, detail in oracle.check_answer(
            self.tables,
            self.edges,
            assignment=response["assignment"],
            violations=response["violations"],
            similarity=response["similarity"],
            exact=response["exact"],
            iterations=response["iterations"],
            budget=budget,
        ):
            if kind == "exact-flag" and response["exact"] is False:
                if oracle.count_violations(self.tables, self.edges, response["assignment"]) == 0:
                    kind = MERGE_FAULT
            problems.append((kind, detail))
        return problems

    # ------------------------------------------------------------------
    def end_to_end(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        def solves(r: Round) -> list[float]:
            return r.latencies + r.fills

        return {
            "throughput_rps": (median([r.requests / r.elapsed for r in rounds]), "1/s"),
            "solves_per_s": (median([len(solves(r)) / r.elapsed for r in rounds]), "1/s"),
            # the router returns only final answers: a client first sees
            # each best similarity when its response arrives
            "time_to_best_s": (median([sum(solves(r)) for r in rounds]), "s"),
            "solve_latency_p50_s": (median([median(r.latencies) for r in rounds]), "s"),
            "solve_latency_tail_s": (median([tail(r.latencies)[0] for r in rounds]), "s"),
            "hit_latency_p50_s": (median([median(r.hits) for r in rounds]), "s"),
            "similarity_mean": (statistics.fmean(rounds[0].similarities), "similarity"),
        }

    def describe(self, rounds: list[Round]) -> list[str]:
        _value, percentile, count = tail(rounds[0].latencies)
        return [f"solve latency: p50 and p{percentile:.0f} of {count} requests per round, "
                f"median over {len(rounds)} rounds"]
