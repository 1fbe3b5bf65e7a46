"""End-to-end benchmark of the multiway spatial join engine.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload anytime-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced rounds; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.

A run is split over :data:`PROCESSES` fresh interpreters, one after the
other, each setting the workload up once and timing its share of the
rounds: ``setup_s`` is the median of their set-ups, and no single
process's memory placement carries into every number of the run.
``attempted`` and ``failed`` are the counts of one round, which every
round of a kind must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any

from harness import Tally, clock, digest, finite, import_program, median, peak_rss_mib

WORKLOADS = ("anytime-solve", "service-mixed", "fleet-scatter")
#: fresh processes per run, each with one set-up and its share of the
#: rounds; ``setup_s`` and ``peak_rss_mb`` are medians over them
PROCESSES = 3
#: every per-layer metric a traced run prints, whatever the workload; a
#: workload that does not cross a layer, or cannot see it from the
#: benchmark, prints 0 for it (README, "Per-layer metrics")
PER_LAYER = {
    "core.best_value.calls": "count",
    "core.best_value.us_per_call": "us",
    "core.best_value.time_share": "fraction",
    "index.node_reads_per_search": "count",
    "index.leaf_reads_per_search": "count",
    "core.solve_s.ils": "s",
    "core.solve_s.gils": "s",
    "core.solve_s.sea": "s",
    "core.evaluator.violation_checks_per_solve": "count",
    "index.build_s": "s",
    "core.evaluator.build_s": "s",
    "core.warmup_s": "s",
    "service.dispatch_overhead_p50_s": "s",
    "service.worker_solve_p50_s": "s",
    "service.warm_start_latency_p50_s": "s",
    "service.exact_hit_latency_p50_s": "s",
    "service.iso_hit_latency_p50_s": "s",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.near_hits": "count",
    "service.start_s": "s",
    "fleet.overhead_p50_s": "s",
    "fleet.tile_solve_p50_s": "s",
    "fleet.subqueries_per_request": "count",
    "fleet.partition_s": "s",
    "fleet.start_s": "s",
    "tracing.overhead_pct": "%",
}


def load(name: str) -> Any:
    if name == "anytime-solve":
        import anytime as module
    elif name == "service-mixed":
        import service as module
    else:
        import fleet as module
    return module


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Measured:
    """One round and the operations it attempted and failed."""

    outcome: Any
    tally: Tally


@dataclass
class Share:
    """What one process measured."""

    setup_s: float
    setup_parts: dict[str, float]
    plain: list[Measured]
    observed: list[Measured]
    peak_rss_mb: float


def one_round(workload: Any, traced: bool) -> Measured:
    """Run one round with a tally of its own: every round attempts the
    same operations, so every round's tally must read the same."""
    workload.tally = Tally(workload.known_faults)
    return Measured(workload.round(traced=traced), workload.tally)


def measure(workload: Any, seconds: float, traced: bool) -> tuple[list[Measured], list[Measured]]:
    """Whole rounds until ``seconds`` have passed (at least one of each
    kind): ``(untraced, traced)``.  Traced runs alternate an untraced and
    a traced round, so the two kinds see the same machine."""
    plain: list[Measured] = []
    observed: list[Measured] = []
    started = clock()
    while True:
        plain.append(one_round(workload, traced=False))
        if traced:
            observed.append(one_round(workload, traced=True))
        if clock() - started >= seconds:
            return plain, observed


def run_share(name: str, seed: int, seconds: float, traced: bool) -> Share:
    """One process's part of a run: set up, time rounds, tear down."""
    import_program()
    module = load(name)
    workload = module.Workload(seed, Tally(module.Workload.known_faults))
    started = clock()
    try:
        parts = workload.setup()
        setup_s = clock() - started
        plain, observed = measure(workload, seconds, traced)
        rss = peak_rss_mib()
    finally:
        workload.teardown()
    return Share(setup_s, parts, plain, observed, rss)


def run_shares(args: argparse.Namespace) -> list[Share]:
    context = multiprocessing.get_context("spawn")
    shares = []
    try:
        for _ in range(PROCESSES):
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                future = pool.submit(
                    run_share, args.workload, args.seed, args.seconds / PROCESSES,
                    bool(args.trace),
                )
                shares.append(future.result())
    finally:
        # spawning started the standard library's resource tracker in this
        # process; stop it and wait for it rather than leave it behind
        resource_tracker._resource_tracker._stop()
    return shares


def main(argv: list[str]) -> int:
    args = parse(argv)
    import_program()
    module = load(args.workload)
    shares = run_shares(args)
    plain = [m.outcome for share in shares for m in share.plain]
    observed = [m.outcome for share in shares for m in share.observed]
    # the counts reported are those of one round of each kind run; how
    # many rounds fit in ``--seconds`` does not move them
    per_kind = [[m.tally for share in shares for m in share.plain]]
    if args.trace:
        per_kind.append([m.tally for share in shares for m in share.observed])
    steady = all(len({t.counts() for t in tallies}) == 1 for tallies in per_kind)
    tally = Tally(module.Workload.known_faults)
    for tallies in per_kind:
        tally.merge(tallies[0])
    unexpected = {kind: n for tallies in per_kind for t in tallies
                  for kind, n in t.unexpected.items()}
    workload = module.Workload(args.seed, Tally(module.Workload.known_faults))

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics.update(_layer_medians(observed))
        for name in shares[0].setup_parts:
            metrics[name] = (median([s.setup_parts[name] for s in shares]), "s")
        # traced over untraced round time, paired within each process
        overhead = median([
            median([m.outcome.elapsed for m in s.observed])
            / median([m.outcome.elapsed for m in s.plain])
            for s in shares
        ]) - 1.0
        metrics["tracing.overhead_pct"] = (100.0 * overhead, "%")
        unknown = set(metrics) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        for name, unit in PER_LAYER.items():
            metrics.setdefault(name, (0.0, unit))
    else:
        metrics.update(workload.end_to_end(plain))
        metrics["peak_rss_mb"] = (median([s.peak_rss_mb for s in shares]), "MiB")
        metrics["setup_s"] = (median([s.setup_s for s in shares]), "s")

    notes = workload.describe(plain)
    digests = sorted({digest(r.answers) for r in plain + observed})
    deterministic = len(digests) == 1
    correct = deterministic and steady and not unexpected
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:44s} {value:14.6f} {unit}")
    for note in notes:
        print(note)
    print(f"rounds: {len(plain)} untraced, {len(observed)} traced, "
          f"over {len(shares)} processes; answer digest {digests}")
    print(f"operations per round: {tally.attempted} attempted, {tally.failed} failed "
          f"{tally.kinds}")
    for example in tally.examples:
        print(f"  failed: {example}")
    if not deterministic:
        print("DETERMINISM GUARD: repeated rounds returned different answers")
    if not steady:
        print("DETERMINISM GUARD: rounds of one kind failed different operations")
    if unexpected:
        print(f"UNEXPECTED FAILURES: {unexpected}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _layer_medians(rounds: list[Any]) -> dict[str, tuple[float, str]]:
    """Per-layer values are per round; report each one's median."""
    names = rounds[0].layer
    return {name: (median([r.layer[name][0] for r in rounds]), names[name][1])
            for name in names}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
