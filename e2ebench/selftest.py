"""Self-test of the benchmark's answer checks.

Doctored answers must be reported as failed: one object id swapped, a
wrong ``exact`` flag, a wrong similarity, an unused budget, a broken
convergence trace, a wrong cache counter, a wrong hit, and a
``find_best_value`` result that a brute-force scan beats.  Run from the
repository root::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from harness import Tally, import_program, tail  # noqa: E402

import_program()

import anytime  # noqa: E402
import fleet  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from inputs import edges_for, query_graph, rects_of, uniform_table  # noqa: E402

VARIABLES = 4
OBJECTS = 400


def kinds(problems: oracle.Problems) -> set[str]:
    return {kind for kind, _detail in problems}


class AnswerChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        from repro import (
            Budget,
            ILSConfig,
            ProblemInstance,
            SpatialDataset,
            indexed_local_search,
        )
        from repro.query import density_for_solutions

        cls.edges = edges_for("chain", VARIABLES)
        query = query_graph(VARIABLES, cls.edges)
        density = density_for_solutions(query, OBJECTS, 1.0)
        rng = np.random.default_rng(5)
        cls.tables = [uniform_table(rng, OBJECTS, density) for _ in range(VARIABLES)]
        instance = ProblemInstance(
            query=query,
            datasets=[SpatialDataset(rects_of(table)) for table in cls.tables],
        )
        cls.budget = 150
        cls.result = indexed_local_search(
            instance, Budget.iterations(cls.budget), seed=3,
            config=ILSConfig(stop_on_exact=False),
        )

    def answer(self, **changes: object) -> oracle.Problems:
        fields = dict(
            assignment=list(self.result.best_assignment),
            violations=self.result.best_violations,
            similarity=self.result.best_similarity,
            exact=self.result.is_exact,
            iterations=self.result.iterations,
            budget=self.budget,
        )
        fields.update(changes)
        return oracle.check_answer(self.tables, self.edges, **fields)  # type: ignore[arg-type]

    def test_true_answer_passes(self) -> None:
        self.assertEqual(self.answer(), [])
        points = [(p.violations, p.similarity) for p in self.result.trace.points]
        self.assertEqual(
            oracle.check_trace(points, self.result.best_violations, self.result.best_similarity),
            [],
        )

    def test_one_swapped_id_fails(self) -> None:
        assignment = list(self.result.best_assignment)
        recount = oracle.count_violations(self.tables, self.edges, assignment)
        for candidate in range(OBJECTS):
            doctored = assignment[:1] + [candidate] + assignment[2:]
            if oracle.count_violations(self.tables, self.edges, doctored) != recount:
                break
        else:
            self.fail("no single swap changes the violation count")
        self.assertIn("violations", kinds(self.answer(assignment=doctored)))

    def test_out_of_range_id_fails(self) -> None:
        doctored = list(self.result.best_assignment)
        doctored[0] = OBJECTS
        self.assertIn("assignment", kinds(self.answer(assignment=doctored)))

    def test_wrong_exact_flag_fails(self) -> None:
        self.assertIn("exact-flag", kinds(self.answer(exact=not self.result.is_exact)))

    def test_wrong_similarity_fails(self) -> None:
        self.assertIn(
            "similarity", kinds(self.answer(similarity=self.result.best_similarity + 0.01))
        )

    def test_unused_budget_fails_unless_exact(self) -> None:
        inexact = self.answer(iterations=self.budget - 1)
        if self.result.best_violations:
            self.assertIn("budget", kinds(inexact))
        else:
            self.assertNotIn("budget", kinds(inexact))

    def test_broken_traces_fail(self) -> None:
        self.assertIn("trace", kinds(oracle.check_trace([(2, 0.5), (3, 0.25)], 3, 0.25)))
        self.assertIn("trace", kinds(oracle.check_trace([(3, 0.25)], 2, 0.5)))
        self.assertIn("trace", kinds(oracle.check_trace([], 2, 0.5)))
        self.assertIn("trace", kinds(oracle.check_trace([(1, 0.75)], 2, 0.5)))
        self.assertEqual(oracle.check_trace([], 2, 0.5, must_end_at_best=False), [])


class BestValueAudit(unittest.TestCase):
    def setUp(self) -> None:
        self.table = np.array(
            [[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0], [0.5, 0.5, 3.0, 3.0]]
        )
        # object 2 meets both windows, objects 0 and 1 one each
        self.windows = np.array([[0.9, 0.9, 1.1, 1.1], [2.9, 2.9, 3.1, 3.1]])

    def test_best_object_passes(self) -> None:
        self.assertEqual(oracle.check_best_value(self.table, self.windows, 1.0, 2, 2), [])
        self.assertEqual(oracle.check_best_value(self.table, self.windows, 2.0, None, None), [])

    def test_beaten_object_fails(self) -> None:
        self.assertTrue(oracle.check_best_value(self.table, self.windows, 0.0, 0, 1))

    def test_miscounted_object_fails(self) -> None:
        self.assertTrue(oracle.check_best_value(self.table, self.windows, 0.0, 0, 2))

    def test_none_despite_better_object_fails(self) -> None:
        self.assertTrue(oracle.check_best_value(self.table, self.windows, 1.0, None, None))

    def test_program_agrees_on_a_real_tree(self) -> None:
        from repro import Rect, SpatialDataset, find_best_value
        from repro.geometry import INTERSECTS

        rng = np.random.default_rng(11)
        table = uniform_table(rng, 2_000, 0.5)
        tree = SpatialDataset(rects_of(table)).tree
        for trial in range(30):
            windows = uniform_table(rng, 3, 0.05)
            constraints = [(INTERSECTS, Rect(*row)) for row in windows.tolist()]
            found = find_best_value(tree, constraints, floor_score=float(trial % 2))
            self.assertEqual(
                oracle.check_best_value(
                    table, windows, float(trial % 2),
                    None if found is None else found.item,
                    None if found is None else found.satisfied,
                ),
                [],
            )


class ServiceChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.workload = service.Workload(seed=1, tally=Tally())
        rng = np.random.default_rng(2)
        tables = [uniform_table(rng, 50, 0.5) for _ in range(VARIABLES)]
        self.query = service.Query(names=["a", "b", "c", "d"], tables=tables,
                                   seed=0, perm=[2, 0, 3, 1])
        assignment = [0, 1, 2, 3]
        violations = oracle.count_violations(tables, self.workload.edges, assignment)
        self.cold = {
            "status": "ok", "cached": False, "warm_started": False,
            "assignment": assignment, "violations": violations,
            "similarity": 1 - violations / len(self.workload.edges),
            "exact": violations == 0, "iterations": service.COLD_ITERATIONS,
        }

    def iso_of(self, response: dict) -> dict:
        renumbered = [0] * VARIABLES
        for variable, value in enumerate(response["assignment"]):
            renumbered[self.query.perm[variable]] = value
        return {**response, "cached": True, "assignment": renumbered}

    def test_true_schedule_passes(self) -> None:
        check = self.workload._check_one
        self.assertEqual(check("cold", self.query, self.cold, {}), [])
        self.assertEqual(check("exact_hit", self.query, {**self.cold, "cached": True}, self.cold), [])
        self.assertEqual(check("iso_hit", self.query, self.iso_of(self.cold), self.cold), [])

    def test_hit_with_a_swapped_id_fails(self) -> None:
        doctored = dict(self.cold)
        for candidate in range(50):
            assignment = [candidate] + self.cold["assignment"][1:]
            recount = oracle.count_violations(self.query.tables, self.workload.edges, assignment)
            if recount != self.cold["violations"]:
                doctored.update(assignment=assignment)
                break
        problems = self.workload._check_one("iso_hit", self.query, self.iso_of(doctored), self.cold)
        self.assertIn("violations", kinds(problems))

    def test_hit_reporting_another_score_fails(self) -> None:
        violations = self.cold["violations"] + 1
        doctored = {**self.cold, "cached": True, "violations": violations,
                    "similarity": 1 - violations / len(self.workload.edges), "exact": False}
        problems = self.workload._check_one("exact_hit", self.query, doctored, self.cold)
        self.assertIn("hit-rescore", kinds(problems))

    def test_cold_solve_served_from_cache_fails(self) -> None:
        problems = self.workload._check_one("cold", self.query, {**self.cold, "cached": True}, {})
        self.assertIn("schedule", kinds(problems))

    def test_wrong_cache_count_fails(self) -> None:
        expected = self.workload.expected_counters()
        self.assertEqual(oracle.check_counters(expected, expected), [])
        for name in ("hits", "misses", "near_hits"):
            doctored = {**expected, name: expected[name] + 1}
            self.assertIn("cache-counters", kinds(oracle.check_counters(doctored, expected)))


class FleetChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.workload = fleet.Workload(seed=1, tally=Tally())
        self.workload.tables = [
            np.array([[0.0, 0.0, 1.0, 1.0], [5.0, 5.0, 6.0, 6.0]]) for _ in range(VARIABLES)
        ]

    def response(self, assignment: list[int], exact: bool) -> dict:
        violations = oracle.count_violations(self.workload.tables, self.workload.edges, assignment)
        return {
            "status": "ok", "cached": False, "assignment": assignment,
            "violations": violations, "exact": exact,
            "similarity": 1 - violations / len(self.workload.edges),
            "iterations": fleet.ITERATIONS if violations else 7,
            "fleet": {"degraded": False, "answered": ["t0", "t1"]},
        }

    def test_known_fault_is_classified(self) -> None:
        problems = self.workload._check_one(self.response([0, 0, 0, 0], exact=False))
        self.assertEqual(kinds(problems), {fleet.MERGE_FAULT})

    def test_exact_claim_with_violations_is_unexpected(self) -> None:
        problems = self.workload._check_one(self.response([0, 1, 0, 0], exact=True))
        self.assertEqual(kinds(problems), {"exact-flag"})
        tally = Tally(fleet.Workload.known_faults)
        tally.record(problems)
        self.assertEqual(tally.unexpected, {"exact-flag": 1})

    def test_degraded_answer_fails(self) -> None:
        doctored = self.response([0, 0, 0, 0], exact=True)
        doctored["fleet"] = {"degraded": True, "answered": ["t0"]}
        self.assertIn("coverage", kinds(self.workload._check_one(doctored)))


class DeclaredMetrics(unittest.TestCase):
    """Every run prints exactly the metrics ``BENCHMARK.json`` declares."""

    def setUp(self) -> None:
        import json

        from harness import ROOT

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}

    def test_per_layer(self) -> None:
        self.assertEqual(run.PER_LAYER, self.per_layer)

    def test_end_to_end_on_every_workload(self) -> None:
        one = [1.0]
        rounds = {
            anytime: anytime.Round([["p", "gils", 0, [0], 0, 1.0]], 1.0, 1, 1.0, one, one, 1.0, 1.0),
            service: service.Round([], 1.0, 1, one, {
                k: one for k in ("cold", "exact_hit", "iso_hit", "warm")}, {}),
            fleet: fleet.Round([], 1.0, 1, one, one, one, one, one, 1),
        }
        for module, sample in rounds.items():
            printed = module.Workload(1, Tally()).end_to_end([sample])
            printed.update(peak_rss_mb=(1.0, "MiB"), setup_s=(1.0, "s"))  # added by run.py
            self.assertEqual(
                {name: unit for name, (_value, unit) in printed.items()}, self.end_to_end,
                module.__name__,
            )


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self) -> None:
        value, percentile, count = tail([float(v) for v in range(1, 41)])
        self.assertEqual((value, percentile, count), (30.0, 75.0, 40))
        self.assertEqual(tail([1.0, 2.0, 3.0])[1], 50.0)


class RoundTallies(unittest.TestCase):
    """Counts are kept per round, so they do not grow with the rounds run."""

    class Repeating:
        known_faults = ("known",)
        tally = Tally()

        def round(self, traced: bool) -> None:
            self.tally.record([("known", "fails every round")])
            self.tally.record([])

    def test_every_round_counts_alone(self) -> None:
        workload = self.Repeating()
        rounds = [run.one_round(workload, traced=False) for _ in range(3)]
        self.assertEqual({m.tally.counts() for m in rounds}, {(2, 1, (("known", 1),))})
        self.assertEqual(rounds[0].tally.unexpected, {})


if __name__ == "__main__":
    unittest.main()
