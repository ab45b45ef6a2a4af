"""Tests for mixed workload generation and the guarded-vs-direct driver."""

import os
import subprocess
import sys

import repro
from repro.queries.evaluation import has_answers
from repro.service.catalog import GraphCatalog
from repro.service.workload import (
    compare_guarded_vs_direct,
    generate_mixed_workload,
    run_workload,
)
from repro.service.service import QueryService

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestMixedWorkloadGeneration:
    def test_composition_and_ground_truth(self, bibliography_small):
        workload = generate_mixed_workload(
            bibliography_small, count=20, unsatisfiable_fraction=0.5, seed=3
        )
        assert len(workload) == 20
        satisfiable = [item for item in workload if item.satisfiable]
        unsatisfiable = [item for item in workload if not item.satisfiable]
        assert len(unsatisfiable) == 10
        for item in satisfiable:
            assert has_answers(bibliography_small, item.query), item.query
        for item in unsatisfiable:
            assert not has_answers(bibliography_small, item.query), item.query

    def test_all_queries_are_rbgp(self, bibliography_small):
        for item in generate_mixed_workload(bibliography_small, count=16, seed=5):
            assert item.query.is_rbgp()

    def test_deterministic_for_fixed_seed(self, bibliography_small):
        first = generate_mixed_workload(bibliography_small, count=14, seed=9)
        second = generate_mixed_workload(bibliography_small, count=14, seed=9)
        assert [(str(a.query), a.satisfiable) for a in first] == [
            (str(b.query), b.satisfiable) for b in second
        ]

    def test_one_seed_is_one_workload_in_every_process(self):
        """Hash-seeded set order reaches the generator through literals: a
        plain literal hashed ``None`` — its address before CPython 3.12 —
        so two processes drew different queries from one seed."""
        code = (
            "from repro.datasets.bsbm import generate_bsbm\n"
            "from repro.model.terms import Literal\n"
            "from repro.service.workload import generate_mixed_workload\n"
            "print(hash(Literal('a')))\n"
            "for item in generate_mixed_workload(generate_bsbm(scale=50, seed=0), count=20, seed=0):\n"
            "    print(item.satisfiable, item.query.to_sparql())\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0"),
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 21

    def test_different_seeds_differ(self, bibliography_small):
        first = generate_mixed_workload(bibliography_small, count=14, seed=1)
        second = generate_mixed_workload(bibliography_small, count=14, seed=2)
        assert [str(a.query) for a in first] != [str(b.query) for b in second]

    def test_unsat_fraction_fallback_on_tiny_graph(self, fig2):
        # few structural candidates: dictionary misses fill the quota
        workload = generate_mixed_workload(fig2, count=10, unsatisfiable_fraction=0.8, seed=0)
        unsatisfiable = [item for item in workload if not item.satisfiable]
        assert len(unsatisfiable) == 8
        for item in unsatisfiable:
            assert not has_answers(fig2, item.query)


class TestDrivers:
    def test_run_workload_is_sound(self, bibliography_small):
        workload = generate_mixed_workload(bibliography_small, count=16, seed=4)
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            service = QueryService(catalog, kind="weak+strong")
            report = run_workload(service, "bib", workload)
            assert report.sound
            assert report.query_count == 16
            assert report.pruned >= 1

    def test_compare_guarded_vs_direct_agrees(self, bibliography_small):
        workload = generate_mixed_workload(bibliography_small, count=16, seed=6)
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            report = compare_guarded_vs_direct(catalog, "bib", workload, kind="weak")
            assert report.sound
            assert not report.disagreements
            assert report.guarded.query_count == 16

    def test_compare_with_answer_limit(self, bibliography_small):
        workload = generate_mixed_workload(
            bibliography_small, count=12, seed=7, answer_limit=3, max_embeddings=5000
        )
        with GraphCatalog() as catalog:
            catalog.register("bib", graph=bibliography_small)
            report = compare_guarded_vs_direct(
                catalog, "bib", workload, kind="weak+strong", answer_limit=3
            )
            assert report.sound


class TestJoinWorkload:
    def test_families_are_labelled_and_truthful(self, bsbm_small):
        from repro.queries.evaluation import evaluate
        from repro.service.workload import generate_join_workload

        workload = generate_join_workload(bsbm_small, per_family=2, seed=1)
        families = {item.family for item in workload}
        assert "sat_chain" in families
        assert "sat_fork" in families
        assert "dictionary_miss" in families
        for item in workload:
            if item.family.startswith("sat"):
                assert item.satisfiable
                assert len(item.query.patterns) >= 2
        # spot-check the generation-time ground truth on the sat families
        checked = 0
        for item in workload:
            if item.family in ("sat_chain", "sat_fork") and checked < 2:
                assert evaluate(bsbm_small, item.query, limit=1)
                checked += 1
            elif item.family.startswith("unsat") or item.family == "dictionary_miss":
                assert not item.satisfiable

    def test_join_sizes_respect_the_cap(self, bsbm_small):
        from repro.queries.evaluation import iter_embeddings
        from repro.service.workload import generate_join_workload

        cap = 50
        workload = generate_join_workload(bsbm_small, per_family=2, seed=1, max_join_size=cap)
        for item in workload:
            if item.family == "sat_chain":
                count = sum(1 for _ in iter_embeddings(bsbm_small, item.query))
                assert 1 <= count <= cap
