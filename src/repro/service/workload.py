"""Workload generation and the guarded-vs-direct comparison driver.

The service's value proposition is measured on *mixed* workloads: a share
of satisfiable RBGP queries (sampled from the graph, so they have answers)
and a share of unsatisfiable ones.  Unsatisfiable queries come in two
flavours with very different costs:

* **structurally unsatisfiable** — every constant exists in the graph but
  the join is empty: two properties that never meet on a node, or a class
  none of a property's subjects belongs to.  Direct evaluation pays real
  join work (enumerate one side, probe the other) to discover this; the
  summary guard answers from a graph a few dozen edges large.  These are
  built *unsatisfiable by construction* from one indexing pass over the
  graph — disjoint endpoint sets prove emptiness — so generation never
  evaluates a join.
* **dictionary misses** — a constant the graph never mentions.  Both the
  guarded and the direct encoded path reject these in microseconds, so
  they are kept a minority (they don't differentiate the systems).

:func:`run_workload` drives a service over a workload and checks every
verdict against the generation-time ground truth — the pruning-soundness
property the paper guarantees.  :func:`compare_guarded_vs_direct` times the
same workload through the guarded service and through direct per-query
evaluation on the base store, verifying the two agree query by query; it is
the engine behind ``repro query --workload`` and
``benchmarks/bench_query_service.py``.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.model.graph import RDFGraph
from repro.model.namespaces import Namespace, RDF_TYPE
from repro.model.terms import URI
from repro.queries.bgp import BGPQuery, TriplePattern, Variable
from repro.queries.evaluation import iter_embeddings
from repro.queries.generator import RBGPQueryGenerator
from repro.service.catalog import GraphCatalog
from repro.service.service import QueryAnswer, QueryService

__all__ = [
    "WorkloadQuery",
    "FamilyQuery",
    "WorkloadReport",
    "ComparisonReport",
    "generate_mixed_workload",
    "generate_join_workload",
    "run_workload",
    "compare_guarded_vs_direct",
]

#: Namespace used for dictionary-miss (absent-constant) queries.
_ABSENT_NS = Namespace("http://rdfsummary.example.org/absent/")


@contextmanager
def _gc_paused():
    """Pause the cyclic collector across a timed region.

    The comparison driver allocates large transient binding structures;
    attributing a collection pause to whichever query happens to trigger
    it would swamp the per-query numbers.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class WorkloadQuery(NamedTuple):
    """A query plus its generation-time ground truth on the base graph."""

    query: BGPQuery
    #: ``True`` when the query has at least one answer on the explicit graph.
    satisfiable: bool


def _unsatisfiable_candidates(
    graph: RDFGraph, rng: random.Random
) -> List[Tuple[str, BGPQuery]]:
    """Structurally empty RBGP joins, proven empty by disjoint endpoint sets.

    One pass over the data and type components collects, per property, its
    subject and object sets and, per class, its instance set.  Three query
    shapes follow — all of them expensive for a direct evaluator (it must
    enumerate one pattern's matches and probe each) and all provably empty:

    * *chain* — ``?x p1 ?y . ?y p2 ?z`` where ``objects(p1)`` and
      ``subjects(p2)`` are disjoint;
    * *fork* — ``?x p1 ?y . ?x p2 ?z`` where the subject sets are disjoint;
    * *typed* — ``?x a C . ?x p ?y`` where no subject of ``p`` is a
      ``C`` instance;
    * *long chain* — ``?w p0 ?x . ?x p1 ?y . ?y p2 ?z`` prepending, to a
      disjoint ``(p1, p2)`` pair, a ``p0`` whose objects *do* feed ``p1``:
      direct evaluation must enumerate the whole non-empty ``p0 ⋈ p1``
      prefix before discovering that no result survives ``p2``.

    Candidates are shuffled with *rng*, then stably ordered by descending
    driver cardinality (the number of matches direct evaluation must
    enumerate before concluding emptiness): the front of the list is the
    traffic where a summary guard pays off most, which is what the mixed
    workload should stress.
    """
    subjects_of: Dict[URI, set] = {}
    objects_of: Dict[URI, set] = {}
    for triple in graph.data_triples:
        subjects_of.setdefault(triple.predicate, set()).add(triple.subject)
        objects_of.setdefault(triple.predicate, set()).add(triple.object)
    instances_of: Dict[URI, set] = {}
    for triple in graph.type_triples:
        if isinstance(triple.object, URI):
            instances_of.setdefault(triple.object, set()).add(triple.subject)

    variable_w = Variable("w")
    variable_x, variable_y, variable_z = Variable("x"), Variable("y"), Variable("z")
    properties = sorted(subjects_of)
    candidates: List[Tuple[int, str, BGPQuery]] = []
    for first in properties:
        driver_cost = len(subjects_of[first])
        # the heaviest feeder into `first` makes the long chain's non-empty
        # prefix join as expensive as the graph allows
        feeder = max(
            (p for p in properties if p != first and (objects_of[p] & subjects_of[first])),
            key=lambda p: len(subjects_of[p]),
            default=None,
        )
        for second in properties:
            if first == second:
                continue
            if not (objects_of[first] & subjects_of[second]):
                candidates.append(
                    (
                        driver_cost,
                        "unsat_chain",
                        BGPQuery(
                            [
                                TriplePattern(variable_x, first, variable_y),
                                TriplePattern(variable_y, second, variable_z),
                            ],
                            head=(variable_x, variable_z),
                        ),
                    )
                )
                if feeder is not None:
                    candidates.append(
                        (
                            len(subjects_of[feeder]) + driver_cost,
                            "unsat_long_chain",
                            BGPQuery(
                                [
                                    TriplePattern(variable_w, feeder, variable_x),
                                    TriplePattern(variable_x, first, variable_y),
                                    TriplePattern(variable_y, second, variable_z),
                                ],
                                head=(variable_w,),
                            ),
                        )
                    )
            if first < second and not (subjects_of[first] & subjects_of[second]):
                candidates.append(
                    (
                        driver_cost,
                        "unsat_fork",
                        BGPQuery(
                            [
                                TriplePattern(variable_x, first, variable_y),
                                TriplePattern(variable_x, second, variable_z),
                            ],
                            head=(variable_x,),
                        ),
                    )
                )
    for class_uri, instances in sorted(instances_of.items()):
        for prop in properties:
            if not (instances & subjects_of[prop]):
                candidates.append(
                    (
                        len(instances),
                        "unsat_typed",
                        BGPQuery(
                            [
                                TriplePattern(variable_x, RDF_TYPE, class_uri),
                                TriplePattern(variable_x, prop, variable_y),
                            ],
                            head=(variable_x,),
                        ),
                    )
                )
    rng.shuffle(candidates)
    candidates.sort(key=lambda item: -item[0])
    return [(family, query) for _cost, family, query in candidates]


def _cheap_under_budget(
    graph: RDFGraph, query: BGPQuery, answer_limit: Optional[int], budget: int
) -> bool:
    """Whether *query* is served within *budget* embeddings.

    A query passes when it either enumerates completely within the budget,
    or — when the service caps answers at *answer_limit* — reaches that many
    distinct head projections first.  Queries failing both are the hub-join
    pathologies that would dominate any workload they appear in.
    """
    distinct = set()
    count = 0
    for bindings in iter_embeddings(graph, query):
        count += 1
        if count > budget:
            return False
        if answer_limit is not None:
            distinct.add(tuple(bindings[variable] for variable in query.head))
            if len(distinct) >= answer_limit:
                return True
    return True


def generate_mixed_workload(
    graph: RDFGraph,
    count: int = 40,
    unsatisfiable_fraction: float = 0.5,
    size: int = 2,
    seed: int = 0,
    dictionary_miss_fraction: float = 0.1,
    max_embeddings: Optional[int] = 20_000,
    answer_limit: Optional[int] = None,
) -> List[WorkloadQuery]:
    """A reproducible mixed RBGP workload with per-query ground truth.

    ``unsatisfiable_fraction`` of the *count* queries are empty on *graph*
    (guaranteed at generation time); of those, ``dictionary_miss_fraction``
    use an absent constant and the rest are structurally unsatisfiable
    joins over existing properties.  Satisfiable queries are kept only when
    they evaluate within *max_embeddings* join steps — completely, or up to
    *answer_limit* distinct answers when the workload is meant to be served
    with a limit (pass ``max_embeddings=None`` to keep everything).  The
    result is shuffled with the same seed, so identical parameters yield
    the identical workload.
    """
    if not 0.0 <= unsatisfiable_fraction <= 1.0:
        raise ValueError("unsatisfiable_fraction must be within [0, 1]")
    rng = random.Random(seed)
    unsat_target = round(count * unsatisfiable_fraction)
    sat_target = count - unsat_target

    generator = RBGPQueryGenerator(graph, seed=seed)
    workload: List[WorkloadQuery] = []
    attempts = 0
    while len(workload) < sat_target and attempts < sat_target * 20 + 10:
        attempts += 1
        query = generator.generate(size=size)
        if query is None:
            break
        if max_embeddings is not None and not _cheap_under_budget(
            graph, query, answer_limit, max_embeddings
        ):
            continue
        query.name = f"sat_{len(workload)}"
        workload.append(WorkloadQuery(query, True))

    if len(workload) < sat_target and unsatisfiable_fraction < 1.0:
        # satisfiable generation fell short (tiny graph, or every sample
        # blew the embedding budget): shrink the unsatisfiable quota to
        # keep the requested composition instead of silently skewing the
        # workload toward unsatisfiable queries
        unsat_target = round(
            len(workload) * unsatisfiable_fraction / (1.0 - unsatisfiable_fraction)
        )

    miss_target = round(unsat_target * dictionary_miss_fraction)
    produced = 0
    for _family, candidate in _unsatisfiable_candidates(graph, rng):
        if produced >= unsat_target - miss_target:
            break
        candidate.name = f"unsat_{produced}"
        workload.append(WorkloadQuery(candidate, False))
        produced += 1
    # dictionary misses (plus a fallback when structural mutation could not
    # reach the target, e.g. on graphs with a single property)
    miss_index = 0
    while produced < unsat_target:
        variable_x, variable_y = Variable("x"), Variable("y")
        query = BGPQuery(
            [TriplePattern(variable_x, _ABSENT_NS.term(f"p{seed}_{miss_index}"), variable_y)],
            head=(variable_x,),
            name=f"unsat_miss_{miss_index}",
        )
        workload.append(WorkloadQuery(query, False))
        produced += 1
        miss_index += 1

    rng.shuffle(workload)
    return workload


class FamilyQuery(NamedTuple):
    """A query tagged with its structural family and ground truth."""

    query: BGPQuery
    #: Family label: ``sat_chain`` / ``sat_fork`` / ``sat_long_chain`` for
    #: satisfiable multi-joins, the ``unsat_*`` shapes of
    #: :func:`_unsatisfiable_candidates`, or ``dictionary_miss``.
    family: str
    satisfiable: bool


def generate_join_workload(
    graph: RDFGraph,
    per_family: int = 6,
    seed: int = 0,
    max_join_size: int = 50_000,
) -> List[FamilyQuery]:
    """A family-labelled join workload: large satisfiable multi-joins.

    The *satisfiable* families are the join shapes where join execution
    matters most — every query enumerates a real, non-empty join:

    * ``sat_chain`` — ``?x p1 ?y . ?y p2 ?z`` with ``objects(p1)`` meeting
      ``subjects(p2)``;
    * ``sat_fork`` — ``?x p1 ?y . ?x p2 ?z`` with overlapping subjects;
    * ``sat_long_chain`` — a three-pattern chain over two meeting pairs.

    Exact embedding counts are computed at generation time from per-property
    endpoint multisets (no join is ever evaluated), candidates are kept when
    ``1 <= embeddings <= max_join_size``, and within each family the largest
    joins — the largest binding tables a join stage has to build — come
    first.  The ``unsat_*`` families of
    :func:`_unsatisfiable_candidates` and a few dictionary misses ride along
    so the workload also covers the traffic the guard usually absorbs.
    """
    rng = random.Random(seed)
    subject_counts: Dict[URI, Counter] = {}
    object_counts: Dict[URI, Counter] = {}
    edges_of: Dict[URI, List[Tuple[object, object]]] = {}
    for triple in graph.data_triples:
        subject_counts.setdefault(triple.predicate, Counter())[triple.subject] += 1
        object_counts.setdefault(triple.predicate, Counter())[triple.object] += 1
        edges_of.setdefault(triple.predicate, []).append((triple.subject, triple.object))
    properties = sorted(subject_counts)

    variable_w = Variable("w")
    variable_x, variable_y, variable_z = Variable("x"), Variable("y"), Variable("z")

    def chain_size(first: URI, second: URI) -> int:
        firsts, seconds = object_counts[first], subject_counts[second]
        if len(firsts) > len(seconds):
            firsts, seconds = seconds, firsts
        return sum(count * seconds[node] for node, count in firsts.items() if node in seconds)

    def fork_size(first: URI, second: URI) -> int:
        firsts, seconds = subject_counts[first], subject_counts[second]
        if len(firsts) > len(seconds):
            firsts, seconds = seconds, firsts
        return sum(count * seconds[node] for node, count in firsts.items() if node in seconds)

    chains: List[Tuple[int, BGPQuery, Tuple[URI, URI]]] = []
    forks: List[Tuple[int, BGPQuery, Tuple[URI, URI]]] = []
    for first in properties:
        for second in properties:
            if first != second:
                size = chain_size(first, second)
                if 1 <= size <= max_join_size:
                    chains.append(
                        (
                            size,
                            BGPQuery(
                                [
                                    TriplePattern(variable_x, first, variable_y),
                                    TriplePattern(variable_y, second, variable_z),
                                ],
                                head=(variable_x, variable_z),
                            ),
                            (first, second),
                        )
                    )
            if first < second:
                size = fork_size(first, second)
                if 1 <= size <= max_join_size:
                    forks.append(
                        (
                            size,
                            BGPQuery(
                                [
                                    TriplePattern(variable_x, first, variable_y),
                                    TriplePattern(variable_x, second, variable_z),
                                ],
                                head=(variable_y, variable_z),
                            ),
                            (first, second),
                        )
                    )
    chains.sort(key=lambda item: -item[0])
    forks.sort(key=lambda item: -item[0])

    long_chains: List[Tuple[int, BGPQuery]] = []
    for _size, _query, (first, second) in chains[: per_family * 4]:
        for feeder in properties:
            if feeder in (first, second):
                continue
            feeder_objects = object_counts[feeder]
            second_subjects = subject_counts[second]
            size = sum(
                feeder_objects[edge_subject] * second_subjects[edge_object]
                for edge_subject, edge_object in edges_of[first]
                if edge_subject in feeder_objects and edge_object in second_subjects
            )
            if 1 <= size <= max_join_size:
                long_chains.append(
                    (
                        size,
                        BGPQuery(
                            [
                                TriplePattern(variable_w, feeder, variable_x),
                                TriplePattern(variable_x, first, variable_y),
                                TriplePattern(variable_y, second, variable_z),
                            ],
                            head=(variable_w, variable_z),
                        ),
                    )
                )
    long_chains.sort(key=lambda item: -item[0])

    workload: List[FamilyQuery] = []

    def take(family: str, ranked: List[Tuple], query_position: int) -> None:
        for index, item in enumerate(ranked[:per_family]):
            query = item[query_position]
            query.name = f"{family}_{index}"
            workload.append(FamilyQuery(query, family, family.startswith("sat")))

    take("sat_chain", chains, 1)
    take("sat_fork", forks, 1)
    take("sat_long_chain", long_chains, 1)

    unsat_per_family: Dict[str, int] = {}
    for family, query in _unsatisfiable_candidates(graph, rng):
        produced = unsat_per_family.get(family, 0)
        if produced >= per_family:
            continue
        query.name = f"{family}_{produced}"
        unsat_per_family[family] = produced + 1
        workload.append(FamilyQuery(query, family, False))
    for index in range(min(per_family, 3)):
        query = BGPQuery(
            [TriplePattern(variable_x, _ABSENT_NS.term(f"p{seed}_{index}"), variable_y)],
            head=(variable_x,),
            name=f"dictionary_miss_{index}",
        )
        workload.append(FamilyQuery(query, "dictionary_miss", False))
    return workload


class WorkloadReport:
    """Outcome of running one workload through a :class:`QueryService`."""

    def __init__(
        self,
        results: List[Tuple[WorkloadQuery, QueryAnswer]],
        total_seconds: float,
        check_ground_truth: bool = True,
    ):
        self.results = results
        self.total_seconds = total_seconds
        #: Queries whose service verdict contradicts the ground truth.  A
        #: satisfiable query answered empty would be a *pruning error* — the
        #: unsoundness the paper's Proposition 1 rules out.  Empty when the
        #: run was made under semantics the ground truth does not cover
        #: (``check_ground_truth=False``, e.g. saturated answering against
        #: explicit-graph labels).
        self.errors: List[WorkloadQuery] = (
            [item for item, answer in results if item.satisfiable == answer.empty]
            if check_ground_truth
            else []
        )
        self.pruned = sum(1 for _, answer in results if answer.pruned)

    @property
    def sound(self) -> bool:
        """``True`` when every verdict matched the ground truth."""
        return not self.errors

    @property
    def query_count(self) -> int:
        return len(self.results)

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.query_count,
            "pruned": self.pruned,
            "errors": len(self.errors),
            "total_seconds": self.total_seconds,
        }


def run_workload(
    service: QueryService,
    graph_name: str,
    workload: Sequence[WorkloadQuery],
    saturated: bool = False,
    answer_limit: Optional[int] = None,
) -> WorkloadReport:
    """Run every workload query through *service* and verify the verdicts.

    *answer_limit* caps the distinct answers per query (typical serving
    behaviour); it never changes a verdict — emptiness is exact either way.
    With ``saturated=True`` the ground-truth check is skipped: the workload
    labels state satisfiability on the *explicit* graph, and a query empty
    on ``G`` may legitimately have certain answers on ``G∞``.
    """
    results: List[Tuple[WorkloadQuery, QueryAnswer]] = []
    start = perf_counter()
    for item in workload:
        results.append(
            (item, service.answer(graph_name, item.query, limit=answer_limit, saturated=saturated))
        )
    return WorkloadReport(results, perf_counter() - start, check_ground_truth=not saturated)


class ComparisonReport:
    """Guarded service vs. direct per-query evaluation on one workload."""

    def __init__(
        self,
        guarded: WorkloadReport,
        direct_seconds: float,
        disagreements: List[BGPQuery],
        direct_errors: List[WorkloadQuery],
    ):
        self.guarded = guarded
        self.direct_seconds = direct_seconds
        #: Queries where the guarded answers differ from direct evaluation.
        self.disagreements = disagreements
        self.direct_errors = direct_errors

    @property
    def speedup(self) -> float:
        """Direct wall time divided by guarded wall time."""
        if self.guarded.total_seconds <= 0:
            return float("inf")
        return self.direct_seconds / self.guarded.total_seconds

    @property
    def sound(self) -> bool:
        """Zero pruning errors and full agreement with direct evaluation."""
        return self.guarded.sound and not self.disagreements and not self.direct_errors

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.guarded.query_count,
            "pruned": self.guarded.pruned,
            "guarded_seconds": self.guarded.total_seconds,
            "direct_seconds": self.direct_seconds,
            "speedup": self.speedup,
            "pruning_errors": len(self.guarded.errors),
            "disagreements": len(self.disagreements),
            "sound": self.sound,
        }


def compare_guarded_vs_direct(
    catalog: GraphCatalog,
    graph_name: str,
    workload: Sequence[WorkloadQuery],
    kind: str = "weak",
    answer_limit: Optional[int] = None,
    strategy: str = "hash",
) -> ComparisonReport:
    """Time *workload* through the guard and through direct evaluation.

    Both sides use the same encoded evaluator (same join *strategy*) over
    the same store with the same *answer_limit*; the only difference is the
    summary guard, so the measured gap is the guard's contribution.  Every
    query's two answer sets are compared — any disagreement (and any
    verdict contradicting the generation-time ground truth) is reported,
    making the comparison double as a soundness check.  Verdicts are exact
    despite the limit: an empty result is only ever produced by exhaustive
    (or provably prunable) evaluation.
    """
    entry = catalog.entry(graph_name)
    service = QueryService(catalog, kind=kind, prune=True, strategy=strategy)

    # warm-up: build the summaries and the cardinality statistics before
    # timing, as a server would at registration — neither side should be
    # charged for one-off profile builds
    for guard_kind in service.kinds:
        entry.pruning_graph(guard_kind)
    entry.statistics_index()

    with _gc_paused():
        guarded = run_workload(service, graph_name, workload, answer_limit=answer_limit)

        evaluator = entry.evaluator_for(strategy)
        direct_answers = []
        direct_start = perf_counter()
        for item in workload:
            direct_answers.append(evaluator.evaluate(item.query, limit=answer_limit))
        direct_seconds = perf_counter() - direct_start

    disagreements: List[BGPQuery] = []
    direct_errors: List[WorkloadQuery] = []
    for (item, answer), direct in zip(guarded.results, direct_answers):
        if answer.pruned:
            if direct:
                disagreements.append(item.query)
        elif answer.answers != direct:
            disagreements.append(item.query)
        if item.satisfiable == (not direct):
            direct_errors.append(item)
    return ComparisonReport(guarded, direct_seconds, disagreements, direct_errors)
