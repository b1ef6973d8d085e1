"""Universe/Problem must round-trip through pickle under fork AND spawn.

The parallel portfolio engine ships a compiled problem to worker
processes: under ``fork`` as copy-on-write memory, under ``spawn`` (the
macOS/Windows default) as an actual pickle stream through the pool
initializer.  Nothing about ``__slots__`` classes guarantees that for
free, so these tests pin the contract: every object the
:class:`~repro.search.parallel.WorkerContext` carries — and the derived
state workers rebuild — survives a round trip bit-identically, in-process
and across both start methods.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.quality import Objective
from repro.quality.compiled import EvalContext
from repro.similarity.matrix import NameSimilarityMatrix
from repro.similarity.measures import default_measure
from repro.sketch.stacked import StackedSketches

from ..search.test_optimizers import tiny_problem, tiny_universe

PROTOCOLS = (2, pickle.HIGHEST_PROTOCOL)

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


def roundtrip(value, protocol=pickle.HIGHEST_PROTOCOL):
    return pickle.loads(pickle.dumps(value, protocol=protocol))


def fingerprint(problem) -> tuple:
    """A deterministic evaluation digest of a problem.

    Runs the full compiled pipeline (EvalContext, stacked sketches,
    matching) over a fixed selection, so two problems fingerprinting
    identically agree on everything scoring depends on.  Module-level so
    spawn children can import it.
    """
    objective = Objective(problem)
    selection = frozenset(sorted(problem.universe.source_ids)[:4])
    solution = objective.evaluate(selection)
    return (
        solution.objective,
        solution.quality,
        tuple(sorted(solution.selected)),
        tuple(sorted(solution.qef_scores.items())),
    )


class TestInProcessRoundTrips:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_universe_round_trips(self, protocol):
        universe = tiny_universe()
        copy = roundtrip(universe, protocol)
        assert copy.source_ids == universe.source_ids
        assert len(copy) == len(universe)
        for source in universe:
            twin = copy.source(source.source_id)  # id index was rebuilt
            assert twin.schema == source.schema
            assert twin.cardinality == source.cardinality
            assert twin.characteristics == source.characteristics
            np.testing.assert_array_equal(
                twin.sketch.words, source.sketch.words
            )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_problem_round_trips_and_scores_identically(self, protocol):
        problem = tiny_problem(source_constraints=frozenset({1}))
        copy = roundtrip(problem, protocol)
        assert copy.weights == problem.weights
        assert copy.source_constraints == problem.source_constraints
        assert copy.max_sources == problem.max_sources
        assert copy.theta == problem.theta
        assert (
            copy.effective_source_constraints
            == problem.effective_source_constraints
        )
        assert fingerprint(copy) == fingerprint(problem)

    def test_similarity_matrix_round_trips_with_rebuilt_index(self):
        universe = tiny_universe()
        matrix = NameSimilarityMatrix.build(
            universe.attribute_names(), default_measure()
        )
        copy = roundtrip(matrix)
        assert copy.names == matrix.names
        assert copy.measure_name == matrix.measure_name
        np.testing.assert_array_equal(copy.matrix, matrix.matrix)
        for name in matrix.names:  # the name→id map is derived state
            assert copy.name_id(name) == matrix.name_id(name)

    def test_stacked_sketches_round_trip(self):
        universe = tiny_universe()
        stacked = StackedSketches.from_sketches(
            [source.sketch for source in universe]
        )
        copy = roundtrip(stacked)
        assert copy.n_rows == stacked.n_rows
        assert copy.num_maps == stacked.num_maps
        assert copy.map_bits == stacked.map_bits
        np.testing.assert_array_equal(copy.words, stacked.words)

    def test_eval_context_round_trips_with_rebuilt_row_index(self):
        objective = Objective(tiny_problem())
        context = objective.context
        copy = roundtrip(context)
        assert copy.index_of == context.index_of  # rebuilt, not pickled
        assert copy.vector_names == context.vector_names
        np.testing.assert_array_equal(copy.cards, context.cards)
        np.testing.assert_array_equal(copy.coop_mask, context.coop_mask)

    def test_worker_context_round_trips_with_its_arrays(self):
        from repro.search.parallel import WorkerContext

        problem = tiny_problem()
        similarity = NameSimilarityMatrix.build(
            tiny_universe().attribute_names(), default_measure()
        )
        context = WorkerContext(
            problem,
            similarity=similarity,
            eval_context=Objective(problem).context,
        )
        copy = roundtrip(context)
        assert copy.problem.max_sources == context.problem.max_sources
        assert copy.similarity.names == context.similarity.names
        np.testing.assert_array_equal(
            copy.similarity.matrix, context.similarity.matrix
        )
        np.testing.assert_array_equal(
            copy.eval_context.cards, context.eval_context.cards
        )
        np.testing.assert_array_equal(
            copy.eval_context.stacked.words,
            context.eval_context.stacked.words,
        )
        assert copy.eval_context.index_of == context.eval_context.index_of

    def test_universe_pickle_omits_the_id_index(self):
        # The derived index must not bloat the spawn payload.
        universe = tiny_universe()
        state = universe.__getstate__()
        assert state == universe.sources

    def test_ga_and_schema_never_pickle_their_cached_hash(self):
        # hash() of strings is salted per interpreter: a GA hashed under
        # one process's seed and shipped to another would land in the
        # wrong frozenset bucket, making equal schemas compare unequal
        # (the bug the spawn determinism tests below would catch
        # end-to-end).  Pin the contract directly: the pickled state is
        # the member set alone, and unpickling recomputes the hash.
        from repro.core import GlobalAttribute, MediatedSchema

        universe = tiny_universe()
        source = universe.sources[0]
        ga = GlobalAttribute([source.attribute(0)])
        assert ga.__getstate__() == ga.attributes
        schema = MediatedSchema([ga])
        assert schema.__getstate__() == schema.gas
        copy = roundtrip(schema)
        assert copy == schema
        assert hash(copy) == hash(schema)
        assert copy.gas == {ga}


@pytest.mark.parametrize("method", START_METHODS)
class TestCrossProcessRoundTrips:
    def test_problem_scores_identically_in_a_child_process(self, method):
        problem = tiny_problem()
        expected = fingerprint(problem)
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            remote = pool.submit(fingerprint, problem).result()
        assert remote == expected

    def test_worker_context_ships_through_the_pool(self, method):
        from repro.search import (
            OptimizerConfig,
            ParallelSolveEngine,
            seeded_restarts,
        )

        problem = tiny_problem()
        config = OptimizerConfig(max_iterations=10, patience=8, seed=1)
        workers = seeded_restarts("tabu", 2, config)
        inline = ParallelSolveEngine(jobs=1).solve(problem, workers)
        pooled = ParallelSolveEngine(jobs=2, start_method=method).solve(
            problem, workers
        )
        assert pooled.solution == inline.solution
        assert pooled.trajectory == inline.trajectory
