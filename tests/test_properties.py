"""Property-based tests (hypothesis) for the core invariants."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AttributeRef,
    GlobalAttribute,
    MediatedSchema,
    normalize_weights,
)
from repro.exceptions import InvalidGAError, WeightError
from repro.matching import greedy_constrained_clustering
from repro.search import Move, MoveKind, Neighborhood
from repro.similarity import NGramJaccard, NameSimilarityMatrix
from repro.sketch import PCSASketch

VOCABULARY = (
    "title", "titles", "book title", "author", "authors", "isbn",
    "isbn number", "keyword", "keywords", "price", "mileage", "humidity",
)
MATRIX = NameSimilarityMatrix.build(VOCABULARY, NGramJaccard(3))


# -- strategies ---------------------------------------------------------------

attribute_refs = st.builds(
    AttributeRef,
    source_id=st.integers(0, 7),
    index=st.integers(0, 3),
    name=st.sampled_from(VOCABULARY),
)


@st.composite
def valid_gas(draw, min_size=1, max_size=5):
    """GAs with one attribute per source by construction."""
    source_ids = draw(
        st.lists(
            st.integers(0, 9), min_size=min_size, max_size=max_size,
            unique=True,
        )
    )
    return GlobalAttribute(
        AttributeRef(sid, draw(st.integers(0, 3)), draw(st.sampled_from(VOCABULARY)))
        for sid in source_ids
    )


@st.composite
def attribute_sets(draw, max_sources=6, max_attrs=4):
    """Lists of attributes with unique (source, index) slots."""
    n_sources = draw(st.integers(1, max_sources))
    attrs = []
    for sid in range(n_sources):
        n_attrs = draw(st.integers(1, max_attrs))
        names = draw(
            st.lists(
                st.sampled_from(VOCABULARY),
                min_size=n_attrs, max_size=n_attrs,
            )
        )
        attrs.extend(
            AttributeRef(sid, idx, name) for idx, name in enumerate(names)
        )
    return attrs


@st.composite
def seeded_attribute_sets(draw):
    """Free attributes plus disjoint seed GAs drawn from the same pool."""
    pool = draw(attribute_sets())
    seeds = []
    for _ in range(draw(st.integers(0, 2))):
        if not pool:
            break
        picked = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
        )
        members = {}
        for attr in picked:
            members.setdefault(attr.source_id, attr)
        seeds.append(GlobalAttribute(members.values()))
        pool = [a for a in pool if a not in members.values()]
    return pool, tuple(seeds)


def theta_components(attrs, seeds, theta):
    """Attribute sets of the θ-graph's components; a seed is one node."""
    nodes = [tuple(seed) for seed in seeds] + [(attr,) for attr in attrs]
    ids = [MATRIX.name_ids([a.name for a in node]) for node in nodes]
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(nodes)), 2):
        if MATRIX.max_cross(ids[i], ids[j]) >= theta:
            parent[find(i)] = find(j)
    groups: dict[int, set] = {}
    for i, node in enumerate(nodes):
        groups.setdefault(find(i), set()).update(node)
    return [frozenset(group) for group in groups.values()]


# -- GA and schema algebra ----------------------------------------------------

class TestGAProperties:
    @given(ga=valid_gas())
    def test_ga_is_valid_by_construction(self, ga):
        assert len(ga.source_ids) == len(ga)

    @given(a=valid_gas(), b=valid_gas())
    def test_merge_valid_iff_sources_disjoint(self, a, b):
        if a.is_mergeable_with(b):
            merged = a.merge(b)
            assert merged.attributes == a.attributes | b.attributes
            assert a.issubset(merged) and b.issubset(merged)
        else:
            with pytest.raises(InvalidGAError):
                a.merge(b)

    @given(ga=valid_gas())
    def test_subsumption_reflexive(self, ga):
        assert ga.issubset(ga)

    @given(ga=valid_gas(min_size=2))
    def test_restriction_is_subset(self, ga):
        some = list(ga.source_ids)[:1]
        assert ga.restricted_to(some) <= ga.attributes


class TestSchemaProperties:
    @given(gas=st.lists(valid_gas(), max_size=4))
    def test_disjoint_gas_always_form_schema(self, gas):
        seen: set[AttributeRef] = set()
        disjoint = []
        for ga in gas:
            if not (seen & ga.attributes):
                disjoint.append(ga)
                seen |= ga.attributes
        schema = MediatedSchema(disjoint)
        assert schema.attributes() == frozenset(seen)
        assert schema.subsumes(schema)

    @given(gas=st.lists(valid_gas(), max_size=4))
    def test_restriction_preserves_validity(self, gas):
        seen: set[AttributeRef] = set()
        disjoint = []
        for ga in gas:
            if not (seen & ga.attributes):
                disjoint.append(ga)
                seen |= ga.attributes
        schema = MediatedSchema(disjoint)
        projected = schema.restricted_to({0, 1, 2})
        assert projected.covered_source_ids() <= frozenset({0, 1, 2})


# -- clustering ----------------------------------------------------------------

class TestClusteringProperties:
    @given(attrs=attribute_sets(), theta=st.sampled_from([0.5, 0.65, 0.8]))
    @settings(max_examples=60, deadline=None)
    def test_output_is_valid_partition_respecting_theta(self, attrs, theta):
        clusters = greedy_constrained_clustering(attrs, (), MATRIX, theta)
        slots = sorted((a.source_id, a.index) for c in clusters for a in c.attrs)
        assert slots == sorted((a.source_id, a.index) for a in attrs)
        for cluster in clusters:
            sources = [a.source_id for a in cluster.attrs]
            assert len(sources) == len(set(sources))
            # The carried quality is the recomputed one, bit for bit.
            assert cluster.quality == cluster.internal_quality(MATRIX)
            if len(cluster) >= 2:
                assert cluster.quality >= theta

    @given(
        case=seeded_attribute_sets(),
        theta=st.sampled_from([0.3, 0.5, 0.65, 0.8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_conflict_free_components_end_as_one_cluster(self, case, theta):
        # Under single linkage with elimination, θ-graph components never
        # interact, and one whose attributes (seeds included) come from
        # distinct sources always ends as exactly one cluster.
        attrs, seeds = case
        clusters = greedy_constrained_clustering(attrs, seeds, MATRIX, theta)
        outputs = {frozenset(cluster.attrs) for cluster in clusters}
        for component in theta_components(attrs, seeds, theta):
            sources = [a.source_id for a in component]
            if len(sources) == len(set(sources)):
                assert component in outputs

    @given(attrs=attribute_sets(max_sources=4))
    @settings(max_examples=30, deadline=None)
    def test_theta_above_every_similarity_yields_singletons(self, attrs):
        # Note: cluster sizes are NOT monotone in θ — a low-θ early merge
        # can block a later high-similarity merge through the validity
        # constraint — so only the degenerate bound is a true invariant.
        clusters = greedy_constrained_clustering(attrs, (), MATRIX, 1.0 + 1e-9)
        assert all(len(c) == 1 for c in clusters)

    @given(attrs=attribute_sets(max_sources=4))
    @settings(max_examples=30, deadline=None)
    def test_theta_zero_respects_validity_only(self, attrs):
        clusters = greedy_constrained_clustering(attrs, (), MATRIX, 0.0)
        for cluster in clusters:
            sources = [a.source_id for a in cluster.attrs]
            assert len(sources) == len(set(sources))


# -- sketches -------------------------------------------------------------------

ints_arrays = st.lists(
    st.integers(0, 2**32 - 1), min_size=0, max_size=300
).map(lambda xs: np.array(xs, dtype=np.uint64))


class TestSketchProperties:
    @given(a=ints_arrays, b=ints_arrays)
    @settings(max_examples=50, deadline=None)
    def test_union_equals_concatenation(self, a, b):
        merged = PCSASketch.from_ints(a, num_maps=64) | PCSASketch.from_ints(
            b, num_maps=64
        )
        direct = PCSASketch.from_ints(np.concatenate([a, b]), num_maps=64)
        assert np.array_equal(merged.words, direct.words)

    @given(a=ints_arrays, b=ints_arrays)
    @settings(max_examples=50, deadline=None)
    def test_estimate_monotone_under_union(self, a, b):
        sketch_a = PCSASketch.from_ints(a, num_maps=64)
        merged = sketch_a | PCSASketch.from_ints(b, num_maps=64)
        assert merged.estimate() >= sketch_a.estimate()

    @given(values=ints_arrays)
    @settings(max_examples=50, deadline=None)
    def test_duplicates_never_change_signature(self, values):
        once = PCSASketch.from_ints(values, num_maps=64)
        twice = PCSASketch.from_ints(
            np.concatenate([values, values]), num_maps=64
        )
        assert np.array_equal(once.words, twice.words)

    @given(values=ints_arrays)
    @settings(max_examples=50, deadline=None)
    def test_estimate_nonnegative(self, values):
        assert PCSASketch.from_ints(values, num_maps=64).estimate() >= 0.0


# -- compounds -------------------------------------------------------------------

class TestCompoundProperties:
    @given(
        schemas=st.lists(
            st.lists(st.sampled_from(VOCABULARY), min_size=2, max_size=5),
            min_size=2,
            max_size=5,
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_apply_expand_partitions_attributes(self, schemas, data):
        from repro.core import Universe, Source
        from repro.matching import CompoundSpec, apply_compounds

        universe = Universe(
            Source(i, f"s{i}", schema) for i, schema in enumerate(schemas)
        )
        # Draw a valid random compound per eligible source.
        specs = []
        for source in universe:
            if len(source.schema) < 2 or not data.draw(st.booleans()):
                continue
            size = data.draw(st.integers(2, len(source.schema)))
            indexes = data.draw(
                st.lists(
                    st.integers(0, len(source.schema) - 1),
                    min_size=size, max_size=size, unique=True,
                )
            )
            specs.append(CompoundSpec(source.source_id, tuple(indexes)))
        mapping = apply_compounds(universe, specs)

        # Every original attribute appears in exactly one expansion group.
        seen = []
        for source in mapping.derived:
            for attr in source.attributes:
                seen.extend(mapping.expand_attribute(attr))
        assert sorted(
            (a.source_id, a.index) for a in seen
        ) == sorted(
            (a.source_id, a.index)
            for original in universe
            for a in original.attributes
        )

    @given(
        indexes=st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True)
    )
    def test_compound_schema_shrinks_by_members_minus_one(self, indexes):
        from repro.core import Universe, Source
        from repro.matching import CompoundSpec, apply_compounds

        universe = Universe(
            [Source(0, "s0", [f"field {i}" for i in range(5)])]
        )
        mapping = apply_compounds(
            universe, [CompoundSpec(0, tuple(indexes))]
        )
        assert len(mapping.derived.source(0).schema) == 5 - len(indexes) + 1


# -- persistence -----------------------------------------------------------------

class TestIOProperties:
    @given(gas=st.lists(valid_gas(), max_size=4))
    def test_schema_json_roundtrip(self, gas):
        from repro.core import MediatedSchema
        from repro.io import schema_from_dict, schema_to_dict

        seen: set[AttributeRef] = set()
        disjoint = []
        for ga in gas:
            if not (seen & ga.attributes):
                disjoint.append(ga)
                seen |= ga.attributes
        schema = MediatedSchema(disjoint)
        assert schema_from_dict(schema_to_dict(schema)) == schema

    @given(values=ints_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sketch_json_roundtrip(self, values):
        from repro.io import sketch_from_dict, sketch_to_dict

        sketch = PCSASketch.from_ints(values, num_maps=64)
        restored = sketch_from_dict(sketch_to_dict(sketch))
        assert np.array_equal(restored.words, sketch.words)
        assert restored.estimate() == sketch.estimate()


# -- weights --------------------------------------------------------------------

class TestWeightProperties:
    @given(
        raw=st.dictionaries(
            st.sampled_from(["matching", "cardinality", "coverage", "x"]),
            st.floats(0.01, 1.0),
            min_size=1, max_size=4,
        )
    )
    def test_normalize_accepts_exactly_sum_one(self, raw):
        total = sum(raw.values())
        scaled = {k: v / total for k, v in raw.items()}
        normalized = normalize_weights(scaled)
        assert sum(normalized.values()) == pytest.approx(1.0)

    @given(
        raw=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0.0, 1.0),
            min_size=1, max_size=3,
        )
    )
    def test_normalize_rejects_bad_sums(self, raw):
        total = sum(raw.values())
        if abs(total - 1.0) > 1e-6:
            with pytest.raises(WeightError):
                normalize_weights(raw)


# -- moves -----------------------------------------------------------------------

class TestMoveProperties:
    @given(
        seed=st.integers(0, 1_000),
        steps=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_walks_stay_in_constraint_region(self, seed, steps):
        rng = np.random.default_rng(seed)
        universe_ids = frozenset(range(12))
        required = frozenset({0, 1})
        hood = Neighborhood(universe_ids, required, max_sources=5)
        selection = frozenset({0, 1, 2})
        for _ in range(steps):
            move = hood.random_move(selection, rng)
            if move is None:
                break
            selection = move.apply(selection)
            assert required <= selection
            assert 1 <= len(selection) <= 5
            assert selection <= universe_ids

    @given(
        added=st.one_of(st.none(), st.integers(0, 9)),
        dropped=st.one_of(st.none(), st.integers(0, 9)),
    )
    def test_move_apply_is_pure(self, added, dropped):
        move = Move(MoveKind.SWAP, added=added, dropped=dropped)
        before = frozenset({1, 2, 3})
        move.apply(before)
        assert before == frozenset({1, 2, 3})
