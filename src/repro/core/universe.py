"""The universe of candidate sources.

The universe ``U`` is the fixed set of data sources µBE selects from
(paper §2.1).  It is an immutable, id-indexed collection with a few
aggregate helpers the QEFs need: total cardinality, vocabulary of attribute
names, and iteration over attributes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from ..exceptions import ReproError
from .attribute import AttributeRef
from .source import Source


class Universe:
    """An immutable collection of :class:`Source` values with unique ids."""

    __slots__ = ("_sources", "_by_id", "_ids")

    def __init__(self, sources: Iterable[Source]):
        source_list = tuple(sources)
        if not source_list:
            raise ReproError("a universe must contain at least one source")
        by_id: dict[int, Source] = {}
        for source in source_list:
            if source.source_id in by_id:
                raise ReproError(
                    f"duplicate source id {source.source_id} in universe"
                )
            by_id[source.source_id] = source
        self._sources = source_list
        self._by_id = by_id
        self._ids = frozenset(by_id)

    @property
    def sources(self) -> tuple[Source, ...]:
        """All sources, in construction order."""
        return self._sources

    @property
    def source_ids(self) -> frozenset[int]:
        """The set of all source ids."""
        return self._ids

    def source(self, source_id: int) -> Source:
        """Look a source up by id.

        Raises
        ------
        ReproError
            If the id is not in the universe.
        """
        try:
            return self._by_id[source_id]
        except KeyError:
            raise ReproError(f"no source with id {source_id} in universe") from None

    def select(self, source_ids: Iterable[int]) -> tuple[Source, ...]:
        """Resolve a set of ids to sources, sorted by id for determinism."""
        return tuple(self.source(sid) for sid in sorted(set(source_ids)))

    def contains_ids(self, source_ids: Iterable[int]) -> bool:
        """True iff every given id names a source in this universe."""
        return set(source_ids) <= set(self._by_id)

    def total_cardinality(self) -> int:
        """Sum of the cardinalities of all cooperative sources."""
        return sum(
            s.cardinality for s in self._sources if s.cardinality is not None
        )

    def attributes(self) -> Iterator[AttributeRef]:
        """Iterate over every attribute of every source."""
        for source in self._sources:
            yield from source.attributes

    def attribute_names(self) -> tuple[str, ...]:
        """The sorted vocabulary of distinct attribute names."""
        names = {name for source in self._sources for name in source.schema}
        return tuple(sorted(names))

    def characteristic_names(self) -> tuple[str, ...]:
        """Sorted names of characteristics reported by any source."""
        names = {
            key for source in self._sources for key in source.characteristics
        }
        return tuple(sorted(names))

    def characteristic_range(self, name: str) -> tuple[float, float]:
        """(min, max) of a characteristic over sources that report it.

        Raises
        ------
        ReproError
            If no source reports the characteristic.
        """
        values = [
            s.characteristics[name]
            for s in self._sources
            if name in s.characteristics
        ]
        if not values:
            raise ReproError(f"no source reports characteristic {name!r}")
        return min(values), max(values)

    def resolve_attribute(self, source_id: int, name_or_index: str | int) -> AttributeRef:
        """Resolve ``(source, attribute)`` given a name or an index."""
        source = self.source(source_id)
        if isinstance(name_or_index, int):
            return source.attribute(name_or_index)
        return source.attribute_named(name_or_index)

    def __getstate__(self) -> tuple[Source, ...]:
        """Pickle only the sources; the id index is derived state.

        Universes cross process boundaries in the parallel portfolio
        engine's :class:`~repro.search.parallel.WorkerContext` (under
        ``spawn`` everything is pickled, so the payload matters).
        """
        return self._sources

    def __setstate__(self, sources: tuple[Source, ...]) -> None:
        # Re-run construction so the id index is rebuilt and the same
        # invariants hold for unpickled universes as for fresh ones.
        self.__init__(sources)

    def __iter__(self) -> Iterator[Source]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, source_id: object) -> bool:
        return source_id in self._by_id

    def __repr__(self) -> str:
        return f"Universe({len(self._sources)} sources)"


def subuniverse(universe: Universe, source_ids: Sequence[int]) -> Universe:
    """A new universe containing only the given sources (ids preserved)."""
    return Universe(universe.select(source_ids))
