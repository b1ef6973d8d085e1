"""Stacked PCSA signatures: batch union estimation over a fixed universe.

The scalar path estimates ``D(S)`` by building a Python list of
:class:`~repro.sketch.pcsa.PCSASketch` objects and OR-folding their word
arrays one selection at a time.  For batch-oriented evaluation
(:meth:`repro.quality.Objective.evaluate_batch`) that per-selection walk is
the bottleneck, so this module compiles the universe's signatures *once*
into a single ``(n_sources, num_maps)`` uint64 matrix.  The union signature
of any batch of selections — selections represented as boolean row masks —
is then one masked bitwise-OR reduction, and the PCSA estimator runs
vectorized over the resulting rows.

Bit-exactness contract: for any selection mask, the union row equals the
words of ``union_sketch([...])`` over the same sources (OR is associative
and commutative), and :meth:`StackedSketches.mean_rho` reproduces the
scalar estimator's mean lowest-zero index exactly — the per-map indexes are
small integers whose float64 sums are exact, so summation order cannot
change the result.  The transcendental tail of the estimate
(``2^Ā − 2^(−κĀ)``) is applied per row in Python floats by
:func:`pcsa_estimate` so it goes through the very same C ``pow`` calls as
:meth:`PCSASketch.estimate`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import SketchError
from ..telemetry import get_telemetry
from .hashing import trailing_zeros
from .pcsa import KAPPA, PHI, PCSASketch

_U64 = np.uint64

def pcsa_estimate(mean_r: float, num_maps: int) -> float:
    """The PCSA estimate for one mean lowest-zero index.

    Identical arithmetic to :meth:`PCSASketch.estimate`: Python-float
    ``2.0 ** x`` on both terms, scaled by ``num_maps / φ``.  An all-zero
    signature has ``mean_r == 0`` and the formula collapses to exactly 0.0,
    matching the scalar early return for empty sketches.
    """
    scale = num_maps / PHI
    return scale * (2.0**mean_r - 2.0 ** (-KAPPA * mean_r))


class StackedSketches:
    """The universe's PCSA signatures as one columnar word matrix.

    Row ``i`` holds the signature words of source ``i`` (in the caller's
    row order); sources without a signature get an all-zero row, which is
    the identity element of OR and therefore contributes nothing to any
    union — exactly the cooperative-only rule of the data QEFs.
    """

    __slots__ = ("words", "num_maps", "map_bits", "seed", "n_rows")

    def __init__(
        self, words: np.ndarray, num_maps: int, map_bits: int, seed: int
    ):
        if words.ndim != 2 or words.shape[1] != num_maps:
            raise SketchError(
                f"words must have shape (n_rows, {num_maps}), "
                f"got {words.shape}"
            )
        self.words = np.ascontiguousarray(words, dtype=_U64)
        self.num_maps = num_maps
        self.map_bits = map_bits
        self.seed = seed
        self.n_rows = int(words.shape[0])

    @classmethod
    def from_sketches(
        cls, sketches: Sequence[PCSASketch | None]
    ) -> "StackedSketches | None":
        """Stack per-row sketches (None rows become all-zero rows).

        Returns None when the sketches disagree on parameters — the caller
        must then fall back to the scalar union path, which raises the
        matching :class:`SketchError` at evaluation time.
        """
        reference = next((s for s in sketches if s is not None), None)
        if reference is None:
            # No signatures at all: a 1-map zero matrix keeps the batch
            # kernel well-formed; estimates are never read because the
            # cooperative count is zero for every selection.
            return cls(
                np.zeros((len(sketches), 1), dtype=_U64),
                num_maps=1,
                map_bits=1,
                seed=0,
            )
        for sketch in sketches:
            if sketch is not None and not reference.compatible_with(sketch):
                return None
        words = np.zeros((len(sketches), reference.num_maps), dtype=_U64)
        for row, sketch in enumerate(sketches):
            if sketch is not None:
                words[row] = sketch.words
        return cls(
            words,
            num_maps=reference.num_maps,
            map_bits=reference.map_bits,
            seed=reference.seed,
        )

    def compatible_sketch(self, sketch: PCSASketch) -> bool:
        """True when a sketch's parameters match this stack's rows."""
        return (
            sketch.num_maps == self.num_maps
            and sketch.map_bits == self.map_bits
            and sketch.seed == self.seed
        )

    def respliced(
        self, entries: Sequence[int | PCSASketch | None]
    ) -> "StackedSketches | None":
        """A new stack built by reusing rows instead of re-reading sketches.

        ``entries[i]`` describes row ``i`` of the result: an ``int`` copies
        that row of this stack (a source that survived a universe edit), a
        :class:`PCSASketch` contributes a fresh row (a source added since
        this stack was built), and ``None`` yields an all-zero row (an
        uncooperative source).  Returns None when a fresh sketch disagrees
        with this stack's parameters — the caller must then rebuild cold
        via :meth:`from_sketches`, exactly as a parameter disagreement is
        handled there.  The reused rows are copies, so patching never
        aliases the source stack's words.
        """
        for entry in entries:
            if isinstance(entry, PCSASketch) and not self.compatible_sketch(
                entry
            ):
                return None
        words = np.zeros((len(entries), self.num_maps), dtype=_U64)
        for row, entry in enumerate(entries):
            if entry is None:
                continue
            if isinstance(entry, PCSASketch):
                words[row] = entry.words
            else:
                words[row] = self.words[entry]
        return StackedSketches(
            words,
            num_maps=self.num_maps,
            map_bits=self.map_bits,
            seed=self.seed,
        )

    def union_rows(self, masks: np.ndarray) -> np.ndarray:
        """Union signatures for a batch of selections.

        ``masks`` is a boolean ``(batch, n_rows)`` matrix; the result is a
        ``(batch, num_maps)`` uint64 matrix where row ``b`` ORs together
        the word rows selected by ``masks[b]``.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_rows:
            raise SketchError(
                f"masks must have shape (batch, {self.n_rows}), "
                f"got {masks.shape}"
            )
        batch = masks.shape[0]
        out = np.zeros((batch, self.num_maps), dtype=_U64)
        # Gather only the *selected* word rows — work scales with Σ|S_b|,
        # not batch × universe.  The jagged segments are folded by
        # iterating over segment *position*: step p ORs the p-th selected
        # row of every selection still that long, so the loop runs
        # max|S_b| times with one whole-batch gather + OR per step.
        counts = masks.sum(axis=1)
        nonempty = np.nonzero(counts)[0]
        if nonempty.size:
            segment_counts = counts[nonempty]
            _, col_index = np.nonzero(masks[nonempty])
            offsets = np.zeros(nonempty.size, dtype=np.intp)
            np.cumsum(segment_counts[:-1], out=offsets[1:])
            for position in range(int(segment_counts.max())):
                rows = np.nonzero(segment_counts > position)[0]
                gathered = self.words[col_index[offsets[rows] + position]]
                out[nonempty[rows]] |= gathered
        metrics = get_telemetry().metrics
        metrics.counter("sketch.pcsa.batch_union_calls").inc()
        metrics.counter("sketch.pcsa.batch_union_rows").inc(batch)
        return out

    def mean_rho(self, union_words: np.ndarray) -> np.ndarray:
        """Per-row mean lowest-zero index Ā of union signature rows.

        The per-map indexes are integers in [0, map_bits]; their int64 row
        sums are exact, so dividing by ``num_maps`` reproduces the scalar
        ``.mean()`` bit for bit.
        """
        lowest_zero = trailing_zeros(~union_words)
        clipped = np.minimum(lowest_zero, self.map_bits)
        return clipped.sum(axis=1) / float(self.num_maps)

    def estimate_rows(self, union_words: np.ndarray) -> list[float]:
        """PCSA estimates for a batch of union signature rows."""
        return [
            pcsa_estimate(float(mean_r), self.num_maps)
            for mean_r in self.mean_rho(union_words)
        ]

    def nbytes(self) -> int:
        """Size of the stacked word matrix in bytes."""
        return int(self.words.nbytes)

    def __getstate__(self) -> dict:
        """Pickle the word matrix and parameters; ``n_rows`` is derived."""
        return {
            "words": self.words,
            "num_maps": self.num_maps,
            "map_bits": self.map_bits,
            "seed": self.seed,
        }

    def __setstate__(self, state: dict) -> None:
        # Re-run construction so the shape check and contiguity
        # normalization apply to unpickled instances too.
        self.__init__(**state)

    def __repr__(self) -> str:
        return (
            f"StackedSketches(rows={self.n_rows}, num_maps={self.num_maps}, "
            f"map_bits={self.map_bits})"
        )
