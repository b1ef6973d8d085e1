"""Spans around the program's public layer calls, and their attribution.

The traced run wraps one public function per layer boundary (see
:func:`_targets`) for the duration of a phase and restores the originals
afterwards; the untraced run never calls :func:`install`.  Every wrapped
call records one span — name, layer, start, end, parent span, turn id —
in memory, and nothing is written until the run ends.

Parents follow the calling thread.  Two links cross threads: a server
thread's ``ServeApp.dispatch`` span is parented to the client request
span that sent it (the client announces each request with
:meth:`Tracer.expect`), and a span opened on a thread with no open span
and no announced request (the job runner) is parented to the tracer's
*ambient* span, which the single client of ``portfolio_job`` sets to its
current turn.

Attribution (:func:`attribute_turn`) splits one turn's wall time over
the spans of that turn: each instant goes to the innermost open spans,
shared evenly when spans on several threads are innermost at once.  On
one thread this is the usual self time — a span's duration minus the
part its children cover — and in every case the layer self times plus
the turn span's own share (the *residual*) sum to the turn's wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager

#: Span record fields, in tuple order.
ID, NAME, LAYER, START, END, PARENT, TURN, ATTRS = range(8)

#: Layer of the benchmark's own turn span; its attributed share is the
#: turn's residual — wall time no layer span covers.
TURN_LAYER = "residual"

#: Default for :meth:`Tracer.span`'s ``turn``/``parent``: take them from
#: the calling thread's open span (or the ambient span).
INHERIT = object()


class Tracer:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._expected: dict[tuple, deque] = defaultdict(deque)
        self.ambient: tuple[int, object] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, object]:
        """The calling thread's ``(span id, turn)``: its innermost open
        span, else the ambient span."""
        stack = self._stack()
        if stack:
            return stack[-1]
        if self.ambient is not None:
            return self.ambient
        return None, None

    @contextmanager
    def span(self, name: str, layer: str, turn=INHERIT, parent=INHERIT):
        """Record one span; yields a dict the caller may add counts to.

        ``turn`` and ``parent`` default to the calling thread's open
        span (or the ambient span); pass ``None`` for a root span.
        """
        current_parent, current_turn = self.current()
        if parent is INHERIT:
            parent = current_parent
        if turn is INHERIT:
            turn = current_turn
        span_id = next(self._ids)
        attrs: dict = {}
        stack = self._stack()
        stack.append((span_id, turn))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, layer, start, end, parent, turn, attrs)
            )

    # -- cross-thread request links -------------------------------------------

    @staticmethod
    def request_key(method: str, path: str, body) -> tuple:
        return (
            method.upper(),
            path,
            json.dumps(body, sort_keys=True) if body else "",
        )

    def expect(self, method: str, path: str, body) -> None:
        """Announce that the calling thread's open span sends a request."""
        key = self.request_key(method, path, body)
        with self._lock:
            self._expected[key].append(self.current())

    def claim(self, method: str, path: str, body) -> tuple:
        """The announcing ``(span id, turn)`` for a received request, or
        ``(INHERIT, INHERIT)`` when nobody announced it."""
        key = self.request_key(method, path, body)
        with self._lock:
            waiting = self._expected.get(key)
            if waiting:
                return waiting.popleft()
        return INHERIT, INHERIT


# -- the wrapped layer boundaries ---------------------------------------------


def _targets():
    """``(layer, owner, attribute, counter, before)`` per wrapped call.

    ``counter(owner_self, args, result, before, attrs)`` adds per-call
    counts; ``before(owner_self, args)`` snapshots state ahead of the
    call.  Both may be None.
    """
    from repro.explain import attribution
    from repro.matching.operator import MatchOperator
    from repro.quality.compiled import EvalContext
    from repro.quality.overall import Objective
    from repro.search import parallel
    from repro.search.base import Optimizer
    from repro.serve.app import ServeApp
    from repro.session import session as session_module
    from repro.session.session import Session
    from repro.similarity import matrix as matrix_module
    from repro.similarity.matrix import NameSimilarityMatrix

    def memo_before(obj, args):
        return obj.cache_info()

    def match_counts(obj, args, result, before, attrs):
        attrs["miss"] = obj.memo_misses > before["misses"]

    def evaluate_counts(obj, args, result, before, attrs):
        info = obj.cache_info()
        attrs["hits"] = info["hits"] - before["hits"]
        attrs["misses"] = info["misses"] - before["misses"]

    def score_counts(obj, args, result, before, attrs):
        attrs["rows"] = len(args[0])

    def build_counts(obj, args, result, before, attrs):
        attrs["names"] = len(result) - (
            0 if before is None else len(before)
        )

    def extended_before(obj, args):
        return obj.names

    def blocked_counts(obj, args, result, before, attrs):
        attrs["candidates"] = result.candidates
        attrs["pairs"] = result.total_pairs

    def optimize_counts(obj, args, result, before, attrs):
        attrs["iterations"] = result.stats.iterations
        attrs["evaluations"] = result.stats.evaluations

    def engine_counts(obj, args, result, before, attrs):
        stats = result.portfolio
        slowest = max(
            (o.result.stats.elapsed_seconds for o in stats.workers if o.ok),
            default=0.0,
        )
        attrs["slowest_worker_s"] = slowest
        attrs["workers_failed"] = stats.failed_workers

    def export_counts(obj, args, result, before, attrs):
        segments = result[1]
        attrs["shm_bytes"] = (
            segments.total_bytes() if segments is not None else 0
        )

    def plan_counts(obj, args, result, before, attrs):
        rebuilt = result.operator == ("rebuild",)
        attrs["operator_rebuilt"] = rebuilt
        attrs["memo_kept"] = result.path != "cold" and not rebuilt

    return [
        ("similarity", NameSimilarityMatrix, "build", build_counts, None),
        (
            "similarity",
            NameSimilarityMatrix,
            "extended",
            build_counts,
            extended_before,
        ),
        ("similarity", matrix_module, "blocked_scores", blocked_counts, None),
        ("quality", EvalContext, "compile", None, None),
        ("quality", EvalContext, "patched", None, None),
        ("quality", EvalContext, "score_batch", score_counts, None),
        ("quality", Objective, "evaluate", evaluate_counts, memo_before),
        (
            "quality",
            Objective,
            "evaluate_batch",
            evaluate_counts,
            memo_before,
        ),
        ("matching", MatchOperator, "match", match_counts, memo_before),
        ("matching", MatchOperator, "for_problem", None, None),
        ("search", Optimizer, "optimize", optimize_counts, None),
        (
            "search.parallel",
            parallel.ParallelSolveEngine,
            "solve",
            engine_counts,
            None,
        ),
        ("search.parallel", parallel, "export_context", export_counts, None),
        ("session", Session, "solve", None, None),
        ("session", session_module, "plan_delta", plan_counts, None),
        ("serve", ServeApp, "dispatch", None, None),
        ("explain", attribution, "explain_solution", None, None),
    ]


def span_name(owner, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attribute}"


def _wrap(tracer: Tracer, layer, name, func, counter, before, bound):
    """A plain function that records a span around ``func``."""
    is_dispatch = name == "ServeApp.dispatch"

    def wrapper(*args, **kwargs):
        obj = args[0] if bound and args else None
        call_args = args[1:] if bound else args
        snapshot = before(obj, call_args) if before is not None else None
        parent = turn = INHERIT
        if is_dispatch:
            method, path = call_args[0], call_args[1]
            body = call_args[2] if len(call_args) > 2 else kwargs.get("body")
            parent, turn = tracer.claim(method, path, body)
        with tracer.span(name, layer, turn=turn, parent=parent) as attrs:
            result = func(*args, **kwargs)
            if counter is not None:
                counter(obj, call_args, result, snapshot, attrs)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", name)
    wrapper.__doc__ = getattr(func, "__doc__", None)
    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    restore = []
    for layer, owner, attribute, counter, before in _targets():
        original = owner.__dict__[attribute]
        name = span_name(owner, attribute)
        if isinstance(original, classmethod):
            wrapped = classmethod(
                _wrap(
                    tracer, layer, name, original.__func__, counter, before,
                    bound=True,
                )
            )
        elif isinstance(owner, type):
            wrapped = _wrap(
                tracer, layer, name, original, counter, before, bound=True
            )
        else:
            wrapped = _wrap(
                tracer, layer, name, original, counter, before, bound=False
            )
        setattr(owner, attribute, wrapped)
        restore.append((owner, attribute, original))

    def uninstall():
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


def installed_targets() -> list[tuple[object, str, object]]:
    """``(owner, attribute, current value)`` for every target."""
    return [
        (owner, attribute, owner.__dict__[attribute])
        for _, owner, attribute, _, _ in _targets()
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of a block."""
    uninstall = install(tracer)
    try:
        yield tracer
    finally:
        uninstall()


# -- attribution ---------------------------------------------------------------


def attribute_turn(turn_span: tuple, spans: list[tuple]) -> dict[int, float]:
    """Seconds of ``turn_span``'s wall time credited to each span id.

    ``spans`` are the spans of this turn (the turn span included).  Each
    elementary interval between span boundaries goes to the innermost
    open spans, split evenly between them; the values sum to the turn's
    wall time.
    """
    lo, hi = turn_span[START], turn_span[END]
    parents = {s[ID]: s[PARENT] for s in spans}
    events = []
    for s in spans:
        start, end = max(s[START], lo), min(s[END], hi)
        if end <= start:
            continue
        events.append((start, 1, s[ID]))
        events.append((end, 0, s[ID]))
    events.sort()
    credit: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    previous = lo
    for when, opening, span_id in events:
        if when > previous and active:
            inner = set(active)
            for member in active:
                ancestor = parents.get(member)
                while ancestor is not None:
                    inner.discard(ancestor)
                    ancestor = parents.get(ancestor)
            share = (when - previous) / len(inner)
            for member in inner:
                credit[member] += share
        previous = max(previous, when)
        if opening:
            active.add(span_id)
        else:
            active.discard(span_id)
    return credit


def turns_of(spans: list[tuple]) -> dict[object, tuple[tuple, list[tuple]]]:
    """``turn id → (turn span, spans of that turn)`` for finished turns."""
    roots = {s[TURN]: s for s in spans if s[LAYER] == TURN_LAYER}
    members: dict[object, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[TURN] in roots:
            members[s[TURN]].append(s)
    return {turn: (roots[turn], members[turn]) for turn in roots}


def outermost(spans: list[tuple], name: str) -> list[tuple]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        ancestor = by_id.get(s[PARENT])
        while ancestor is not None and ancestor[NAME] != name:
            ancestor = by_id.get(ancestor[PARENT])
        if ancestor is None:
            out.append(s)
    return out


__all__ = [
    "Tracer",
    "attribute_turn",
    "install",
    "installed_targets",
    "outermost",
    "traced",
    "turns_of",
]
