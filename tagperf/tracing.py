"""Wall-clock spans around the public entry points of each repro layer.

The traced run wraps, from the benchmark's own files, the calls into
each layer of the program (nothing in ``src/`` changes): the wrapper
opens a span on entry and closes it on exit.  Spans live in memory —
name, start, end, parent, request id, thread and a few counts — with
one parent stack per thread, so the two serve workers' spans stay
separate.  :func:`layer_metrics` turns the spans of a measured window
into the per-layer metrics; :meth:`Tracer.write` dumps every span when
the run ends.

Busy time of a span name is the summed duration of its outermost spans
(a span nested in another of the same layer adds nothing); self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Metric slug of each method class, in ``default_methods`` order.
METHOD_SLUGS = {
    "Text2SQLMethod": "text2sql",
    "RAGMethod": "rag",
    "RetrievalRerankMethod": "rerank",
    "Text2SQLLMMethod": "text2sql_lm",
    "HandwrittenTAGMethod": "handwritten",
}

#: The simulated LM's default handler classes, in routing order.
HANDLERS = (
    "JudgmentHandler",
    "ScoringHandler",
    "RelevanceHandler",
    "ComparisonHandler",
    "SummaryHandler",
    "RepairHandler",
    "Text2SQLHandler",
    "AnswerHandler",
)


class Span:
    """One wrapped call (or one benchmark op, for ``name == "op"``)."""

    __slots__ = ("name", "start", "end", "parent", "rid", "thread", "attrs")

    def __init__(
        self, name: str, start: float, parent: "Span | None", rid: Any,
        thread: str,
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Texts embedded so far, keyed by embedder configuration, for
        #: ``embed.repeat_share``.
        self._embedded: set[tuple] = set()
        self._embedded_lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Any) -> None:
        """Tag the spans this thread opens from now on with ``rid``."""
        self._local.rid = rid

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            getattr(self._local, "rid", None),
            threading.current_thread().name,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span, attrs: dict[str, Any] | None = None) -> None:
        span.end = time.perf_counter()
        span.attrs = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def mark(self) -> int:
        """Position in the span list; spans from here on form a window."""
        return len(self.spans)

    # -- wrapping -------------------------------------------------------

    def _patch(
        self,
        owner: Any,
        attribute: str,
        name: str | Callable[..., str],
        counts: Callable[..., dict[str, Any] | None] | None = None,
    ) -> None:
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, {"error": type(exc).__name__})
                raise
            tracer.close(
                span,
                counts(args, kwargs, result) if counts is not None else None,
            )
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        import repro.data
        import repro.data.base
        import repro.db.catalog
        from repro.core import execution, generation, synthesis
        from repro.core.tag import TAGPipeline
        from repro.db.catalog import Database
        from repro.db.planner import Planner
        from repro.db.udfcache import UDFMemoCache
        from repro.embed import HashingEmbedder
        from repro.lm import handlers as handler_package
        from repro.lm.model import SimulatedLM
        from repro.lm.router import Router
        from repro.methods import base as method_base
        from repro.methods import default_methods  # noqa: F401 - loads all
        from repro.semantic import engine, operators
        from repro.serve.batching import BatchingLM
        from repro.serve.semantic import QueryRegistry, SemanticResultCache
        from repro.serve.server import TagServer
        from repro.vector import FlatIndex

        for module in (repro.data, repro.data.base):
            self._patch(module, "load_all", "data.load_all")
            self._patch(module, "load_domain", "data.load_domain")

        self._patch(HashingEmbedder, "embed", "embed.embed", self._embed_counts)
        self._patch(HashingEmbedder, "embed_batch", "embed.embed_batch")
        self._patch(FlatIndex, "add", "vector.add")
        self._patch(FlatIndex, "search", "vector.search")

        self._patch(SimulatedLM, "complete", "lm.complete", _complete_counts)
        self._patch(
            SimulatedLM, "complete_batch", "lm.complete_batch", _batch_counts
        )
        self._patch(Router, "route", "lm.route")
        handler_classes = {
            type(handler).__name__: type(handler)
            for handler in handler_package.default_handlers()
        }
        for class_name in HANDLERS:
            self._patch(
                handler_classes[class_name],
                "handle",
                f"lm.handler.{class_name}",
            )

        self._patch(Database, "execute", "db.execute", _execute_counts)
        self._patch(Database, "analyze", "db.analyze")
        self._patch(repro.db.catalog, "parse_statement", "db.parse")
        self._patch(Planner, "plan_select", "db.plan")
        self._patch(Planner, "run_select", "db.run")
        self._patch(
            UDFMemoCache,
            "lookup",
            "db.memo_lookup",
            lambda args, kwargs, result: {"hit": bool(result[0])},
        )

        for method_name in (
            "sem_filter", "sem_topk", "sem_agg", "sem_agg_by",
            "sem_search", "sem_map", "sem_join",
        ):
            self._patch(
                operators.SemanticOperators, method_name,
                f"semantic.{method_name}",
            )
        for method_name in (
            "judge", "score", "relevance", "compare", "summarize",
            "summarize_batch",
        ):
            self._patch(
                engine.SemanticEngine, method_name, f"semantic.{method_name}"
            )

        for cls in (
            synthesis.LMQuerySynthesizer,
            synthesis.FixedQuerySynthesizer,
            synthesis.EmbeddingSynthesizer,
        ):
            self._patch(cls, "synthesize", "core.synth")
        for cls in (execution.SQLExecutor, execution.VectorSearchExecutor):
            self._patch(cls, "execute", "core.exec")
        for cls in (
            generation.NoGenerator,
            generation.SingleCallGenerator,
            generation.RefineGenerator,
            generation.MapReduceGenerator,
        ):
            self._patch(cls, "generate", "core.gen")
        self._patch(TAGPipeline, "run", "core.run")

        method_classes = [method_base.Method] + _subclasses(method_base.Method)
        for cls in method_classes:
            if "prepare" in vars(cls):
                self._patch(cls, "prepare", _method_span("prepare"))
        self._patch(method_base.Method, "answer", _method_span("answer"))

        self._patch(TagServer, "serve", "serve.serve")
        self._patch(
            BatchingLM, "complete", "serve.batching.complete"
        )
        self._patch(
            BatchingLM, "complete_batch", "serve.batching.complete_batch"
        )
        self._patch(
            SemanticResultCache,
            "lookup",
            "serve.semcache.lookup",
            lambda args, kwargs, result: {
                "via": None if result is None else result.via
            },
        )
        self._patch(SemanticResultCache, "store", "serve.semcache.store")
        self._patch(
            SemanticResultCache, "meter_coalesced", "serve.semcache.coalesced"
        )
        self._patch(QueryRegistry, "examples", "serve.registry.examples")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _embed_counts(self, args, kwargs, result) -> dict[str, Any]:
        embedder, text = args[0], args[1]
        key = (embedder.dimensions, embedder.use_trigrams, text)
        with self._embedded_lock:
            repeat = key in self._embedded
            self._embedded.add(key)
        return {"repeat": repeat}

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line (gzip)."""
        ids = {id(span): number for number, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for number, span in enumerate(self.spans):
                record = {
                    "id": number,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": (
                        None if span.parent is None
                        else ids.get(id(span.parent))
                    ),
                    "request": span.rid,
                    "thread": span.thread,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                out.write(json.dumps(record, default=str) + "\n")


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _method_span(kind: str) -> Callable[..., str]:
    def name(method, *rest) -> str:
        slug = METHOD_SLUGS.get(type(method).__name__, type(method).__name__)
        return f"methods.{slug}.{kind}"

    return name


def _complete_counts(args, kwargs, response) -> dict[str, Any]:
    return {
        "calls": 1,
        "batches": 1,
        "prompt_tokens": response.prompt_tokens,
        "output_tokens": response.output_tokens,
        "vsec": response.latency_s,
    }


def _batch_counts(args, kwargs, responses) -> dict[str, Any] | None:
    if not responses:
        return None
    return {
        "calls": len(responses),
        "batches": 1,
        "prompt_tokens": sum(r.prompt_tokens for r in responses),
        "output_tokens": sum(r.output_tokens for r in responses),
        "vsec": sum(r.latency_s for r in responses),
    }


def _statement_kind(sql: str) -> str:
    """``select``, ``udf_select`` or ``write`` for one SQL statement."""
    head = sql.lstrip()[:6].upper()
    if head in ("INSERT", "UPDATE", "DELETE"):
        return "write"
    return "udf_select" if "LLM(" in sql else "select"


def _execute_counts(args, kwargs, result) -> dict[str, Any]:
    sql = args[1] if len(args) > 1 else kwargs["sql"]
    kind = _statement_kind(sql)
    return {
        "kind": kind,
        "rows_out": len(result.rows) if kind != "write" else 0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def _self_time(span: Span, children: dict[int, list[Span]]) -> float:
    return span.duration - sum(
        child.duration for child in children.get(id(span), ())
    )


def _has_ancestor(span: Span, predicate: Callable[[Span], bool]) -> bool:
    parent = span.parent
    while parent is not None:
        if predicate(parent):
            return True
        parent = parent.parent
    return False


def _busy(spans: list[Span], predicate: Callable[[Span], bool]) -> float:
    """Summed duration of the outermost spans matching ``predicate``."""
    return sum(
        span.duration
        for span in spans
        if predicate(span) and not _has_ancestor(span, predicate)
    )


def _starts(prefix: str) -> Callable[[Span], bool]:
    return lambda span: span.name.startswith(prefix)


def _attr(span: Span, key: str, default: Any = 0) -> Any:
    return span.attrs.get(key, default) if span.attrs else default


def _share(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over one window of spans: name -> (value, unit).

    Every metric is present on every workload; a layer the workload
    does not reach reads zero (ratios with a zero base read zero, and
    their base is reported beside them).
    """
    children = _children(spans)
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    put("data.load_s", _busy(spans, _starts("data.")), "s")

    embeds = [s for s in spans if s.name == "embed.embed"]
    put("embed.busy_s", _busy(spans, _starts("embed.")), "s")
    put("embed.texts", len(embeds), "count")
    put(
        "embed.repeat_share",
        _share(sum(_attr(s, "repeat", False) for s in embeds), len(embeds)),
        "share",
    )

    put("vector.add_busy_s", _busy(spans, _starts("vector.add")), "s")
    put("vector.search_busy_s", _busy(spans, _starts("vector.search")), "s")
    put(
        "vector.searches",
        sum(1 for s in spans if s.name == "vector.search"),
        "count",
    )

    model_spans = [s for s in spans if s.name in ("lm.complete", "lm.complete_batch")]
    put("lm.busy_s", _busy(spans, _starts("lm.")), "s")
    put("lm.route_busy_s", _busy(spans, _starts("lm.route")), "s")
    for class_name in HANDLERS:
        mine = [s for s in spans if s.name == f"lm.handler.{class_name}"]
        put(
            f"lm.handler.{class_name}.busy_s",
            sum(s.duration for s in mine),
            "s",
        )
        put(f"lm.handler.{class_name}.calls", len(mine), "count")
    for key, unit in (
        ("calls", "count"),
        ("batches", "count"),
        ("prompt_tokens", "tokens"),
        ("output_tokens", "tokens"),
    ):
        put(f"lm.{key}", sum(_attr(s, key) for s in model_spans), unit)
    put("lm.vsec", sum(_attr(s, "vsec", 0.0) for s in model_spans), "s")
    put(
        "lm.context_errors",
        sum(
            1 for s in model_spans
            if _attr(s, "error", None) == "ContextLengthError"
        ),
        "count",
    )

    executes = [s for s in spans if s.name == "db.execute"]
    is_execute = _starts("db.execute")
    put("db.statements", len(executes), "count")
    put("db.execute_busy_s", _busy(spans, is_execute), "s")
    put(
        "db.execute_self_s",
        sum(_self_time(s, children) for s in executes),
        "s",
    )
    put("db.parse_busy_s", _busy(spans, _starts("db.parse")), "s")
    put("db.analyze_busy_s", _busy(spans, _starts("db.analyze")), "s")
    put("db.plan_busy_s", _busy(spans, _starts("db.plan")), "s")
    put(
        "db.run_self_s",
        sum(
            _self_time(s, children) for s in spans if s.name == "db.run"
        ),
        "s",
    )
    put("db.rows_out", sum(_attr(s, "rows_out") for s in executes), "count")
    put(
        "db.udf_lm_calls",
        sum(
            _attr(s, "calls")
            for s in model_spans
            if _has_ancestor(s, is_execute)
        ),
        "count",
    )
    lookups = [s for s in spans if s.name == "db.memo_lookup"]
    put("db.udf_memo_lookups", len(lookups), "count")
    put(
        "db.udf_memo_hit_ratio",
        _share(sum(_attr(s, "hit", False) for s in lookups), len(lookups)),
        "share",
    )
    for kind in ("select", "udf_select", "write"):
        times = [
            s.duration * 1000.0
            for s in executes
            if _attr(s, "kind", None) == kind and not _attr(s, "error", None)
        ]
        put(
            f"db.{kind}_ms_p50",
            statistics.median(times) if times else 0.0,
            "ms",
        )

    is_semantic = _starts("semantic.")
    put("semantic.busy_s", _busy(spans, is_semantic), "s")
    put(
        "semantic.lm_calls",
        sum(
            _attr(s, "calls")
            for s in model_spans
            if _has_ancestor(s, is_semantic)
        ),
        "count",
    )

    for step in ("synth", "exec", "gen"):
        mine = [s for s in spans if s.name == f"core.{step}"]
        put(f"core.{step}_busy_s", _busy(spans, _starts(f"core.{step}")), "s")
        put(
            f"core.{step}_self_s",
            sum(_self_time(s, children) for s in mine),
            "s",
        )
    put("core.run_busy_s", _busy(spans, _starts("core.run")), "s")

    for slug in METHOD_SLUGS.values():
        put(
            f"methods.{slug}.prepare_s",
            _busy(spans, _starts(f"methods.{slug}.prepare")),
            "s",
        )
        put(
            f"methods.{slug}.answer_busy_s",
            _busy(spans, _starts(f"methods.{slug}.answer")),
            "s",
        )

    is_serve = _starts("serve.serve")
    is_batching = _starts("serve.batching.")
    batching = [s for s in spans if is_batching(s)]
    put("serve.serve_busy_s", _busy(spans, is_serve), "s")
    put("serve.batching.busy_s", _busy(spans, is_batching), "s")
    put(
        "serve.batching.wait_s",
        sum(_self_time(s, children) for s in batching),
        "s",
    )
    flushed = [s for s in model_spans if _has_ancestor(s, is_batching)]
    flushed_batches = sum(_attr(s, "batches") for s in flushed)
    put("serve.batching.batches", flushed_batches, "count")
    put(
        "serve.batch_size_mean",
        _share(sum(_attr(s, "calls") for s in flushed), flushed_batches),
        "calls/batch",
    )
    semcache = [s for s in spans if s.name == "serve.semcache.lookup"]
    put(
        "serve.semcache.lookup_busy_s",
        sum(s.duration for s in semcache),
        "s",
    )
    put(
        "serve.semcache.store_busy_s",
        _busy(spans, _starts("serve.semcache.store")),
        "s",
    )
    put("serve.semcache.lookups", len(semcache), "count")
    put(
        "serve.semcache.hit_share",
        _share(
            sum(_attr(s, "via", None) == "exact" for s in semcache),
            len(semcache),
        ),
        "share",
    )
    put(
        "serve.semcache.near_share",
        _share(
            sum(_attr(s, "via", None) == "near" for s in semcache),
            len(semcache),
        ),
        "share",
    )
    put(
        "serve.semcache.coalesced",
        sum(1 for s in spans if s.name == "serve.semcache.coalesced"),
        "count",
    )
    put(
        "serve.registry.examples_busy_s",
        _busy(spans, _starts("serve.registry.")),
        "s",
    )
    put(
        "serve.dispatched",
        sum(
            1 for s in spans
            if s.name == "core.run" and s.thread.startswith("tag-worker-")
        ),
        "count",
    )
    return metrics


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def covered_share(spans: list[Span]) -> float:
    """Share of entry-layer wall time covered by the layer spans below it.

    An entry span is the one layer call a benchmark op makes
    (``methods.*.answer``, ``db.execute``, ``serve.serve``).  It is
    covered where one of its child spans runs or, for work it hands to
    other threads (the serve workers), where one of those threads'
    outermost spans runs.  What is left is time inside the entry call
    that no wrapped layer accounts for: the entry layer's own glue,
    dispatch and barrier waits.
    """
    children = _children(spans)
    ops = {id(s) for s in spans if s.name == "op"}
    entries = [s for s in spans if s.parent is not None and id(s.parent) in ops]
    roots: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is None and span.name != "op":
            roots.setdefault(span.thread, []).append(span)
    total = covered = 0.0
    for entry in entries:
        intervals = [
            (child.start, child.end) for child in children.get(id(entry), ())
        ]
        intervals += [
            (max(root.start, entry.start), min(root.end, entry.end))
            for thread, mine in roots.items()
            if thread != entry.thread
            for root in mine
            if root.start < entry.end and root.end > entry.start
        ]
        total += entry.duration
        covered += _union(intervals)
    return _share(covered, total)
