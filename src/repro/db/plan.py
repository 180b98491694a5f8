"""Physical query plan operators (Volcano-style iterators).

The planner compiles expressions at build time, so operators hold plain
callables and iterate tuples.  Each operator exposes its output
:class:`~repro.db.result.RowLayout` and an ``execute()`` generator, plus
an ``explain()`` line used by tests and diagnostics.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterator
from itertools import islice

from repro.db.expr import (
    Evaluator,
    MemoKey,
    UDFCallError,
    UDFCallSite,
    is_true,
)
from repro.db.functions import AggregateSpec
from repro.db.result import Row, RowLayout
from repro.db.table import Table
from repro.db.types import SQLValue, sort_key
from repro.db.udfcache import UDFMemoCache
from repro.errors import ExecutionError


class PlanNode:
    """Base class for plan operators."""

    layout: RowLayout

    def execute(self) -> Iterator[Row]:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        lines = ["  " * depth + self._describe()]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """This node's one-line ``explain()`` label (public surface for
        diagnostics layers like :mod:`repro.obs.explain`)."""
        return self._describe()

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["PlanNode"]:
        return []


class Scan(PlanNode):
    """Full scan of a stored table under a binding (alias)."""

    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding
        self.layout = RowLayout(
            [(binding, name) for name in table.schema.column_names]
        )

    def execute(self) -> Iterator[Row]:
        yield from self.table

    def _describe(self) -> str:
        return f"Scan({self.table.schema.name} AS {self.binding})"


class IndexLookup(PlanNode):
    """Point lookup via a table's hash index (``col = literal``)."""

    def __init__(self, table: Table, binding: str, column: str, value: SQLValue):
        self.table = table
        self.binding = binding
        self.column = column
        self.value = value
        self.layout = RowLayout(
            [(binding, name) for name in table.schema.column_names]
        )

    def execute(self) -> Iterator[Row]:
        yield from self.table.lookup(self.column, self.value)

    def _describe(self) -> str:
        return (
            f"IndexLookup({self.table.schema.name} AS {self.binding}, "
            f"{self.column} = {self.value!r})"
        )


class Filter(PlanNode):
    def __init__(
        self, child: PlanNode, predicate: Evaluator, label: str = ""
    ) -> None:
        self.child = child
        self.predicate = predicate
        self.label = label
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.execute():
            if is_true(predicate(row)):
                yield row

    def _describe(self) -> str:
        return f"Filter({self.label})" if self.label else "Filter"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Project(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        evaluators: list[Evaluator],
        layout: RowLayout,
    ) -> None:
        self.child = child
        self.evaluators = evaluators
        self.layout = layout

    def execute(self) -> Iterator[Row]:
        evaluators = self.evaluators
        for row in self.child.execute():
            yield tuple(evaluate(row) for evaluate in evaluators)

    def _describe(self) -> str:
        return f"Project({', '.join(self.layout.names)})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class UDFExecContext:
    """Shared execution context for the batched UDF operators.

    Carries the :class:`~repro.db.Database`'s cross-statement memo
    cache plus optional mirrors: a :class:`~repro.lm.usage.Usage`
    (its ``udf_cache_hits``/``udf_cache_misses`` fields) and a metrics
    registry (duck-typed ``counter(name).inc(n)``).  Each operator owns
    an ``exec_stats`` dict surfaced by EXPLAIN ANALYZE; :meth:`tally`
    is the single meter — every increment lands in the operator's
    stats and is mirrored to the bound sinks, so the three surfaces can
    never disagree.
    """

    #: Metric name per exec-stats key (only cache traffic and cascade
    #: routing are exported; LM calls/batches are already metered by
    #: the model's own Usage).
    _METRIC_NAMES = {
        "udf_cache_hits": "repro_udf_cache_hits_total",
        "udf_cache_misses": "repro_udf_cache_misses_total",
        "cascade_cheap_hits": "repro_cascade_cheap_hits_total",
        "cascade_escalations": "repro_cascade_escalations_total",
    }
    _USAGE_FIELDS = (
        "udf_cache_hits",
        "udf_cache_misses",
        "cascade_cheap_hits",
        "cascade_escalations",
    )

    def __init__(
        self,
        cache: UDFMemoCache | None = None,
        usage: object | None = None,
        metrics: object | None = None,
    ) -> None:
        self.cache = cache
        self.usage = usage
        self.metrics = metrics

    def tally(self, stats: dict[str, int], key: str, amount: int) -> None:
        if amount == 0:
            return
        stats[key] = stats.get(key, 0) + amount
        if self.usage is not None and key in self._USAGE_FIELDS:
            setattr(self.usage, key, getattr(self.usage, key) + amount)
        if self.metrics is not None:
            metric = self._METRIC_NAMES.get(key)
            if metric is not None:
                self.metrics.counter(metric).inc(amount)


def _fresh_exec_stats(
    sites: list[UDFCallSite] | None = None,
) -> dict[str, int]:
    """Pre-seeded so EXPLAIN ANALYZE renders a fixed, complete key order.

    Cascade keys appear only when a site actually carries a cheap tier,
    so non-cascade plans render exactly as before.
    """
    stats = {
        "lm_calls": 0,
        "lm_batches": 0,
        "udf_cache_hits": 0,
        "udf_cache_misses": 0,
    }
    if sites is not None and any(
        site.cheap_function is not None for site in sites
    ):
        stats["cascade_cheap_hits"] = 0
        stats["cascade_escalations"] = 0
    return stats


def _cheap_tier_answers(
    site: UDFCallSite, pending: list[MemoKey]
) -> list[object]:
    """Run the cascade's cheap tier over ``pending`` argument tuples.

    Returns one answer per tuple; ``None`` means "escalate to the
    expensive tier".  Any cheap-tier failure — a batch dispatch error,
    a wrong-length batch result, or a per-tuple exception — degrades to
    escalation, so an unsound-by-crashing cheap tier costs money, not
    correctness.
    """
    tuples = [key[1] for key in pending]
    if site.cheap_batch is not None:
        try:
            answers = list(site.cheap_batch(tuples))
        except Exception:
            answers = None
        if answers is not None and len(answers) == len(tuples):
            return answers
    answers = []
    for args in tuples:
        try:
            answers.append(site.cheap_function(*args))
        except Exception:
            answers.append(None)
    return answers


def _resolve_morsel(
    sites: list[UDFCallSite],
    rows: list[Row],
    context: UDFExecContext,
    stats: dict[str, int],
) -> None:
    """Resolve every strict UDF call for a morsel of rows, in waves.

    Sites arrive inner-before-outer, so by the time an outer site's
    argument evaluators run, any nested call they read is already
    memoized.  Per site: evaluate each row's argument tuple (rows whose
    arguments error are skipped — the residual phase re-raises the same
    error at the same row), serve duplicates and cache hits for free,
    then dispatch the remaining distinct tuples as one batch call (or
    per-tuple scalar calls when no batch form is registered or the
    batch dispatch fails).

    Counter contract: ``udf_cache_hits`` counts row-occurrences served
    without a new invocation (statement memo, cross-statement LRU, or
    intra-morsel dedup); ``udf_cache_misses`` and ``lm_calls`` count
    dispatched invocations; ``lm_batches`` counts batch dispatches.
    """
    for site in sites:
        pending: list[MemoKey] = []
        pending_keys: set[MemoKey] = set()
        hits = 0
        for row in rows:
            try:
                key = site.key(row)
            except Exception:
                continue  # argument error; re-raised per row later
            if key in site.memo or key in pending_keys:
                hits += 1
                continue
            if context.cache is not None:
                found, value = context.cache.lookup(key)
                if found:
                    site.memo[key] = value
                    hits += 1
                    continue
            pending_keys.add(key)
            pending.append(key)
        context.tally(stats, "udf_cache_hits", hits)
        if pending and site.cheap_function is not None:
            # Cascade route: the cheap classifier tier answers what it
            # can; only declined tuples reach the expensive dispatch.
            # Cheap answers are real results (contract: the cheap tier
            # agrees with the expensive form), so they are memoized and
            # cached exactly like expensive ones.
            answers = _cheap_tier_answers(site, pending)
            escalated: list[MemoKey] = []
            cheap_hits = 0
            for key, answer in zip(pending, answers):
                if answer is None:
                    escalated.append(key)
                    continue
                site.memo[key] = answer
                if context.cache is not None:
                    context.cache.put(key, answer)
                cheap_hits += 1
            context.tally(stats, "cascade_cheap_hits", cheap_hits)
            context.tally(stats, "cascade_escalations", len(escalated))
            pending = escalated
        if not pending:
            continue
        context.tally(stats, "udf_cache_misses", len(pending))
        context.tally(stats, "lm_calls", len(pending))
        resolved: list[SQLValue] | None = None
        if site.batch_function is not None:
            context.tally(stats, "lm_batches", 1)
            try:
                resolved = list(
                    site.batch_function([key[1] for key in pending])
                )
            except Exception:
                # Fall back to per-tuple scalar calls so each failing
                # tuple is attributed (and wrapped) exactly as the
                # per-row oracle path would attribute it.
                resolved = None
            else:
                if len(resolved) != len(pending):
                    raise ExecutionError(
                        f"batch form of {site.name} returned "
                        f"{len(resolved)} results for {len(pending)} "
                        "argument tuples"
                    )
        if resolved is not None:
            for key, value in zip(pending, resolved):
                site.memo[key] = value
                if context.cache is not None:
                    context.cache.put(key, value)
        else:
            for key in pending:
                value = site.call_scalar(key[1])
                site.memo[key] = value
                if context.cache is not None and not isinstance(
                    value, UDFCallError
                ):
                    context.cache.put(key, value)


class BatchedFilter(PlanNode):
    """Filter with vectorized expensive-UDF resolution.

    Pulls morsels of ``batch_size`` rows, resolves every strict
    expensive call through :func:`_resolve_morsel`, then applies the
    residual predicate per row — identical rows, order, and error
    behaviour to :class:`Filter` over the same predicate.
    """

    def __init__(
        self,
        child: PlanNode,
        predicate: Evaluator,
        sites: list[UDFCallSite],
        context: UDFExecContext,
        batch_size: int,
        label: str = "",
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {batch_size}"
            )
        self.child = child
        self.predicate = predicate
        self.sites = sites
        self.context = context
        self.batch_size = batch_size
        self.label = label
        self.layout = child.layout
        self.exec_stats = _fresh_exec_stats(sites)

    def execute(self) -> Iterator[Row]:
        predicate = self.predicate
        source = self.child.execute()
        while True:
            morsel = list(islice(source, self.batch_size))
            if not morsel:
                return
            _resolve_morsel(
                self.sites, morsel, self.context, self.exec_stats
            )
            for row in morsel:
                if is_true(predicate(row)):
                    yield row

    def _describe(self) -> str:
        label = f"{self.label}, " if self.label else ""
        return (
            f"BatchedFilter({label}batch={self.batch_size}, "
            f"sites={len(self.sites)})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class BatchedProject(PlanNode):
    """Project with vectorized expensive-UDF resolution (see
    :class:`BatchedFilter`)."""

    def __init__(
        self,
        child: PlanNode,
        evaluators: list[Evaluator],
        layout: RowLayout,
        sites: list[UDFCallSite],
        context: UDFExecContext,
        batch_size: int,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {batch_size}"
            )
        self.child = child
        self.evaluators = evaluators
        self.layout = layout
        self.sites = sites
        self.context = context
        self.batch_size = batch_size
        self.exec_stats = _fresh_exec_stats(sites)

    def execute(self) -> Iterator[Row]:
        evaluators = self.evaluators
        source = self.child.execute()
        while True:
            morsel = list(islice(source, self.batch_size))
            if not morsel:
                return
            _resolve_morsel(
                self.sites, morsel, self.context, self.exec_stats
            )
            for row in morsel:
                yield tuple(evaluate(row) for evaluate in evaluators)

    def _describe(self) -> str:
        return (
            f"BatchedProject({', '.join(self.layout.names)}, "
            f"batch={self.batch_size}, sites={len(self.sites)})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Slice(PlanNode):
    """Keeps a subset of positions from the child row (column pruning)."""

    def __init__(self, child: PlanNode, positions: list[int]) -> None:
        self.child = child
        self.positions = positions
        self.layout = RowLayout(
            [child.layout.entries[position] for position in positions]
        )

    def execute(self) -> Iterator[Row]:
        positions = self.positions
        for row in self.child.execute():
            yield tuple(row[position] for position in positions)

    def _describe(self) -> str:
        return f"Slice({self.positions})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class NestedLoopJoin(PlanNode):
    """General join; materialises the right side once."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Evaluator | None,
        kind: str,
    ) -> None:
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.layout = RowLayout.concat(left.layout, right.layout)

    def execute(self) -> Iterator[Row]:
        right_rows = list(self.right.execute())
        null_right = (None,) * len(self.right.layout)
        condition = self.condition
        for left_row in self.left.execute():
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if condition is None or is_true(condition(combined)):
                    matched = True
                    yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + null_right

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


class HashJoin(PlanNode):
    """Equi-join: builds a hash table on the right side.

    ``residual`` (if any) is evaluated over the combined row for extra
    non-equi conjuncts of the ON clause.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[Evaluator],
        right_keys: list[Evaluator],
        kind: str,
        residual: Evaluator | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.kind = kind
        self.residual = residual
        self.layout = RowLayout.concat(left.layout, right.layout)

    def execute(self) -> Iterator[Row]:
        buckets: dict[tuple[SQLValue, ...], list[Row]] = defaultdict(list)
        for right_row in self.right.execute():
            key = tuple(evaluate(right_row) for evaluate in self.right_keys)
            if any(part is None for part in key):
                continue  # NULL keys never match in an equi-join
            buckets[key].append(right_row)
        null_right = (None,) * len(self.right.layout)
        residual = self.residual
        for left_row in self.left.execute():
            key = tuple(evaluate(left_row) for evaluate in self.left_keys)
            matched = False
            if not any(part is None for part in key):
                for right_row in buckets.get(key, ()):
                    combined = left_row + right_row
                    if residual is None or is_true(residual(combined)):
                        matched = True
                        yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + null_right

    def _describe(self) -> str:
        return f"HashJoin({self.kind}, {len(self.left_keys)} key(s))"

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


class AggregateCall:
    """One compiled aggregate invocation within an Aggregate node."""

    def __init__(
        self,
        spec: AggregateSpec,
        argument: Evaluator | None,  # None means COUNT(*)
        distinct: bool,
        name: str,
    ) -> None:
        self.spec = spec
        self.argument = argument
        self.distinct = distinct
        self.name = name


class Aggregate(PlanNode):
    """Hash aggregation over optional group keys.

    Output layout: one column per group key (named by the planner)
    followed by one column per aggregate call.  With no group keys the
    node always emits exactly one row, even over empty input (SQL
    semantics: ``SELECT COUNT(*) FROM empty`` is 0).
    """

    def __init__(
        self,
        child: PlanNode,
        group_evaluators: list[Evaluator],
        calls: list[AggregateCall],
        layout: RowLayout,
    ) -> None:
        self.child = child
        self.group_evaluators = group_evaluators
        self.calls = calls
        self.layout = layout

    def execute(self) -> Iterator[Row]:
        groups: dict[tuple[SQLValue, ...], list] = {}
        distinct_seen: dict[tuple[SQLValue, ...], list[set]] = {}
        order: list[tuple[SQLValue, ...]] = []
        for row in self.child.execute():
            key = tuple(
                evaluate(row) for evaluate in self.group_evaluators
            )
            if key not in groups:
                groups[key] = [call.spec.make_state() for call in self.calls]
                distinct_seen[key] = [set() for _ in self.calls]
                order.append(key)
            states = groups[key]
            seen_sets = distinct_seen[key]
            for position, call in enumerate(self.calls):
                if call.argument is None:
                    value: SQLValue = 1  # COUNT(*) counts every row
                else:
                    value = call.argument(row)
                if call.distinct:
                    if value is None or value in seen_sets[position]:
                        continue
                    seen_sets[position].add(value)
                states[position] = call.spec.step(states[position], value)
        if not self.group_evaluators and not order:
            key = ()
            groups[key] = [call.spec.make_state() for call in self.calls]
            order.append(key)
        for key in order:
            states = groups[key]
            finals = tuple(
                call.spec.finish(state)
                for call, state in zip(self.calls, states)
            )
            yield key + finals

    def _describe(self) -> str:
        names = ", ".join(call.name for call in self.calls)
        return (
            f"Aggregate(groups={len(self.group_evaluators)}, "
            f"calls=[{names}])"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class _Descending:
    """Inverts the ordering of one :func:`sort_key` part (DESC keys)."""

    __slots__ = ("part",)

    def __init__(self, part: tuple) -> None:
        self.part = part

    def __lt__(self, other: "_Descending") -> bool:
        return other.part < self.part

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Descending) and self.part == other.part
        )


class Sort(PlanNode):
    """ORDER BY as an explicit *total* order.

    The composite key is ``(key parts..., input position)``: every key
    part goes through :func:`~repro.db.types.sort_key` (NULLs rank
    lowest, so they sort first under ASC and last under DESC), DESC
    parts are wrapped in a comparison-inverting shim rather than
    handled by a separate reversed pass, and the original input
    position breaks all remaining ties.  No two rows ever compare
    equal, so the output order — and anything built on it, notably
    ``LIMIT`` under duplicate key values — is reproducible by
    construction rather than by accident of sort stability.

    Equivalent to the previous stable right-to-left multi-pass sort
    (stability there *was* the input-position tie-break, implicitly),
    but the contract is now explicit and single-pass.
    """

    def __init__(
        self,
        child: PlanNode,
        keys: list[Evaluator],
        ascending: list[bool],
    ) -> None:
        self.child = child
        self.keys = keys
        self.ascending = ascending
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        directed = list(zip(self.keys, self.ascending))
        decorated = []
        for position, row in enumerate(self.child.execute()):
            parts: list[object] = []
            for evaluate, ascending in directed:
                part = sort_key(evaluate(row))
                parts.append(part if ascending else _Descending(part))
            parts.append(position)
            decorated.append((tuple(parts), row))
        decorated.sort(key=lambda pair: pair[0])
        for _, row in decorated:
            yield row

    def _describe(self) -> str:
        return f"Sort({len(self.keys)} key(s))"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Limit(PlanNode):
    def __init__(
        self, child: PlanNode, limit: int | None, offset: int
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        produced = 0
        skipped = 0
        for row in self.child.execute():
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row

    def _describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Distinct(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in self.child.execute():
            if row not in seen:
                seen.add(row)
                yield row

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Values(PlanNode):
    """Constant rows (used for FROM-less SELECT)."""

    def __init__(self, rows: list[Row], layout: RowLayout) -> None:
        self.rows = rows
        self.layout = layout

    def execute(self) -> Iterator[Row]:
        yield from self.rows

    def _describe(self) -> str:
        return f"Values({len(self.rows)} row(s))"
