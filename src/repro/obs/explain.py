"""Per-operator execution statistics: the engine behind EXPLAIN ANALYZE.

Wraps a physical plan (:mod:`repro.db.plan`) in counting proxies so a
single execution yields, for every operator, the rows that flowed in
and out and a *virtual* execution time from a deterministic
:class:`OperatorCostModel` — never wall-clock, so analyzed output is
byte-identical across machines and runs, like everything else measured
in this repro.

Counting is honest about laziness: operators are Volcano-style
iterators, so a ``Limit`` that stops pulling early is reflected in its
children's ``rows_out`` (what actually flowed, not table cardinality).
``rows_in`` of a node is defined as the sum of its children's
``rows_out``; leaves (scans, constant rows) have ``rows_in == 0``.

This module touches plans only through duck typing (``execute``,
``layout``, ``describe``, and the ``child``/``left``/``right``
attributes), so it imports nothing from the database layer and the
database layer can lazy-import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import trace

#: Attribute names under which plan nodes hold their inputs.
_CHILD_ATTRS = ("child", "left", "right")


@dataclass(frozen=True)
class OperatorCostModel:
    """Virtual seconds an operator costs, as a pure function of rows.

    The constants model a fast in-memory engine: a fixed per-operator
    startup plus linear per-row costs.  Absolute calibration matters
    less than determinism — the point is *attribution* (where rows and
    time go), on a scale that composes with the simulated LM's seconds.
    """

    startup_s: float = 0.0001
    per_row_in_s: float = 0.000001
    per_row_out_s: float = 0.000001

    def seconds(self, stats: "OperatorStats") -> float:
        """This node's own (exclusive) virtual execution time."""
        return (
            self.startup_s
            + stats.rows_in * self.per_row_in_s
            + stats.rows_out * self.per_row_out_s
        )


DEFAULT_COST = OperatorCostModel()


@dataclass
class OperatorStats:
    """Observed flow through one plan operator.

    ``extra`` holds operator-specific counters: at instrumentation
    time it is bound to the *same dict object* as the plan node's
    ``exec_stats`` attribute (batched UDF operators expose LM call,
    batch, and cache counters there), so the values are live after
    execution without relying on generator finalization order.  Nodes
    without ``exec_stats`` get an empty dict and render exactly as
    before.
    """

    describe: str
    rows_out: int = 0
    children: list["OperatorStats"] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def rows_in(self) -> int:
        return sum(child.rows_out for child in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class _CountingNode:
    """Proxy that counts rows yielded by the wrapped operator."""

    __slots__ = ("_inner", "_stats")

    def __init__(self, inner: object, stats: OperatorStats) -> None:
        self._inner = inner
        self._stats = stats

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def execute(self):
        stats = self._stats
        for row in self._inner.execute():
            stats.rows_out += 1
            yield row


def _is_plan_node(value: object) -> bool:
    return hasattr(value, "execute") and hasattr(value, "layout")


def instrument_plan(node) -> tuple[object, OperatorStats]:
    """Wrap ``node`` (recursively) in counting proxies.

    Child attributes of the original nodes are replaced in place with
    proxies — plans are built fresh per execution, so nothing outlives
    the call.  Returns ``(proxy_root, stats_root)``; execute the proxy,
    then read the stats.
    """
    child_stats: list[OperatorStats] = []
    for attr in _CHILD_ATTRS:
        child = getattr(node, attr, None)
        if child is not None and _is_plan_node(child):
            proxy, stats = instrument_plan(child)
            setattr(node, attr, proxy)
            child_stats.append(stats)
    stats = OperatorStats(
        describe=node.describe(),
        children=child_stats,
        extra=getattr(node, "exec_stats", None) or {},
    )
    return _CountingNode(node, stats), stats


def render_stats(
    stats: OperatorStats,
    cost: OperatorCostModel = DEFAULT_COST,
    depth: int = 0,
) -> str:
    """The ``explain()`` tree, annotated with per-operator statistics."""
    extra = "".join(
        f" {key}={value}" for key, value in stats.extra.items()
    )
    line = (
        "  " * depth
        + f"{stats.describe} [rows_in={stats.rows_in} "
        + f"rows_out={stats.rows_out} vtime={cost.seconds(stats):.6f}s"
        + f"{extra}]"
    )
    lines = [line]
    for child in stats.children:
        lines.append(render_stats(child, cost, depth + 1))
    return "\n".join(lines)


def emit_operator_spans(
    stats: OperatorStats, cost: OperatorCostModel = DEFAULT_COST
) -> None:
    """Mirror the stats tree as nested ``op:`` spans on the active trace.

    Each operator's span covers its children plus its own exclusive
    cost, laying the plan out as a properly nested flame graph on the
    request's virtual timeline.  No-op when tracing is inactive.
    """
    if not trace.active():
        return
    with trace.span(
        "op:" + stats.describe,
        rows_in=stats.rows_in,
        rows_out=stats.rows_out,
    ):
        for child in stats.children:
            emit_operator_spans(child, cost)
        trace.advance(cost.seconds(stats))


@dataclass
class AnalyzedQuery:
    """EXPLAIN ANALYZE output: the result set plus the annotated plan.

    ``optimizer`` carries the query optimizer's decision report
    (duck-typed: anything with ``decisions`` and ``render()``) when the
    statement involved expensive UDFs; plans without LM work render
    exactly as before.  ``truncated`` is ``(kept, total)`` when a
    ``max_rows`` cap dropped result rows — truncation is metered at
    the engine and noted in the render, never silent.
    """

    stats: OperatorStats
    result: object  # a repro.db ResultSet (duck-typed, see module doc)
    cost: OperatorCostModel = DEFAULT_COST
    optimizer: object | None = None
    truncated: "tuple[int, int] | None" = None

    @property
    def total_seconds(self) -> float:
        return sum(self.cost.seconds(node) for node in self.stats.walk())

    def render(self) -> str:
        rendered = render_stats(self.stats, self.cost)
        if self.optimizer is not None and getattr(
            self.optimizer, "decisions", None
        ):
            rendered += "\n" + self.optimizer.render()
        if self.truncated is not None:
            kept, total = self.truncated
            rendered += (
                f"\nResult truncated: kept {kept} of {total} rows "
                f"(max_rows={kept})"
            )
        return rendered
