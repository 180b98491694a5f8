"""Cost-based LM-aware query optimizer.

TAG queries put LM calls on the hot path, so plan choice — not scan
speed — dominates latency and cost.  This pass sits between planning
and execution and makes four kinds of decisions, each priced by the
static cost model (:mod:`repro.analysis.cost`) and recorded with the
numbers that justified it:

``route``
    How expensive (LM) UDFs execute: ``per-row`` (the oracle path),
    ``batched`` (morsel-driven, deduplicated, memoized), or ``cascade``
    (a cheap classifier tier pre-filters distinct tuples before the
    expensive form runs).  The chosen route is the cheapest by
    estimated LM tokens; ties prefer the more batched route, so the
    choice is never priced above per-row execution (monotonicity,
    property-tested).

``auto-batch-size``
    ``udf_batch_size`` is derived from the analyzer's distinct-value
    bound instead of being caller-supplied: dedup means a morsel larger
    than the distinct argument space buys nothing, and a constant
    un-ordered LIMIT caps how many rows can ever reach the UDF.

``predicate-reorder``
    Cheap deterministic conjuncts run before expensive LM conjuncts,
    priced by catalog selectivities.  Expensive conjuncts keep their
    written order relative to *each other*: reordering two expensive
    conjuncts could surface an error the written order never reaches,
    while hoisting cheap conjuncts can only skip (never introduce) LM
    errors — the asymmetry the equivalence harness pins.

``selection-pushdown``
    Cheap conjuncts are pushed below joins as before; an *expensive*
    conjunct is pushed below a join only when the join's estimated
    output is larger than the below-join input — a selective join
    means fewer LM calls above it.

The report renders as an ``Optimizer:`` footer on EXPLAIN / EXPLAIN
ANALYZE (only for statements that involve expensive UDFs, so plans for
purely relational queries are byte-identical with the optimizer on or
off), and every decision is metered through the one-meter pipeline
(``Usage.optimizer_decisions`` plus per-rule metrics counters).

Imports from :mod:`repro.analysis` stay lazy (function-level): the
analysis package imports ``repro.db`` at module level, and this module
loads as part of ``repro.db``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db import plan as physical
from repro.db.sql import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.catalog import Database

#: Largest morsel the auto route will pick; beyond this, batching gains
#: nothing while error attribution latency grows.
MAX_AUTO_BATCH = 256

#: Fallback batch size when the static analyzer cannot price the
#: statement (it analyzes a stricter SQL subset than the engine runs).
FALLBACK_BATCH = 16


@dataclass(frozen=True)
class Decision:
    """One optimizer decision, with the numbers that justified it."""

    rule: str
    detail: str

    def render(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass
class OptimizerReport:
    """What the optimizer chose for one statement, and why.

    ``est_per_row_tokens`` / ``est_chosen_tokens`` carry the cost
    model's pricing of the unoptimized per-row route and the chosen
    route; the monotonicity property ``chosen <= per_row`` holds by
    construction (the route picker takes a minimum that always includes
    per-row).
    """

    route: str = "per-row"
    udf_batch_size: int | None = None
    est_per_row_calls: int = 0
    est_per_row_tokens: int = 0
    est_chosen_calls: int = 0
    est_chosen_tokens: int = 0
    decisions: list[Decision] = field(default_factory=list)

    def add(self, rule: str, detail: str) -> None:
        self.decisions.append(Decision(rule, detail))

    def render(self) -> str:
        """The EXPLAIN footer: one line per decision."""
        lines = ["Optimizer:"]
        for decision in self.decisions:
            lines.append("  " + decision.render())
        return "\n".join(lines)

    def meter(self, usage: object | None, metrics: object | None) -> None:
        """Mirror decision counts into Usage and the metrics registry.

        Decisions are plan-time events: every planned statement
        (execute, EXPLAIN, EXPLAIN ANALYZE) meters once, deterministic
        for a fixed query and catalog.
        """
        if not self.decisions:
            return
        if usage is not None and hasattr(usage, "optimizer_decisions"):
            usage.optimizer_decisions += len(self.decisions)
        if metrics is not None:
            metrics.counter("repro_optimizer_decisions_total").inc(
                len(self.decisions)
            )
            for decision in self.decisions:
                slug = decision.rule.replace("-", "_")
                metrics.counter(f"repro_optimizer_{slug}_total").inc(1)


class QueryOptimizer:
    """Per-statement optimizer: chooses the route, prices the plan, and
    records the planner's LM-relevant rewrites.

    One instance serves one statement (planning is single-shot); the
    :class:`~repro.db.planner.Planner` calls back into
    :meth:`note_reorder` / :meth:`hold_above_join` while building the
    plan, and the finished :class:`OptimizerReport` is attached to the
    EXPLAIN surfaces.
    """

    def __init__(self, db: "Database", cost_model=None) -> None:
        self._db = db
        if cost_model is None:
            from repro.analysis.cost import CostModel

            cost_model = CostModel()
        self._model = cost_model
        self.report = OptimizerReport()
        self.cascade = False
        #: Only statements touching expensive UDFs get decisions; plans
        #: for purely relational queries must stay byte-identical.
        self._lm_relevant = False
        self._bindings: dict[str, object] = {}

    # ------------------------------------------------------------------
    # route choice (pre-planning)
    # ------------------------------------------------------------------

    def choose_route(
        self, select: ast.Select, requested: object
    ) -> int | None:
        """Resolve ``udf_batch_size`` and pick the execution route.

        ``requested`` is the caller's ``udf_batch_size``: the string
        ``"auto"`` delegates the choice here, ``None`` pins the per-row
        oracle path, an int pins that morsel size.  Returns the batch
        size the planner should use.
        """
        names = self._expensive_names(select)
        self._lm_relevant = bool(names)
        self._collect_bindings(select.source)
        if not names:
            return None if requested == "auto" else requested  # type: ignore[return-value]
        cheap_tiered = sorted(
            name
            for name in names
            if self._db.functions.has_cheap(name)
        )
        estimate = self._estimate(select)
        per_row_calls, batched_calls, rows_scanned = estimate
        model = self._model
        self.report.est_per_row_calls = per_row_calls
        self.report.est_per_row_tokens = (
            per_row_calls * model.tokens_per_call
        )
        escalated = math.ceil(
            batched_calls * model.cascade_escalation_rate
        )
        candidates = [
            (
                "per-row",
                per_row_calls,
                per_row_calls * model.tokens_per_call,
            ),
            (
                "batched",
                batched_calls,
                batched_calls * model.tokens_per_call,
            ),
        ]
        if cheap_tiered:
            candidates.append(
                (
                    "cascade",
                    escalated,
                    batched_calls * model.cheap_tokens_per_call
                    + escalated * model.tokens_per_call,
                )
            )
        route, calls, tokens = candidates[0]
        for candidate in candidates[1:]:
            if candidate[2] <= tokens:
                route, calls, tokens = candidate
        batch: int | None
        if requested is None:
            route, calls, tokens = candidates[0]
            batch = None
            self.report.add(
                "route",
                "per-row (caller-pinned udf_batch_size=None): "
                f"est {calls} LM calls / {tokens} tokens",
            )
        elif isinstance(requested, int):
            if route == "per-row":
                route = "batched"
                calls, tokens = candidates[1][1], candidates[1][2]
            batch = requested
            self.report.add(
                "route",
                f"{route} (caller-pinned udf_batch_size={requested}): "
                f"est {calls} LM calls / {tokens} tokens "
                f"(per-row {self.report.est_per_row_calls} calls / "
                f"{self.report.est_per_row_tokens} tokens)",
            )
        elif route == "per-row":
            batch = None
            self.report.add(
                "route",
                f"per-row: est {calls} LM calls / {tokens} tokens",
            )
        else:
            self.report.add(
                "route",
                f"{route}: est {calls} LM calls / {tokens} tokens "
                f"(per-row {self.report.est_per_row_calls} calls / "
                f"{self.report.est_per_row_tokens} tokens)",
            )
            batch = self._auto_batch_size(
                select, batched_calls, rows_scanned
            )
        if route == "cascade":
            self.report.add(
                "cascade",
                f"cheap tier for {', '.join(cheap_tiered)}: "
                f"est escalation rate "
                f"{model.cascade_escalation_rate:.2f}, "
                f"{model.cheap_tokens_per_call} tok/cheap call vs "
                f"{model.tokens_per_call} tok/call",
            )
        self.cascade = route == "cascade" and batch is not None
        self.report.route = route
        self.report.udf_batch_size = batch
        self.report.est_chosen_calls = calls
        self.report.est_chosen_tokens = tokens
        return batch

    def _auto_batch_size(
        self, select: ast.Select, bound: int, rows_scanned: int
    ) -> int:
        batch = max(1, min(bound, MAX_AUTO_BATCH))
        detail = (
            f"udf_batch_size={batch} from distinct-value bound {bound} "
            f"(rows_scanned={rows_scanned})"
        )
        limit = _constant_limit(select)
        if limit is not None and not select.order_by and limit < batch:
            # Without ORDER BY the plan is a streaming prefix: at most
            # LIMIT rows are ever pulled through the UDF, so a larger
            # morsel would prefetch LM calls the query then discards.
            batch = max(1, limit)
            detail = (
                f"udf_batch_size={batch} clamped to LIMIT {limit} "
                f"(streaming prefix; distinct-value bound {bound})"
            )
        self.report.add("auto-batch-size", detail)
        return batch

    def _estimate(self, select: ast.Select) -> tuple[int, int, int]:
        """(per_row_calls, batched_calls, rows_scanned) upper bounds.

        Priced by the static analyzer; when the statement is outside
        the analyzer's subset, falls back to a neutral bound that still
        prefers batching.
        """
        try:
            from repro.analysis import SQLAnalyzer

            report = SQLAnalyzer(
                self._db, cost_model=self._model
            ).analyze(select)
            cost = report.cost
            if cost is not None and cost.lm_calls > 0:
                return (
                    cost.lm_calls,
                    cost.lm_calls_batched,
                    cost.rows_scanned,
                )
            if cost is not None:
                return (0, 0, cost.rows_scanned)
        except Exception:
            pass
        return (FALLBACK_BATCH, FALLBACK_BATCH, FALLBACK_BATCH)

    def _expensive_names(self, select: ast.Select) -> set[str]:
        names: set[str] = set()
        for expression in _statement_expressions(select):
            for node in ast.walk(expression, into_subqueries=True):
                if isinstance(
                    node, ast.FunctionCall
                ) and self._db.functions.is_expensive(node.name):
                    names.add(node.name.upper())
        return names

    # ------------------------------------------------------------------
    # planner hooks
    # ------------------------------------------------------------------

    def note_reorder(
        self,
        cheap: list[ast.Expression],
        expensive: list[ast.Expression],
        node: physical.PlanNode,
    ) -> None:
        """Record a cheap-before-expensive conjunct reorder."""
        if not self._lm_relevant or not cheap or not expensive:
            return
        selectivity = 1.0
        for conjunct in cheap:
            selectivity *= self._selectivity(conjunct)
        rows = _estimate_rows(node)
        surviving = max(0, round(rows * selectivity))
        self.report.add(
            "predicate-reorder",
            f"{len(cheap)} cheap conjunct(s) (est sel "
            f"{selectivity:.3f}, rows {rows} -> {surviving}) before "
            f"{len(expensive)} expensive conjunct(s) @ "
            f"{self._model.tokens_per_call} tok/call; "
            "written order kept among expensive conjuncts",
        )

    def hold_above_join(
        self,
        conjunct: ast.Expression,
        join: physical.PlanNode,
        side: physical.PlanNode,
    ) -> bool:
        """Whether an expensive conjunct should stay above ``join``.

        Pushing below runs the LM over the side's rows; holding above
        runs it over the join's output.  Pick the smaller input.
        """
        if not self._lm_relevant:
            return False
        below = _estimate_rows(side)
        above = _estimate_rows(join)
        label = _conjunct_label(conjunct, self._db.functions)
        kind = getattr(join, "kind", "INNER")
        if above < below:
            self.report.add(
                "selection-pushdown",
                f"held {label} above {kind} join "
                f"(est rows {above} after join vs {below} below)",
            )
            return True
        self.report.add(
            "selection-pushdown",
            f"pushed {label} below {kind} join "
            f"(est rows {below} below vs {above} after join)",
        )
        return False

    def note_cheap_pushdown(
        self, count: int, join: physical.PlanNode
    ) -> None:
        """Record cheap conjuncts pushed into join inputs."""
        if not self._lm_relevant or count == 0:
            return
        kind = getattr(join, "kind", "INNER")
        self.report.add(
            "selection-pushdown",
            f"pushed {count} cheap conjunct(s) below {kind} join",
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _collect_bindings(self, source: ast.FromSource | None) -> None:
        if source is None:
            return
        if isinstance(source, ast.TableSource):
            if self._db.has_table(source.name):
                self._bindings[source.binding.lower()] = self._db.table(
                    source.name
                )
        elif isinstance(source, ast.Join):
            self._collect_bindings(source.left)
            self._collect_bindings(source.right)
        # Subquery sources: computed columns, no catalog stats.

    def _column_stats(self, name: str, table: str | None):
        from repro.analysis.cost import ColumnStats

        if table is not None:
            candidates = [self._bindings.get(table.lower())]
        else:
            candidates = [
                bound
                for bound in self._bindings.values()
                if name.lower()
                in (c.lower() for c in bound.schema.column_names)
            ]
            if len(candidates) != 1:
                return None
        bound = candidates[0]
        if bound is None:
            return None
        try:
            return ColumnStats(
                rows=len(bound),
                distinct=bound.distinct_count(name),
                nulls=bound.null_count(name),
            )
        except Exception:
            return None

    def _selectivity(self, conjunct: ast.Expression) -> float:
        from repro.analysis.cost import predicate_selectivity

        return predicate_selectivity(conjunct, self._column_stats)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _statement_expressions(select: ast.Select):
    for item in select.items:
        yield item.expression
    if select.where is not None:
        yield select.where
    for expression in select.group_by:
        yield expression
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expression
    source_stack = [select.source]
    while source_stack:
        source = source_stack.pop()
        if isinstance(source, ast.Join):
            if source.condition is not None:
                yield source.condition
            source_stack.append(source.left)
            source_stack.append(source.right)
        elif isinstance(source, ast.SubquerySource):
            yield from _statement_expressions(source.query)


def _constant_limit(select: ast.Select) -> int | None:
    node = select.limit
    if node is None:
        return None
    if isinstance(node, ast.Literal) and isinstance(
        node.value, int
    ) and not isinstance(node.value, bool):
        return node.value if node.value >= 0 else None
    return None


def _conjunct_label(
    conjunct: ast.Expression, functions
) -> str:
    names = []
    for node in ast.walk(conjunct):
        if isinstance(node, ast.FunctionCall) and functions.is_expensive(
            node.name
        ):
            upper = node.name.upper()
            if upper not in names:
                names.append(upper)
    if names:
        return " + ".join(f"{name}(…)" for name in names)
    return "predicate"


def _estimate_rows(node: physical.PlanNode) -> int:
    """Expected row count of a plan subtree, from catalog statistics.

    Deliberately rough: decisions need relative magnitudes, not truth.
    Filters are counted pass-through (a conservative upper estimate);
    equi-joins assume foreign-key shape (output ~ the larger input).
    """
    if isinstance(node, physical.Scan):
        return len(node.table)
    if isinstance(node, physical.IndexLookup):
        distinct = max(node.table.distinct_count(node.column), 1)
        return max(1, len(node.table) // distinct)
    if isinstance(node, physical.HashJoin):
        return max(
            _estimate_rows(node.left), _estimate_rows(node.right)
        )
    if isinstance(node, physical.NestedLoopJoin):
        product = _estimate_rows(node.left) * _estimate_rows(node.right)
        if node.condition is None:
            return product
        return max(1, product // 3)
    child = getattr(node, "child", None)
    if child is not None:
        return _estimate_rows(child)
    rows = getattr(node, "rows", None)
    if rows is not None:
        return len(rows)
    return 1
