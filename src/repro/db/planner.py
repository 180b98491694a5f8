"""Planner: binds a parsed SELECT to the catalog and builds a plan tree.

The planner performs, in order:

1. FROM-tree construction (scans, subquery sources, joins),
2. ``*`` expansion against the source layout,
3. WHERE decomposition into conjuncts with optional *predicate pushdown*
   (each conjunct is applied at the deepest subtree whose layout can
   resolve all of its columns; never pushed into the right side of a
   LEFT join, which would change semantics),
4. equi-join detection (ON conjuncts of the form ``l.x = r.y`` become
   hash-join keys; the rest stay as a residual predicate),
5. aggregation planning: aggregate calls anywhere in the SELECT items,
   HAVING, or ORDER BY are collected, deduplicated, and computed by one
   Aggregate node; bare column references in an aggregate query are
   rewritten to a hidden FIRST() aggregate (SQLite-style leniency, which
   LM-generated SQL relies on),
6. HAVING, extended projection (items + extra ORDER BY expressions),
   sort, slice back to the item columns, DISTINCT, LIMIT/OFFSET.

*Expensive-predicate deferral*: conjuncts calling a UDF registered as
expensive (LM UDFs) are always applied after cheap relational conjuncts
at the same plan level, so the LM sees as few rows as possible.

Set ``optimize=False`` to disable pushdown/hash joins/index lookups; the
ablation benchmark compares both modes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.db import plan as physical
from repro.db.expr import ExpressionCompiler, plan_batched_expressions
from repro.db.functions import AggregateSpec, FunctionRegistry
from repro.db.result import ResultSet, Row, RowLayout
from repro.db.sql import ast
from repro.errors import PlanningError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.catalog import Database
    from repro.db.optimizer import QueryOptimizer


def _first_spec() -> AggregateSpec:
    """Hidden aggregate capturing the first value seen in a group."""
    sentinel = object()

    def step(state: object, value: object) -> object:
        return value if state is sentinel else state

    def finish(state: object) -> object:
        return None if state is sentinel else state

    return AggregateSpec(lambda: sentinel, step, finish)


class Planner:
    def __init__(
        self,
        catalog: "Database",
        functions: FunctionRegistry,
        optimize: bool = True,
        udf_batch_size: int | None = None,
        udf_context: "physical.UDFExecContext | None" = None,
        optimizer: "QueryOptimizer | None" = None,
    ) -> None:
        self._catalog = catalog
        self._functions = functions
        self._optimize = optimize
        #: When set, expensive-UDF filters and projections become
        #: morsel-driven Batched* operators over morsels of this size.
        self._udf_batch_size = udf_batch_size
        self._udf_context = udf_context
        #: Cost-based optimizer for this statement: records decisions
        #: (reorder/pushdown rationale) and steers expensive-conjunct
        #: placement and the cascade route.  None under optimize=False.
        self._optimizer = optimizer

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_select(self, select: ast.Select) -> ResultSet:
        plan, names = self.plan_select(select)
        return ResultSet(names, list(plan.execute()))

    def plan_select(
        self, select: ast.Select
    ) -> tuple[physical.PlanNode, list[str]]:
        source = self._build_source(select.source)
        items = self._expand_stars(select.items, source.layout)
        conjuncts = _split_conjuncts(select.where)
        source = self._apply_where(source, conjuncts)

        group_by = list(select.group_by)
        has_aggregate = any(
            self._contains_aggregate(item.expression) for item in items
        )
        if select.having is not None:
            has_aggregate = has_aggregate or self._contains_aggregate(
                select.having
            )
        order_items = list(select.order_by)
        has_aggregate = has_aggregate or any(
            self._contains_aggregate(order.expression)
            for order in order_items
        )

        having = select.having
        if group_by or has_aggregate:
            source, items, having, order_items = self._plan_aggregation(
                source, items, group_by, having, order_items
            )
        elif having is not None:
            raise PlanningError("HAVING requires GROUP BY or aggregates")

        if having is not None:
            compiler = self._compiler(source.layout)
            source = physical.Filter(
                source, compiler.compile(having), label="having"
            )

        plan, names = self._plan_projection_and_order(
            source, items, order_items, select.distinct
        )
        plan = self._apply_limit(plan, select.limit, select.offset)
        return plan, names

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _build_source(
        self, source: ast.FromSource | None
    ) -> physical.PlanNode:
        if source is None:
            return physical.Values([()], RowLayout([]))
        if isinstance(source, ast.TableSource):
            table = self._catalog.table(source.name)
            return physical.Scan(table, source.binding)
        if isinstance(source, ast.SubquerySource):
            inner, names = self.plan_select(source.query)
            sliced = physical.Slice(inner, list(range(len(names))))
            sliced.layout = RowLayout(
                [(source.alias, name) for name in names]
            )
            return sliced
        if isinstance(source, ast.Join):
            return self._build_join(source)
        raise PlanningError(
            f"unsupported FROM source {type(source).__name__}"
        )

    def _build_join(self, join: ast.Join) -> physical.PlanNode:
        left = self._build_source(join.left)
        right = self._build_source(join.right)
        condition_conjuncts = _split_conjuncts(join.condition)
        if self._optimize and join.kind != "CROSS":
            return self._build_hash_or_loop_join(
                left, right, condition_conjuncts, join.kind
            )
        combined_layout = RowLayout.concat(left.layout, right.layout)
        compiler = self._compiler(combined_layout)
        condition = (
            compiler.compile(_and_all(condition_conjuncts))
            if condition_conjuncts
            else None
        )
        return physical.NestedLoopJoin(left, right, condition, join.kind)

    def _build_hash_or_loop_join(
        self,
        left: physical.PlanNode,
        right: physical.PlanNode,
        conjuncts: list[ast.Expression],
        kind: str,
    ) -> physical.PlanNode:
        left_keys: list[ast.Expression] = []
        right_keys: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for conjunct in conjuncts:
            pair = self._equi_key_pair(conjunct, left.layout, right.layout)
            if pair is None:
                residual.append(conjunct)
            else:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
        combined_layout = RowLayout.concat(left.layout, right.layout)
        combined_compiler = self._compiler(combined_layout)
        residual_evaluator = (
            combined_compiler.compile(_and_all(residual))
            if residual
            else None
        )
        if not left_keys:
            condition = (
                combined_compiler.compile(_and_all(conjuncts))
                if conjuncts
                else None
            )
            return physical.NestedLoopJoin(left, right, condition, kind)
        left_compiler = self._compiler(left.layout)
        right_compiler = self._compiler(right.layout)
        return physical.HashJoin(
            left,
            right,
            [left_compiler.compile(key) for key in left_keys],
            [right_compiler.compile(key) for key in right_keys],
            kind,
            residual_evaluator,
        )

    def _equi_key_pair(
        self,
        conjunct: ast.Expression,
        left_layout: RowLayout,
        right_layout: RowLayout,
    ) -> tuple[ast.Expression, ast.Expression] | None:
        """If ``conjunct`` is ``lhs = rhs`` splitting cleanly across the
        join inputs, return (left_key, right_key)."""
        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
        ):
            return None
        for first, second in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if self._resolvable(first, left_layout) and self._resolvable(
                second, right_layout
            ):
                return first, second
        return None

    # ------------------------------------------------------------------
    # WHERE / pushdown
    # ------------------------------------------------------------------

    def _apply_where(
        self, source: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> physical.PlanNode:
        if not conjuncts:
            return source
        if self._optimize:
            source, conjuncts = self._push_down(source, conjuncts)
        return self._attach_filters(source, conjuncts)

    def _push_down(
        self, node: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> tuple[physical.PlanNode, list[ast.Expression]]:
        """Push conjuncts into join inputs where their columns resolve."""
        if isinstance(node, (physical.HashJoin, physical.NestedLoopJoin)):
            remaining: list[ast.Expression] = []
            left_push: list[ast.Expression] = []
            right_push: list[ast.Expression] = []
            for conjunct in conjuncts:
                side: physical.PlanNode | None = None
                if self._resolvable(conjunct, node.left.layout):
                    side = node.left
                elif node.kind != "LEFT" and self._resolvable(
                    conjunct, node.right.layout
                ):
                    side = node.right
                if side is None:
                    remaining.append(conjunct)
                    continue
                # An expensive (LM) conjunct goes wherever fewer rows
                # flow: a selective join means evaluating it above the
                # join costs fewer LM calls than below.
                if (
                    self._optimizer is not None
                    and self._is_expensive(conjunct)
                    and self._optimizer.hold_above_join(
                        conjunct, node, side
                    )
                ):
                    remaining.append(conjunct)
                elif side is node.left:
                    left_push.append(conjunct)
                else:
                    right_push.append(conjunct)
            if self._optimizer is not None:
                self._optimizer.note_cheap_pushdown(
                    sum(
                        1
                        for conjunct in left_push + right_push
                        if not self._is_expensive(conjunct)
                    ),
                    node,
                )
            if left_push:
                new_left, leftover = self._push_down(node.left, left_push)
                node.left = self._attach_filters(new_left, leftover)
            if right_push:
                new_right, leftover = self._push_down(
                    node.right, right_push
                )
                node.right = self._attach_filters(new_right, leftover)
            return node, remaining
        if isinstance(node, physical.Scan):
            return self._maybe_index_lookup(node, conjuncts)
        return node, conjuncts

    def _maybe_index_lookup(
        self, scan: physical.Scan, conjuncts: list[ast.Expression]
    ) -> tuple[physical.PlanNode, list[ast.Expression]]:
        """Turn one ``col = literal`` conjunct into an index lookup."""
        for position, conjunct in enumerate(conjuncts):
            point = self._point_predicate(conjunct, scan)
            if point is None:
                continue
            column, value = point
            if not scan.table.has_index(column):
                continue
            lookup = physical.IndexLookup(
                scan.table, scan.binding, column, value
            )
            rest = conjuncts[:position] + conjuncts[position + 1 :]
            return lookup, rest
        return scan, conjuncts

    def _point_predicate(
        self, conjunct: ast.Expression, scan: physical.Scan
    ) -> tuple[str, object] | None:
        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
        ):
            return None
        for ref, literal in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(ref, ast.ColumnRef)
                and isinstance(literal, ast.Literal)
                and literal.value is not None
                and scan.layout.can_resolve(ref.name, ref.table)
            ):
                return ref.name, literal.value
        return None

    def _attach_filters(
        self, node: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> physical.PlanNode:
        """Apply conjuncts as filters: cheap first, expensive (LM) last.

        With the optimizer disabled, conjuncts run in the order the
        query wrote them (one combined predicate), so a leading LM UDF
        really is evaluated on every row — the behaviour the UDF
        pushdown ablation measures.
        """
        if not conjuncts:
            return node
        if not self._optimize:
            compiler = self._compiler(node.layout)
            return physical.Filter(
                node, compiler.compile(_and_all(conjuncts)), label="where"
            )
        cheap = [c for c in conjuncts if not self._is_expensive(c)]
        expensive = [c for c in conjuncts if self._is_expensive(c)]
        if self._optimizer is not None:
            self._optimizer.note_reorder(cheap, expensive, node)
        compiler = self._compiler(node.layout)
        if cheap:
            node = physical.Filter(
                node, compiler.compile(_and_all(cheap)), label="where"
            )
        for conjunct in expensive:
            node = self._expensive_filter(node, conjunct)
        return node

    def _expensive_filter(
        self, node: physical.PlanNode, conjunct: ast.Expression
    ) -> physical.PlanNode:
        """One expensive conjunct: batched when enabled, per-row else.

        A conjunct whose expensive calls sit only in conditional
        positions (the right side of AND/OR, non-first CASE branches)
        has no strict call sites to batch; it falls back to the per-row
        oracle path, which preserves short-circuit semantics exactly.
        """
        if self._udf_batch_size is not None:
            sites, evaluators = plan_batched_expressions(
                [conjunct],
                node.layout,
                self._functions,
                self,
                cascade=self._cascade(),
            )
            if sites:
                return physical.BatchedFilter(
                    node,
                    evaluators[0],
                    sites,
                    self._udf_exec_context(),
                    self._udf_batch_size,
                    label="where[expensive]",
                )
        compiler = self._compiler(node.layout)
        return physical.Filter(
            node, compiler.compile(conjunct), label="where[expensive]"
        )

    def _udf_exec_context(self) -> "physical.UDFExecContext":
        if self._udf_context is None:
            self._udf_context = physical.UDFExecContext()
        return self._udf_context

    def _cascade(self) -> bool:
        return (
            self._optimizer is not None and self._optimizer.cascade
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _plan_aggregation(
        self,
        source: physical.PlanNode,
        items: list[ast.SelectItem],
        group_by: list[ast.Expression],
        having: ast.Expression | None,
        order_items: list[ast.OrderItem],
    ) -> tuple[
        physical.PlanNode,
        list[ast.SelectItem],
        ast.Expression | None,
        list[ast.OrderItem],
    ]:
        group_by = [
            self._resolve_positional(expr, items) for expr in group_by
        ]
        if having is not None:
            having = self._resolve_alias_refs(having, items)
        order_items = [
            ast.OrderItem(
                self._resolve_alias_refs(order.expression, items),
                order.ascending,
            )
            for order in order_items
        ]
        aggregate_calls: list[ast.FunctionCall] = []

        def collect(expression: ast.Expression) -> None:
            for node in _walk(expression):
                if self._is_aggregate_call(node) and (
                    node not in aggregate_calls
                ):
                    aggregate_calls.append(node)

        for item in items:
            collect(item.expression)
        if having is not None:
            collect(having)
        for order in order_items:
            collect(order.expression)

        # Bare (non-grouped) column refs become hidden FIRST() aggregates.
        bare_columns: list[ast.ColumnRef] = []

        def collect_bare(expression: ast.Expression) -> None:
            for node in _walk_outside_aggregates(
                expression, self._is_aggregate_call
            ):
                if (
                    isinstance(node, ast.ColumnRef)
                    and node not in group_by
                    and node not in bare_columns
                ):
                    bare_columns.append(node)

        for item in items:
            collect_bare(item.expression)
        if having is not None:
            collect_bare(having)
        for order in order_items:
            collect_bare(order.expression)
        # Anything matching a group-by expression textually is fine; a
        # genuinely bare column is served by FIRST (SQLite leniency).

        source_compiler = self._compiler(source.layout)
        group_evaluators = [
            source_compiler.compile(expr) for expr in group_by
        ]
        entries: list[tuple[str | None, str]] = []
        replacements: dict[ast.Expression, ast.ColumnRef] = {}
        for position, expr in enumerate(group_by):
            name = f"_group{position}"
            entries.append((None, name))
            replacements[expr] = ast.ColumnRef(name)
        calls: list[physical.AggregateCall] = []
        for position, call in enumerate(aggregate_calls):
            name = f"_agg{position}"
            entries.append((None, name))
            replacements[call] = ast.ColumnRef(name)
            argument = None
            if not call.star and call.args:
                argument = source_compiler.compile(call.args[0])
            calls.append(
                physical.AggregateCall(
                    self._functions.aggregate(call.name),
                    argument,
                    call.distinct,
                    call.name,
                )
            )
        for position, ref in enumerate(bare_columns):
            if ref in replacements:
                continue
            name = f"_bare{position}"
            entries.append((None, name))
            replacements[ref] = ast.ColumnRef(name)
            calls.append(
                physical.AggregateCall(
                    _first_spec(),
                    source_compiler.compile(ref),
                    False,
                    f"FIRST({ref.display()})",
                )
            )
        layout = RowLayout(entries)
        aggregate_node = physical.Aggregate(
            source, group_evaluators, calls, layout
        )

        def rewrite(expression: ast.Expression) -> ast.Expression:
            return _replace(expression, replacements)

        new_items = [
            ast.SelectItem(
                rewrite(item.expression),
                item.alias or _expression_name(item.expression),
            )
            for item in items
        ]
        new_having = rewrite(having) if having is not None else None
        new_order = [
            ast.OrderItem(rewrite(order.expression), order.ascending)
            for order in order_items
        ]
        return aggregate_node, new_items, new_having, new_order

    def _resolve_alias_refs(
        self, expression: ast.Expression, items: list[ast.SelectItem]
    ) -> ast.Expression:
        """Replace output-alias references (HAVING n > 2) with the
        aliased expression — SQLite-style leniency."""
        replacements: dict[ast.Expression, ast.Expression] = {}
        for node in _walk(expression):
            if (
                isinstance(node, ast.ColumnRef)
                and node.table is None
            ):
                for item in items:
                    if item.alias and item.alias.lower() == (
                        node.name.lower()
                    ):
                        replacements[node] = item.expression
                        break
        if not replacements:
            return expression
        return _replace(expression, replacements)  # type: ignore[arg-type]

    def _resolve_positional(
        self, expression: ast.Expression, items: list[ast.SelectItem]
    ) -> ast.Expression:
        """GROUP BY 1 / alias resolve to the corresponding item."""
        if isinstance(expression, ast.Literal) and isinstance(
            expression.value, int
        ):
            index = expression.value - 1
            if 0 <= index < len(items):
                return items[index].expression
            raise PlanningError(
                f"GROUP BY position {expression.value} out of range"
            )
        if isinstance(expression, ast.ColumnRef) and (
            expression.table is None
        ):
            for item in items:
                if item.alias and item.alias.lower() == (
                    expression.name.lower()
                ):
                    return item.expression
        return expression

    # ------------------------------------------------------------------
    # projection / ORDER BY / DISTINCT
    # ------------------------------------------------------------------

    def _plan_projection_and_order(
        self,
        source: physical.PlanNode,
        items: list[ast.SelectItem],
        order_items: list[ast.OrderItem],
        distinct: bool,
    ) -> tuple[physical.PlanNode, list[str]]:
        names = [
            item.alias or _expression_name(item.expression)
            for item in items
        ]

        # ORDER BY may reference output aliases, positional numbers, or
        # any expression over the pre-projection layout; extend the
        # projection with the extra expressions, sort, then slice back.
        sort_positions: list[int] = []
        ascending: list[bool] = []
        extra_expressions: list[ast.Expression] = []
        extra_names: list[str] = []
        for order in order_items:
            position = self._order_target(order.expression, items, names)
            if position is not None:
                sort_positions.append(position)
            else:
                sort_positions.append(len(items) + len(extra_expressions))
                extra_expressions.append(order.expression)
                extra_names.append(
                    _expression_name(order.expression)
                )
            ascending.append(order.ascending)

        expressions = [
            item.expression for item in items
        ] + extra_expressions
        layout = RowLayout(
            [(None, name) for name in names + extra_names]
        )
        plan = self._build_projection(source, expressions, layout)
        if sort_positions:
            keys = [
                _position_getter(position) for position in sort_positions
            ]
            plan = physical.Sort(plan, keys, ascending)
        if extra_expressions:
            plan = physical.Slice(plan, list(range(len(items))))
        if distinct:
            plan = physical.Distinct(plan)
        return plan, names

    def _build_projection(
        self,
        source: physical.PlanNode,
        expressions: list[ast.Expression],
        layout: RowLayout,
    ) -> physical.PlanNode:
        """Project ``expressions``, batching expensive UDFs when enabled.

        All projected expressions (SELECT items plus extra ORDER BY
        expressions) share one call-site pool, so an LM call repeated
        across items resolves once per distinct argument tuple.
        """
        if self._udf_batch_size is not None and any(
            self._functions.contains_expensive(expression)
            for expression in expressions
        ):
            sites, evaluators = plan_batched_expressions(
                expressions,
                source.layout,
                self._functions,
                self,
                cascade=self._cascade(),
            )
            if sites:
                return physical.BatchedProject(
                    source,
                    evaluators,
                    layout,
                    sites,
                    self._udf_exec_context(),
                    self._udf_batch_size,
                )
        compiler = self._compiler(source.layout)
        return physical.Project(
            source,
            [compiler.compile(expression) for expression in expressions],
            layout,
        )

    def _order_target(
        self,
        expression: ast.Expression,
        items: list[ast.SelectItem],
        names: list[str],
    ) -> int | None:
        if isinstance(expression, ast.Literal) and isinstance(
            expression.value, int
        ):
            index = expression.value - 1
            if 0 <= index < len(items):
                return index
            raise PlanningError(
                f"ORDER BY position {expression.value} out of range"
            )
        if isinstance(expression, ast.ColumnRef) and (
            expression.table is None
        ):
            lowered = expression.name.lower()
            for position, name in enumerate(names):
                if name.lower() == lowered:
                    return position
        for position, item in enumerate(items):
            if item.expression == expression:
                return position
        return None

    def _apply_limit(
        self,
        plan: physical.PlanNode,
        limit: ast.Expression | None,
        offset: ast.Expression | None,
    ) -> physical.PlanNode:
        if limit is None and offset is None:
            return plan
        limit_value = self._constant_int(limit, "LIMIT")
        offset_value = self._constant_int(offset, "OFFSET") or 0
        if limit_value is not None and limit_value < 0:
            limit_value = None  # LIMIT -1 means no limit (SQLite)
        return physical.Limit(plan, limit_value, offset_value)

    def _constant_int(
        self, expression: ast.Expression | None, what: str
    ) -> int | None:
        if expression is None:
            return None
        compiler = self._compiler(RowLayout([]))
        value = compiler.compile(expression)(())
        if not isinstance(value, int) or isinstance(value, bool):
            raise PlanningError(f"{what} must be an integer constant")
        return value

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _compiler(self, layout: RowLayout) -> ExpressionCompiler:
        return ExpressionCompiler(layout, self._functions, self)

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], layout: RowLayout
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expression, ast.Star):
                expanded.append(item)
                continue
            star = item.expression
            if star.table is not None:
                positions = layout.positions_for_binding(star.table)
                if not positions:
                    raise PlanningError(
                        f"unknown table {star.table!r} in {star.table}.*"
                    )
            else:
                positions = list(range(len(layout)))
            for position in positions:
                binding, name = layout.entries[position]
                expanded.append(
                    ast.SelectItem(ast.ColumnRef(name, binding), name)
                )
        if not expanded:
            raise PlanningError("SELECT list is empty")
        return expanded

    def _is_aggregate_call(self, node: ast.Expression) -> bool:
        return (
            isinstance(node, ast.FunctionCall)
            and self._functions.is_aggregate(node.name)
            and (node.star or len(node.args) == 1)
        )

    def _contains_aggregate(self, expression: ast.Expression) -> bool:
        return any(
            self._is_aggregate_call(node) for node in _walk(expression)
        )

    def _resolvable(
        self, expression: ast.Expression, layout: RowLayout
    ) -> bool:
        """True if every column ref in ``expression`` binds in ``layout``.

        Subquery expressions are treated as opaque (they plan against the
        catalog, not the row), so they are always resolvable.
        """
        for node in _walk(expression, into_subqueries=False):
            if isinstance(node, ast.ColumnRef) and not layout.can_resolve(
                node.name, node.table
            ):
                return False
            if isinstance(node, ast.Star):
                return False
        return True

    def _is_expensive(self, expression: ast.Expression) -> bool:
        return self._functions.contains_expensive(expression)


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


def _split_conjuncts(
    expression: ast.Expression | None,
) -> list[ast.Expression]:
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(
            expression.right
        )
    return [expression]


def _and_all(conjuncts: list[ast.Expression]) -> ast.Expression:
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("AND", combined, conjunct)
    return combined


_SUBQUERY_FIELDS = ("subquery", "query")


def _walk(
    expression: ast.Expression, into_subqueries: bool = False
) -> Iterator[ast.Expression]:
    """Yield every expression node in ``expression`` (pre-order)."""
    yield expression
    if not dataclasses.is_dataclass(expression):
        return
    for field in dataclasses.fields(expression):
        if not into_subqueries and field.name in _SUBQUERY_FIELDS:
            continue
        value = getattr(expression, field.name)
        yield from _walk_value(value, into_subqueries)


def _walk_value(value: object, into_subqueries: bool) -> Iterator:
    if isinstance(value, tuple):
        for element in value:
            yield from _walk_value(element, into_subqueries)
    elif dataclasses.is_dataclass(value) and not isinstance(
        value, (ast.Select,)
    ):
        yield from _walk(value, into_subqueries)  # type: ignore[arg-type]


def _walk_outside_aggregates(
    expression: ast.Expression, is_aggregate
) -> Iterator[ast.Expression]:
    """Pre-order walk that does not descend into aggregate calls."""
    if is_aggregate(expression):
        return
    yield expression
    if not dataclasses.is_dataclass(expression):
        return
    for field in dataclasses.fields(expression):
        if field.name in _SUBQUERY_FIELDS:
            continue
        value = getattr(expression, field.name)
        for child in _immediate_children(value):
            yield from _walk_outside_aggregates(child, is_aggregate)


def _immediate_children(value: object) -> Iterator[ast.Expression]:
    if isinstance(value, tuple):
        for element in value:
            yield from _immediate_children(element)
    elif dataclasses.is_dataclass(value) and not isinstance(
        value, ast.Select
    ):
        yield value  # type: ignore[misc]


def _replace(
    expression: ast.Expression,
    replacements: dict[ast.Expression, ast.ColumnRef],
) -> ast.Expression:
    """Structural find-and-replace over an expression tree."""
    if expression in replacements:
        return replacements[expression]
    if not dataclasses.is_dataclass(expression) or isinstance(
        expression, ast.Select
    ):
        return expression
    changes = {}
    for field in dataclasses.fields(expression):
        if field.name in _SUBQUERY_FIELDS:
            continue
        value = getattr(expression, field.name)
        new_value = _replace_value(value, replacements)
        if new_value is not value:
            changes[field.name] = new_value
    if changes:
        return dataclasses.replace(expression, **changes)
    return expression


def _replace_value(value: object, replacements: dict) -> object:
    if isinstance(value, tuple):
        new_elements = tuple(
            _replace_value(element, replacements) for element in value
        )
        if any(
            new is not old for new, old in zip(new_elements, value)
        ):
            return new_elements
        return value
    if dataclasses.is_dataclass(value) and not isinstance(
        value, ast.Select
    ):
        return _replace(value, replacements)  # type: ignore[arg-type]
    return value


def _expression_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        if expression.star:
            return f"{expression.name}(*)"
        inner = ", ".join(
            _expression_name(arg) for arg in expression.args
        )
        return f"{expression.name}({inner})"
    if isinstance(expression, ast.Literal):
        return repr(expression.value)
    return type(expression).__name__.lower()


def _position_getter(position: int):
    return lambda row: row[position]
