"""The Database: catalog of tables plus the SQL execution facade."""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from repro.db import types as dbtypes
from repro.db.expr import ExpressionCompiler
from repro.db.functions import BatchFunction, FunctionRegistry
from repro.db.plan import UDFExecContext
from repro.db.planner import Planner
from repro.db.udfcache import UDFMemoCache
from repro.db.result import ResultSet, RowLayout
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.db.table import Table
from repro.errors import AnalysisError, PlanningError, SchemaError


#: ``EXPLAIN ANALYZE <select>`` prefix, handled before the parser sees
#: the statement (the grammar itself stays SELECT-only).
_EXPLAIN_ANALYZE = re.compile(r"^\s*EXPLAIN\s+ANALYZE\b\s*", re.IGNORECASE)


def _analysis_error(report) -> AnalysisError:
    """Flatten a rejecting QueryReport into one AnalysisError."""
    errors = report.errors
    head = f"{errors[0].code}: {errors[0].message}"
    if len(errors) > 1:
        head += f" (+{len(errors) - 1} more)"
    return AnalysisError(f"static analysis rejected query: {head}", report)


class Database:
    """An in-memory relational database with a SQL interface.

    This is the reproduction's stand-in for SQLite3.  Language-model UDFs
    registered via :meth:`register_udf` become callable inside SQL, which
    is how a TAG query-execution step can push semantic reasoning into
    ``exec`` (paper §2.1/§3, "Database Execution Engine and API").
    """

    def __init__(
        self, name: str = "main", udf_cache_capacity: int = 4096
    ) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self.functions = FunctionRegistry()
        #: Cross-statement memo of expensive-UDF results, shared by
        #: every batched execution against this database.  Capacity 0
        #: disables it (intra-morsel dedup still applies).
        self.udf_cache = UDFMemoCache(udf_cache_capacity)
        self._udf_usage: Any = None
        self._udf_metrics: Any = None

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create an empty table from ``schema``; errors if it exists."""
        key = schema.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table (case-insensitive); errors if absent."""
        try:
            del self._tables[name.lower()]
        except KeyError as exc:
            raise SchemaError(f"no table named {name!r}") from exc

    def table(self, name: str) -> Table:
        """Look up a table by name (case-insensitive)."""
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise PlanningError(f"no table named {name!r}") from exc

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name.lower() in self._tables

    @property
    def table_names(self) -> list[str]:
        """Declared table names, in creation order."""
        return [table.schema.name for table in self._tables.values()]

    def insert(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]],
    ) -> int:
        """Bulk-insert rows (sequences or mappings); returns the count."""
        return self.table(table_name).insert_many(rows)

    def create_index(self, table_name: str, column_name: str) -> None:
        """Build a hash index for equality lookups on one column."""
        self.table(table_name).create_index(column_name)

    # ------------------------------------------------------------------
    # UDFs
    # ------------------------------------------------------------------

    def register_udf(
        self,
        name: str,
        function: Callable[..., dbtypes.SQLValue],
        expensive: bool = False,
        batch: BatchFunction | None = None,
        cheap: Callable[..., dbtypes.SQLValue] | None = None,
        cheap_batch: BatchFunction | None = None,
    ) -> None:
        """Expose a Python callable (e.g. an LM) as a SQL function.

        ``batch`` optionally supplies a vectorised form (see
        :meth:`repro.db.functions.FunctionRegistry.register_scalar`);
        the batched execution path dispatches it once per morsel of
        distinct argument tuples.

        ``cheap`` (and optional ``cheap_batch``) register a cheap
        classifier tier for the optimizer's *cascade* route: it must
        return exactly what ``function`` would, or ``None`` to escalate
        the tuple to the expensive tier.
        """
        self.functions.register_scalar(
            name,
            function,
            expensive=expensive,
            batch=batch,
            cheap=cheap,
            cheap_batch=cheap_batch,
        )

    def bind_udf_meters(
        self, usage: Any = None, metrics: Any = None
    ) -> None:
        """Mirror UDF-cache counters into ``usage`` and/or ``metrics``.

        ``usage`` is a :class:`repro.lm.usage.Usage` (its
        ``udf_cache_hits``/``udf_cache_misses`` fields are
        incremented); ``metrics`` is a
        :class:`repro.obs.metrics.MetricsRegistry` (duck-typed).  The
        batched operators' per-node ``exec_stats`` stay the canonical
        meter; these are mirrors of the same increments.
        """
        self._udf_usage = usage
        self._udf_metrics = metrics

    def _udf_exec_context(self) -> UDFExecContext:
        return UDFExecContext(
            cache=self.udf_cache,
            usage=self._udf_usage,
            metrics=self._udf_metrics,
        )

    def _planner(
        self,
        optimize: bool,
        udf_batch_size: int | None,
        optimizer: Any = None,
    ) -> Planner:
        return Planner(
            self,
            self.functions,
            optimize=optimize,
            udf_batch_size=udf_batch_size,
            udf_context=(
                self._udf_exec_context()
                if udf_batch_size is not None
                else None
            ),
            optimizer=optimizer,
        )

    def _prepare_select(
        self,
        statement: ast.Select,
        optimize: bool,
        udf_batch_size: "int | str | None",
    ) -> tuple[Planner, Any]:
        """Resolve the route and build the planner for one SELECT.

        ``udf_batch_size`` semantics: the default ``"auto"`` delegates
        the choice to the cost-based optimizer (per-row for purely
        relational statements, a distinct-value-bounded morsel size —
        or the cascade route — for statements with expensive UDFs);
        ``None`` pins the per-row oracle path; an int pins that morsel
        size.  With ``optimize=False`` there is no optimizer: ``"auto"``
        degrades to per-row, ints are still honored (for ablations).
        """
        optimizer = None
        if optimize:
            from repro.db.optimizer import QueryOptimizer

            optimizer = QueryOptimizer(self)
            udf_batch_size = optimizer.choose_route(
                statement, udf_batch_size
            )
        elif udf_batch_size == "auto":
            udf_batch_size = None
        return (
            self._planner(optimize, udf_batch_size, optimizer),  # type: ignore[arg-type]
            optimizer,
        )

    def _meter_optimizer(self, optimizer: Any) -> None:
        if optimizer is not None:
            optimizer.report.meter(self._udf_usage, self._udf_metrics)

    def _meter_truncation(self, dropped: int) -> None:
        """Mirror ``max_rows`` row drops into the bound usage/metrics."""
        if self._udf_usage is not None:
            self._udf_usage.rows_truncated += dropped
        if self._udf_metrics is not None:
            self._udf_metrics.counter(
                "repro_exec_rows_truncated_total"
            ).inc(dropped)

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str,
        optimize: bool = True,
        analyze: bool = False,
        udf_batch_size: "int | str | None" = "auto",
        max_rows: int | None = None,
    ) -> ResultSet:
        """Parse and run one SQL statement.

        ``max_rows`` caps the rows a SELECT returns.  Truncation is
        never silent: every dropped row is metered into the bound
        usage/metrics (``Usage.rows_truncated``,
        ``repro_exec_rows_truncated_total`` — see
        :meth:`bind_udf_meters`) and EXPLAIN ANALYZE output carries a
        truncation note.

        With ``analyze=True``, SELECTs are pre-flighted through the
        static analyzer and an :class:`~repro.errors.AnalysisError`
        (carrying the full :class:`~repro.analysis.QueryReport`) is
        raised before any plan is built when error-severity diagnostics
        are found.

        ``udf_batch_size`` controls how expensive-UDF filters and
        projections execute.  The default ``"auto"`` lets the
        cost-based optimizer choose (see
        :class:`repro.db.optimizer.QueryOptimizer`); ``None`` pins the
        per-row oracle path; an int ``N`` pins the vectorized operators
        (:class:`~repro.db.plan.BatchedFilter` /
        :class:`~repro.db.plan.BatchedProject`): morsels of N rows,
        one batch dispatch per morsel of distinct argument tuples,
        memoized across statements via :attr:`udf_cache`.  Results are
        identical to the default per-row path (property-tested); only
        the LM call pattern changes.

        ``EXPLAIN ANALYZE <select>`` executes the query through
        counting instrumentation and returns the annotated plan tree
        (per-operator rows in/out and virtual time) as a one-column
        ``plan`` result — see :meth:`explain_analyze` for the
        structured form.
        """
        prefixed = _EXPLAIN_ANALYZE.match(sql)
        if prefixed is not None:
            analyzed = self.explain_analyze(
                sql[prefixed.end() :],
                optimize=optimize,
                analyze=analyze,
                udf_batch_size=udf_batch_size,
                max_rows=max_rows,
            )
            return ResultSet(
                ["plan"],
                [(line,) for line in analyzed.render().splitlines()],
            )
        statement = parse_statement(sql)
        if isinstance(statement, ast.Select):
            if analyze:
                report = self.analyze(statement, source=sql)
                if not report.ok:
                    raise _analysis_error(report)
            planner, optimizer = self._prepare_select(
                statement, optimize, udf_batch_size
            )
            result = planner.run_select(statement)
            self._meter_optimizer(optimizer)
            if max_rows is not None and len(result.rows) > max_rows:
                self._meter_truncation(len(result.rows) - max_rows)
                result = ResultSet(
                    result.columns, result.rows[:max_rows]
                )
            return result
        if isinstance(statement, ast.CreateTable):
            self._execute_create(statement)
            return ResultSet([], [])
        if isinstance(statement, ast.Insert):
            inserted = self._execute_insert(statement)
            return ResultSet(["rows_inserted"], [(inserted,)])
        if isinstance(statement, ast.Update):
            updated = self._execute_update(statement)
            return ResultSet(["rows_updated"], [(updated,)])
        if isinstance(statement, ast.Delete):
            deleted = self._execute_delete(statement)
            return ResultSet(["rows_deleted"], [(deleted,)])
        raise PlanningError(  # pragma: no cover - parser covers all cases
            f"unsupported statement {type(statement).__name__}"
        )

    def analyze(self, sql: str | ast.Select, source: str = ""):
        """Statically analyze a SELECT against this catalog.

        Returns a :class:`repro.analysis.QueryReport` with diagnostics
        and an LM-cost estimate; never raises for invalid SQL (syntax
        errors become ``ANA001`` diagnostics).
        """
        from repro.analysis import SQLAnalyzer

        return SQLAnalyzer(self).analyze(sql, source=source)

    def explain_analyze(
        self,
        sql: str,
        optimize: bool = True,
        analyze: bool = False,
        udf_batch_size: "int | str | None" = "auto",
        max_rows: int | None = None,
    ):
        """Execute a SELECT with per-operator instrumentation.

        Returns a :class:`repro.obs.explain.AnalyzedQuery`: the normal
        :class:`ResultSet` plus an operator-statistics tree (rows
        in/out and deterministic virtual time per plan node) rendered
        by ``.render()``.  The counters reflect what actually flowed —
        a ``LIMIT`` that stops pulling early shows up in its children's
        ``rows_out``.  Under ``udf_batch_size``, batched operators
        additionally report their LM call/batch and UDF-cache counters
        per node.  For statements involving expensive UDFs the render
        ends with the optimizer's decision footer.
        """
        from repro.obs.explain import AnalyzedQuery, instrument_plan

        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanningError("EXPLAIN ANALYZE only supports SELECT")
        if analyze:
            report = self.analyze(statement, source=sql)
            if not report.ok:
                raise _analysis_error(report)
        planner, optimizer = self._prepare_select(
            statement, optimize, udf_batch_size
        )
        plan, names = planner.plan_select(statement)
        proxy, stats = instrument_plan(plan)
        rows = list(proxy.execute())
        self._meter_optimizer(optimizer)
        truncated = None
        if max_rows is not None and len(rows) > max_rows:
            truncated = (max_rows, len(rows))
            self._meter_truncation(len(rows) - max_rows)
            rows = rows[:max_rows]
        return AnalyzedQuery(
            stats=stats,
            result=ResultSet(names, rows),
            optimizer=(
                optimizer.report
                if optimizer is not None and optimizer.report.decisions
                else None
            ),
            truncated=truncated,
        )

    def explain(
        self,
        sql: str,
        optimize: bool = True,
        udf_batch_size: "int | str | None" = "auto",
    ) -> str:
        """Render the physical plan for a SELECT (diagnostics/tests).

        Statements with expensive UDFs get an ``Optimizer:`` footer
        listing every decision (route, batch size, reorders, pushdowns)
        with the cost numbers that justified it.
        """
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanningError("EXPLAIN only supports SELECT")
        planner, optimizer = self._prepare_select(
            statement, optimize, udf_batch_size
        )
        plan, _ = planner.plan_select(statement)
        rendered = plan.explain()
        self._meter_optimizer(optimizer)
        if optimizer is not None and optimizer.report.decisions:
            rendered += "\n" + optimizer.report.render()
        return rendered

    def schema_sql(self) -> str:
        """All CREATE TABLE statements, in the BIRD prompt encoding."""
        return "\n\n".join(
            table.schema.to_create_sql()
            for table in self._tables.values()
        )

    # ------------------------------------------------------------------
    # statement handlers
    # ------------------------------------------------------------------

    def _execute_create(self, statement: ast.CreateTable) -> None:
        columns = [
            Column(
                definition.name,
                dbtypes.DataType.from_sql(definition.type_name),
                nullable=not (definition.not_null or definition.primary_key),
                primary_key=definition.primary_key,
            )
            for definition in statement.columns
        ]
        foreign_keys = [
            ForeignKey(fk.column, fk.parent_table, fk.parent_column)
            for fk in statement.foreign_keys
        ]
        self.create_table(TableSchema(statement.name, columns, foreign_keys))

    def _execute_insert(self, statement: ast.Insert) -> int:
        table = self.table(statement.table)
        compiler = ExpressionCompiler(RowLayout([]), self.functions)
        count = 0
        for row_expressions in statement.rows:
            values = [
                compiler.compile(expression)(())
                for expression in row_expressions
            ]
            if statement.columns:
                table.insert(dict(zip(statement.columns, values)))
            else:
                table.insert(values)
            count += 1
        return count

    def _execute_update(self, statement: ast.Update) -> int:
        from repro.db.expr import is_true

        table = self.table(statement.table)
        layout = RowLayout(
            [
                (statement.table, name)
                for name in table.schema.column_names
            ]
        )
        compiler = ExpressionCompiler(layout, self.functions)
        predicate = (
            compiler.compile(statement.where)
            if statement.where is not None
            else None
        )
        assignments = [
            (table.schema.column_index(column), compiler.compile(value))
            for column, value in statement.assignments
        ]
        updated = 0
        new_rows: list[list] = []
        for row in table.rows:
            if predicate is None or is_true(predicate(row)):
                updated += 1
                mutable = list(row)
                for position, evaluate in assignments:
                    mutable[position] = evaluate(row)
                new_rows.append(mutable)
            else:
                new_rows.append(list(row))
        table.replace_all(new_rows)
        return updated

    def _execute_delete(self, statement: ast.Delete) -> int:
        from repro.db.expr import is_true

        table = self.table(statement.table)
        layout = RowLayout(
            [
                (statement.table, name)
                for name in table.schema.column_names
            ]
        )
        compiler = ExpressionCompiler(layout, self.functions)
        predicate = (
            compiler.compile(statement.where)
            if statement.where is not None
            else None
        )
        survivors = [
            list(row)
            for row in table.rows
            if predicate is not None and not is_true(predicate(row))
        ]
        deleted = len(table) - len(survivors)
        table.replace_all(survivors)
        return deleted

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.table_names})"
