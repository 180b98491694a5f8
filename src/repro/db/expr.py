"""Expression compilation: AST expression -> callable over a row tuple.

Expressions are compiled once at plan time into nested closures, so
per-row evaluation does no AST walking.  SQL three-valued logic is
implemented throughout: comparisons involving NULL yield NULL, AND/OR
short-circuit per Kleene logic, and WHERE treats NULL as false (the
executor applies ``is_true`` to predicate results).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.db import types as dbtypes
from repro.db.result import RowLayout
from repro.db.sql import ast
from repro.db.types import SQLValue
from repro.errors import ExecutionError, PlanningError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.functions import FunctionRegistry
    from repro.db.planner import Planner

Row = tuple[SQLValue, ...]
Evaluator = Callable[[Row], SQLValue]


def is_true(value: SQLValue) -> bool:
    """WHERE-clause truthiness: NULL and false are both rejections."""
    return value is not None and bool(value)


class ExpressionCompiler:
    """Compiles expressions against one row layout.

    ``subquery_planner`` is consulted lazily for subquery expressions;
    subquery results are computed on first use and cached, so an
    uncorrelated ``IN (SELECT ...)`` executes its inner query once.

    ``call_overrides`` maps :class:`~repro.db.sql.ast.FunctionCall`
    nodes (by structural equality) to pre-built evaluators; the batched
    UDF path uses it to splice memo lookups in place of expensive calls
    while the rest of the expression compiles normally.
    """

    def __init__(
        self,
        layout: RowLayout,
        functions: "FunctionRegistry",
        subquery_planner: "Planner | None" = None,
        call_overrides: "dict[ast.FunctionCall, Evaluator] | None" = None,
    ) -> None:
        self._layout = layout
        self._functions = functions
        self._subquery_planner = subquery_planner
        self._call_overrides = call_overrides

    def compile(self, expression: ast.Expression) -> Evaluator:
        method_name = "_compile_" + type(expression).__name__.lower()
        method = getattr(self, method_name, None)
        if method is None:
            raise PlanningError(
                f"unsupported expression node {type(expression).__name__}"
            )
        return method(expression)

    # -- leaves ------------------------------------------------------------

    def _compile_literal(self, node: ast.Literal) -> Evaluator:
        value = node.value
        return lambda row: value

    def _compile_columnref(self, node: ast.ColumnRef) -> Evaluator:
        position = self._layout.resolve(node.name, node.table)
        return lambda row: row[position]

    def _compile_star(self, node: ast.Star) -> Evaluator:
        raise PlanningError("'*' is only valid in SELECT items or COUNT(*)")

    # -- operators ----------------------------------------------------------

    def _compile_unaryop(self, node: ast.UnaryOp) -> Evaluator:
        operand = self.compile(node.operand)
        if node.op == "NOT":

            def negate(row: Row) -> SQLValue:
                value = operand(row)
                if value is None:
                    return None
                return not bool(value)

            return negate
        if node.op == "-":

            def minus(row: Row) -> SQLValue:
                value = operand(row)
                if value is None:
                    return None
                if not isinstance(value, (int, float)):
                    raise ExecutionError(f"cannot negate {value!r}")
                return -value

            return minus
        if node.op == "+":
            return operand
        raise PlanningError(f"unknown unary operator {node.op!r}")

    def _compile_binaryop(self, node: ast.BinaryOp) -> Evaluator:
        if node.op == "AND":
            return self._compile_and(node)
        if node.op == "OR":
            return self._compile_or(node)
        left = self.compile(node.left)
        right = self.compile(node.right)
        if node.op in ("+", "-", "*", "/", "%"):
            return _arithmetic(node.op, left, right)
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison(node.op, left, right)
        if node.op == "||":

            def concat(row: Row) -> SQLValue:
                lhs, rhs = left(row), right(row)
                if lhs is None or rhs is None:
                    return None
                return _to_text(lhs) + _to_text(rhs)

            return concat
        raise PlanningError(f"unknown binary operator {node.op!r}")

    def _compile_and(self, node: ast.BinaryOp) -> Evaluator:
        left = self.compile(node.left)
        right = self.compile(node.right)

        def evaluate(row: Row) -> SQLValue:
            lhs = left(row)
            if lhs is not None and not lhs:
                return False
            rhs = right(row)
            if rhs is not None and not rhs:
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return evaluate

    def _compile_or(self, node: ast.BinaryOp) -> Evaluator:
        left = self.compile(node.left)
        right = self.compile(node.right)

        def evaluate(row: Row) -> SQLValue:
            lhs = left(row)
            if lhs is not None and lhs:
                return True
            rhs = right(row)
            if rhs is not None and rhs:
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return evaluate

    # -- functions -----------------------------------------------------------

    def _compile_functioncall(self, node: ast.FunctionCall) -> Evaluator:
        if self._call_overrides is not None:
            override = self._call_overrides.get(node)
            if override is not None:
                return override
        if self._functions.is_aggregate(node.name) and not (
            self._functions.has_scalar(node.name) and len(node.args) > 1
        ):
            raise PlanningError(
                f"aggregate {node.name}() is not allowed here"
            )
        function = self._functions.scalar(node.name)
        argument_evaluators = [self.compile(arg) for arg in node.args]

        def call(row: Row) -> SQLValue:
            arguments = [evaluate(row) for evaluate in argument_evaluators]
            try:
                return function(*arguments)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"error in function {node.name}: {exc}"
                ) from exc

        return call

    # -- conditionals ----------------------------------------------------------

    def _compile_caseexpression(self, node: ast.CaseExpression) -> Evaluator:
        operand = self.compile(node.operand) if node.operand else None
        branches = [
            (self.compile(condition), self.compile(result))
            for condition, result in node.branches
        ]
        default = self.compile(node.default) if node.default else None

        def evaluate(row: Row) -> SQLValue:
            if operand is not None:
                subject = operand(row)
                for condition, result in branches:
                    if dbtypes.values_equal(subject, condition(row)):
                        return result(row)
            else:
                for condition, result in branches:
                    if is_true(condition(row)):
                        return result(row)
            return default(row) if default is not None else None

        return evaluate

    def _compile_castexpression(self, node: ast.CastExpression) -> Evaluator:
        operand = self.compile(node.operand)
        target = dbtypes.DataType.from_sql(node.type_name)

        def evaluate(row: Row) -> SQLValue:
            value = operand(row)
            if value is None:
                return None
            # Numeric casts follow SQLite rather than the strict storage
            # ``coerce``: a REAL truncates toward zero, TEXT yields its
            # longest numeric prefix (0 when there is none), and INTEGER
            # results saturate at the int64 bounds.
            if target is dbtypes.DataType.INTEGER:
                return _cast_integer(value)
            if target is dbtypes.DataType.REAL:
                return _cast_real(value)
            try:
                return dbtypes.coerce(value, target)
            except Exception:
                return _to_text(value)

        return evaluate

    # -- predicates ---------------------------------------------------------

    def _compile_inlist(self, node: ast.InList) -> Evaluator:
        operand = self.compile(node.operand)
        items = [self.compile(item) for item in node.items]

        def evaluate(row: Row) -> SQLValue:
            subject = operand(row)
            if subject is None:
                return None
            saw_null = False
            for item in items:
                value = item(row)
                if value is None:
                    saw_null = True
                elif dbtypes.values_equal(subject, value):
                    return not node.negated
            if saw_null:
                return None
            return node.negated

        return evaluate

    def _compile_betweenexpression(
        self, node: ast.BetweenExpression
    ) -> Evaluator:
        operand = self.compile(node.operand)
        lower = self.compile(node.lower)
        upper = self.compile(node.upper)

        def evaluate(row: Row) -> SQLValue:
            subject = operand(row)
            low, high = lower(row), upper(row)
            above = dbtypes.compare(subject, low)
            below = dbtypes.compare(subject, high)
            if above is None or below is None:
                return None
            inside = above >= 0 and below <= 0
            return inside != node.negated

        return evaluate

    def _compile_likeexpression(self, node: ast.LikeExpression) -> Evaluator:
        operand = self.compile(node.operand)
        pattern = self.compile(node.pattern)
        cache: dict[str, re.Pattern[str]] = {}

        def evaluate(row: Row) -> SQLValue:
            subject = operand(row)
            pattern_text = pattern(row)
            if subject is None or pattern_text is None:
                return None
            compiled = cache.get(pattern_text)
            if compiled is None:
                compiled = _like_to_regex(str(pattern_text))
                cache[pattern_text] = compiled
            matched = compiled.match(_to_text(subject)) is not None
            return matched != node.negated

        return evaluate

    def _compile_isnullexpression(
        self, node: ast.IsNullExpression
    ) -> Evaluator:
        operand = self.compile(node.operand)
        if node.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    # -- subqueries ---------------------------------------------------------

    def _subquery_values(self, select: ast.Select) -> Callable[[], list]:
        if self._subquery_planner is None:
            raise PlanningError("subqueries are not allowed here")
        planner = self._subquery_planner
        cache: list[list[Row]] = []

        def fetch() -> list[Row]:
            if not cache:
                result = planner.run_select(select)
                cache.append(result.rows)
            return cache[0]

        return fetch

    def _compile_insubquery(self, node: ast.InSubquery) -> Evaluator:
        operand = self.compile(node.operand)
        fetch = self._subquery_values(node.subquery)
        state: dict[str, object] = {}

        def evaluate(row: Row) -> SQLValue:
            subject = operand(row)
            if subject is None:
                return None
            if "values" not in state:
                rows = fetch()
                if rows and len(rows[0]) != 1:
                    raise ExecutionError(
                        "IN subquery must return exactly one column"
                    )
                values = {row_[0] for row_ in rows if row_[0] is not None}
                state["values"] = values
                state["saw_null"] = any(row_[0] is None for row_ in rows)
            values = state["values"]  # type: ignore[assignment]
            if _hashable(subject) and subject in values:  # type: ignore[operator]
                return not node.negated
            if state["saw_null"]:
                return None
            return node.negated

        return evaluate

    def _compile_existssubquery(
        self, node: ast.ExistsSubquery
    ) -> Evaluator:
        fetch = self._subquery_values(node.subquery)

        def evaluate(row: Row) -> SQLValue:
            exists = bool(fetch())
            return exists != node.negated

        return evaluate

    def _compile_scalarsubquery(self, node: ast.ScalarSubquery) -> Evaluator:
        fetch = self._subquery_values(node.subquery)

        def evaluate(row: Row) -> SQLValue:
            rows = fetch()
            if not rows:
                return None
            if len(rows[0]) != 1:
                raise ExecutionError(
                    "scalar subquery must return exactly one column"
                )
            return rows[0][0]

        return evaluate


# ---------------------------------------------------------------------------
# Batched UDF call sites
# ---------------------------------------------------------------------------

#: Memo key of one resolved UDF invocation: ``(FUNCTION, argument tuple)``.
MemoKey = tuple[str, tuple[SQLValue, ...]]

_UNRESOLVED = object()


class UDFCallError:
    """A memoized *failure*: re-raised whenever a row reads the slot.

    The batched path resolves distinct argument tuples ahead of row
    evaluation, so a failing call must be held rather than raised at
    dispatch time — the per-row oracle path only raises when the first
    row carrying the failing arguments is actually evaluated, and the
    batched path must surface the identical error at the identical row.
    Failures are never written to the cross-statement cache.
    """

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error


class UDFCallSite:
    """One strict expensive-call site, compiled for batched execution.

    Holds the per-argument evaluators (cheap row expressions) and a
    statement-local memo of resolved keys.  ``evaluate`` is the
    residual-phase evaluator spliced into the surrounding expression
    via ``call_overrides``: it recomputes the key (argument evaluation
    is deterministic, so this matches the collect phase) and reads the
    memo.  Argument-evaluation errors deliberately re-raise *here*, in
    row order, exactly as the per-row path would.
    """

    __slots__ = (
        "name",
        "function",
        "batch_function",
        "cheap_function",
        "cheap_batch",
        "arg_evaluators",
        "memo",
    )

    def __init__(
        self,
        name: str,
        function: Callable[..., SQLValue],
        batch_function: Callable | None,
        arg_evaluators: list[Evaluator],
        cheap_function: Callable[..., SQLValue] | None = None,
        cheap_batch: Callable | None = None,
    ) -> None:
        self.name = name
        self.function = function
        self.batch_function = batch_function
        #: Cascade tier: a cheap classifier that either agrees with
        #: ``function`` or returns None to escalate (see
        #: ``FunctionRegistry.register_scalar``).  Consulted before the
        #: expensive dispatch in ``_resolve_morsel``; never memoizes
        #: errors, never changes results.
        self.cheap_function = cheap_function
        self.cheap_batch = cheap_batch
        self.arg_evaluators = arg_evaluators
        self.memo: dict[MemoKey, object] = {}

    def key(self, row: Row) -> MemoKey:
        return (
            self.name,
            tuple(evaluate(row) for evaluate in self.arg_evaluators),
        )

    def evaluate(self, row: Row) -> SQLValue:
        value = self.memo.get(self.key(row), _UNRESOLVED)
        if value is _UNRESOLVED:
            raise ExecutionError(
                f"internal: uncollected batched call to {self.name}"
            )
        if isinstance(value, UDFCallError):
            raise value.error
        return value  # type: ignore[return-value]

    def call_scalar(self, args: tuple[SQLValue, ...]) -> object:
        """Invoke the scalar form, parking errors per the oracle contract."""
        try:
            return self.function(*args)
        except ExecutionError as exc:
            return UDFCallError(exc)
        except Exception as exc:
            return UDFCallError(
                ExecutionError(f"error in function {self.name}: {exc}")
            )


def strict_expensive_calls(
    expression: ast.Expression, functions: "FunctionRegistry"
) -> list[ast.FunctionCall]:
    """Expensive calls evaluated *unconditionally* for every row.

    Walks only the edges the compiled evaluators traverse eagerly, so a
    call the per-row path might skip (the right side of AND/OR, CASE
    branches past the first WHEN, IN-list items) is never pre-executed
    by the batched path — pre-executing it could change results, error
    behaviour, or LM accounting.  Returned in post-order (inner calls
    before the calls that consume them) with structural duplicates
    removed, which is exactly the dispatch order the batched operators
    need for nested LM UDFs.
    """
    found: list[ast.FunctionCall] = []

    def visit(node: ast.Expression) -> None:
        if isinstance(node, ast.FunctionCall):
            if functions.is_aggregate(node.name) and not (
                functions.has_scalar(node.name) and len(node.args) > 1
            ):
                return  # aggregate shape: rewritten away before compile
            for arg in node.args:
                visit(arg)
            if functions.is_expensive(node.name) and node not in found:
                found.append(node)
        elif isinstance(node, ast.BinaryOp):
            visit(node.left)
            if node.op not in ("AND", "OR"):  # right side short-circuits
                visit(node.right)
        elif isinstance(node, ast.UnaryOp):
            visit(node.operand)
        elif isinstance(node, ast.CaseExpression):
            # The operand and the first WHEN condition always run; later
            # conditions, THEN results, and ELSE are conditional.
            if node.operand is not None:
                visit(node.operand)
            if node.branches:
                visit(node.branches[0][0])
        elif isinstance(node, ast.CastExpression):
            visit(node.operand)
        elif isinstance(node, ast.BetweenExpression):
            visit(node.operand)
            visit(node.lower)
            visit(node.upper)
        elif isinstance(node, ast.LikeExpression):
            visit(node.operand)
            visit(node.pattern)
        elif isinstance(node, ast.IsNullExpression):
            visit(node.operand)
        elif isinstance(node, (ast.InList, ast.InSubquery)):
            visit(node.operand)  # items short-circuit on a NULL subject
        # Literal / ColumnRef / Star / EXISTS / scalar subquery: no
        # strict expression children.

    visit(expression)
    return found


def plan_batched_expressions(
    expressions: list[ast.Expression],
    layout: RowLayout,
    functions: "FunctionRegistry",
    subquery_planner: "Planner | None" = None,
    cascade: bool = False,
) -> tuple[list[UDFCallSite], list[Evaluator]]:
    """Compile ``expressions`` with shared batched UDF call sites.

    Extracts every strict expensive call across all expressions (so a
    ``LLM(...)`` repeated between SELECT items resolves once), builds a
    :class:`UDFCallSite` per distinct call, and compiles the residual
    expressions with the sites spliced in.  Site order is inner-before-
    outer, so a site's argument evaluators may reference earlier sites'
    memoized results (nested LM UDFs batch in waves).

    With ``cascade=True``, sites whose function has a registered cheap
    tier route each distinct argument tuple through it first; only
    tuples the cheap tier declines (returns None for) reach the
    expensive form.
    """
    calls: list[ast.FunctionCall] = []
    for expression in expressions:
        for call in strict_expensive_calls(expression, functions):
            if call not in calls:
                calls.append(call)
    overrides: dict[ast.FunctionCall, Evaluator] = {}
    sites: list[UDFCallSite] = []
    for call in calls:
        compiler = ExpressionCompiler(
            layout, functions, subquery_planner, call_overrides=dict(overrides)
        )
        site = UDFCallSite(
            call.name.upper(),
            functions.scalar(call.name),
            functions.batch_function(call.name),
            [compiler.compile(arg) for arg in call.args],
            cheap_function=(
                functions.cheap_function(call.name) if cascade else None
            ),
            cheap_batch=(
                functions.cheap_batch_function(call.name)
                if cascade
                else None
            ),
        )
        overrides[call] = site.evaluate
        sites.append(site)
    final = ExpressionCompiler(
        layout, functions, subquery_planner, call_overrides=overrides
    )
    return sites, [final.compile(expression) for expression in expressions]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _hashable(value: SQLValue) -> bool:
    try:
        hash(value)
        return True
    except TypeError:  # pragma: no cover - SQLValues are always hashable
        return False


def _to_text(value: SQLValue) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: SQLite's numeric text prefixes: leading whitespace is skipped, and
#: everything after the longest integer / real literal is ignored.
_INTEGER_PREFIX = re.compile(r"[ \t\n\v\f\r]*([+-]?[0-9]+)")
_REAL_PREFIX = re.compile(
    r"[ \t\n\v\f\r]*([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)


def _cast_integer(value: SQLValue) -> int:
    """``CAST(value AS INTEGER)`` for a non-NULL value, as SQLite does."""
    if isinstance(value, str):
        match = _INTEGER_PREFIX.match(value)
        value = int(match.group(1)) if match else 0
    elif isinstance(value, float) and value != value:  # NaN
        return 0
    # Clamp before int() so an infinite REAL never reaches it.
    return int(max(min(value, _INT64_MAX), _INT64_MIN))


def _cast_real(value: SQLValue) -> float:
    """``CAST(value AS REAL)`` for a non-NULL value, as SQLite does."""
    if isinstance(value, str):
        match = _REAL_PREFIX.match(value)
        return float(match.group(1)) if match else 0.0
    return float(value)


def _arithmetic(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    def evaluate(row: Row) -> SQLValue:
        lhs, rhs = left(row), right(row)
        if lhs is None or rhs is None:
            return None
        if not isinstance(lhs, (int, float)) or not isinstance(
            rhs, (int, float)
        ):
            raise ExecutionError(
                f"arithmetic on non-numeric values {lhs!r} {op} {rhs!r}"
            )
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                return None  # SQLite: division by zero yields NULL
            if isinstance(lhs, int) and isinstance(rhs, int):
                quotient = lhs / rhs
                return int(quotient) if quotient == int(quotient) else quotient
            return lhs / rhs
        if op == "%":
            # SQLite: REAL operands are cast to INTEGER first (the
            # result stays REAL), a zero divisor yields NULL, and the
            # remainder takes the dividend's sign.
            dividend, divisor = _cast_integer(lhs), _cast_integer(rhs)
            if divisor == 0:
                return None
            remainder = abs(dividend) % abs(divisor)
            if dividend < 0:
                remainder = -remainder
            if isinstance(lhs, float) or isinstance(rhs, float):
                return float(remainder)
            return remainder
        raise PlanningError(f"unknown arithmetic operator {op!r}")

    return evaluate


def _comparison(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    def evaluate(row: Row) -> SQLValue:
        ordering = dbtypes.compare(left(row), right(row))
        if ordering is None:
            return None
        if op == "=":
            return ordering == 0
        if op == "<>":
            return ordering != 0
        if op == "<":
            return ordering < 0
        if op == "<=":
            return ordering <= 0
        if op == ">":
            return ordering > 0
        return ordering >= 0

    return evaluate


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    pieces: list[str] = []
    for char in pattern:
        if char == "%":
            pieces.append(".*")
        elif char == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(char))
    return re.compile("^" + "".join(pieces) + "$", re.IGNORECASE | re.DOTALL)
