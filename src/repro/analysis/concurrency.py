"""Static concurrency-safety analyzer (``python -m repro lint --conc``).

Serve workers share the LM facade, the database, its UDF memo cache,
the metrics registry, the tracer and the semantic cache across
threads; this module is the static gate that keeps their mutations
lock-guarded.  It is an interprocedural ``ast`` pass over
``src/repro/`` that

(a) builds a **class-attribute mutation map** per module — every
    ``self.x = ...`` / ``self.x += ...`` / ``self.x.append(...)`` /
    ``self.x[k] = v`` site outside ``__init__``;

(b) infers **locksets**: which locks are provably held at each site,
    tracking ``with self._lock:`` / ``with self._cv:`` scopes (and
    ``racecheck.guard(name, self._lock)`` wrappers) *through helper
    calls* — a private helper invoked only from lock-held call sites
    inherits those locksets, and the ``*_locked`` naming contract seeds
    helpers with their class's locks (this engine also backs the
    determinism linter's DET105, fixing its aliased-reference blind
    spot);

(c) identifies classes whose instances **cross the worker boundary**:
    the transitive construction/annotation closure from
    :data:`SHARED_ROOTS` (``TagServer``, ``BatchingLM``, ``Database``,
    ``UDFMemoCache``, ``MetricsRegistry``, ``Tracer``,
    ``SemanticResultCache``, ``QueryRegistry``).

The rule taxonomy (codes are stable API, tests pin them):

======= ==============================================================
code    rule
======= ==============================================================
CONC201 unguarded shared mutation: an attribute that is mutated under
        a lock somewhere in its class is also mutated on a path where
        no lock is provably held
CONC202 inconsistent lockset: every mutation of an attribute holds
        *some* lock, but no single lock is common to all sites — two
        threads can mutate concurrently while each "holds the lock"
CONC203 lock-order cycle: lock B is acquired while holding A on one
        path and A while holding B on another (potential deadlock)
CONC204 a ``*_locked`` helper is reachable with an empty lockset —
        the interprocedural successor of DET105, also catching
        aliased method references and ``self.__class__`` dispatch
CONC205 escaping guarded state: a method returns or yields a guarded
        mutable container attribute itself (not a copy), handing
        callers unsynchronized access to it
CONC206 check-then-act lazy initialization: ``if self._x is None:
        self._x = ...`` with no lock held, on an attribute that is
        lock-guarded elsewhere
CONC207 mutable class-level attribute (list/dict/set literal in the
        class body) — state silently shared across instances *and*
        threads
CONC208 manual ``.acquire()`` whose ``.release()`` is not in a
        ``finally`` block — an exception between them leaks the lock
======= ==============================================================

Findings are suppressed via ``[tool.repro.conc]`` in ``pyproject.toml``
(same ``"<path>:<CODE>  # why"`` entry format as the determinism
linter's ``[tool.repro.lint]``).

Scope and soundness.  This is a linter, not a verifier: it reasons per
class with a closed-world assumption for underscore-private helpers
(they are called only from the call sites the class itself contains)
and an open-world assumption for public methods (callable with no
locks held).  Dynamic dispatch through non-self objects, locks passed
across objects, and monkey-patching are out of scope — the dynamic
layer (:mod:`repro.obs.racecheck`) covers what static reasoning cannot.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.11 is the floor
    tomllib = None

#: Class names whose instances are, by construction, shared across
#: TagServer worker threads; the worker-boundary closure starts here.
SHARED_ROOTS = (
    "TagServer",
    "BatchingLM",
    "Database",
    "UDFMemoCache",
    "MetricsRegistry",
    "Tracer",
    "SemanticResultCache",
    "QueryRegistry",
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "reverse",
        "update",
    }
)

#: Name tokens marking a dotted name as a synchronization primitive.
#: Matched against ``_``-separated tokens of the leaf name, not as raw
#: substrings — ``self.clock`` must not read as a lock.
_LOCKISH = frozenset(
    {"lock", "rlock", "cv", "cvar", "mutex", "cond", "condition",
     "sem", "semaphore"}
)

#: Methods whose bodies run before the instance can be shared.
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})

#: Container constructors whose results are mutable shared state.
_CONTAINER_CALLS = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque"}
)


def is_lockish(dotted: str) -> bool:
    """Does a dotted name look like a synchronization primitive?"""
    leaf = dotted.rsplit(".", 1)[-1].lower()
    return any(token in _LOCKISH for token in leaf.split("_") if token)


def dotted_name(expression: ast.expr) -> str:
    """Best-effort ``a.b.c`` rendering of an expression ('' if none)."""
    parts: list[str] = []
    while isinstance(expression, ast.Attribute):
        parts.append(expression.attr)
        expression = expression.value
    if isinstance(expression, ast.Name):
        parts.append(expression.id)
    else:
        return ""
    return ".".join(reversed(parts))


def with_item_locks(item: ast.withitem) -> frozenset[str]:
    """Lock names one ``with`` item acquires.

    Recognizes the lock itself (``with self._lock:``), a blocking
    acquire-style call (``with self._cv:`` is the same node shape), and
    the dynamic checker's wrapper (``with racecheck.guard("name",
    self._lock):`` — any lock-ish *argument* counts).
    """
    expression = item.context_expr
    names: set[str] = set()
    direct = dotted_name(expression)
    if direct and is_lockish(direct):
        names.add(direct)
    if isinstance(expression, ast.Call):
        callee = dotted_name(expression.func)
        if callee and is_lockish(callee):
            names.add(callee)
        for argument in expression.args:
            inner = dotted_name(argument)
            if inner and is_lockish(inner):
                names.add(inner)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Findings and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcFinding:
    """One concurrency finding, addressable for allowlisting."""

    path: str  # repo-root-relative, forward slashes
    line: int
    column: int
    code: str
    message: str
    #: ``Class.method`` (or ``<module>.function``) the finding is in.
    where: str = ""

    @property
    def key(self) -> str:
        """The ``path:CODE`` string an allowlist entry must match."""
        return f"{self.path}:{self.code}"

    def render(self) -> str:
        site = f" [{self.where}]" if self.where else ""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.code} {self.message}{site}"
        )

    def __str__(self) -> str:
        return self.render()


@dataclass
class ConcurrencyReport:
    """Everything one analyzer run learned, QueryReport-style."""

    findings: list[ConcFinding] = field(default_factory=list)
    suppressed: list[ConcFinding] = field(default_factory=list)
    #: Worker-shared classes, as ``Class (path)``, name-sorted.
    shared_classes: list[str] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Per-rule finding counts, code-sorted."""
        tally: dict[str, int] = {}
        for finding in self.findings:
            tally[finding.code] = tally.get(finding.code, 0) + 1
        return dict(sorted(tally.items()))

    def render(self) -> str:
        lines = [
            f"concurrency: {'ok' if self.ok else 'unsafe'} "
            f"({len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_analyzed} file(s))"
        ]
        for finding in self.findings:
            lines.append(finding.render())
        counts = self.counts()
        if counts:
            lines.append(
                "per-rule: "
                + ", ".join(f"{code} x{n}" for code, n in counts.items())
            )
        if self.shared_classes:
            lines.append(
                "worker-shared surface: " + ", ".join(self.shared_classes)
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "files_analyzed": self.files_analyzed,
                "counts": self.counts(),
                "findings": [
                    {
                        "path": f.path,
                        "line": f.line,
                        "column": f.column,
                        "code": f.code,
                        "message": f.message,
                        "where": f.where,
                    }
                    for f in self.findings
                ],
                "suppressed": len(self.suppressed),
                "shared_classes": self.shared_classes,
            },
            indent=2,
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Per-function facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutationSite:
    """One ``self.<attr>`` mutation and the locks locally held there."""

    attr: str
    line: int
    column: int
    locks: frozenset[str]


@dataclass(frozen=True)
class CallSite:
    """One intra-class ``self.<method>()`` call (alias-resolved)."""

    callee: str
    line: int
    column: int
    locks: frozenset[str]


@dataclass
class FunctionFacts:
    """Everything one method/function body contributes to inference."""

    name: str
    line: int
    mutations: list[MutationSite] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    #: ``(held, acquired, line)`` local lock-order edges.
    order_edges: list[tuple[str, str, int]] = field(default_factory=list)
    #: Every lock acquisition: ``(lock, locally-held locks, line)`` —
    #: entry locksets extend these into interprocedural order edges.
    acquisitions: list[tuple[str, frozenset[str], int]] = field(
        default_factory=list
    )
    #: ``*_locked`` calls on non-self receivers (``other._f_locked()``,
    #: bare ``f_locked()``) — lock-discipline checked, not call-graph
    #: edges.
    foreign_locked_calls: list[CallSite] = field(default_factory=list)
    #: ``return self._x`` / ``yield self._x`` of a bare attribute.
    escapes: list[tuple[str, int, int]] = field(default_factory=list)
    #: ``if self._x is None: self._x = ...`` sites: (attr, line, col, locks)
    lazy_inits: list[tuple[str, int, int, frozenset[str]]] = field(
        default_factory=list
    )
    #: ``<lockish>.acquire()`` sites, pruned against finally-releases.
    bad_acquires: list[tuple[str, int, int]] = field(default_factory=list)
    #: Dotted bases ``release()``d inside a ``finally`` block anywhere
    #: in this function — their acquires follow the disciplined idiom.
    finally_released: set[str] = field(default_factory=set)


class _FunctionVisitor(ast.NodeVisitor):
    """Extract :class:`FunctionFacts` from one function body.

    ``self_name`` is the receiver parameter ('' for module-level
    functions, which then contribute plain-name call facts only).
    """

    def __init__(
        self, facts: FunctionFacts, self_name: str, entry: frozenset[str]
    ) -> None:
        self.facts = facts
        self.self_name = self_name
        self.locks: frozenset[str] = entry
        #: local alias -> self-method name (``m = self._flush``).
        self.aliases: dict[str, str] = {}

    # -- helpers ---------------------------------------------------------

    def _self_attr(self, node: ast.expr) -> str | None:
        """``attr`` when ``node`` is ``self.attr`` or ``self.__class__.attr``."""
        if not isinstance(node, ast.Attribute):
            return None
        value = node.value
        if isinstance(value, ast.Name) and value.id == self.self_name:
            return node.attr
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "__class__"
            and isinstance(value.value, ast.Name)
            and value.value.id == self.self_name
        ):
            return node.attr
        return None

    def _mutate(self, attr: str, node: ast.AST) -> None:
        self.facts.mutations.append(
            MutationSite(attr, node.lineno, node.col_offset, self.locks)
        )

    def _call(self, callee: str, node: ast.AST) -> None:
        self.facts.calls.append(
            CallSite(callee, node.lineno, node.col_offset, self.locks)
        )

    # -- lock scopes -----------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: set[str] = set()
        for item in node.items:
            acquired |= with_item_locks(item)
            self.visit(item.context_expr)
        if acquired:
            for lock in acquired:
                self.facts.acquisitions.append(
                    (lock, self.locks, node.lineno)
                )
            for held in self.locks:
                for lock in acquired:
                    if held != lock:
                        self.facts.order_edges.append(
                            (held, lock, node.lineno)
                        )
            saved = self.locks
            self.locks = saved | acquired
            for statement in node.body:
                self.visit(statement)
            self.locks = saved
        else:
            for statement in node.body:
                self.visit(statement)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- mutations -------------------------------------------------------

    def _mutated_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutated_target(element)
            return
        attr = self._self_attr(target)
        if attr is not None:
            self._mutate(attr, target)
            return
        # self.x[k] = v / del self.x[k]: mutation of self.x
        if isinstance(target, ast.Subscript):
            inner = self._self_attr(target.value)
            if inner is not None:
                self._mutate(inner, target)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mutated_target(target)
        # Alias tracking: ``m = self._drain_locked`` (or via __class__).
        if len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            attr = self._self_attr(node.value)
            if attr is not None:
                self.aliases[node.targets[0].id] = attr
            elif isinstance(node.value, ast.Name):
                source = self.aliases.get(node.value.id)
                if source is not None:
                    self.aliases[node.targets[0].id] = source
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mutated_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._mutated_target(node.target)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._mutated_target(target)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        attr = self._self_attr(node.func)
        if attr is not None:
            self._call(attr, node)
        elif isinstance(node.func, ast.Name):
            target = self.aliases.get(node.func.id)
            if target is not None:
                self._call(target, node)
            elif not self.self_name:
                # Module-level function: plain-name calls are its
                # call facts (no receiver to resolve through).
                self._call(node.func.id, node)
            elif node.func.id.endswith("_locked"):
                self.facts.foreign_locked_calls.append(
                    CallSite(
                        node.func.id,
                        node.lineno,
                        node.col_offset,
                        self.locks,
                    )
                )
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr.endswith("_locked"):
                # Non-self receiver (``server._drain_locked()``): still
                # subject to lock discipline at this call site.
                self.facts.foreign_locked_calls.append(
                    CallSite(
                        node.func.attr,
                        node.lineno,
                        node.col_offset,
                        self.locks,
                    )
                )
            # Mutator method on a self attribute: self.x.append(...)
            owner = self._self_attr(node.func.value)
            if owner is not None and node.func.attr in _MUTATORS:
                self._mutate(owner, node)
            if node.func.attr == "acquire":
                base = dotted_name(node.func.value)
                if base and is_lockish(base):
                    self.facts.bad_acquires.append(
                        (base, node.lineno, node.col_offset)
                    )
        self.generic_visit(node)

    # -- escapes ---------------------------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            attr = self._self_attr(node.value)
            if attr is not None:
                self.facts.escapes.append(
                    (attr, node.lineno, node.col_offset)
                )
            self.visit(node.value)

    def visit_Yield(self, node: ast.Yield) -> None:
        if node.value is not None:
            attr = self._self_attr(node.value)
            if attr is not None:
                self.facts.escapes.append(
                    (attr, node.lineno, node.col_offset)
                )
            self.visit(node.value)

    # -- check-then-act --------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        attr = self._lazy_guard_attr(node.test)
        if attr is not None:
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and self._self_attr(statement.targets[0]) == attr
                ):
                    self.facts.lazy_inits.append(
                        (
                            attr,
                            node.lineno,
                            node.col_offset,
                            self.locks,
                        )
                    )
                    break
        self.generic_visit(node)

    def _lazy_guard_attr(self, test: ast.expr) -> str | None:
        """``attr`` when the test is ``self.attr is None`` / ``not self.attr``."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return self._self_attr(test.left)
        if isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            return self._self_attr(test.operand)
        return None

    # -- nested scopes ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def inherits the locks held at its definition site
        # only loosely (it may run later); analyze its body with the
        # *current* lockset, the common case being immediate helpers.
        for statement in node.body:
            self.visit(statement)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Try(self, node: ast.Try) -> None:
        # ``x.acquire()`` anywhere in this function is disciplined when
        # ``x.release()`` sits in a finally block (the classic
        # acquire-before-try idiom puts the acquire *outside* the try).
        for statement in node.finalbody:
            for sub in ast.walk(statement):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                ):
                    base = dotted_name(sub.func.value)
                    if base:
                        self.facts.finally_released.add(base)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Per-class model
# ---------------------------------------------------------------------------


@dataclass
class ClassModel:
    """Everything inference needs about one class."""

    name: str
    path: str
    line: int
    methods: dict[str, FunctionFacts] = field(default_factory=dict)
    #: Locks this class ever acquires (dotted, e.g. ``self._lock``).
    lock_names: set[str] = field(default_factory=set)
    #: Attributes initialized to mutable containers in a constructor.
    container_attrs: set[str] = field(default_factory=set)
    #: Class names referenced by construction or __init__ annotation.
    referenced: set[str] = field(default_factory=set)
    #: Class-level mutable literals: (name, line, col).
    class_mutables: list[tuple[str, int, int]] = field(
        default_factory=list
    )

    @property
    def owns_locks(self) -> bool:
        return bool(self.lock_names)

    def entry_locksets(self) -> dict[str, frozenset[frozenset[str]]]:
        """Fixpoint: the locksets each method can be *entered* with.

        - ``*_locked`` methods with no internal callers fall back to
          the naming contract: assumed entered with every class lock
          held (the caller promised *a* lock; one-lock classes make
          this exact).
        - Underscore-private methods with internal callers are
          closed-world: entered only from those sites.
        - Everything else additionally admits the empty lockset
          (external, unlocked callers).
        """
        callers: dict[str, list[tuple[str, frozenset[str]]]] = {
            name: [] for name in self.methods
        }
        for name, facts in self.methods.items():
            for call in facts.calls:
                if call.callee in self.methods:
                    callers[call.callee].append((name, call.locks))

        contract = frozenset(self.lock_names) or frozenset(
            {"<caller-lock>"}
        )
        entries: dict[str, set[frozenset[str]]] = {}
        for name in self.methods:
            if name.endswith("_locked") and not callers[name]:
                entries[name] = {contract}
            elif (
                name.startswith("_")
                and not name.startswith("__")
                and callers[name]
            ):
                entries[name] = set()
            else:
                entries[name] = {frozenset()}
        # Propagate caller entry locksets through call edges to a
        # fixpoint (bounded: lockset lattice is finite and grows only).
        changed = True
        iterations = 0
        while changed and iterations < 50:
            changed = False
            iterations += 1
            for name, sites in callers.items():
                if name.endswith("_locked") and not sites:
                    continue
                for caller, site_locks in sites:
                    for caller_entry in entries.get(caller, set()):
                        candidate = caller_entry | site_locks
                        if candidate not in entries[name]:
                            entries[name].add(candidate)
                            changed = True
        # A *_locked method that picked up internal callers keeps the
        # contract only if some caller actually held a lock; internal
        # unlocked call sites are exactly what CONC204 must flag, so
        # they stay visible as empty entries.
        return {
            name: frozenset(sets) if sets else frozenset({frozenset()})
            for name, sets in entries.items()
        }


class _ModuleCollector(ast.NodeVisitor):
    """Build :class:`ClassModel`\\ s (plus module-level facts) for a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.classes: list[ClassModel] = []
        #: Module-level functions, modeled as one pseudo-class.
        self.module_functions: dict[str, FunctionFacts] = {}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        model = ClassModel(node.name, self.path, node.lineno)
        for statement in node.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._collect_method(model, statement)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        if self._is_mutable_literal(statement.value):
                            model.class_mutables.append(
                                (
                                    target.id,
                                    statement.lineno,
                                    statement.col_offset,
                                )
                            )
            elif isinstance(statement, ast.AnnAssign):
                if (
                    isinstance(statement.target, ast.Name)
                    and statement.value is not None
                    and self._is_mutable_literal(statement.value)
                ):
                    model.class_mutables.append(
                        (
                            statement.target.id,
                            statement.lineno,
                            statement.col_offset,
                        )
                    )
        self.classes.append(model)
        # Nested classes are rare here; don't descend.

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set")
        )

    def _collect_method(
        self, model: ClassModel, node: ast.FunctionDef
    ) -> None:
        self_name = node.args.args[0].arg if node.args.args else ""
        facts = FunctionFacts(node.name, node.lineno)
        visitor = _FunctionVisitor(facts, self_name, frozenset())
        for statement in node.body:
            visitor.visit(statement)
        model.methods[node.name] = facts
        # Locks: any with-scope lock rooted at self.
        for sub in ast.walk(node):
            if isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    for lock in with_item_locks(item):
                        if lock.startswith(f"{self_name}."):
                            model.lock_names.add(
                                "self." + lock.split(".", 1)[1]
                            )
        # Constructor facts: container attrs, referenced classes.
        if node.name in _CONSTRUCTORS:
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Attribute)
                    and isinstance(sub.targets[0].value, ast.Name)
                    and sub.targets[0].value.id == self_name
                ):
                    if self._is_container(sub.value):
                        model.container_attrs.add(sub.targets[0].attr)
            for argument in node.args.args + node.args.kwonlyargs:
                annotation = argument.annotation
                if annotation is not None:
                    for name in self._annotation_names(annotation):
                        model.referenced.add(name)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Name
            ):
                model.referenced.add(sub.func.id)

    @staticmethod
    def _annotation_names(annotation: ast.expr) -> list[str]:
        names = []
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(
                sub.value, str
            ):
                # String annotations: pull identifiers loosely.
                for token in sub.value.replace("|", " ").split():
                    names.append(token.strip("\"'[](),. "))
        return names

    @staticmethod
    def _is_container(value: ast.expr) -> bool:
        if isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)
        ):
            return True
        if isinstance(value, ast.Call):
            callee = value.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else ""
            )
            return name in _CONTAINER_CALLS
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        facts = FunctionFacts(node.name, node.lineno)
        visitor = _FunctionVisitor(facts, "", frozenset())
        for statement in node.body:
            visitor.visit(statement)
        self.module_functions[node.name] = facts

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Rules over the model
# ---------------------------------------------------------------------------


def _effective_locksets(
    entries: frozenset[frozenset[str]], site_locks: frozenset[str]
) -> list[frozenset[str]]:
    return [entry | site_locks for entry in entries]


def unlocked_locked_calls(
    model: ClassModel,
    entries: dict[str, frozenset[frozenset[str]]] | None = None,
) -> list[tuple[str, int, int, str]]:
    """``(callee, line, column, method)`` for every ``*_locked`` call
    reachable with an empty effective lockset.

    The shared engine behind CONC204 *and* the determinism linter's
    DET105: interprocedural entry locksets plus local ``with`` scopes,
    alias-resolved self-calls (``m = self._f_locked; m()``),
    ``self.__class__`` dispatch, and non-self receivers all included.
    Call sites inside ``*_locked`` methods are exempt — the violation,
    if any, is at the unlocked call *into* the locked subgraph.
    """
    if entries is None:
        entries = model.entry_locksets()
    results: list[tuple[str, int, int, str]] = []
    for name, facts in model.methods.items():
        if name.endswith("_locked"):
            continue
        method_entries = entries.get(name, frozenset({frozenset()}))
        for call in list(facts.calls) + list(facts.foreign_locked_calls):
            if not call.callee.endswith("_locked"):
                continue
            effective = _effective_locksets(method_entries, call.locks)
            if any(not locks for locks in effective):
                results.append(
                    (call.callee, call.line, call.column, name)
                )
    results.sort(key=lambda item: (item[1], item[2], item[0]))
    return results


def unlocked_module_locked_calls(
    functions: dict[str, FunctionFacts],
) -> list[tuple[str, int, int, str]]:
    """Module-level counterpart of :func:`unlocked_locked_calls`."""
    results: list[tuple[str, int, int, str]] = []
    for name, facts in sorted(functions.items()):
        if name.endswith("_locked"):
            continue
        for call in list(facts.calls) + list(facts.foreign_locked_calls):
            if call.callee.endswith("_locked") and not call.locks:
                results.append(
                    (call.callee, call.line, call.column, name)
                )
    results.sort(key=lambda item: (item[1], item[2], item[0]))
    return results


def _check_class(
    model: ClassModel, shared: set[str]
) -> list[ConcFinding]:
    findings: list[ConcFinding] = []
    entries = model.entry_locksets()
    tag = (
        " (worker-shared)" if model.name in shared else ""
    )

    def flag(
        code: str, message: str, line: int, column: int, method: str
    ) -> None:
        findings.append(
            ConcFinding(
                model.path,
                line,
                column,
                code,
                message + tag,
                f"{model.name}.{method}",
            )
        )

    # Gather per-attribute mutation sites with effective locksets.
    per_attr: dict[
        str, list[tuple[str, MutationSite, list[frozenset[str]]]]
    ] = {}
    for name, facts in model.methods.items():
        if name in _CONSTRUCTORS:
            continue
        method_entries = entries.get(name, frozenset({frozenset()}))
        for site in facts.mutations:
            effective = _effective_locksets(method_entries, site.locks)
            per_attr.setdefault(site.attr, []).append(
                (name, site, effective)
            )

    guarded_attrs: set[str] = set()
    for attr, sites in sorted(per_attr.items()):
        fully_guarded = [
            entry
            for entry in sites
            if all(locks for locks in entry[2])
        ]
        if fully_guarded:
            guarded_attrs.add(attr)
        if not model.owns_locks:
            continue
        # CONC201: guarded somewhere, reachable unguarded elsewhere.
        if fully_guarded:
            for name, site, effective in sites:
                if any(not locks for locks in effective):
                    flag(
                        "CONC201",
                        f"attribute self.{attr} is lock-guarded "
                        "elsewhere but mutated here with no lock "
                        "held on some path",
                        site.line,
                        site.column,
                        name,
                    )
        # CONC202: every site guarded, but no common lock.
        if fully_guarded and len(fully_guarded) == len(sites):
            common: frozenset[str] | None = None
            for _, _, effective in sites:
                for locks in effective:
                    common = (
                        locks if common is None else common & locks
                    )
            if common is not None and not common:
                name, site, _ = sites[-1]
                flag(
                    "CONC202",
                    f"attribute self.{attr} is mutated under "
                    "disjoint locksets — no single lock orders "
                    "all writers",
                    site.line,
                    site.column,
                    name,
                )

    # CONC203: lock-order cycles over this class's acquisition edges.
    edges: dict[str, set[str]] = {}
    edge_sites: dict[tuple[str, str], tuple[int, str]] = {}
    for name, facts in model.methods.items():
        method_entries = entries.get(name, frozenset({frozenset()}))
        for held, acquired, line in facts.order_edges:
            edges.setdefault(held, set()).add(acquired)
            edge_sites.setdefault((held, acquired), (line, name))
        # Locks held at *entry* also order ahead of local acquires:
        # a helper called under lock A that takes lock B is an A->B
        # edge even though no single function nests the two scopes.
        for lock, local_locks, line in facts.acquisitions:
            for entry_locks in method_entries:
                for held in entry_locks | local_locks:
                    if held != lock and not held.startswith("<"):
                        edges.setdefault(held, set()).add(lock)
                        edge_sites.setdefault(
                            (held, lock), (line, name)
                        )
    for cycle in _find_cycles(edges):
        first, second = cycle[0], cycle[1 % len(cycle)]
        line, name = edge_sites.get((first, second), (model.line, ""))
        flag(
            "CONC203",
            "lock-order cycle "
            + " -> ".join(cycle + [cycle[0]])
            + " (potential deadlock)",
            line,
            0,
            name,
        )

    # CONC204: *_locked helpers reachable with an empty lockset.
    for callee, line, column, name in unlocked_locked_calls(
        model, entries
    ):
        flag(
            "CONC204",
            f"{callee}() reachable with no lock held",
            line,
            column,
            name,
        )

    # CONC205: returning/yielding a guarded mutable container.
    for name, facts in model.methods.items():
        for attr, line, column in facts.escapes:
            if (
                attr in model.container_attrs
                and attr in guarded_attrs
            ):
                flag(
                    "CONC205",
                    f"guarded container self.{attr} escapes by "
                    "return/yield — callers get unsynchronized "
                    "access (return a copy)",
                    line,
                    column,
                    name,
                )

    # CONC206: unlocked check-then-act lazy init of a guarded attr.
    for name, facts in model.methods.items():
        if name in _CONSTRUCTORS:
            continue
        method_entries = entries.get(name, frozenset({frozenset()}))
        for attr, line, column, locks in facts.lazy_inits:
            if attr not in guarded_attrs:
                continue
            effective = _effective_locksets(method_entries, locks)
            if any(not held for held in effective):
                flag(
                    "CONC206",
                    f"check-then-act lazy init of guarded "
                    f"self.{attr} outside the lock (two threads "
                    "can both see None and both initialize)",
                    line,
                    column,
                    name,
                )

    # CONC207: class-level mutable literals.  ALL-CAPS names follow
    # the read-only-constant convention and are exempt — flagging them
    # would punish lookup tables that are never written.
    for attr, line, column in model.class_mutables:
        if attr.lstrip("_").isupper():
            continue
        flag(
            "CONC207",
            f"mutable class attribute {attr} is shared across "
            "instances and threads — move it into __init__",
            line,
            column,
            "<class>",
        )

    # CONC208: manual acquire without finally-release.
    for name, facts in model.methods.items():
        for lock, line, column in facts.bad_acquires:
            if lock in facts.finally_released:
                continue
            flag(
                "CONC208",
                f"{lock}.acquire() without release() in a finally "
                "block — an exception leaks the lock (prefer "
                "'with')",
                line,
                column,
                name,
            )
    return findings


def _check_module_functions(
    path: str, functions: dict[str, FunctionFacts]
) -> list[ConcFinding]:
    """Module-level rules: CONC204-equivalent and CONC208."""
    findings: list[ConcFinding] = []
    # Only *_locked discipline applies at module level; the
    # receiver-based rules need a class.
    for callee, line, column, name in unlocked_module_locked_calls(
        functions
    ):
        findings.append(
            ConcFinding(
                path,
                line,
                column,
                "CONC204",
                f"{callee}() reachable with no lock held",
                f"<module>.{name}",
            )
        )
    for name, facts in sorted(functions.items()):
        for lock, line, column in facts.bad_acquires:
            if lock in facts.finally_released:
                continue
            findings.append(
                ConcFinding(
                    path,
                    line,
                    column,
                    "CONC208",
                    f"{lock}.acquire() without release() in a "
                    "finally block — an exception leaks the lock "
                    "(prefer 'with')",
                    f"<module>.{name}",
                )
            )
    return findings


def _find_cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Elementary cycles in a small digraph, deterministically ordered.

    Returns each cycle once, rotated so its lexically-smallest node
    leads.  The graphs here are a handful of lock names, so a simple
    DFS enumeration is plenty.
    """
    cycles: set[tuple[str, ...]] = set()

    def walk(start: str, node: str, trail: list[str]) -> None:
        for nxt in sorted(edges.get(node, ())):
            if nxt == start and len(trail) > 1:
                smallest = min(trail)
                pivot = trail.index(smallest)
                cycles.add(tuple(trail[pivot:] + trail[:pivot]))
            elif nxt not in trail and nxt > start:
                walk(start, nxt, trail + [nxt])

    for start in sorted(edges):
        walk(start, start, [start])
    return [list(cycle) for cycle in sorted(cycles)]


# ---------------------------------------------------------------------------
# Worker-boundary closure
# ---------------------------------------------------------------------------


def shared_closure(
    classes: list[ClassModel], roots: tuple[str, ...] = SHARED_ROOTS
) -> set[str]:
    """Class names reachable from the shared roots by construction or
    constructor annotation — the worker-crossing surface."""
    by_name = {model.name: model for model in classes}
    shared = {name for name in roots if name in by_name}
    frontier = list(shared)
    while frontier:
        current = frontier.pop()
        model = by_name.get(current)
        if model is None:
            continue
        for referenced in sorted(model.referenced):
            if referenced in by_name and referenced not in shared:
                shared.add(referenced)
                frontier.append(referenced)
    return shared


# ---------------------------------------------------------------------------
# Running the analyzer
# ---------------------------------------------------------------------------


def collect_file(
    path: Path, root: Path
) -> tuple[list[ClassModel], dict[str, FunctionFacts], str]:
    relative = path.relative_to(root).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    collector = _ModuleCollector(relative)
    collector.visit(tree)
    return collector.classes, collector.module_functions, relative


def analyze_source(source: str, path: str = "<memory>") -> list[ConcFinding]:
    """Analyze one module's source text (test/fixture entry point)."""
    collector = _ModuleCollector(path)
    collector.visit(ast.parse(source))
    shared = shared_closure(collector.classes)
    findings: list[ConcFinding] = []
    for model in collector.classes:
        findings.extend(_check_class(model, shared))
    findings.extend(
        _check_module_functions(path, collector.module_functions)
    )
    return sorted(
        findings, key=lambda f: (f.path, f.line, f.column, f.code)
    )


def load_allowlist(root: Path) -> dict[str, str]:
    """``path:CODE -> justification`` from pyproject's [tool.repro.conc]."""
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.exists():
        return {}
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    entries = (
        data.get("tool", {}).get("repro", {}).get("conc", {}).get("allow", [])
    )
    allowlist: dict[str, str] = {}
    for entry in entries:
        key, _, justification = entry.partition("#")
        allowlist[key.strip()] = justification.strip()
    return allowlist


def analyze_tree(
    root: Path, subdirectory: str = "src"
) -> ConcurrencyReport:
    """Analyze every ``.py`` under ``root/subdirectory``.

    The shared-class closure is computed over the *whole* tree (so
    ``Database`` in ``db/`` marks ``UDFMemoCache`` even though
    ``TagServer`` lives in ``serve/``), then each class is checked.
    """
    allowlist = load_allowlist(root)
    all_classes: list[ClassModel] = []
    module_functions: list[tuple[str, dict[str, FunctionFacts]]] = []
    files = 0
    for path in sorted((root / subdirectory).rglob("*.py")):
        try:
            classes, functions, relative = collect_file(path, root)
        except SyntaxError:
            continue  # the determinism linter reports DET100 for these
        files += 1
        all_classes.extend(classes)
        module_functions.append((relative, functions))
    shared = shared_closure(all_classes)
    findings: list[ConcFinding] = []
    for model in all_classes:
        findings.extend(_check_class(model, shared))
    for relative, functions in module_functions:
        findings.extend(_check_module_functions(relative, functions))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    reported = [f for f in findings if f.key not in allowlist]
    suppressed = [f for f in findings if f.key in allowlist]
    by_name = {model.name: model for model in all_classes}
    # The full closure includes plenty of effectively-immutable carrier
    # dataclasses; the *interesting* shared surface is the subset that
    # owns locks or mutates instance state after construction.
    mutable_shared = [
        name
        for name in sorted(shared)
        if by_name[name].owns_locks
        or any(
            facts.mutations
            for method, facts in by_name[name].methods.items()
            if method not in _CONSTRUCTORS
        )
    ]
    return ConcurrencyReport(
        findings=reported,
        suppressed=suppressed,
        shared_classes=[
            f"{name} ({by_name[name].path})" for name in mutable_shared
        ],
        files_analyzed=files,
    )
