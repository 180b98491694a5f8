"""In-memory row storage with type enforcement and secondary hash indexes."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.db.schema import TableSchema
from repro.db.types import SQLValue, coerce
from repro.errors import SchemaError

Row = tuple[SQLValue, ...]


class Table:
    """Rows of one table, stored as tuples in insertion order.

    Writes go through :meth:`insert`, which coerces each value to the
    declared column type and enforces NOT NULL and primary-key uniqueness.
    Equality lookups on indexed columns are O(1) via hash indexes, which
    the executor uses for index scans on point predicates.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self._indexes: dict[int, dict[SQLValue, list[int]]] = {}
        self._pk_positions = [
            schema.column_index(column.name)
            for column in schema.primary_key_columns
        ]
        self._pk_seen: set[tuple[SQLValue, ...]] = set()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row given positionally or as a column->value mapping."""
        row = self._prepare_row(values)
        self._check_constraints(row)
        row_id = len(self._rows)
        self._rows.append(row)
        for position, index in self._indexes.items():
            index[row[position]].append(row_id)

    def insert_many(
        self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        """Insert rows in bulk; returns the number inserted."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def _prepare_row(self, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        columns = self.schema.columns
        if isinstance(values, Mapping):
            unknown = [
                key for key in values if not self.schema.has_column(key)
            ]
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {unknown} for table "
                    f"{self.schema.name!r}"
                )
            ordered = [values.get(column.name) for column in columns]
        else:
            if len(values) != len(columns):
                raise SchemaError(
                    f"table {self.schema.name!r} expects {len(columns)} "
                    f"values, got {len(values)}"
                )
            ordered = list(values)
        return tuple(
            coerce(value, column.dtype)
            for value, column in zip(ordered, columns)
        )

    def _check_constraints(self, row: Row) -> None:
        for position, column in enumerate(self.schema.columns):
            if row[position] is None and not column.nullable:
                raise SchemaError(
                    f"NULL in NOT NULL column {column.name!r} of "
                    f"{self.schema.name!r}"
                )
        if self._pk_positions:
            key = tuple(row[position] for position in self._pk_positions)
            if key in self._pk_seen:
                raise SchemaError(
                    f"duplicate primary key {key!r} in {self.schema.name!r}"
                )
            self._pk_seen.add(key)

    def replace_all(self, rows: Iterable[Sequence[Any]]) -> int:
        """Replace the table's contents wholesale (UPDATE/DELETE use
        this after computing the surviving/modified row set); constraint
        checks and indexes are rebuilt from scratch.  Returns the new
        row count."""
        prepared = [self._prepare_row(row) for row in rows]
        self._rows = []
        self._pk_seen = set()
        indexed_positions = list(self._indexes)
        self._indexes = {}
        for row in prepared:
            self._check_constraints(row)
            self._rows.append(row)
        for position in indexed_positions:
            self.create_index(self.schema.columns[position].name)
        return len(self._rows)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def rows(self) -> list[Row]:
        """All rows, in insertion order (a direct view; do not mutate)."""
        return self._rows

    def column_values(self, name: str) -> list[SQLValue]:
        position = self.schema.column_index(name)
        return [row[position] for row in self._rows]

    def distinct_count(self, name: str) -> int:
        """Number of distinct values in a column (catalog statistic).

        The static analyzer uses this to bound batched LM-UDF cost: a
        deduplicating execution path invokes the UDF at most once per
        distinct argument value, not once per row.
        """
        position = self.schema.column_index(name)
        return len({row[position] for row in self._rows})

    def null_count(self, name: str) -> int:
        """Number of NULLs in a column (catalog statistic).

        The cost model's selectivity estimator uses the null fraction
        for ``IS NULL`` / ``IS NOT NULL`` predicates instead of a
        magic default.
        """
        position = self.schema.column_index(name)
        return sum(1 for row in self._rows if row[position] is None)

    def to_dicts(self) -> list[dict[str, SQLValue]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self._rows]

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def create_index(self, column_name: str) -> None:
        """Build (or rebuild) a hash index on ``column_name``."""
        position = self.schema.column_index(column_name)
        index: dict[SQLValue, list[int]] = defaultdict(list)
        for row_id, row in enumerate(self._rows):
            index[row[position]].append(row_id)
        self._indexes[position] = index

    def has_index(self, column_name: str) -> bool:
        return self.schema.column_index(column_name) in self._indexes

    def lookup(self, column_name: str, value: Any) -> list[Row]:
        """Equality lookup; uses the index when present, else scans."""
        position = self.schema.column_index(column_name)
        coerced = coerce(value, self.schema.columns[position].dtype)
        index = self._indexes.get(position)
        if index is not None:
            return [self._rows[row_id] for row_id in index.get(coerced, [])]
        return [row for row in self._rows if row[position] == coerced]

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, {len(self._rows)} rows)"
