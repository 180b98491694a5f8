"""A from-scratch relational engine with SQL front-end and LM UDF support.

This package is the reproduction's substitute for SQLite3, which the paper
uses as the database API for its SQL-based baselines.  It provides:

- typed columnar-schema tables with optional secondary indexes
  (:mod:`repro.db.table`),
- a SQL lexer/parser producing an AST (:mod:`repro.db.sql`),
- a planner with a small optimizer (:mod:`repro.db.planner`),
- a Volcano-style iterator executor (:mod:`repro.db.executor`),
- scalar and aggregate builtins plus a UDF registry that can host
  language-model UDFs inside SQL (:mod:`repro.db.functions`), the design
  point Figure 1 of the paper illustrates.

The public entry point is :class:`repro.db.Database`::

    db = Database()
    db.create_table(schema)
    result = db.execute("SELECT name FROM movies WHERE revenue > 100")
    rows = result.rows
"""

from repro.db.catalog import Database
from repro.db.result import ResultSet
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.table import Table
from repro.db.types import DataType
from repro.db.udfcache import UDFMemoCache

__all__ = [
    "Column",
    "DataType",
    "Database",
    "ForeignKey",
    "ResultSet",
    "Table",
    "TableSchema",
    "UDFMemoCache",
]
