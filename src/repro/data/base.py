"""Dataset container and loader registry."""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import TypeVar

from repro.db import Database
from repro.errors import BenchmarkError
from repro.frame import DataFrame

T = TypeVar("T")


@dataclass
class Dataset:
    """One benchmark domain: a relational DB plus dataframe views.

    The hand-written TAG pipelines (like the paper's Appendix C, which
    reads the BIRD tables as pandas CSVs) work on :attr:`frames`; every
    SQL-based method works on :attr:`db`.  Both views hold identical
    data by construction.
    """

    name: str
    db: Database
    description: str
    frames: dict[str, DataFrame] = field(default_factory=dict)
    _derived: dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _derived_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, run once per ``key`` for the life of this dataset.

        Holds artifacts computed from the data, such as the embedded
        row corpus the RAG baselines share.  They reflect the data as
        it was when first built.
        """
        with self._derived_lock:
            if key not in self._derived:
                self._derived[key] = build()
            return self._derived[key]  # type: ignore[return-value]

    def frame(self, table: str) -> DataFrame:
        try:
            return self.frames[table]
        except KeyError as exc:
            raise BenchmarkError(
                f"domain {self.name!r} has no table {table!r}"
            ) from exc

    def schema_sql(self) -> str:
        return self.db.schema_sql()

    def prompt_schema(self, sample_rows: int = 6) -> str:
        """Schema encoding for the Text2SQL prompt, BIRD style.

        CREATE TABLE statements followed by commented column notes and
        a few sample rows per table — the enriched encoding BIRD-format
        prompts carry, which is also what makes real query-synthesis
        prompts thousands of tokens long.
        """
        blocks: list[str] = []
        for table_name in self.db.table_names:
            table = self.db.table(table_name)
            lines = [table.schema.to_create_sql()]
            for position, column in enumerate(table.schema.columns):
                described = _describe_identifier(column.name)
                examples: list[str] = []
                for row in table.rows:
                    value = str(row[position])
                    if value not in examples:
                        examples.append(value)
                    if len(examples) == 3:
                        break
                rendered_examples = ", ".join(examples)
                lines.append(
                    f"-- {table_name}.{column.name} "
                    f"({column.dtype.value}): {described}; value examples: "
                    f"{rendered_examples}"
                )
            names = " | ".join(table.schema.column_names)
            lines.append(f"-- Sample rows ({table_name}): {names}")
            for row in table.rows[:sample_rows]:
                rendered = " | ".join(str(value) for value in row)
                lines.append(f"--   {rendered}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


def _describe_identifier(name: str) -> str:
    """Readable phrase for a column name (GSoffered -> 'g s offered')."""
    import re

    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    spaced = spaced.replace("_", " ")
    return spaced.lower()


def frames_from_db(db: Database) -> dict[str, DataFrame]:
    """Materialise every table of ``db`` as a DataFrame view."""
    return {
        name: DataFrame.from_rows(
            db.table(name).schema.column_names, db.table(name).rows
        )
        for name in db.table_names
    }


def load_domain(name: str, seed: int = 0) -> Dataset:
    """Build one domain by name (see :data:`repro.data.DOMAINS`)."""
    from repro.data import (
        california_schools,
        codebase_community,
        debit_card_specializing,
        european_football_2,
        formula_1,
    )

    builders = {
        "california_schools": california_schools.build,
        "codebase_community": codebase_community.build,
        "formula_1": formula_1.build,
        "european_football_2": european_football_2.build,
        "debit_card_specializing": debit_card_specializing.build,
    }
    try:
        builder = builders[name]
    except KeyError as exc:
        raise BenchmarkError(f"unknown domain {name!r}") from exc
    return builder(seed=seed)


def load_all(seed: int = 0) -> dict[str, Dataset]:
    """Build every benchmark domain keyed by name."""
    from repro.data import DOMAINS

    return {name: load_domain(name, seed=seed) for name in DOMAINS}
