"""Query-execution (exec) step implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.base import Dataset
from repro.db import Database
from repro.embed import serialize_row
from repro.obs import trace
from repro.obs.explain import emit_operator_spans
from repro.vector.flat import FlatIndex


class SQLExecutor:
    """exec over the relational engine: SQL text -> list of records."""

    def __init__(
        self,
        db: Database,
        max_rows: int | None = None,
        analyze: bool = False,
        udf_batch_size: "int | str | None" = "auto",
        optimize: bool = True,
    ) -> None:
        self.db = db
        self.max_rows = max_rows
        self.analyze = analyze
        #: Batching mode for LM UDFs in exec SQL: ``"auto"`` (default)
        #: lets the cost-based optimizer choose, ``None`` pins per-row,
        #: an int pins that morsel size (see ``Database.execute``);
        #: results are identical, only the LM call pattern changes.
        self.udf_batch_size = udf_batch_size
        #: ``optimize=False`` disables the optimizer end to end (the
        #: ablation / escape hatch); ``"auto"`` then degrades to
        #: per-row execution.
        self.optimize = optimize

    def execute(self, query: str) -> list[dict[str, Any]]:
        # max_rows is enforced by the engine so truncation is metered
        # (Usage.rows_truncated / repro_exec_rows_truncated_total) and
        # noted in EXPLAIN ANALYZE output instead of silently dropping
        # rows here.
        if trace.active():
            # Under an active trace, run through the EXPLAIN ANALYZE
            # instrumentation and mirror the plan as operator spans;
            # row counts and virtual costs are pure functions of the
            # query and data, so the trace stays deterministic.
            analyzed = self.db.explain_analyze(
                query,
                optimize=self.optimize,
                analyze=self.analyze,
                udf_batch_size=self.udf_batch_size,
                max_rows=self.max_rows,
            )
            emit_operator_spans(analyzed.stats, analyzed.cost)
            result = analyzed.result
        else:
            result = self.db.execute(
                query,
                optimize=self.optimize,
                analyze=self.analyze,
                udf_batch_size=self.udf_batch_size,
                max_rows=self.max_rows,
            )
        return [
            dict(zip(result.columns, row)) for row in result.rows
        ]


def row_records(dataset: Dataset) -> list[dict[str, Any]]:
    """Every row of every table of ``dataset`` as a record, table by
    table: the row corpus the RAG baselines serialize "- col: val"."""
    records: list[dict[str, Any]] = []
    for table_name in dataset.db.table_names:
        table = dataset.db.table(table_name)
        names = table.schema.column_names
        records.extend(dict(zip(names, row)) for row in table.rows)
    return records


@dataclass(frozen=True)
class RowCorpus:
    """A dataset's row records and the index of their embeddings."""

    records: list[dict[str, Any]]
    index: FlatIndex


def row_corpus(dataset: Dataset, embedder) -> RowCorpus:
    """The dataset's embedded row corpus, built once per embedder
    configuration and shared by every retriever over the dataset.

    Embedders of one type with equal ``dimensions`` and
    ``use_trigrams`` embed every text identically, so they share it.
    """

    def build() -> RowCorpus:
        records = row_records(dataset)
        index = FlatIndex(embedder.dimensions)
        index.add(
            embedder.embed_batch([serialize_row(r) for r in records])
        )
        return RowCorpus(records, index)

    key = (
        "row_corpus",
        type(embedder),
        embedder.dimensions,
        embedder.use_trigrams,
    )
    return dataset.derived(key, build)


class VectorSearchExecutor:
    """exec over a vector store: query embedding -> top-k row records.

    Searches the dataset's shared row corpus (:func:`row_corpus`; each
    row serialized "- col: val", as in the paper's RAG baseline),
    building it on first use.
    """

    def __init__(self, dataset: Dataset, embedder, k: int = 10) -> None:
        self.dataset = dataset
        self.embedder = embedder
        self.k = k

    @property
    def corpus_size(self) -> int:
        return len(row_corpus(self.dataset, self.embedder).records)

    def execute(self, query: np.ndarray) -> list[dict[str, Any]]:
        corpus = row_corpus(self.dataset, self.embedder)
        indices, _scores = corpus.index.search(query, self.k)
        return [corpus.records[int(index)] for index in indices]
