"""``sql-mix``: one client sending a seeded statement stream to ``Database.execute``.

Optimizer defaults throughout (``udf_batch_size="auto"``, no
partitioning).  The stream mixes relational SELECTs (joins, GROUP
BY/HAVING, ORDER BY/LIMIT over ``formula_1.results`` and
``transactions_1k``), LM-UDF SELECTs through ``register_llm_judge``, and
about 5% writes, each undone later in the same pass.  One op is one
statement; a pass is the whole stream.  The checks replay the first
pass on freshly generated databases through the per-row oracle
(``optimize=False, udf_batch_size=None``) with a separate LM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import repro.data
from repro.errors import ReproError
from repro.lm import LMConfig, SimulatedLM
from repro.lm.udf import register_llm_judge

from tagperf.harness import CheckReport, Op, Phase, Unit
from tagperf.inputs import (
    UDF_MEMO_CAPACITY,
    UDF_SHARE,
    SQLStream,
    Statement,
    sql_stream,
    udf_working_set,
)


@dataclass
class State:
    datasets: dict
    lm: SimulatedLM
    stream: SQLStream


def _databases(seed: int) -> tuple[dict, SimulatedLM]:
    datasets = repro.data.load_all(seed=seed)
    lm = SimulatedLM(LMConfig(seed=seed))
    for dataset in datasets.values():
        register_llm_judge(dataset.db, lm)
    return datasets, lm


def _execute(db, statement: Statement, lm: SimulatedLM, **options) -> Op:
    usage = lm.usage
    vsec = usage.simulated_seconds
    try:
        result = db.execute(statement.sql, **options)
    except ReproError as exc:
        return Op(key=type(exc).__name__, failed=True, ref=statement)
    return Op(
        key=(tuple(result.columns), result.rows),
        vsec=usage.simulated_seconds - vsec,
        ref=statement,
    )


class SQLMix:
    name = "sql-mix"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tracer = None
        self.length = 40 if tiny else 300
        self.write_pairs = 1 if tiny else 7

    def describe(self) -> dict[str, Any]:
        udf = round(self.length * UDF_SHARE)
        writes = 2 * self.write_pairs
        return {
            "loop": "closed, 1 client",
            "threads": 1,
            "statements_per_pass": self.length,
            "mix": (
                f"{self.length - udf - writes} relational / {udf} LM-UDF / "
                f"{writes} writes"
            ),
            "udf_memo": f"capacity {UDF_MEMO_CAPACITY}",
        }

    def inputs(self) -> SQLStream:
        # The stream's ids come from the seed's generated domains; the
        # timed set-up generates its own copy.
        return sql_stream(
            repro.data.load_all(seed=self.seed),
            self.seed,
            self.length,
            write_pairs=self.write_pairs,
        )

    def setup(self, stream: SQLStream) -> State:
        datasets, lm = _databases(self.seed)
        return State(datasets=datasets, lm=lm, stream=stream)

    def units(self, state: State, pass_index: int) -> list[Callable[[], Unit]]:
        return [
            _statement(state, statement) for statement in state.stream.statements
        ]

    def check(self, state: State, phase: Phase) -> CheckReport:
        checks = CheckReport()
        first = [unit.ops[0] for unit in phase.passes[0]]
        for number, later in enumerate(phase.passes[1:], start=2):
            for unit, twin in zip(later, first):
                if unit.ops[0].key != twin.key:
                    checks.failures.append(
                        f"pass {number} differs from pass 1 on "
                        f"{twin.ref.sql!r}"
                    )
                    break
        sizes = {
            "results": len(state.datasets["formula_1"].db.table("results").rows),
            "transactions_1k": len(
                state.datasets["debit_card_specializing"]
                .db.table("transactions_1k")
                .rows
            ),
        }
        for table, (low, high) in state.stream.write_band.items():
            checks.expect(
                low <= sizes[table] <= high,
                f"{table} holds {sizes[table]} rows, outside {low}..{high}",
            )
        oracle_datasets, oracle_lm = _databases(self.seed)
        matches = 0
        for op in first:
            statement = op.ref
            replayed = _execute(
                oracle_datasets[statement.domain].db,
                statement,
                oracle_lm,
                optimize=False,
                udf_batch_size=None,
            )
            if replayed.key == op.key:
                matches += 1
            else:
                checks.failures.append(
                    f"per-row oracle disagrees on {statement.sql!r}"
                )
        checks.exact_match = matches / len(first)
        kinds: dict[str, int] = {}
        for op in first:
            kinds[op.ref.kind] = kinds.get(op.ref.kind, 0) + 1
        checks.notes.append(
            "pass 1 statements: "
            + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            + "; UDF working set "
            + f"{udf_working_set(oracle_datasets, state.stream)} distinct "
            f"(task, value) pairs vs memo capacity {UDF_MEMO_CAPACITY}; "
            f"write band {state.stream.write_band}; "
            f"{matches}/{len(first)} match the per-row oracle"
        )
        return checks


def _statement(state: State, statement: Statement) -> Callable[[], Unit]:
    db = state.datasets[statement.domain].db
    lm = state.lm

    def run() -> Unit:
        usage = lm.usage
        tokens = usage.prompt_tokens + usage.output_tokens
        op = _execute(db, statement, lm)
        return Unit(
            ops=[op],
            vsec_total=op.vsec,
            tokens=usage.prompt_tokens + usage.output_tokens - tokens,
        )

    return run
