"""``tagbench``: the paper's 80 queries x 5 methods, one sequential client.

Set-up loads the five domains and prepares every method (RAG and
Retrieval + LM Rank embed and index every row).  One op is one
``Method.answer`` call; a pass is the whole method x query grid in the
order ``repro.bench.run_benchmark`` uses, so the first pass reproduces
``python -m repro bench`` Tables 1-2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import repro.data
from repro.bench.evaluate import exact_match
from repro.bench.report import format_table1, format_table2
from repro.bench.runner import BenchmarkReport, QueryRecord
from repro.bench.suite import build_suite
from repro.lm import LMConfig, SimulatedLM
from repro.methods import default_methods

from tagperf.harness import CheckReport, Op, Phase, Unit


@dataclass
class State:
    queries: list
    datasets: dict
    methods: list


class TagBench:
    name = "tagbench"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tracer = None

    def describe(self) -> dict[str, Any]:
        queries = 8 if self.tiny else 80
        return {
            "loop": "closed, 1 client",
            "threads": 1,
            "ops_per_pass": f"{queries} queries x 5 methods = {queries * 5}",
            "seeded": "datasets load_all(seed) and LMConfig(seed=seed)",
        }

    def inputs(self) -> list:
        queries = build_suite()
        return queries[::10] if self.tiny else queries

    def setup(self, queries: list) -> State:
        domains = {spec.domain for spec in queries}
        datasets = {
            name: dataset
            for name, dataset in repro.data.load_all(seed=self.seed).items()
            if name in domains
        }
        config = LMConfig(seed=self.seed)
        methods = default_methods(lambda: SimulatedLM(config))
        for method in methods:
            for dataset in datasets.values():
                method.prepare(dataset)
        return State(queries=queries, datasets=datasets, methods=methods)

    def units(self, state: State, pass_index: int) -> list[Callable[[], Unit]]:
        # ET is a difference of the LM's running usage sums; restarting
        # them makes every pass add the same floats as the first.
        for method in state.methods:
            method.lm.reset_usage()
        return [
            _answer(method, spec, state.datasets[spec.domain])
            for method in state.methods
            for spec in state.queries
        ]

    def report(self, state: State, first_pass: list[Unit]) -> BenchmarkReport:
        """The first pass as the report ``run_benchmark`` would build."""
        gold: dict[str, Any] = {}
        records = []
        for unit in first_pass:
            op = unit.ops[0]
            method, spec = op.ref
            result = op.key
            dataset = state.datasets[spec.domain]
            if spec.qid not in gold:
                gold[spec.qid] = (
                    spec.gold(dataset) if spec.gold is not None else None
                )
            correct = None
            if gold[spec.qid] is not None:
                correct = result.ok and exact_match(
                    result.answer,
                    gold[spec.qid],
                    ordered=spec.query_type == "ranking",
                )
            records.append(
                QueryRecord(
                    qid=spec.qid,
                    domain=spec.domain,
                    query_type=spec.query_type,
                    capability=spec.capability,
                    method=method,
                    answer=result.answer,
                    gold=gold[spec.qid],
                    correct=correct,
                    et_seconds=result.et_seconds,
                    error=result.error,
                    diagnostics=result.diagnostics,
                )
            )
        return BenchmarkReport(
            records=records,
            methods=[method.name for method in state.methods],
            seed=self.seed,
        )

    def check(self, state: State, phase: Phase) -> CheckReport:
        checks = CheckReport()
        first = phase.passes[0]
        expected = {
            (method.name, spec.qid)
            for method in state.methods
            for spec in state.queries
        }
        seen = {(op.ref[0], op.ref[1].qid) for unit in first for op in unit.ops}
        checks.expect(
            seen == expected and len(first) == len(expected),
            f"first pass has {len(seen)} distinct (method, query) records, "
            f"expected {len(expected)}",
        )
        for number, later in enumerate(phase.passes[1:], start=2):
            for unit, twin in zip(later, first):
                if _outcome(unit.ops[0].key) != _outcome(twin.ops[0].key):
                    checks.failures.append(
                        f"pass {number}: {twin.ops[0].ref[0]} on "
                        f"{twin.ops[0].ref[1].qid} differs from pass 1"
                    )
                    break
        report = self.report(state, first)
        scoreable = [r for r in report.records if r.correct is not None]
        checks.exact_match = (
            sum(r.correct for r in scoreable) / len(scoreable)
            if scoreable else 0.0
        )
        checks.notes.append(
            f"scored {len(scoreable)} answers against the oracle gold"
        )
        self.tables = format_table1(report) + "\n\n" + format_table2(report)
        return checks


def _outcome(result) -> tuple:
    return (repr(result.answer), result.et_seconds, result.error)


def _answer(method, spec, dataset) -> Callable[[], Unit]:
    def run() -> Unit:
        result = method.answer(spec, dataset)
        diagnostics = result.diagnostics
        return Unit(
            ops=[
                Op(
                    key=result,
                    failed=result.error is not None,
                    vsec=result.et_seconds,
                    ref=(method.name, spec),
                )
            ],
            vsec_total=result.et_seconds,
            tokens=diagnostics["prompt_tokens"] + diagnostics["output_tokens"],
        )

    return run
