"""``serve-zipf``: one TagServer (2 workers) serving waves of a seeded stream.

The server carries a persistent ``SemanticResultCache`` (default
capacity 256, which holds the 80-question working set) and a
``QueryRegistry`` feeding few-shot examples to ``LMQuerySynthesizer``.
A benchmark-owned router sends each request to its domain's pipeline:
``LMQuerySynthesizer`` -> ``SQLExecutor(analyze=True)`` ->
``SingleCallGenerator``.  One unit is one wave (one ``serve()`` call);
a pass serves the whole stream wave after wave on a freshly built
server, so every pass sees a cold cache and registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import repro.data
from repro.bench.evaluate import exact_match
from repro.bench.suite import build_suite
from repro.core import (
    LMQuerySynthesizer,
    SingleCallGenerator,
    SQLExecutor,
    TAGPipeline,
)
from repro.lm import LMConfig, SimulatedLM
from repro.serve import QueryRegistry, SemanticResultCache, TagServer
from repro.serve.semantic import canonicalize

from tagperf.harness import CheckReport, Op, Phase, Unit
from tagperf.inputs import EDITED_SHARE, ZIPF_S, Request, serve_stream

WORKERS = 2
#: Seed of the generated domains and of the simulated LM.  ``--seed``
#: draws the request stream only: about 8 of the 60 scoreable questions
#: are answered right by this pipeline, so re-drawing the data and the
#: model's beliefs per seed would move ``exact_match`` by far more than
#: any bound (``tagbench`` varies them instead).
WORLD_SEED = 0


class DomainRouter:
    """Routes each request to its domain's TAG pipeline."""

    def __init__(self, lm, datasets, domain_of, registry, tracer) -> None:
        self._pipelines = {
            name: TAGPipeline(
                LMQuerySynthesizer(lm, dataset, registry=registry),
                SQLExecutor(dataset.db, analyze=True),
                SingleCallGenerator(lm),
            )
            for name, dataset in datasets.items()
        }
        self._domain_of = domain_of
        self._tracer = tracer

    def run(self, request: str):
        if self._tracer is not None:
            self._tracer.set_request(request)
        return self._pipelines[self._domain_of[request]].run(request)


@dataclass
class State:
    queries: list
    datasets: dict
    stream: list[Request]
    domain_of: dict[str, str]
    lm: SimulatedLM
    server: TagServer


class ServeZipf:
    name = "serve-zipf"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tracer = None
        self.wave_count = 2 if tiny else 8
        self.wave = 16 if tiny else 20

    def describe(self) -> dict[str, Any]:
        questions = 16 if self.tiny else 80
        length = self.wave_count * self.wave
        return {
            "loop": "closed, 1 client submitting waves",
            "threads": f"{WORKERS} server workers + the client thread",
            "stream": f"{length} requests in {self.wave_count} waves of {self.wave}",
            "distinct_questions": questions,
            "repeat_share": round(1 - questions / length, 3),
            "edited_share_of_repeats": EDITED_SHARE,
            "zipf_s": ZIPF_S,
            "seeded": f"request stream; domains and LM at seed {WORLD_SEED}",
            "semantic_cache": (
                f"capacity 256 vs {questions} distinct questions (fits)"
            ),
        }

    def inputs(self) -> tuple[list, list[Request], dict[str, str]]:
        """The queries, the request stream and each request's domain."""
        queries = build_suite()
        if self.tiny:
            queries = queries[::5]
        stream = serve_stream(
            [spec.question for spec in queries],
            [spec.domain for spec in queries],
            self.seed,
            self.wave_count,
            self.wave,
        )
        domain_of = {
            request.text: queries[request.question].domain
            for request in stream
        }
        return queries, stream, domain_of

    def setup(self, inputs: tuple[list, list[Request], dict[str, str]]) -> State:
        queries, stream, domain_of = inputs
        datasets = repro.data.load_all(seed=WORLD_SEED)
        lm = SimulatedLM(LMConfig(seed=WORLD_SEED))
        state = State(
            queries=queries,
            datasets=datasets,
            stream=stream,
            domain_of=domain_of,
            lm=lm,
            server=None,  # type: ignore[arg-type]
        )
        state.server = self.server(state, WORKERS)
        return state

    def server(self, state: State, workers: int) -> TagServer:
        registry = QueryRegistry()
        return TagServer(
            lambda lm: DomainRouter(
                lm, state.datasets, state.domain_of, registry, self.tracer
            ),
            lm=state.lm,
            workers=workers,
            semantic_cache=SemanticResultCache(),
            registry=registry,
        )

    def waves(self, state: State) -> list[list[Request]]:
        return [
            state.stream[start : start + self.wave]
            for start in range(0, len(state.stream), self.wave)
        ]

    def units(self, state: State, pass_index: int) -> list[Callable[[], Unit]]:
        if pass_index > 0:
            state.server = self.server(state, WORKERS)
        server = state.server
        return [_wave(server, wave) for wave in self.waves(state)]

    def replay(self, state: State, workers: int) -> list[Op]:
        server = self.server(state, workers)
        return [
            op
            for wave in self.waves(state)
            for op in _wave(server, wave)().ops
        ]

    def check(self, state: State, phase: Phase) -> CheckReport:
        checks = CheckReport()
        first = [op for unit in phase.passes[0] for op in unit.ops]
        for number, later in enumerate(phase.passes[1:], start=2):
            ops = [op for unit in later for op in unit.ops]
            if any(op.key != twin.key for op, twin in zip(ops, first)):
                checks.failures.append(f"pass {number} differs from pass 1")
        again = self.replay(state, WORKERS)
        checks.expect(
            [op.key for op in again] == [op.key for op in first],
            "a second 2-worker replay changed answers, per-request "
            "virtual latencies or cache outcomes",
        )
        single = self.replay(state, 1)
        checks.expect(
            [(op.key[0], op.key[2]) for op in single]
            == [(op.key[0], op.key[2]) for op in first],
            "a 1-worker replay changed answers or cache outcomes",
        )
        # Each exact or coalesced hit returns the answer its canonical
        # twin got when it was dispatched.
        dispatched: dict[str, str] = {}
        for op in first:
            if op.key[2] is None:
                dispatched.setdefault(canonicalize(op.ref[1]).text, op.key[0])
        twins = 0
        for op in first:
            if op.key[2] in ("exact", "coalesced"):
                twin = dispatched.get(canonicalize(op.ref[1]).text)
                checks.expect(
                    twin == op.key[0],
                    f"{op.key[2]} hit for {op.ref[1]!r} does not return "
                    "its dispatched twin's answer",
                )
                twins += 1
        outcomes: dict[str, int] = {}
        for op in first:
            label = op.key[2] or "dispatched"
            outcomes[label] = outcomes.get(label, 0) + 1
        checks.notes.append(
            "pass 1 outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
            + f"; {twins} hits matched their dispatched twin"
        )
        # Every request is scored against its question's gold (an edited
        # request against the question it edits); each question then
        # counts once, so the seed's popularity draw does not weight it.
        gold: dict[int, Any] = {}
        scores: dict[int, list[bool]] = {}
        for op in first:
            spec = state.queries[op.ref[0]]
            if spec.gold is None:
                continue
            if op.ref[0] not in gold:
                gold[op.ref[0]] = spec.gold(state.datasets[spec.domain])
            scores.setdefault(op.ref[0], []).append(
                not op.failed
                and exact_match(
                    op.ref[2],
                    gold[op.ref[0]],
                    ordered=spec.query_type == "ranking",
                )
            )
        checks.exact_match = (
            sum(sum(hits) / len(hits) for hits in scores.values()) / len(scores)
            if scores else 0.0
        )
        checks.notes.append(
            f"scored {sum(map(len, scores.values()))} requests over "
            f"{len(scores)} questions against the oracle gold"
        )
        return checks


def _wave(server: TagServer, wave: list[Request]) -> Callable[[], Unit]:
    texts = [request.text for request in wave]

    def run() -> Unit:
        report = server.serve(texts)
        ops = [
            Op(
                key=(repr(served.result.answer), served.et_seconds, served.semantic),
                failed=not served.ok,
                vsec=served.et_seconds,
                ref=(request.question, request.text, served.result.answer),
            )
            for request, served in zip(wave, report.results)
        ]
        return Unit(
            ops=ops,
            vsec_total=report.simulated_seconds,
            tokens=report.usage.prompt_tokens + report.usage.output_tokens,
        )

    return run
