"""Orchestration of one run: set-up, timed phase, checks, metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tagperf.harness import (
    deterministic_metrics,
    end_to_end,
    peak_rss_mb,
    timed_phase,
    timed_setups,
)

#: Set-up samples per untraced run, half before the timed phase and
#: half after it; ``setup_s`` is their median.
SETUP_SAMPLES = {"tagbench": 3, "serve-zipf": 15, "sql-mix": 15}
#: Shortest time one set-up sample measures (a ``tagbench`` set-up
#: takes longer on its own; the others repeat about four times).
SETUP_SAMPLE_S = 0.4


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit): the metrics the JSON line reports.
    metrics: dict[str, tuple[float, str]]
    #: Metrics both runs must agree on exactly (deterministic ones).
    fixed: dict[str, Any] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def make_workload(name: str, seed: int, tiny: bool):
    if name == "tagbench":
        from tagperf.tagbench import TagBench

        return TagBench(seed, tiny)
    if name == "serve-zipf":
        from tagperf.serve_zipf import ServeZipf

        return ServeZipf(seed, tiny)
    if name == "sql-mix":
        from tagperf.sql_mix import SQLMix

        return SQLMix(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


def _fixed(phase, checks) -> dict[str, Any]:
    fixed = deterministic_metrics(phase)
    fixed["exact_match"] = checks.exact_match
    return fixed


def _first_keys(phase) -> list[Any]:
    return [op.key for unit in phase.passes[0] for op in unit.ops]


def _describe(workload, seed: int) -> list[str]:
    lines = [f"workload {workload.name} seed {seed}"]
    lines += [f"  {key}: {value}" for key, value in workload.describe().items()]
    return lines


def _check_lines(checks) -> list[str]:
    lines = [f"check: {note}" for note in checks.notes]
    lines += [f"CHECK FAILED: {failure}" for failure in checks.failures[:20]]
    if len(checks.failures) > 20:
        lines.append(f"CHECK FAILED: ... {len(checks.failures) - 20} more")
    return lines


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    tiny: bool = False,
    out_dir: Path | None = None,
) -> Outcome:
    workload = make_workload(name, seed, tiny)
    inputs = workload.inputs()
    if trace:
        return _traced(workload, inputs, seed, seconds, out_dir)
    samples = 1 if tiny else SETUP_SAMPLES[name]
    floor = 0.0 if tiny else SETUP_SAMPLE_S
    before = (samples + 1) // 2
    state, setup_times = timed_setups(workload, inputs, before, floor)
    phase = timed_phase(workload, state, seconds)
    # Read before the later set-ups and the checks, which hold copies
    # of their own.
    peak_mb = peak_rss_mb()
    # The other set-ups follow the timed phase, so their median samples
    # the machine's speed over the whole run, not only its first seconds.
    setup_times += timed_setups(workload, inputs, samples - before, floor)[1]
    checks = workload.check(state, phase)
    metrics, side = end_to_end(phase, setup_times, checks, peak_mb)
    lines = _describe(workload, seed) + _check_lines(checks)
    lines.append(
        "samples: "
        + ", ".join(f"{key}={value}" for key, value in side.items())
    )
    lines += [
        f"metric {metric} {value:.6g} {unit}"
        for metric, (value, unit) in metrics.items()
    ]
    # error_rate is reported above and carried by attempted/failed; the
    # JSON metrics are exactly the BENCHMARK.json end-to-end list.
    reported = {k: v for k, v in metrics.items() if k != "error_rate"}
    return Outcome(
        correct=checks.ok,
        attempted=side["attempted"],
        failed=side["failed"],
        metrics=reported,
        fixed=_fixed(phase, checks),
        lines=lines,
    )


def _traced(
    workload, inputs, seed: int, seconds: float, out_dir: Path | None
) -> Outcome:
    from tagperf.tracing import Tracer, covered_share, layer_metrics

    state, _ = timed_setups(workload, inputs, 1)
    plain = timed_phase(workload, state, seconds / 2)
    plain_rate = (plain.attempted - plain.failed) / plain.elapsed_s
    state = None

    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        setup_start = tracer.mark()
        state, _ = timed_setups(workload, inputs, 1)
        setup_end = tracer.mark()
        traced = timed_phase(workload, state, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    traced_rate = (traced.attempted - traced.failed) / traced.elapsed_s
    checks = workload.check(state, traced)

    first_start, first_end = traced.first_pass_window
    window = (
        tracer.spans[setup_start:setup_end] + tracer.spans[first_start:first_end]
    )
    metrics = layer_metrics(window)
    metrics["trace.covered_share"] = (
        covered_share(tracer.spans[first_start:first_end]),
        "share",
    )
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "share")

    # Equal first-pass outcomes imply an equal exact_match, so the
    # untraced phase needs no second round of checks.
    fixed_plain = deterministic_metrics(plain)
    fixed_traced = _fixed(traced, checks)
    if fixed_plain != deterministic_metrics(traced) or _first_keys(
        plain
    ) != _first_keys(traced):
        checks.failures.append(
            "the traced run's first pass differs from the untraced one's: "
            f"{fixed_plain} vs {fixed_traced}"
        )

    lines = _describe(workload, seed) + _check_lines(checks)
    if out_dir is not None:
        path = out_dir / f"trace-{workload.name}-seed{seed}.jsonl.gz"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.spans)} written to {path}")
    lines.append(
        "per-layer metrics cover the traced set-up and first pass; "
        "deterministic: " + json.dumps(fixed_traced, sort_keys=True)
    )
    lines += [
        f"metric {metric} {value:.6g} {unit}"
        for metric, (value, unit) in metrics.items()
    ]
    return Outcome(
        correct=checks.ok,
        attempted=traced.attempted,
        failed=traced.failed,
        metrics=metrics,
        fixed=fixed_traced,
        lines=lines,
    )
