"""The timed loop every workload shares, and the end-to-end metrics.

A workload sets itself up, then hands the loop one *pass* of units at a
time.  A unit is one timed call: one op on ``tagbench`` and ``sql-mix``,
one wave of requests on ``serve-zipf`` (a closed-loop client submits a
wave and gets every answer when the wave returns, so each request of
the wave is charged the wave's wall time).  Passes repeat the same
seeded inputs until ``--seconds`` have elapsed; the first pass always
completes.  Every later pass must reproduce the first exactly, so the
deterministic metrics are read from the first pass and the wall-clock
ones from all of them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

#: Tail percentiles to choose from, in tenths of a percent.
_TAIL_LADDER = (999, 995, 990, 980, 975, 950, 900, 800, 750, 500)


@dataclass
class Op:
    """One op's outcome: what the checks compare and the clocks read."""

    #: Comparable outcome: equal across passes and against the oracle.
    key: Any
    failed: bool = False
    #: Simulated LM seconds this op consumed (0 when it reached no LM).
    vsec: float = 0.0
    #: Workload-specific reference used when scoring (e.g. the query).
    ref: Any = None


@dataclass
class Unit:
    """What one timed call returned."""

    ops: list[Op]
    #: Simulated seconds of the whole unit (serve: the wave's makespan).
    vsec_total: float
    #: Prompt plus output tokens the unit billed.
    tokens: int


@dataclass
class Phase:
    """Everything one timed phase produced."""

    passes: list[list[Unit]]
    #: Wall seconds of each unit, in order.
    walls: list[float]
    elapsed_s: float
    #: Span-list positions at the start and end of the first pass (when
    #: traced).
    first_pass_window: tuple[int, int] = (0, 0)

    @property
    def units(self) -> list[Unit]:
        return [unit for units in self.passes for unit in units]

    @property
    def attempted(self) -> int:
        return sum(len(unit.ops) for unit in self.units)

    @property
    def failed(self) -> int:
        return sum(op.failed for unit in self.units for op in unit.ops)


@dataclass
class CheckReport:
    """Output checks of one run (made outside the timed region)."""

    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Share of scoreable answers equal to the oracle's.
    exact_match: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


class Workload(Protocol):
    name: str
    #: Optional tracer; workloads tag request ids through it.
    tracer: Any

    def describe(self) -> dict[str, Any]: ...  # noqa: E704

    def inputs(self) -> Any: ...  # noqa: E704

    def setup(self, inputs: Any) -> Any: ...  # noqa: E704

    def units(self, state: Any, pass_index: int) -> list[Callable[[], Unit]]: ...  # noqa: E704

    def check(self, state: Any, phase: Phase) -> CheckReport: ...  # noqa: E704


def timed_setups(
    workload: Workload, inputs: Any, samples: int, min_sample_s: float = 0.0
) -> tuple[Any, list[float]]:
    """Time ``samples`` samples of set-up on the generated ``inputs``
    (made once, untimed); returns the last state and each sample's time.

    A sample sets up repeatedly until ``min_sample_s`` have passed and
    reports the mean time of one set-up, so a short set-up is timed
    over a window long enough to average the machine's speed changes.
    """
    times: list[float] = []
    state = None
    for _ in range(samples):
        count = 0
        busy = 0.0
        while count == 0 or busy < min_sample_s:
            state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(inputs)
            busy += time.perf_counter() - start
            count += 1
        times.append(busy / count)
    return state, times


def timed_phase(
    workload: Workload, state: Any, seconds: float, tracer: Any = None
) -> Phase:
    """Run passes until ``seconds`` have elapsed (first pass always whole)."""
    gc.collect()
    passes: list[list[Unit]] = []
    walls: list[float] = []
    window = (0, 0)
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    pass_index = 0
    while True:
        if tracer is not None and pass_index == 0:
            window = (tracer.mark(), 0)
        results: list[Unit] = []
        passes.append(results)
        stop = False
        for position, unit in enumerate(workload.units(state, pass_index)):
            span = None
            if tracer is not None:
                tracer.set_request(f"{pass_index}:{position}")
                span = tracer.open("op")
            begin = time.perf_counter()
            outcome = unit()
            end = time.perf_counter()
            if span is not None:
                tracer.close(span)
            walls.append(end - begin)
            results.append(outcome)
            if pass_index > 0 and end >= deadline:
                stop = True
                break
        if tracer is not None and pass_index == 0:
            window = (window[0], tracer.mark())
        pass_index += 1
        if stop or end >= deadline:
            break
    return Phase(
        passes=passes,
        walls=walls,
        elapsed_s=end - start,
        first_pass_window=window,
    )


def percentile(values: list[float], tenths: int) -> float:
    """Nearest-rank percentile; ``tenths`` is the percentile times ten."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = -(-tenths * len(ordered) // 1000)
    return ordered[max(0, min(rank, len(ordered)) - 1)]


def tail_tenths(samples: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    for tenths in _TAIL_LADDER:
        if samples * (1000 - tenths) >= 10_000:
            return tenths
    return 500


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def deterministic_metrics(phase: Phase) -> dict[str, Any]:
    """Metrics read from the first pass: identical on every run of a seed."""
    first = phase.passes[0]
    ops = [op for unit in first for op in unit.ops]
    samples = [op.vsec for op in ops if not op.failed and op.vsec > 0.0]
    tenths = tail_tenths(len(samples))
    return {
        "ops_per_pass": len(ops),
        "tail_tenths": tenths,
        "vsec_samples": len(samples),
        "vsec_zero_ops": sum(
            1 for op in ops if not op.failed and op.vsec == 0.0
        ),
        "vsec_per_op": sum(unit.vsec_total for unit in first) / len(ops),
        "vsec_p50": percentile(samples, 500),
        "vsec_tail": percentile(samples, tenths),
        "lm_tokens_per_op": sum(unit.tokens for unit in first) / len(ops),
    }


def end_to_end(
    phase: Phase,
    setup_times: list[float],
    checks: CheckReport,
    peak_mb: float,
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """End-to-end metrics (name -> (value, unit)) plus the side facts
    reported beside them (percentile, sample and failure counts).
    ``peak_mb`` is the peak resident memory read when the timed phase
    ended, before the checks ran."""
    fixed = deterministic_metrics(phase)
    tenths = fixed["tail_tenths"]
    wall_ms = [
        wall * 1000.0
        for wall, unit in zip(phase.walls, phase.units)
        if any(not op.failed for op in unit.ops)
    ]
    attempted = phase.attempted
    failed = phase.failed
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((attempted - failed) / phase.elapsed_s, "ops/s"),
        "wall_ms_p50": (percentile(wall_ms, 500), "ms"),
        "wall_ms_tail": (percentile(wall_ms, tenths), "ms"),
        "vsec_per_op": (fixed["vsec_per_op"], "s"),
        "vsec_p50": (fixed["vsec_p50"], "s"),
        "vsec_tail": (fixed["vsec_tail"], "s"),
        "lm_tokens_per_op": (fixed["lm_tokens_per_op"], "tokens"),
        "exact_match": (checks.exact_match, "share"),
        "error_rate": (failed / attempted, "share"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    side = {
        "tail_percentile": tenths / 10.0,
        "wall_samples": len(wall_ms),
        "wall_samples_excluded_failed": len(phase.walls) - len(wall_ms),
        "vsec_samples": fixed["vsec_samples"],
        "vsec_zero_cost_ops": fixed["vsec_zero_ops"],
        "passes": len(phase.passes),
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "setup_samples_s": [round(value, 4) for value in setup_times],
    }
    return metrics, side
