"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 tagperf/run.py --workload tagbench --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, untraced then traced, each for
half of ``--seconds``, and reports the per-layer metrics of the traced
set-up plus its first pass, with ``trace.covered_share`` and
``trace.overhead``; the spans are written under ``.tagperf/``.

The output checks run after the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when a check
fails or the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tagbench", "serve-zipf", "sql-mix")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every input (for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(
            f"tagperf: the program under test is missing ({source} not found)",
            file=sys.stderr,
        )
        return 2
    # One BLAS thread: its idle workers otherwise spin on the second
    # core, beside the workload's own threads.  Set before numpy loads.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from tagperf.runner import run

    outcome = run(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        out_dir=ROOT / ".tagperf",
    )
    for line in outcome.lines:
        print(line)
    print(json.dumps(outcome.summary()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
