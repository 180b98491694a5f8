"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python -m pytest tagperf/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tagperf.run import WORKLOADS  # noqa: E402
from tagperf.runner import run  # noqa: E402
from tagperf.harness import timed_phase  # noqa: E402
from tagperf.tagbench import TagBench  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "tagperf" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_named_metric(workload, trace, tmp_path):
    done = _run_cli(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        assert f"metric {metric['name']} " in done.stdout
    if trace == "0":
        assert "metric error_rate 0 share" in done.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "tagperf").mkdir()
    for path in (ROOT / "tagperf").glob("*.py"):
        (tmp_path / "tagperf" / path.name).write_text(path.read_text())
    done = _run_cli(
        "--workload", "tagbench", "--seed", "0", "--seconds", "1",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_seed0_tables_match_repro_bench():
    workload = TagBench(seed=0)
    state = workload.setup(workload.inputs())
    phase = timed_phase(workload, state, seconds=0.0)
    checks = workload.check(state, phase)
    assert checks.ok, checks.failures
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--seed", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
        check=True,
    )
    assert cli.stdout == workload.tables + "\n"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree(workload):
    plain = run(workload, seed=1, seconds=0.5, tiny=True)
    traced = run(workload, seed=1, seconds=1.0, trace=True, tiny=True)
    assert plain.correct and traced.correct
    assert plain.fixed == traced.fixed


def test_covered_share_shows_time_no_layer_accounts_for():
    from tagperf.tracing import Span, covered_share

    def span(name, start, end, parent=None, thread="main"):
        made = Span(name, start, parent, None, thread)
        made.end = end
        return made

    op = span("op", 0.0, 10.0)
    entry = span("db.execute", 0.0, 10.0, op)
    parse = span("db.parse", 1.0, 2.0, entry)
    run_ = span("db.run", 2.0, 5.0, entry)
    nested = span("db.memo_lookup", 3.0, 4.0, run_)
    assert covered_share([op, entry, parse, run_, nested]) == pytest.approx(0.4)

    # Work handed to other threads covers the entry span where any of
    # those threads runs (overlaps are counted once).
    op = span("op", 0.0, 10.0)
    serve = span("serve.serve", 0.0, 10.0, op)
    lookup = span("serve.semcache.lookup", 0.0, 1.0, serve)
    first = span("core.run", 2.0, 6.0, thread="tag-worker-0")
    second = span("core.run", 4.0, 8.0, thread="tag-worker-1")
    assert covered_share([op, serve, lookup, first, second]) == pytest.approx(0.7)
