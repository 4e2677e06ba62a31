"""Tests of the benchmark itself: seeded inputs, repeatable counts, and
checks that catch a wrong answer.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run as R
import tracer as T
import workloads as W

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = W.WORKLOADS[name].inputs
    assert make(7) == make(7)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_different_seed_changes_inputs(name):
    make = W.WORKLOADS[name].inputs
    assert make(7) != make(8)


def _round_counts(seed: int) -> dict[str, float]:
    tr = T.Tracer()
    tr.phase = "round"
    tr.install()
    tr.install(counts=True)
    try:
        for name in ("sweep", "search", "continuum"):
            wl = W.WORKLOADS[name]
            assert R.run_ops(wl, wl.inputs(seed), count=wl.round_ops, tr=tr).failed == 0
    finally:
        tr.remove()
    return T.layer_counts(tr)


def test_same_seed_gives_identical_counts():
    first, second = _round_counts(7), _round_counts(7)
    assert first == second
    for name in ("schedule.tol_steps", "search_sim.steps", "asymptotics.rhs_evals_per_step"):
        assert first[name] > 0
    if first["asymptotics.accept_ratio"] == 1.0:
        # one slope check and three RK4 calls of four evaluations per step
        assert first["asymptotics.rhs_evals_per_step"] == 13


def _wrong(oracle: str):
    """The oracle's answer moved by more than any check tolerates."""
    right = getattr(oracles, oracle)
    if oracle == "saturation_landing":  # one more full decrement
        return lambda *a: (right(*a)[0] + 1, *right(*a)[1:])
    if oracle == "schedule_table":
        return lambda *a: [[r[0], r[1] + 1e-3, *r[2:]] for r in right(*a)]
    if oracle == "search_success":
        return lambda *a: [p + 1e-3 for p in right(*a)]
    return lambda *a: right(*a) + 1e-3


@pytest.mark.parametrize(
    "name, oracle, ops",
    [
        ("sweep", "grover_err", 3),
        ("search", "search_success", 1),
        ("continuum", "saturation_landing", 2),
        ("cli", "schedule_table", 1),
    ],
)
def test_wrong_oracle_answer_raises_fail_ratio(monkeypatch, name, oracle, ops):
    wl = W.WORKLOADS[name]
    inputs = wl.inputs(3)
    if name == "cli":
        inputs = [cmd for cmd in inputs if cmd.name == "schedule_csv"]
    assert R.run_ops(wl, inputs, count=ops).failed == 0
    monkeypatch.setattr(oracles, oracle, _wrong(oracle))
    result = R.run_ops(wl, inputs, count=ops)
    assert result.failed == ops
    assert result.failed / result.attempted == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((proc.stdout.strip().splitlines() or [""])[-1])
