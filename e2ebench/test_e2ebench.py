"""Tests of the end-to-end benchmark itself.

Run from the repository root (under a minute)::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SOLVE_WORKLOADS = ("waters_dmat", "waters_del")


def _inputs(name: str, seed: int, count: int = 6):
    """The first ``count`` inputs of a workload, in comparable form."""
    workload = workloads.WORKLOADS[name](seed)
    if name == "chaos_waters":  # its grid needs no set-up
        return [workload.make_input(i) for i in range(count)]
    workload.setup()
    return [workload.make_input(i).instance for i in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    first, second = _inputs(name, 7), _inputs(name, 8)
    assert all(a != b for a, b in zip(first, second))


@pytest.mark.parametrize("name", SOLVE_WORKLOADS)
def test_every_solve_request_is_a_distinct_instance(name):
    hashes = _inputs(name, 3, count=12)
    assert len(set(hashes)) == len(hashes)


def test_metric_names_match_the_benchmark_spec():
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]


def _tiny(name: str):
    """A smoke-sized workload: one input cycle of one base for the solve
    workloads, short OBJ-DEL rung budgets."""
    workload = workloads.WORKLOADS[name](seed=11)
    workload.setup()
    if name in SOLVE_WORKLOADS:
        workload.bases = workload.bases[:1]
    if name == "waters_del":
        workload.time_limit = 0.5
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_reports_every_metric_without_failures(name):
    workload = _tiny(name)
    samples = run.measure(workload, 0.0)
    assert len(samples) == workload.cycle
    metrics = run.end_to_end(samples, [1.0], workload.cycle)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["pass_frac"]["value"] == 1.0
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]]["value"] > 0, metric["name"]

    tracer = Tracer()
    traced = run.measure(workload, 0.0, tracer)
    assert [s.traced for s in traced][:2] == [False, True]
    layer_metrics, table = run.per_layer(traced, tracer, workload.cycle)
    assert set(layer_metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert layer_metrics[metric["name"]]["unit"] == metric["unit"]
    assert layer_metrics["fail_frac"]["value"] == 0.0
    assert not table["missing_entry_points"]
    assert not table["hook_errors"]
    assert 0.9 <= layer_metrics["trace.coverage"]["value"] <= 1.0


@pytest.mark.parametrize("name", SOLVE_WORKLOADS)
def test_a_raising_rung_fails_the_request(name, monkeypatch):
    # The portfolio passes over a rung that raises and greedy answers
    # with a valid allocation: the check must still count a failure.
    import repro.runtime.portfolio as portfolio

    workload = _tiny(name)  # its warm-up solves must not break
    original = portfolio._run_rung

    def broken(app, config, rung, shared):
        if rung != "greedy":
            raise RuntimeError("injected rung failure")
        return original(app, config, rung, shared)

    monkeypatch.setattr(portfolio, "_run_rung", broken)
    samples = run.measure(workload, 0.0)
    assert all("injected rung failure" in s.answer.reason for s in samples)
    metrics = run.end_to_end(samples, [1.0], workload.cycle)
    assert metrics["pass_frac"]["value"] == 0.0


def test_traced_calls_are_restored_after_the_request():
    import repro.api
    import repro.runtime.facade

    before = repro.runtime.facade.execute
    tracer = Tracer()
    with tracer:
        assert repro.api.execute is not before
        assert repro.runtime.facade.execute is repro.api.execute
    assert repro.runtime.facade.execute is before
    assert repro.api.execute is before


def test_reference_does_fixed_work_with_the_collector_off(monkeypatch):
    import gc

    import reference

    states = []
    real = reference.reference

    def spy():
        states.append(gc.isenabled())
        return real()

    monkeypatch.setattr(reference, "reference", spy)
    assert gc.isenabled()
    assert reference.timed_reference() > 0
    assert states == [False]
    assert gc.isenabled()
    assert real() == reference.CHECKSUM


def test_samples_carry_the_reference_around_them():
    workload = _tiny("waters_dmat")
    samples = run.measure(workload, 0.0)
    assert all(s.ref > 0 for s in samples)
    assert all(s.wall_ref == s.wall / s.ref for s in samples)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        (0, -1, "execute", "api", 0.0, 10.0, 0),
        (1, 0, "solve_with_portfolio", "runtime.portfolio", 1.0, 9.0, 0),
        (2, 1, "greedy_allocation", "core.heuristic", 2.0, 5.0, 0),
    ]
    totals = tracer.layer_totals()
    assert totals["api"]["self_s"] == pytest.approx(2.0)
    assert totals["runtime.portfolio"]["self_s"] == pytest.approx(5.0)
    assert totals["core.heuristic"]["self_s"] == pytest.approx(3.0)
    assert set(totals) == set(LAYERS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "waters_dmat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
