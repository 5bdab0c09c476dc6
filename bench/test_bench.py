"""Tests of the benchmark itself: metric names, seeding, span accounting, smoke runs.

Run with ``python -m pytest bench/test_bench.py`` from the root of the repository.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from layers import layer_metrics  # noqa: E402
from spans import OP, Installed, Tracer, span_cost_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MAP = json.loads((HERE / "metric_map.json").read_text())


def test_metric_names_are_well_formed_and_the_map_names_known_metrics():
    names = [m["name"] for m in run.BENCHMARK["end_to_end"] + run.BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in run.BENCHMARK["workloads"]] == list(MAP["workloads"]) == list(WORKLOADS)
    assert set(MAP["moves"]) <= set(run.LAYER_UNITS)
    known = set(run.E2E_UNITS) | set(MAP["reported_each_run"])
    for moves in MAP["moves"].values():
        for move in moves:
            assert move["metric"] in known and move["workload"] in WORKLOADS


def _inputs(workload, index=0):
    out = []
    for op in workload.make_pass(index):
        for arg in op.args:
            if hasattr(arg, "argv"):
                out.append(tuple(arg.argv()))
            elif hasattr(arg, "theta"):
                out.append((arg.kind, arg.theta))
            elif isinstance(arg, np.ndarray):
                out.append(arg.tobytes())
            else:
                out.append(arg)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = WORKLOADS[name]
    assert _inputs(cls(3, tiny=True)) == _inputs(cls(3, tiny=True))
    assert _inputs(cls(3, tiny=True), 1) == _inputs(cls(3, tiny=True), 1)
    assert _inputs(cls(3, tiny=True)) != _inputs(cls(4, tiny=True))
    assert _inputs(cls(3, tiny=True)) != _inputs(cls(3, tiny=True), 1)


def test_eval_designs_are_distinct_across_passes_and_warmup():
    workload = WORKLOADS["eval-lowd"](5, tiny=True)
    seen = [op.args[1].tobytes() for op in workload.warmup_ops()]
    for index in range(3):
        seen += [op.args[1].tobytes() for op in workload.make_pass(index)]
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_every_workload_passes_verification(name):
    workload = WORKLOADS[name](1, tiny=True)
    for op in workload.warmup_ops():
        workload.run(op)
    phase = run.run_phase(workload, 1e-3)
    verdict = run.verify(workload, phase)
    assert len(phase.pass_sizes) == 1 and phase.ops >= 1
    assert verdict["failed"] == 0, verdict
    assert sum(entry["checked"] for entry in verdict["checks"].values()) >= 1


@pytest.mark.parametrize("name", ["eval-lowd", "search", "certify"])
def test_traced_self_times_sum_to_the_op_span(name):
    workload = WORKLOADS[name](2, tiny=True)
    tracer = Tracer()
    installed = Installed(tracer)
    try:
        phase = run.run_phase(workload, 1e-3, tracer)
    finally:
        installed.remove()
    assert run.verify(workload, phase)["failed"] == 0
    spans = tracer.arrays()
    assert np.all(spans["self"] >= -1e-9)
    op_id = tracer.names.index(OP)
    roots = np.flatnonzero(spans["name"] == op_id)
    assert len(roots) == phase.ops
    cost = span_cost_s()
    for root in roots:
        mine = spans["op"] == spans["op"][root]
        layers = mine & (spans["name"] != op_id)
        total = spans["self"][mine].sum()
        assert total == pytest.approx(spans["duration"][root], rel=1e-9, abs=1e-9)
        # what the layers do not cover is the harness's dispatch plus the
        # tracer's own cost, stated as span_cost_s() per span
        unattributed = spans["duration"][root] - spans["self"][layers].sum()
        assert unattributed <= 10 * cost * (np.count_nonzero(layers) + 1) + 2e-3
    assert set(layer_metrics(tracer)) <= set(run.LAYER_UNITS)


def test_search_fails_a_table_cell_that_does_not_converge():
    workload = WORKLOADS["search"](1, tiny=True)
    ops = workload.make_pass(0)
    assert [op.tag for op in ops] == ["table", ""]
    none = {"exit": 4, "best_design": None, "starts_converged": 0}
    checks = workload.verify(0, ops, [none, none])
    assert [(c.index, c.ok) for c in checks] == [(0, False), (1, True)]
    # an extra job must exit 0 or 4
    checks = workload.verify(0, ops, [none, dict(none, exit=1)])
    assert [c.ok for c in checks] == [False, False]


def test_kept_outputs_do_not_hold_the_batches():
    workload = WORKLOADS["certify"](1, tiny=True)
    op = next(op for op in workload.make_pass(0) if op.kind == "batch")
    kept = workload.keep(op, workload.run(op))
    assert len(kept) == workload.BATCH_CHECKS and all(type(x) is float for x in kept)


def test_wrappers_are_removed():
    import imspe
    import imspe.criterion

    before = (imspe.imspe, imspe.criterion.cho_solve, np.linalg.cond)
    installed = Installed(Tracer())
    assert imspe.imspe is not before[0]
    installed.remove()
    assert (imspe.imspe, imspe.criterion.cho_solve, np.linalg.cond) == before


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    phase = run.Phase()
    phase.latencies = [float(i) for i in range(100)] * 2
    phase.pass_sizes = [100, 100]
    assert WORKLOADS["eval-lowd"](1).tail(phase) == (89.0, 90.0, 10)
    # search: the 90th percentile (nearest rank) over the whole phase
    phase.latencies = [float(i) for i in range(28)]
    phase.pass_sizes = [14, 14]
    assert WORKLOADS["search"](1, tiny=True).tail(phase) == (25.0, 90.0, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "eval-lowd", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
