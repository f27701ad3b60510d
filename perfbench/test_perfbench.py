"""Tests of the benchmark itself: its oracles, its failure accounting, the
repeatability of its exact counts and its refusal to run without invpat.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import EXACT, PER_LAYER
from workloads import Count, Memo, increasing_avoiders, syt_count

HERE = Path(__file__).resolve().parent


@pytest.fixture
def lib():
    run.drop_invpat()
    return run.import_invpat()


def test_oracles_match_the_library_closed_forms(lib):
    av = lib.avoidance
    for n in range(1, 14):
        assert increasing_avoiders(n, 4) == av.motzkin(n)
        assert increasing_avoiders(n, 5) == av.closed_form_12345(n)
        assert increasing_avoiders(n, 6) == av.closed_form_123456(n)
    for shape in ((3, 2), (3, 3, 1), (4, 2, 2, 1)):
        assert syt_count(shape) == sum(1 for _ in lib.tableaux.standard_tableaux(shape))


class WrongGolden(Count):
    """Two cheap n = 10 cells of the real sample, the first one's golden
    value made wrong."""

    def setup(self, lib, seed):
        cells = [c for c in super().setup(lib, seed) if c.n == self.sampled_n][:2]
        cells[0].want += 1
        return cells


def test_a_wrong_golden_value_is_counted_and_named(capsys):
    workload = WrongGolden()
    result = run.measure(workload, seed=5, seconds=0, trace=False)
    line = run.report("count", 5, 0, False, result, run.machine())
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    out = capsys.readouterr().out.splitlines()
    bad = workload.setup(run.import_invpat(), 5)[0]
    assert any(l.startswith(f"FAILED count cell {bad.name}: got") for l in out)
    assert any(l.split()[:2] == ["error_rate", "0.5000"] for l in out)
    assert json.loads(out[-1]) == line


class SmallMemo(Memo):
    k = 4
    passes = (6, 7)


class SmallCount(Count):
    def setup(self, lib, seed):
        return [c for c in super().setup(lib, seed) if c.n == self.sampled_n][:3]


@pytest.mark.parametrize("workload", [SmallCount(), SmallMemo("")], ids=["count", "memo"])
def test_exact_counts_repeat_for_one_seed(workload, tmp_path):
    if isinstance(workload, Memo):
        workload.scratch = str(tmp_path)
    first = run.measure(workload, seed=3, seconds=0, trace=True)
    second = run.measure(workload, seed=3, seconds=0, trace=True)
    assert first["failures"] == second["failures"] == []
    assert first["exact_repeat"] and second["exact_repeat"]
    counts = [{m: r["per_layer"][m] for m in EXACT} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["avoidance.count_avoiders.calls"] > 0
    assert list(tmp_path.iterdir()) == []  # every temporary store removed


def test_store_traffic_of_the_memo_passes(tmp_path):
    layer = run.measure(SmallMemo(str(tmp_path)), seed=1, seconds=0, trace=True)["per_layer"]
    cells = layer["classify.cells"]
    assert cells == layer["avoidance.store.get.calls"] == layer["avoidance.count_avoiders.calls"]
    assert layer["classify.parent_cell_ratio"] == 1.0
    # the second pass finds every first-pass cell and misses only n = 7
    assert layer["avoidance.store.put.calls"] == round(cells * (1 - layer["avoidance.store.hit_ratio"]))
    assert layer["avoidance.store.bytes_written"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())
