"""Self-tests of the benchmark: the percentile rule, self-time arithmetic,
the instance files, and a tiny smoke run of every workload.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from harness import check_samples, percentile, samples_beyond  # noqa: E402
from tracing import layer_metric_units, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.9) == 90.0
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    check_samples(100, 0.9)
    with pytest.raises(ValueError):
        check_samples(99, 0.9)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, -1, "op", None],
        ["a", 1.0, 3.0, 0, "op", None],
        ["b", 2.0, 5.0, 0, "op", None],  # overlaps a: 1..5 is covered once
        ["c", 2.5, 3.5, 2, "op", None],
        ["d", 9.0, 12.0, 0, "op", None],  # runs past its parent: clipped at 10
        ["other", 20.0, 21.0, -1, "op2", None],
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2.0, 2.0, 1.0, 3.0, 1.0])


def test_lp_distinct_keeps_cells_of_bounded_fm_work():
    from workloads import FM_PAIR_BUDGET, fm_bounded, fm_pair_bound

    # 10 rows, 4 variables: 25 + 156 + 6084 pairs, plus one on the last variable.
    assert fm_pair_bound(4, 10) == 6266
    assert fm_pair_bound(4, 12) > FM_PAIR_BUDGET
    assert fm_bounded(4, 10, "feasible")
    assert not fm_bounded(4, 12, "infeasible")
    assert fm_bounded(3, 8, "optimal") and not fm_bounded(3, 10, "unbounded")
    assert fm_bounded(6, 14, "optimal")  # seven variables: the simplex route


def test_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == layer_metric_units()


def test_instances_round_trip_through_parse_instance(tmp_path, capsys):
    from hyperball.cli import main
    from hyperball.io import canonical_dumps, parse_instance, to_jsonable

    folder = os.path.join(BENCH_DIR, "instances")
    for name in sorted(os.listdir(folder)):
        path = os.path.join(folder, name)
        kind, payload = parse_instance(path)
        with open(path) as fh:
            assert parse_instance(json.load(fh)) == (kind, payload), name
        if kind in ("family", "polyhedron", "helly"):
            assert parse_instance(to_jsonable(payload)) == (kind, payload), name
    out = tmp_path / "helly.json"
    assert main(["helly", "--dim", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(os.path.join(folder, "helly.json")) as fh:
        assert out.read_text() == fh.read()
    assert canonical_dumps(parse_instance(str(out))[1]) == out.read_text()


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "refute-linf", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
