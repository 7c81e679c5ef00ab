"""Smoke runs of the scripts under ``scripts/``."""

import importlib.util
import json
import pathlib

from hyperball.lab import REFUTE_MODES, refute_path

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refuter_sweep_covers_every_mode_with_a_rate(capsys):
    sweep = _load("refuter_sweep")
    sweep.main(["--budget", "16", "--scalar-budget", "4"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "cand/s"
    assert len(rows) == len(sweep.fixtures()) * len(REFUTE_MODES) * 5
    for mode in REFUTE_MODES:
        assert any(f" {mode} " in row for row in rows), mode
        assert any(f"3d 4-row polyhedron {mode:>15} " in row for row in rows), mode
    subsets = dict(sweep.fixtures())
    assert header.split()[-2] == "path"
    paths = set()
    for row in rows:
        *_, mode, _, _, used, _, path, rate = row.split()
        assert path == refute_path(subsets[row[:28].strip()], mode)
        assert int(used) <= (4 if path == "scalar" else 16) and float(rate) > 0
        paths.add((row[:28].strip(), mode, path))
    assert ("unit box", "hyperconvex", "span") in paths
    assert ("two-box union", "external", "span") in paths
    assert ("two-box union", "hyperconvex", "gap") in paths
    assert ("L-shaped union", "hyperconvex", "scalar") in paths
    gap = [row.split() for row in rows if row.startswith(f"{'gap union [0,1]+[65/64,2]':>28} ")]
    assert len(gap) == 15 and all(row[-5:-1] == ["refuted", "1", "2", "gap"] for row in gap[5:])
    two = [row.split() for row in rows if row.startswith(f"{'two-point space':>28} ")]
    assert len(two) == 15 and all(row[-5:-1] == ["refuted", "1", "2", "gap"] for row in two)
    for mode in ("hyperconvex", "weakly-external"):
        assert ("box union [0,2]x[0,1]", mode, "span") in paths
    assert ("diag half-plane x1+x2<=-1", "external", "span") in paths
    assert ("diag half-plane x1+x2<=-1", "hyperconvex", "scalar") in paths


def test_contraction_rates_prints_every_scheme_against_its_bound(capsys):
    _load("contraction_rates").main(["--rounds", "4"])
    out = capsys.readouterr().out
    titles = [line for line in out.splitlines() if line and not line[0].isspace()]
    assert len(titles) == 4
    # All four tables, the chain walk's included, carry verify_trace's verdict.
    assert sum(title.endswith(": passed") for title in titles) == 4
    assert "FAILED" not in out
    for block in out.strip().split("\n\n"):
        for row in block.splitlines()[2:]:
            _, observed, bound = row.split()
            assert float(observed) <= float(bound)


def test_helly_demo_checks_both_directions(capsys):
    _load("helly_demo").main(["--max-dim", "4"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:5] == ["n", "sets", "n-fold", "total", "order-n"]
    assert [row.split()[:5] for row in rows] == [
        [str(n), str(n + 1), "ok", "empty", "refuted"] for n in range(2, 5)
    ]


def test_lp_census_counts_every_caller(capsys):
    _load("lp_census").main(["--size", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["caller", "queries", "LPs", "LPs/q", "checks/q", "rows/LP",
                              "pivots/q", "pivots/LP", "ints/pivot", "solve", "s"]
    assert [row.split()[0] for row in rows] == [
        "lp_feasible", "lp_minimize", "helly_order_check", "dist_to_polyhedron",
        "distance_convexity_check", "almost_to_exact"]
    for row in rows:
        _, queries, lps, per_query, checks, rows_per_lp, pivots_per_query, pivots, ints, seconds = (
            row.split())
        assert int(queries) > 0 and int(lps) > 0 and float(per_query) > 0 and float(checks) >= 0
        assert float(rows_per_lp) > 0 and float(pivots_per_query) > 0 and float(pivots) > 0
        assert float(ints) > 0 and float(seconds) > 0
    # A segment of 33 grid times costs a few LPs, not one per time outside
    # the set, and a few kept-piece checks per stretch of times, not one per
    # time.
    segments = rows[-2].split()
    assert int(segments[1]) == 10 and float(segments[3]) < 5 and 0 < float(segments[4]) < 33
    # The four lp-repeat refinements of one block: an oracle query whose
    # last center lies in the subset and every ball runs no LP, so the
    # 40-iteration runs average at most two LPs, each on the pool
    # polyhedron's 2 rows plus the window's 2*dim (dims 2 and 3).
    oracle = rows[-1].split()
    assert int(oracle[1]) == 4 and float(oracle[3]) <= 2 and 6 <= float(oracle[5]) <= 8


def test_bench_record_writes_medians_spread_commit_and_machine(tmp_path, capsys):
    out = tmp_path / "BENCH_0.json"
    _load("bench_record").main(["--workloads", "refute-linf", "--smoke", "--out", str(out)])
    assert capsys.readouterr().out.strip() == str(out)
    record = json.loads(out.read_text())
    assert set(record) == {"number", "commit", "dirty", "machine", "settings", "workloads"}
    assert set(record["machine"]) == {"nproc", "python", "PYTHONDONTWRITEBYTECODE", "python_start_ms"}
    assert record["machine"]["nproc"] >= 1 and record["machine"]["python_start_ms"] > 0
    assert record["settings"] == {"repeats": 1, "seconds": 20.0, "seeds": [1], "smoke": True}
    run = record["workloads"]["refute-linf"]
    assert set(run) == {"metrics", "correct", "attempted", "failed"} and run["correct"]
    assert set(run["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
                                   "ok_ratio", "peak_rss_mb"}
    for metric in run["metrics"].values():
        assert set(metric) == {"unit", "median", "min", "q1", "q3", "max", "values"}
        assert metric["min"] <= metric["median"] <= metric["max"] and len(metric["values"]) == 1
