#!/usr/bin/env python3
"""Record the benchmark as ``BENCH_<n>.json`` at the repo root.

Runs ``bench/run.py`` unchanged, end-to-end metrics only (``--trace 0``):
5 runs of 20 s each per workload, seeds 1 to 5, the same in every record so
that records compare.  The record holds, per workload and end-to-end metric
of ``BENCHMARK.json``, the median and spread (min, quartiles, max, every
value) over the repeats, and the git commit.  It also records the machine:
``nproc``, the Python version, ``PYTHONDONTWRITEBYTECODE`` and the median of
15 ``python -c pass`` starts.  ``bench/run.py`` scales its own timings by
the host's speed, so the record times no loop of its own.

    python3 scripts/bench_record.py --number 36
    python3 scripts/bench_record.py --number 36 --workloads refute-linf --smoke

``--smoke`` passes ``--smoke`` to ``bench/run.py`` (one small block, one
set-up) and makes one repeat: a check of the record's shape in about a
second, not a measurement.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STARTS = 15
REPEATS = 5
SECONDS = 20.0
SEEDS = tuple(range(1, REPEATS + 1))


def python_start_ms() -> float:
    """Median of STARTS ``python -c pass`` wall times, in ms."""
    times = []
    for _ in range(STARTS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1e3


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python_start_ms": python_start_ms(),
    }


def commit() -> dict:
    def git(*args):
        result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return result.stdout.strip() if result.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def run_once(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One ``bench/run.py`` run; its last output line is the result object."""
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=ROOT,
                            capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"bench/run.py {workload} seed {seed} exited {result.returncode}:\n"
                         f"{result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "min": min(values), "q1": q1, "q3": q3,
            "max": max(values), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=36, help="the n of BENCH_<n>.json")
    parser.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="default: BENCH_<n>.json at the repo root")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    seeds = SEEDS[:1] if args.smoke else SEEDS

    record = {"number": args.number, **commit(), "machine": machine(),
              "settings": {"repeats": len(seeds), "seconds": SECONDS, "seeds": list(seeds),
                           "smoke": args.smoke},
              "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, SECONDS, args.smoke))
            print(f"{workload} seed {seed}: ops/s "
                  f"{runs[-1]['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)
        metrics = {name: {"unit": unit, **spread([run["metrics"][name]["value"] for run in runs])}
                   for name, unit in units.items()}
        record["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(run["correct"] for run in runs),
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
        }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(out)


if __name__ == "__main__":
    main()
