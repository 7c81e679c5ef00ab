"""hyperball benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload refute-linf --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics from spans (written to
``bench/out/``).  Every op's result goes through the correctness gate; the
last line of standard output is the result object.  A wrong answer prints
the result with ``"correct": false``, names the op on standard error, and
exits 1.  Without ``src/hyperball`` next to this folder the run exits 2
before measuring anything.  End-to-end timings are scaled to a reference
host speed (``harness.HostSpeed``).
"""

from __future__ import annotations

import time

from harness import REFERENCE_WINDOW, HostSpeed

# Set-up is timed from here; the host speed is read just before and again
# right after it.
SPEED = HostSpeed(loops=REFERENCE_WINDOW // 2)
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from harness import THREAD_VARS, Tally, end_to_end, run_block, run_child  # noqa: E402
from tracing import Tracer, layer_metric_units, layer_metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7
MIN_OPS = 100
START_PROBES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small block, one set-up, no sample-count check (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds it took, exit")
    return parser.parse_args(argv)


def setup_seconds(args, first: float, env: dict) -> float:
    """Median of SETUP_REPEATS cold set-ups, in reference seconds: this
    process's own plus fresh processes that import, generate and warm up the
    same way."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        result = run_child(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            env, OUT, ROOT)
        if result.code != 0:
            raise RuntimeError(f"set-up probe failed: {result.stderr}")
        samples.append(float(result.stdout.split()[-1]))
    return statistics.median(samples)


def merge(into: Tally, other: Tally) -> None:
    into.attempted += other.attempted
    into.failed += other.failed
    into.deadline_misses += other.deadline_misses
    into.wrong += other.wrong


def traced_pass(ops, wl, tally, tracer) -> float:
    tracer.install()
    try:
        return run_block(ops, wl.limit_s, tally, SPEED, tracer)
    finally:
        tracer.uninstall()


def measure_blocks(wl, args, tally, tracer=None):
    """Run whole blocks until the time is up and at least MIN_OPS ops ran.
    Under tracing each block runs twice, untraced and then traced; the
    traced time over the untraced time is the tracing overhead."""
    untraced = Tally()
    plain_s = traced_s = 0.0
    blocks = 0
    begin = time.perf_counter()
    while True:
        ops = wl.ops(blocks)
        if tracer is None:
            run_block(ops, wl.limit_s, tally, SPEED)
        else:
            plain_s += run_block(ops, wl.limit_s, untraced, SPEED)
            traced_s += traced_pass(ops, wl, tally, tracer)
        blocks += 1
        if args.smoke or (time.perf_counter() - begin >= args.seconds
                          and tally.attempted >= MIN_OPS):
            break
    merge(tally, untraced)
    return blocks, (traced_s / plain_s if plain_s else 0.0)


def measure_cli_traced(wl, args, tally, tracer):
    """cli-cold under tracing: interpreter start-up probes, subprocess passes
    for per-subcommand latency, and in-process passes through cli.main,
    untraced then traced."""
    repeats = 1 if args.smoke else START_PROBES
    values = {
        "cli.start.bare_ms": statistics.median(
            wl.start_probe("pass") for _ in range(repeats)) * 1e3,
        "cli.start.import_ms": statistics.median(
            wl.start_probe("import hyperball") for _ in range(repeats)) * 1e3,
    }
    per_command: dict[str, list[float]] = {}
    untraced = Tally()
    plain_s = traced_s = 0.0
    passes = 0
    begin = time.perf_counter()
    while True:
        ops = wl.ops(passes)
        first = len(untraced.latencies)
        run_block(ops, wl.limit_s, untraced, SPEED)
        for op, latency in zip(ops, untraced.latencies[first:]):
            per_command.setdefault(wl.commands[op.op_id.split(".", 1)[1]], []).append(latency)
        plain_s += run_block(wl.in_process_block(passes), wl.limit_s, untraced, SPEED)
        traced_s += traced_pass(wl.in_process_block(passes), wl, tally, tracer)
        passes += 1
        if args.smoke or time.perf_counter() - begin >= args.seconds:
            break
    merge(tally, untraced)
    for command, latencies in per_command.items():
        values[f"cli.{command}.p50_ms"] = statistics.median(latencies) * 1e3
    return passes, traced_s / plain_s, values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperball", "__init__.py")):
        print(f"error: no hyperball sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads; children inherit it.
    # The refuter's partition variable stays unset: default signatures only.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    os.environ.pop("HYPERBALL_THREADS", None)
    sys.path.insert(0, SRC)
    import hyperball
    import workloads

    if not os.path.abspath(hyperball.__file__).startswith(SRC + os.sep):
        print(f"error: hyperball imported from {hyperball.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    wl.prepare()
    first_setup = (time.perf_counter() - STARTED) * SPEED.sample()
    SPEED.loops = wl.reference_loops
    if args.setup_probe:
        print(f"{first_setup:.9f}")
        return 0

    tally = Tally()
    if args.trace:
        tracer = Tracer()
        if args.workload == "cli-cold":
            passes, overhead, values = measure_cli_traced(wl, args, tally, tracer)
        else:
            passes, overhead = measure_blocks(wl, args, tally, tracer)
            values = {}
        values = {**layer_metrics(tracer.spans, passes), **values,
                  "trace.overhead_ratio": overhead}
        metrics = {name: (values[name], unit) for name, unit in layer_metric_units().items()}
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        measure_blocks(wl, args, tally)
        if args.workload == "cli-cold":
            peak_kb = wl.max_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = first_setup if args.smoke else setup_seconds(args, first_setup,
                                                             workloads.child_env())
        metrics = end_to_end(tally, setup, peak_kb / 1024, args.smoke)

    for op_id, reason in tally.wrong:
        print(f"WRONG {args.workload} op {op_id}: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} {'samples (ops attempted)':44s} {tally.attempted:14d}; "
          f"failed {tally.failed}, deadline misses {tally.deadline_misses}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
