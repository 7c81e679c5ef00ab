"""The four workloads.  Each builds its ops from the workload seed, so the
same seed gives the same inputs, and gives every op its expected outcome.

Ops call hyperball through module attributes (``lab.refute_search``), so a
traced run sees the rebound wrappers.  The checks use the names bound here at
import, which tracing leaves alone: the correctness gate records no spans.

All loops are closed: the next op starts when the previous one returns, one
process, one thread.  In-process workloads run in blocks; every block draws
fresh inputs from (seed, block index), so ``refute-linf`` and ``lp-distinct``
never repeat an input within a run, while ``lp-repeat`` queries one small
pool of polyhedra throughout.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import random
import sys
import time
from fractions import Fraction as F

from hyperball import cli, convexity, lab, lp, refine
from hyperball.io import parse_instance
from hyperball.lab import LinfBallFamily, helly_counterexample, verify_refutation
from hyperball.linf import Ball, Box
from hyperball.lp import HPolyhedron, box_to_polyhedron
from hyperball.refine import verify_trace
from hyperball.sets import BoxUnion

from harness import THREAD_VARS, Op, run_child

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
INSTANCES = os.path.join(BENCH_DIR, "instances")


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _dot(a, x):
    return sum(c * v for c, v in zip(a, x))


def one_per_kind(ops: list[Op], fields: int) -> list[Op]:
    """The first op of each kind, a kind being the op id's fields after the
    block tag: one field for the warm-up, two for the smoke run."""
    seen, out = set(), []
    for op in ops:
        kind = tuple(op.op_id.split(".")[1:1 + fields])
        if kind not in seen:
            seen.add(kind)
            out.append(op)
    return out


class Workload:
    """Seeded op source.  ``block(i)`` is the i-th block of ops; ``ops(i)``
    trims it to one op per kind for the smoke run; ``prepare`` warms up on
    one op per kind of the warm-up block, which is never timed."""

    limit_s: float
    # Reference loops run after each op to read the host speed (harness).
    reference_loops = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke

    def rng(self, index: int) -> random.Random:
        """Draws block ``index``.  The warm-up block (-1) is the same for
        every seed, so set-up time does not depend on the seed."""
        return _rng(self.name, self.seed if index >= 0 else "warm-up", index)

    def block(self, index: int) -> list[Op]:
        raise NotImplementedError

    def ops(self, index: int) -> list[Op]:
        ops = self.block(index)
        return one_per_kind(ops, 2) if self.smoke else ops

    def prepare(self) -> None:
        for op in one_per_kind(self.block(-1), 1):
            op.check(op.run())


# ---------------------------------------------------------------------------
# Checks shared by the LP workloads


def farkas_error(rows, lam) -> str | None:
    """Plain substitution: lam >= 0, lam . A = 0 and lam . b < 0."""
    if len(lam) != len(rows) or any(v < 0 for v in lam):
        return "Farkas multipliers have the wrong length or sign"
    dim = len(rows[0][0])
    if any(sum(v * a[k] for v, (a, _) in zip(lam, rows)) != 0 for k in range(dim)):
        return "Farkas combination does not vanish"
    if sum(v * b for v, (_, b) in zip(lam, rows)) >= 0:
        return "Farkas combination is not contradictory"
    return None


def witness_error(rows, x) -> str | None:
    if x is None or any(_dot(a, x) > b for a, b in rows):
        return "witness violates a row"
    return None


# ---------------------------------------------------------------------------
# refute-linf


LEVELS = (2, 3, 4, 5, 6)
BOX_MODES = (("external", 4096), ("hyperconvex", 8), ("weakly-external", 8))
UNION_MODES = (("external", 4096), ("hyperconvex", 512))


class RefuteLinf(Workload):
    """Closed-form subsets through the refuter's candidate loop.  Boxes are
    hyperconvex, so they spend the budget and stay inconclusive; two-box
    unions with a gap wider than a box and half-spaces with no zero
    coefficient refute within a few candidates."""

    name = "refute-linf"
    limit_s = 2.0

    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []

        def box(d, width=None):
            lo = [F(rng.randint(-8, 8), 2) for _ in range(d)]
            return Box(tuple(lo), tuple(l + (width or F(rng.randint(1, 8), 2)) for l in lo))

        for d in (1, 2, 3):
            for level in LEVELS:
                for mode, budget in BOX_MODES:
                    ops.append(self._op(index, f"box.{mode}.d{d}.l{level}", box(d), level,
                                        budget, rng, mode, refuted=False))
        for d in (1, 2):
            for level in LEVELS:
                for mode, budget in UNION_MODES:
                    width = rng.randint(1, 3)
                    first = box(d, width)
                    shift = (width + rng.randint(width + 1, width + 3),) + (0,) * (d - 1)
                    second = Box(tuple(l + s for l, s in zip(first.lo, shift)),
                                 tuple(h + s for h, s in zip(first.hi, shift)))
                    ops.append(self._op(index, f"union.{mode}.d{d}.l{level}",
                                        BoxUnion((first, second)), level, budget, rng, mode,
                                        refuted=True))
        for d in (2, 3):
            for level in LEVELS:
                a = [rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for _ in range(d)]
                half = lp.halfspace(a, rng.randint(-4, 4))
                ops.append(self._op(index, f"halfspace.external.d{d}.l{level}", half, level,
                                    4096, rng, "external", refuted=True))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(index, label, subset, level, budget, rng, mode, refuted) -> Op:
        seed = rng.randrange(1 << 32)

        def run():
            return lab.refute_search(subset, level, budget, seed, mode=mode)

        def check(report):
            if report.refuted != refuted:
                return f"verdict {report.verdict}, expected {'refuted' if refuted else 'inconclusive'}"
            if not refuted:
                return None if report.budget_used == budget else "budget not spent"
            if not verify_refutation(subset, report.certificate["balls"]):
                return "refutation does not re-verify"
            return None

        return Op(f"b{index}.{label}", run, check)


# ---------------------------------------------------------------------------
# lp-distinct

DIMS = (2, 3, 4, 5, 6)
ROW_COUNTS = (2, 4, 6, 8, 10, 12, 14)
LP_KINDS = ("feasible", "infeasible", "optimal", "unbounded")
# Largest Fourier-Motzkin pair count a cell may reach in the worst case.
# Cells above it can run for minutes on one system, so no deadline short
# enough for a run fits them without failing ops that merely run long.
FM_PAIR_BUDGET = 10_000


def fm_pair_bound(variables: int, rows: int) -> int:
    """Worst-case row pairs Fourier-Motzkin combines on a system, with no
    row found redundant: eliminating a variable from r rows pairs at most
    floor(r^2 / 4) of them and leaves at most max(r, floor(r^2 / 4)); rows
    left in one variable normalize to at most two."""
    pairs = 0
    for _ in range(variables - 1):
        step = rows * rows // 4
        pairs += step
        rows = max(rows, step)
    return pairs + 1


def fm_bounded(d: int, m: int, kind: str) -> bool:
    """Whether the default route sends (d, m, kind) to the simplex or to an
    FM run within FM_PAIR_BUDGET.  Minimization adds the objective variable
    and two rows that link it; above six variables the route is the
    simplex."""
    variables, rows = (d, m) if kind in ("feasible", "infeasible") else (d + 1, m + 2)
    return variables > 6 or fm_pair_bound(variables, rows) <= FM_PAIR_BUDGET


def planted_system(rng: random.Random, d: int, m: int, kind: str):
    """A random system whose answer is known by construction.

    feasible: every row holds at a planted point x0.  infeasible: a group of
    rows whose normals sum to zero and whose bounds sum below zero (a Farkas
    certificate with unit multipliers).  optimal: the objective is minus a
    non-negative combination of rows tight at x0, so x0 is optimal by weak
    duality.  unbounded: every row has a . dvec <= 0 and the objective is
    -dvec.  Returns (rows, objective, expected optimum or None).
    """
    x0 = [F(rng.randint(-6, 6), 2) for _ in range(d)]

    def normal():
        while True:
            a = [F(rng.randint(-4, 4)) for _ in range(d)]
            if any(a):
                return a

    def loose(a):
        return (tuple(a), _dot(a, x0) + rng.randint(0, 5))

    rows = []
    objective = value = None
    if kind == "infeasible":
        size = min(m, rng.randint(2, 4))
        while True:
            group = [normal() for _ in range(size - 1)]
            last = [-sum(a[k] for a in group) for k in range(d)]
            if any(last):
                break
        bounds = [F(rng.randint(-5, 5)) for _ in range(size)]
        bounds[-1] -= sum(bounds) + rng.randint(1, 4)
        rows = [(tuple(a), b) for a, b in zip(group + [last], bounds)]
        rows += [loose(normal()) for _ in range(m - size)]
    elif kind == "unbounded":
        dvec = [rng.randint(-2, 2) for _ in range(d)]
        if not any(dvec):
            dvec[0] = 1
        for _ in range(m):
            a = normal()
            rows.append(loose([-c for c in a] if _dot(a, dvec) > 0 else a))
        objective = tuple(F(-v) for v in dvec)
    else:
        tight = min(m, d) if kind == "optimal" else 0
        for i in range(m):
            a = normal()
            rows.append((tuple(a), _dot(a, x0)) if i < tight else loose(a))
        if kind == "optimal":
            mu = [rng.randint(0, 3) for _ in range(tight)]
            if not any(mu):
                mu[0] = 1
            objective = tuple(-sum(mu[i] * rows[i][0][k] for i in range(tight))
                              for k in range(d))
            value = _dot(objective, x0)
    rng.shuffle(rows)
    return tuple(rows), objective, value


def lp_op(op_id: str, d: int, rows, kind: str, objective, value) -> Op:
    poly = HPolyhedron(d, rows)
    if kind in ("feasible", "infeasible"):
        def run():
            return lp.lp_feasible(poly)

        def check(result):
            if result.feasible != (kind == "feasible"):
                return f"status {result.status}, expected {kind}"
            if result.feasible:
                return witness_error(rows, result.witness)
            return farkas_error(rows, result.certificate["farkas"])
    else:
        def run():
            return lp.lp_minimize(objective, poly)

        def check(result):
            if result[0] != kind:
                return f"status {result[0]}, expected {kind}"
            if kind == "optimal":
                if result[1] != value:
                    return f"optimum {result[1]}, expected {value}"
                if _dot(objective, result[2]) != value:
                    return "optimal point does not attain the value"
                return witness_error(rows, result[2])
            return None
    return Op(op_id, run, check)


def helly_op(op_id: str, n: int, k: int, rng: random.Random) -> Op:
    """helly_order_check on helly_counterexample(n), with coordinates
    permuted and each row scaled by a positive integer, so each block asks
    new systems with the same answer: refuted at k = n, holds at k = n + 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    sets = []
    for hs in helly_counterexample(n).halfspaces:
        (a, b), = hs.rows
        s = rng.randint(1, 4)
        sets.append(HPolyhedron(n, ((tuple(s * a[perm[i]] for i in range(n)), s * b),)))

    def run():
        return lab.helly_order_check(sets, k)

    def check(report):
        cert = report.certificate
        if k == n:
            if not report.refuted:
                return f"verdict {report.verdict}, expected refuted"
            for idx, w in cert["k_witnesses"].items():
                err = witness_error([sets[i].rows[0] for i in idx], w)
                if err:
                    return err
            return farkas_error([s.rows[0] for s in sets], cert["farkas"])
        if not report.holds:
            return f"verdict {report.verdict}, expected holds"
        return farkas_error([sets[i].rows[0] for i in cert["empty_k_subset"]], cert["farkas"])

    return Op(op_id, run, check)


class LPDistinct(Workload):
    """Every LP is a new system: planted feasibility and minimization
    systems of every (dim, rows, kind) cell whose FM work is bounded, plus
    the Helly family for n = 3..10.  The bounded cells still include systems
    on which the default route spends hundreds of milliseconds in
    Fourier-Motzkin where the simplex needs tens; that cost shows in
    ``ops_per_s``.  The deadline only guards against a hang: no op comes
    near it."""

    name = "lp-distinct"
    limit_s = 30.0

    def prepare(self) -> None:
        warm = self.rng(-1)
        for kind in LP_KINDS:
            rows, objective, value = planted_system(warm, 2, 4, kind)
            op = lp_op("warm", 2, rows, kind, objective, value)
            op.check(op.run())

    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for d in DIMS:
            for m in ROW_COUNTS:
                for kind in LP_KINDS:
                    if not fm_bounded(d, m, kind):
                        continue
                    call = "lp_feasible" if kind in ("feasible", "infeasible") else "lp_minimize"
                    system = planted_system(rng, d, m, kind)
                    ops.append(lp_op(f"b{index}.{call}.d{d}.m{m}.{kind}", d, system[0], kind,
                                     system[1], system[2]))
        for n in range(3, 11):
            for k in (n, n + 1):
                ops.append(helly_op(f"b{index}.helly.n{n}.k{k}", n, k, rng))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# lp-repeat


class LPRepeat(Workload):
    """A fixed pool of small polyhedra, each queried again and again: the
    distance-convexity check along seeded segments, the external refuter on
    boxes written as H-polyhedra, and the Cauchy-halving refinement with the
    exact subset oracle.  The pool is the same for every seed (a user's few
    polyhedra); the seed draws the segments, refuter seeds and ball families.
    Every pool polyhedron contains the origin."""

    name = "lp-repeat"
    limit_s = 5.0

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        rng = _rng(self.name, "pool")
        self.pool = []
        for d in (2, 3):
            for m in (1, 2, 3, 4):
                for _ in range(2):
                    rows = []
                    while len(rows) < m:
                        a = tuple(F(rng.randint(-3, 3)) for _ in range(d))
                        if any(a):
                            rows.append((a, F(rng.randint(0, 8))))
                    self.pool.append(HPolyhedron(d, tuple(rows)))
        self.boxes = []
        for d in (2, 3):
            lo = [F(rng.randint(-8, 8), 2) for _ in range(d)]
            self.boxes.append(box_to_polyhedron(
                Box(tuple(lo), tuple(l + F(rng.randint(1, 8), 2) for l in lo))))
        self.refined = [p for p in self.pool if len(p.rows) == 2]

    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for i, poly in enumerate(self.pool):
            x = tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim))
            y = tuple(F(rng.randint(-80, 80), 8) for _ in range(poly.dim))
            ops.append(self._convexity(f"b{index}.convexity.p{i}", poly, x, y))
        for i, poly in enumerate(self.boxes):
            for level in (2, 3):
                ops.append(RefuteLinf._op(index, f"refute.box{i}.l{level}", poly, level, 8, rng,
                                          "external", refuted=False))
        for i, poly in enumerate(self.refined):
            ops.append(self._refine(f"b{index}.refine.p{i}", poly, rng))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _convexity(op_id, poly, x, y) -> Op:
        def run():
            return convexity.distance_convexity_check(poly, x, y)

        def check(report):
            return None if report.holds else f"verdict {report.verdict}, expected holds"

        return Op(op_id, run, check)

    @staticmethod
    def _refine(op_id, poly, rng) -> Op:
        centers = [tuple(F(rng.randint(-16, 16), 4) for _ in range(poly.dim)) for _ in range(2)]
        gap = max(abs(a - b) for a, b in zip(*centers)) / 2
        # The origin lies in poly, so |c| bounds d(c, poly): the family is
        # externally admissible by construction.
        balls = tuple(Ball(c, max(max(abs(v) for v in c), gap) + F(1, 4)) for c in centers)

        def run():
            return refine.almost_to_exact(refine.exact_subset_oracle(poly),
                                          LinfBallFamily(balls), iterations=40)

        def check(result):
            point, trace = result
            if not poly.contains(point):
                return "final point outside the polyhedron"
            return None if verify_trace(trace).passed else "trace does not re-verify"

        return Op(op_id, run, check)


# ---------------------------------------------------------------------------
# cli-cold

# (op name, subcommand arguments with {dir} for the instance folder, exit code)
CLI_OPS = (
    ("check-graph", "check --instance {dir}/graph.json", 0),
    ("check-metric", "check --instance {dir}/metric.json", 1),
    ("check-polyhedron", "check --instance {dir}/polyhedron.json", 0),
    ("check-family", "check --instance {dir}/family.json", 0),
    ("check-helly", "check --instance {dir}/helly.json", 1),
    ("refute", "refute --instance {dir}/union.json --level 3", 1),
    ("helly", "helly --dim 8 --verify", 1),
    ("refine-cauchy-halving", "refine --instance {dir}/family.json --scheme cauchy-halving", 0),
    ("refine-triple-34", "refine --instance {dir}/triple.json --scheme triple-34", 0),
    ("refine-chain-walk", "refine --instance {dir}/chain.json --scheme chain-walk", 0),
    ("barycenter", "barycenter --instance {dir}/points.json", 0),
    ("ip-threshold", "ip-threshold --k 3", 0),
    ("ip-lift", "ip-lift --instance {dir}/ip.json", 0),
    ("graph-scan", "graph-scan --instance {dir}/scan.json --level 3", 0),
)
ENTRY = "import sys; from hyperball.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HYPERBALL_THREADS"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _without_timing(text: str) -> str:
    report = json.loads(text)
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True)


class CLICold(Workload):
    """One ``hyperball ... --json`` process at a time on the checked-in
    instance files, every subcommand, the interpreter start-up included.
    The seed orders each pass and seeds the refuter."""

    name = "cli-cold"
    limit_s = 30.0
    reference_loops = 5

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.env = child_env()
        self.scratch = os.path.join(BENCH_DIR, "out")
        self.reports: dict[str, str] = {}
        self.max_rss_kb = 0
        self.argv = {}
        self.commands = {name: args.split()[0] for name, args, _ in CLI_OPS}
        for name, args, code in CLI_OPS:
            argv = args.format(dir=INSTANCES).split() + ["--json"]
            if name == "refute":
                argv += ["--seed", str(self.seed)]
            self.argv[name] = (argv, code)

    def prepare(self) -> None:
        for fname in sorted(os.listdir(INSTANCES)):
            parse_instance(os.path.join(INSTANCES, fname))
        self.child(["ip-threshold", "--k", "2", "--json"])

    def child(self, argv):
        return run_child([sys.executable, "-c", ENTRY] + argv, self.env, self.scratch, ROOT)

    def block(self, index: int) -> list[Op]:
        names = [name for name, _, _ in CLI_OPS]
        self.rng(index).shuffle(names)
        return [self._op(index, name) for name in names]

    def _op(self, index: int, name: str) -> Op:
        argv, code = self.argv[name]

        def run():
            return self.child(argv)

        def check(result):
            self.max_rss_kb = max(self.max_rss_kb, result.max_rss_kb)
            return self.check_report(name, code, result.code, result.stdout)

        return Op(f"p{index}.{name}", run, check)

    def check_report(self, name: str, expected: int, code: int, stdout: str) -> str | None:
        if code != expected:
            return f"exit code {code}, expected {expected}"
        try:
            body = _without_timing(stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        first = self.reports.setdefault(name, body)
        if body != first:
            return "report differs from an earlier run apart from timing"
        if name == "refute":
            return self._check_refutation(json.loads(stdout))
        return None

    @staticmethod
    def _check_refutation(report) -> str | None:
        _, family = parse_instance(os.path.join(INSTANCES, "union.json"))
        balls = parse_instance({"type": "family", "balls": report["checks"][0]["certificate"]["balls"],
                                "subset": None})[1].balls
        return None if verify_refutation(family.subset, balls) else "refutation does not re-verify"

    def in_process_block(self, index: int) -> list[Op]:
        """The same commands through ``hyperball.cli.main`` in this process,
        for the traced run's spans."""
        ops = []
        for name, _, _ in CLI_OPS:
            argv, code = self.argv[name]

            def run(argv=argv):
                sink = stdio.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(stdio.StringIO()):
                    exit_code = cli.main(argv)
                return exit_code, sink.getvalue()

            def check(result, name=name, code=code):
                return self.check_report(name, code, *result)

            ops.append(Op(f"i{index}.{name}", run, check))
        return ops

    def start_probe(self, code: str) -> float:
        start = time.perf_counter()
        result = run_child([sys.executable, "-c", code], self.env, self.scratch, ROOT)
        elapsed = time.perf_counter() - start
        if result.code != 0:
            raise RuntimeError(f"start-up probe {code!r} failed: {result.stderr}")
        return elapsed


WORKLOADS = {w.name: w for w in (RefuteLinf, LPDistinct, LPRepeat, CLICold)}
