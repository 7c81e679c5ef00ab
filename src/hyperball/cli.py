"""Command-line front end.

Exit codes: 0 verdict holds / witness found, 1 refuted, 2 inconclusive,
3 usage, validation or unreadable-file error, 4 internal error (a failed
self-check or an unexpected exception); errors print one "error:" line.
Each subcommand takes only the flags it reads.  Reports echo the
configuration, with null for a flag the subcommand does not take; with the
same seed and inputs the JSON report is byte-identical up to its "timing"
field.

Each handler imports the modules it calls when it runs, so a process loads
only what its subcommand uses: ``check`` on a metric loads no LP or refuter
code, and ``barycenter`` or ``ip-threshold`` none of ``lab``, ``lp`` or
``refine``.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .errors import HyperballError, InternalError, InvalidArgument
from .io import canonical_dumps, parse_instance
from .rational import parse_rational
from .reports import HOLDS, INCONCLUSIVE, REFUTE_MODES, REFUTED

EXIT_HOLDS = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {HOLDS: EXIT_HOLDS, REFUTED: EXIT_REFUTED, INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _report_scaffold(args, command: str) -> dict:
    config = {
        "seed": getattr(args, "seed", None),
        "budget": getattr(args, "budget", None),
        "instance": getattr(args, "instance", None),
    }
    return {
        "tool": "hyperball",
        "version": __version__,
        "command": command,
        "config": config,
        "checks": [],
    }


def _emit(report: dict, args, started: float) -> None:
    report["timing"] = {"seconds": f"{time.monotonic() - started:.6f}"}
    artifact_written = report.pop("_artifact_written", False)
    text = canonical_dumps(report)
    if getattr(args, "out", None) and not artifact_written:
        with open(args.out, "w") as fh:
            fh.write(text)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for check in report["checks"]:
            if "instance" in check:
                sys.stdout.write(canonical_dumps(check["instance"]))
                continue
            line = f"{check['name']}: {check['verdict']}"
            if "detail" in check:
                line += f"  ({check['detail']})"
            print(line)


def _helly_order(args, dim: int) -> int:
    """The Helly order --k, dim when the flag is not given."""
    return dim if args.k is None else args.k


def cmd_check(args, report) -> None:
    kind, payload = parse_instance(args.instance)
    if args.k is not None and kind != "helly":
        raise InvalidArgument("--k applies only to helly instances")
    if kind in ("metric", "graph"):
        from .metric import check_cap, graph_metric, is_modular

        check_cap(payload.n if kind == "graph" else payload.size)  # before the shortest paths
        space = graph_metric(payload) if kind == "graph" else payload
        outcome = is_modular(space)
        report["checks"].append(
            {
                "name": "metric-axioms",
                "verdict": HOLDS,
                "detail": f"{space.size} points validated",
            }
        )
        report["checks"].append(
            {
                "name": "modularity",
                "verdict": outcome.verdict,
                "certificate": outcome.certificate,
            }
        )
    elif kind == "polyhedron":
        from .lp import lp_feasible

        result = lp_feasible(payload)
        report["checks"].append(
            {
                "name": "non-emptiness",
                "verdict": HOLDS if result.feasible else REFUTED,
                "certificate": result.witness or result.certificate,
            }
        )
    elif kind == "family":
        from .lab import external_witness, hyperconvex_witness

        family = payload
        if family.subset is None:
            result = hyperconvex_witness(family)
        else:
            result = external_witness(family.subset, family)
        report["checks"].append(
            {
                "name": "common-point",
                "verdict": HOLDS if result.feasible else REFUTED,
                "certificate": result.witness if result.feasible else result.certificate,
            }
        )
    elif kind == "helly":
        from .lab import helly_order_check

        instance = payload
        outcome = helly_order_check(instance.halfspaces, _helly_order(args, instance.dim))
        report["checks"].append(
            {"name": "helly-order", "verdict": outcome.verdict, "certificate": outcome.certificate}
        )
    else:
        raise InvalidArgument(f"check does not support instance kind {kind!r}")


def cmd_refute(args, report) -> None:
    kind, payload = parse_instance(args.instance)
    subset = payload.subset if kind == "family" else payload
    if kind not in ("family", "polyhedron", "box") or subset is None:
        raise InvalidArgument("refute needs a polyhedron, box, or family-with-subset instance")
    from .lab import refute_search

    outcome = refute_search(subset, args.level, args.budget, args.seed, mode=args.mode)
    report["checks"].append(
        {
            "name": f"refute-level-{args.level}",
            "verdict": outcome.verdict,
            "certificate": outcome.certificate,
            "budget_used": outcome.budget_used,
            "seed": outcome.seed,
        }
    )


def cmd_helly(args, report) -> None:
    if args.k is not None and not args.verify:
        raise InvalidArgument("--k applies only with --verify")
    from .lab import helly_counterexample, helly_order_check

    instance = helly_counterexample(args.dim)
    if args.verify:  # --out gets the report
        k = _helly_order(args, args.dim)
        outcome = helly_order_check(instance.halfspaces, k)
        report["checks"].append(
            {
                "name": f"helly-order-{k}",
                "verdict": outcome.verdict,
                "detail": "; ".join(outcome.notes),
            }
        )
        return
    check = {"name": "emit", "verdict": HOLDS, "detail": f"{args.dim + 1} half-spaces"}
    if args.out:  # --out gets the instance
        with open(args.out, "w") as fh:
            fh.write(canonical_dumps(instance))
        report["_artifact_written"] = True
    else:  # stdout gets one document: the instance, or with --json the report holding it
        check["instance"] = instance
    report["checks"].append(check)


def _trace_verdict(trace) -> str:
    """Every refinement verdict: ``verify_trace``'s re-check of the trace."""
    from .refine import verify_trace

    return HOLDS if verify_trace(trace).passed else REFUTED


def cmd_refine(args, report) -> None:
    unread = {"cauchy-halving": (), "triple-34": ("scale",), "chain-walk": ("iters", "scale")}[args.scheme]
    for flag in unread:
        if getattr(args, flag) is not None:
            raise InvalidArgument(f"--{flag} does not apply to {args.scheme}")
    from .refine import almost_to_exact, chain_walk, exact_subset_oracle, triple_intersection

    iters = 40 if args.iters is None else args.iters
    kind, payload = parse_instance(args.instance)
    if args.scheme == "cauchy-halving":
        if kind != "family" or payload.subset is None:
            raise InvalidArgument("cauchy-halving needs a family instance with a subset")
        family = payload
        oracle = exact_subset_oracle(family.subset, len(family) + 1)  # the family's balls and one more
        point_, trace = almost_to_exact(
            oracle,
            family,
            iterations=iters,
            scale=parse_rational("1" if args.scale is None else args.scale),
        )
        shown = {"point": point_, "trace": {"iterates": trace.iterates, "slacks": trace.slacks, "steps": trace.steps}}
    elif args.scheme == "triple-34":
        if kind != "triple":
            raise InvalidArgument("triple-34 needs a triple instance")
        sets, x0 = payload
        point_, trace = triple_intersection(*map(exact_subset_oracle, sets), x0, rounds=iters)
        shown = {"point": point_, "gaps": trace.slacks}
    else:  # chain-walk, the one scheme left among the parser's choices
        if kind != "chain":
            raise InvalidArgument("chain-walk needs a chain instance")
        spec = payload
        pair, trace = chain_walk(
            exact_subset_oracle(spec["sets"][0]),
            exact_subset_oracle(spec["sets"][1]),
            spec["x"],
            spec["r"],
            spec["y"],
            spec["eps"],
            spec["delta"],
        )
        shown = {"detail": "path={path} n0={n0} calls={calls}".format(**trace.aux), "pair": pair}
    report["checks"].append({"name": args.scheme, "verdict": _trace_verdict(trace), **shown})


def cmd_barycenter(args, report) -> None:
    kind, payload = parse_instance(args.instance)
    if kind != "points":
        raise InvalidArgument("barycenter needs a points instance")
    from .barycenter import barycenter

    result = barycenter(payload)
    report["checks"].append(
        {"name": "barycenter", "verdict": HOLDS, "point": result}
    )


def cmd_ip_threshold(args, report) -> None:
    from .barycenter import ip_threshold

    value = ip_threshold(args.k)
    report["checks"].append({"name": f"ip-threshold-k{args.k}", "verdict": HOLDS, "detail": str(value)})
    if not args.json:
        print(value)


def cmd_ip_lift(args, report) -> None:
    kind, payload = parse_instance(args.instance)
    if kind != "ip":
        raise InvalidArgument("ip-lift needs an ip instance")
    from .barycenter import default_ip_eps, ip_lift
    from .refine import exact_subset_oracle, ip_constants

    balls = payload["balls"]
    k = payload["k"]
    n = len(balls) - 1
    eps = payload["eps"] if payload["eps"] is not None else default_ip_eps(n, k)
    params = ip_constants(n, k, eps)
    point_, trace = ip_lift(exact_subset_oracle(None, n), balls, params, rounds=args.iters)
    report["checks"].append(
        {
            "name": "ip-lift",
            "verdict": _trace_verdict(trace),
            "point": point_,
            "reaches": trace.slacks,
            "c": params.c,
        }
    )


def cmd_graph_scan(args, report) -> None:
    kind, payload = parse_instance(args.instance)
    if kind != "graph":
        raise InvalidArgument("graph-scan needs a graph instance")
    from .lab import graph_n_helly_bruteforce

    outcome = graph_n_helly_bruteforce(payload, args.level)
    report["checks"].append(
        {
            "name": f"graph-helly-{args.level}",
            "verdict": outcome.verdict,
            "certificate": outcome.certificate,
        }
    )


_COMMANDS = {
    "check": cmd_check,
    "refute": cmd_refute,
    "helly": cmd_helly,
    "refine": cmd_refine,
    "barycenter": cmd_barycenter,
    "ip-threshold": cmd_ip_threshold,
    "ip-lift": cmd_ip_lift,
    "graph-scan": cmd_graph_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperball", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--out", help="write the JSON report (or emitted instance) here")

    p = sub.add_parser("check", help="validate an instance and run its predicate")
    common(p)
    p.add_argument("--k", type=int, help="Helly order for helly instances (default: dim)")

    p = sub.add_parser("refute", help="seeded counterexample search")
    common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mode", default="external", choices=list(REFUTE_MODES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10_000)

    p = sub.add_parser("helly", help="emit or verify the optimal-order family")
    common(p, instance=False)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--k", type=int, help="Helly order for --verify (default: dim)")

    p = sub.add_parser("refine", help="run a refinement scheme with exact oracles")
    common(p)
    p.add_argument("--scheme", required=True, choices=["cauchy-halving", "chain-walk", "triple-34"])
    p.add_argument("--iters", type=int, help="rounds for cauchy-halving and triple-34 (default 40)")
    p.add_argument("--scale", help='slack scale for cauchy-halving as "p/q" (default 1)')

    p = sub.add_parser("barycenter", help="barycenter of a point tuple")
    common(p)

    p = sub.add_parser("ip-threshold", help="least lifting size for a given k")
    common(p, instance=False)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("ip-lift", help="run the intersection-property lift")
    common(p)
    p.add_argument("--iters", type=int, default=30)

    p = sub.add_parser("graph-scan", help="exhaustive graph ball-Helly check")
    common(p)
    p.add_argument("--level", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    started = time.monotonic()
    handler = _COMMANDS[args.command]
    report = _report_scaffold(args, args.command)
    try:
        handler(args, report)
        _emit(report, args, started)
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (HyperballError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug; never reported as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return _VERDICT_EXIT[report["checks"][-1]["verdict"]]


if __name__ == "__main__":
    sys.exit(main())
