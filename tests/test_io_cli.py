import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperball import lab, linf, lp, metric, refine, reports, rng, sets
from hyperball.barycenter import barycenter, ip_lift
from hyperball.cli import main
from hyperball.errors import DimMismatch, HyperballError, InternalError, InvalidArgument
from hyperball.io import (
    ParseError,
    canonical_dumps,
    parse_instance,
    parse_subset,
    to_jsonable,
)
from hyperball.lab import helly_counterexample
from hyperball.lp import box_to_polyhedron

from conftest import F, pt

# The module itself: ``hyperball.barycenter`` is the function of that name.
BARYCENTER = importlib.import_module("hyperball.barycenter")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_matrix_round_trip(tmp_path):
    path = write(tmp_path, "m.json", {"type": "matrix", "dist": [["0/1", "1/1"], ["1/1", "0/1"]]})
    kind, space = parse_instance(path)
    assert kind == "metric" and space.d(0, 1) == 1


def test_matrix_validation_names_triple(tmp_path):
    path = write(
        tmp_path, "bad.json", {"type": "matrix", "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
    )
    with pytest.raises(InvalidArgument) as exc:
        parse_instance(path)
    assert isinstance(exc.value, metric.TriangleViolation) and exc.value.indices == (0, 2, 1)
    assert "dist[0][2]" in str(exc.value)


def test_zero_denominator_rejected(tmp_path):
    path = write(tmp_path, "z.json", {"type": "matrix", "dist": [["0/1", "1/0"], ["1/0", "0/1"]]})
    with pytest.raises(ParseError):
        parse_instance(path)


def test_float_rejected(tmp_path):
    path = write(tmp_path, "f.json", {"ball": {"center": [0.5, 0], "r": 1}})
    with pytest.raises(ParseError):
        parse_instance(path)


_HALF = {"polyhedron": {"dim": 1, "rows": [{"a": ["1/1"], "b": "0/1"}]}}


@pytest.mark.parametrize(
    "instance",
    [
        {"type": "graph", "n": 3.9, "edges": [[0, 1]]},
        {"type": "graph", "n": 3, "edges": [[0.7, 1]]},
        {"type": "graph", "n": 3, "edges": [[True, 0]]},
        {"type": "graph", "n": "3", "edges": [[0, 1]]},
        {"type": "ip", "k": 2.9, "balls": []},
        {"type": "ip", "k": True, "balls": []},
        {"polyhedron": {"dim": 2.5, "rows": [{"a": ["1/1", "1/1"], "b": "0/1"}]}},
        {"type": "helly", "dim": 2.5, "halfspaces": [_HALF], "witnesses": []},
    ],
    ids=["graph-n-float", "edge-float", "edge-bool", "graph-n-string", "ip-k-float", "ip-k-bool",
         "polyhedron-dim-float", "helly-dim-float"],
)
def test_integer_fields_take_a_json_integer_only(tmp_path, instance):
    """A count, dimension or edge end is never truncated or read from a bool."""
    with pytest.raises(ParseError, match="expected an integer"):
        parse_instance(write(tmp_path, "i.json", instance))


def test_polyhedron_and_ball_wire_format(tmp_path):
    path = write(
        tmp_path,
        "p.json",
        {"polyhedron": {"dim": 2, "rows": [{"a": ["1/1", "1/1"], "b": "-1/1"}]}},
    )
    kind, poly = parse_instance(path)
    assert kind == "polyhedron" and poly.rows[0][1] == -1
    path2 = write(tmp_path, "b.json", {"ball": {"center": ["0/1", "0/1"], "r": "2/1"}})
    kind2, ball = parse_instance(path2)
    assert kind2 == "ball" and ball.radius == 2


def test_helly_instance_byte_identical_round_trip(tmp_path):
    inst = helly_counterexample(3)
    text = canonical_dumps(inst)
    path = tmp_path / "h.json"
    path.write_text(text)
    kind, parsed = parse_instance(str(path))
    assert kind == "helly"
    assert canonical_dumps(parsed) == text


def test_family_with_subset(tmp_path):
    payload = {
        "type": "family",
        "balls": [{"ball": {"center": ["0/1", "0/1"], "r": "1/1"}}],
        "subset": {"box": {"lo": ["0/1", "0/1"], "hi": ["2/1", "2/1"]}},
    }
    kind, family = parse_instance(write(tmp_path, "fam.json", payload))
    assert kind == "family" and family.subset is not None


def test_rationals_serialize_with_denominator():
    assert to_jsonable(Fraction(3)) == "3/1"
    assert to_jsonable({"x": (Fraction(1, 2),)}) == {"x": ["1/2"]}


# ---------------------------------------------------------------------------
# CLI


def test_cli_ip_threshold(capsys):
    code = main(["ip-threshold", "--k", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"


def test_cli_helly_verify_exit_code(capsys):
    assert main(["helly", "--dim", "4", "--verify"]) == 1
    capsys.readouterr()


def test_cli_helly_emit_and_check(tmp_path, capsys):
    out = str(tmp_path / "h4.json")
    assert main(["helly", "--dim", "4", "--out", out]) == 0
    capsys.readouterr()
    assert main(["check", "--instance", out]) == 1  # family is not Helly of order n
    capsys.readouterr()
    kind, parsed = parse_instance(out)
    assert canonical_dumps(parsed) == open(out).read()


def test_cli_helly_out_gets_the_instance_only_without_verify(tmp_path, capsys):
    emitted, verified = tmp_path / "emit.json", tmp_path / "verify.json"
    assert main(["helly", "--dim", "4", "--out", str(emitted)]) == 0
    assert emitted.read_text() == canonical_dumps(helly_counterexample(4))
    assert capsys.readouterr().out == "emit: holds  (5 half-spaces)\n"
    assert main(["helly", "--dim", "4", "--verify", "--out", str(verified)]) == 1
    report = json.loads(verified.read_text())
    assert report["command"] == "helly" and report["checks"][0]["name"] == "helly-order-4"
    assert capsys.readouterr().out == "helly-order-4: refuted  (not a Helly family of this order)\n"


def test_cli_helly_stdout_carries_one_document(tmp_path, capsys):
    """Without --out, text mode prints the instance alone, byte-identical
    to what --out writes, and --json prints the report alone, its emit
    check holding the instance."""
    emitted = tmp_path / "h3.json"
    assert main(["helly", "--dim", "3", "--out", str(emitted)]) == 0
    capsys.readouterr()
    assert main(["helly", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert out == emitted.read_text()
    kind, instance = parse_instance(json.loads(out))
    assert kind == "helly" and canonical_dumps(instance) == out
    assert main(["helly", "--dim", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (check,) = report["checks"]
    assert check["name"] == "emit" and check["verdict"] == "holds"
    assert check["instance"] == json.loads(out)


def test_cli_a_helly_instance_whose_dim_differs_from_its_half_spaces_exits_3(tmp_path, capsys):
    data = to_jsonable(helly_counterexample(2))
    with pytest.raises(DimMismatch, match="^half-space 0 has dim 2, not 7$"):
        parse_instance({**data, "dim": 7})
    path = write(tmp_path, "h.json", {**data, "dim": 7})
    assert main(["check", "--instance", path]) == 3
    assert capsys.readouterr().err == "error: half-space 0 has dim 2, not 7\n"
    assert main(["check", "--instance", write(tmp_path, "h2.json", data)]) == 1
    capsys.readouterr()


def test_cli_k_is_a_usage_error_where_it_is_not_read(tmp_path, capsys):
    helly = str(tmp_path / "h3.json")
    assert main(["helly", "--dim", "3", "--out", helly]) == 0
    poly = write(tmp_path, "p.json", {"polyhedron": {"dim": 1, "rows": [{"a": ["1/1"], "b": "0/1"}]}})
    assert main(["check", "--instance", poly]) == 0
    capsys.readouterr()
    emitted = tmp_path / "h.json"
    for argv, message in [
        (["check", "--instance", poly, "--k", "7"], "--k applies only to helly instances"),
        (["helly", "--dim", "3", "--k", "9", "--out", str(emitted)], "--k applies only with --verify"),
        (["check", "--instance", helly, "--k", "0"], "k must be >= 1"),
        (["helly", "--dim", "3", "--verify", "--k", "0"], "k must be >= 1"),
        (["helly", "--dim", "3", "--verify", "--k", "-1"], "k must be >= 1"),
    ]:
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not emitted.exists()
    # Where --k is read it reaches the check: order 3 fails on the 3-d family, order 4 holds.
    for command in (["check", "--instance", helly], ["helly", "--dim", "3", "--verify"]):
        assert main(command + ["--k", "3"]) == 1
        assert main(command + ["--k", "4"]) == 0
    capsys.readouterr()


def test_cli_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["ip-threshold", "--k", "2", "--bogus"]) == 3
    # A flag is accepted only by the subcommands that read it.
    c4 = write(tmp_path, "c4.json", {"type": "graph", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    fam = write(tmp_path, "fam.json", {
        "type": "family", "balls": [{"ball": {"center": ["0/1"], "r": "1/1"}}], "subset": {"box": {"lo": ["0/1"], "hi": ["2/1"]}},
    })
    instances = SRC.parent / "bench" / "instances"
    chain, triple = str(instances / "chain.json"), str(instances / "triple.json")
    for argv, unread in [
        (["check", "--instance", c4], ["--seed", "1"]),
        (["refine", "--instance", fam, "--scheme", "cauchy-halving", "--iters", "2"], ["--tau", "1/2"]),
        (["graph-scan", "--instance", c4, "--level", "2"], ["--budget", "5"]),
        # refine schemes take only the flags they read: chain-walk neither, triple-34 no --scale
        (["refine", "--instance", chain, "--scheme", "chain-walk"], ["--iters", "5"]),
        (["refine", "--instance", chain, "--scheme", "chain-walk"], ["--scale", "2"]),
        (["refine", "--instance", triple, "--scheme", "triple-34", "--iters", "3"], ["--scale", "2"]),
    ]:
        assert main(argv) == 0
        assert main(argv + unread) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["barycenter", "ip-lift"])
def test_cli_tau_is_refused_where_no_stop_tolerance_is_read(tmp_path, capsys, command):
    # The barycenter is the exact mean: neither it nor the ip-lift reads a stop tolerance.
    instance = {
        "barycenter": {"type": "points", "points": [["0/1", "0/1"], ["1/1", "3/1"], ["2/1", "1/1"]]},
        "ip-lift": {"type": "ip", "k": 2, "balls": [
            {"ball": {"center": [x, y], "r": "6/1"}}
            for x, y in [("-4/1", "4/1"), ("-2/1", "-5/1"), ("-1/1", "5/1"), ("3/1", "0/1"), ("4/1", "-1/1")]]},
    }[command]
    path = write(tmp_path, "instance.json", instance)
    argv = [command, "--instance", path, "--json"] + (["--iters", "4"] if command == "ip-lift" else [])
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert "tau" not in report["config"] and report["checks"][0]["verdict"] == "holds"
    assert main(argv + ["--tau", "1/64"]) == 3
    assert "--tau" in capsys.readouterr().err


def test_cli_check_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "matrix", "dist": [[0, 1], [1, 0]]}))
    assert main(["check", "--instance", str(path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "matrix", "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    assert main(["check", "--instance", str(bad)]) == 3
    capsys.readouterr()


def test_cli_refute_modes(tmp_path, capsys):
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"box": {"lo": ["0/1", "0/1"], "hi": ["1/1", "1/1"]}}))
    assert main(["refute", "--instance", str(box), "--level", "2", "--budget", "500", "--seed", "5"]) == 2
    capsys.readouterr()
    union = tmp_path / "union.json"
    union.write_text(
        json.dumps(
            {
                "type": "family",
                "balls": [{"ball": {"center": ["0/1", "0/1"], "r": "1/1"}}],
                "subset": {
                    "union": [
                        {"box": {"lo": ["0/1", "0/1"], "hi": ["1/1", "1/1"]}},
                        {"box": {"lo": ["3/1", "0/1"], "hi": ["4/1", "1/1"]}},
                    ]
                },
            }
        )
    )
    assert main(["refute", "--instance", str(union), "--level", "2", "--budget", "1000", "--seed", "7"]) == 1
    capsys.readouterr()


def test_cli_refute_union_with_an_empty_member(tmp_path, capsys):
    # The refuter once measured distances to the empty member too, hit a
    # candidate the exact check rejected, and exited 4.  The union is
    # disconnected, so the center modes get the gap decision's two balls on
    # the facing sides x = 1 and x = 3; ``external`` mode gets the span
    # decision's two balls.
    members = [
        {"box": {"lo": ["0/1", "0/1"], "hi": ["1/1", "1/1"]}},
        {"box": {"lo": ["3/1", "0/1"], "hi": ["4/1", "1/1"]}},
        {"box": {"lo": ["2/1", "5/1"], "hi": ["1/1", "6/1"]}},
    ]
    union = write(tmp_path, "union.json", {
        "type": "family",
        "balls": [{"ball": {"center": ["0/1", "0/1"], "r": "1/1"}}],
        "subset": {"union": members},
    })
    certificates = {}
    for mode in ("external", "hyperconvex", "weakly-external"):
        argv = ["refute", "--instance", union, "--level", "2", "--seed", "13", "--mode", mode, "--json"]
        assert main(argv) == 1, mode
        certificates[mode] = json.loads(capsys.readouterr().out)["checks"][0]["certificate"]
    assert "index" not in certificates["external"] and len(certificates["external"]["balls"]) == 2
    gap = [{"ball": {"center": [x, "0/1"], "r": "1/1"}} for x in ("1/1", "3/1")]
    for mode in ("hyperconvex", "weakly-external"):
        assert certificates[mode] == {"balls": gap, "mode": mode}


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_refute_out_of_range_seed_is_inconclusive(tmp_path, capsys, seed):
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"box": {"lo": ["0/1", "0/1"], "hi": ["1/1", "1/1"]}}))
    assert main(["refute", "--instance", str(box), "--level", "3", "--seed", seed]) == 2
    capsys.readouterr()


def test_cli_reports_are_deterministic_modulo_timing(tmp_path, capsys):
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"box": {"lo": ["0/1", "0/1"], "hi": ["1/1", "1/1"]}}))
    outs = []
    for run in range(2):
        out = tmp_path / f"r{run}.json"
        main(
            [
                "refute", "--instance", str(box), "--level", "2",
                "--budget", "200", "--seed", "9", "--json", "--out", str(out),
            ]
        )
        capsys.readouterr()
        data = json.loads(out.read_text())
        data.pop("timing")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_barycenter_and_refine(tmp_path, capsys):
    pts_file = tmp_path / "pts.json"
    pts_file.write_text(json.dumps({"type": "points", "points": [["0/1"], ["1/1"], ["2/1"]]}))
    assert main(["barycenter", "--instance", str(pts_file)]) == 0
    capsys.readouterr()

    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {
                "type": "family",
                "balls": [
                    {"ball": {"center": ["3/1", "1/1"], "r": "2/1"}},
                    {"ball": {"center": ["-1/1", "1/1"], "r": "2/1"}},
                ],
                "subset": {"box": {"lo": ["0/1", "0/1"], "hi": ["2/1", "2/1"]}},
            }
        )
    )
    assert main(["refine", "--instance", str(fam), "--scheme", "cauchy-halving", "--iters", "10"]) == 0
    capsys.readouterr()


def test_cli_graph_scan(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"type": "graph", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    assert main(["graph-scan", "--instance", str(g), "--level", "2"]) == 0
    capsys.readouterr()
    c6 = tmp_path / "c6.json"
    c6.write_text(
        json.dumps({"type": "graph", "n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]})
    )
    assert main(["graph-scan", "--instance", str(c6), "--level", "3"]) == 1
    capsys.readouterr()


def test_cli_ip_lift(tmp_path, capsys, monkeypatch):
    balls = [
        {"ball": {"center": ["0/1", "0/1"], "r": "2/1"}},
        {"ball": {"center": ["1/1", "0/1"], "r": "1/1"}},
        {"ball": {"center": ["0/1", "1/1"], "r": "1/1"}},
        {"ball": {"center": ["-1/1", "0/1"], "r": "3/2"}},
        {"ball": {"center": ["0/1", "-1/1"], "r": "3/2"}},
    ]
    inst = tmp_path / "ip.json"
    inst.write_text(json.dumps({"type": "ip", "k": 2, "eps": "1/64", "balls": balls}))
    assert main(["ip-lift", "--instance", inst.as_posix(), "--iters", "10"]) == 0
    # The verdict is the trace check's: a failing check refutes.
    monkeypatch.setattr(refine, "verify_trace", lambda trace: SimpleNamespace(passed=False))
    assert main(["ip-lift", "--instance", inst.as_posix(), "--iters", "10"]) == 1
    capsys.readouterr()


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BOX = {"box": {"lo": ["0/1", "0/1"], "hi": ["1/1", "1/1"]}}


@pytest.mark.parametrize(
    "argv, instance",
    [
        (["check", "--instance", "{dir}/missing.json"], None),
        (["refute", "--instance", "{file}", "--level", "1"], BOX),
        (["check", "--instance", "{file}"], {"type": "family", "subset": None}),
        (["barycenter", "--instance", "{file}"], {"type": "points", "points": []}),
        (["check", "--instance", "{file}"], {"type": "family", "balls": 5, "subset": None}),
        (["refine", "--instance", "{file}", "--scheme", "triple-34"], {"type": "triple", "sets": [BOX] * 3}),
        (["ip-lift", "--instance", "{file}"], {"type": "ip", "k": 5, "balls": [{"ball": {"center": ["0/1"], "r": "1/1"}}] * 2}),
        (["check", "--instance", "{file}"], {"type": "family", "balls": [
            {"ball": {"center": ["0/1"], "r": "1/1"}}, {"ball": {"center": ["5/1"], "r": "1/1"}}]}),
        (["refute", "--instance", "{file}", "--level", "2"], {"type": "family", "balls": [
            {"ball": {"center": ["0/1", "0/1"], "r": "1/1"}}], "subset": None}),
        (["refine", "--instance", "{file}", "--scheme", "triple-34"],
         {"type": "triple", "sets": [BOX, None, BOX], "x0": ["0/1", "0/1"]}),
        (["refine", "--instance", "{file}", "--scheme", "chain-walk"],
         {"type": "chain", "sets": [BOX, None], "x": ["0/1", "0/1"], "y": ["1/1", "1/1"],
          "r": "1/1", "eps": "1/4", "delta": "1/8"}),
        (["barycenter", "--instance", "{file}"],
         {"type": "points", "points": [["0/1", "1/1"], ["2/1"], ["3/1", "4/1"]]}),
        (["check", "--instance", "{file}"], {"type": "graph", "n": 2.5, "edges": [[0, 1]]}),
    ],
    ids=["missing-file", "level-1", "family-without-balls", "empty-points", "balls-not-a-list",
         "triple-without-x0", "ip-k-above-n", "family-not-admissible", "refute-family-without-subset",
         "triple-null-set", "chain-null-set", "points-of-different-dims", "graph-n-float"],
)
def test_cli_bad_input_is_a_usage_error_without_traceback(tmp_path, argv, instance):
    file = write(tmp_path, "instance.json", instance) if instance is not None else ""
    argv = [arg.format(dir=tmp_path, file=file) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "hyperball.cli", *argv], env=env, capture_output=True, text=True
    )
    assert "Traceback" not in result.stderr
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "instance",
    [
        {"polyhedron": {"dim": 0, "rows": [{"a": [], "b": "1/1"}]}},
        {"box": {"lo": [], "hi": []}},
        {"type": "family", "balls": [{"ball": {"center": [], "r": "1/1"}}],
         "subset": {"union": [{"box": {"lo": [], "hi": []}}]}},
    ],
    ids=["polyhedron", "box", "union"],
)
def test_cli_refute_on_a_point_is_inconclusive_in_every_mode(tmp_path, capsys, instance):
    file = write(tmp_path, "point.json", instance)
    for mode in ("external", "hyperconvex", "weakly-external"):
        assert main(["refute", "--instance", file, "--level", "2", "--mode", mode]) == 2, mode
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [(["refute", "--instance", "{dir}/union.json", "--level", "2", "--budget", "-5"], "budget must be >= 0"),
     (["refine", "--instance", "{dir}/triple.json", "--scheme", "triple-34", "--iters", "-3"],
      "rounds must be >= 0"),
     (["ip-lift", "--instance", "{dir}/ip.json", "--iters", "-2"], "rounds must be >= 0"),
     (["graph-scan", "--instance", "{dir}/scan.json", "--level", "-1"], "family size n must be >= 0")],
    ids=["refute-budget", "triple-34-iters", "ip-lift-iters", "graph-scan-level"],
)
def test_cli_negative_counts_are_usage_errors(capsys, argv, message):
    instances = SRC.parent / "bench" / "instances"
    assert main([arg.format(dir=instances) for arg in argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_oracle_failure_on_a_subset_with_a_gap_exits_3(tmp_path, capsys):
    """[0, 1] u [2, 3] is not externally hyperconvex: B(5/4, 1/4) and
    B(7/4, 1/4) meet only at 3/2, in the gap, so the exact oracle of the
    halving iteration has no point to return.  That is bad input, not a bug."""
    member = lambda lo, hi: {"box": {"lo": [lo], "hi": [hi]}}
    file = write(tmp_path, "gap.json", {
        "type": "family",
        "balls": [{"ball": {"center": ["5/4"], "r": "1/4"}}, {"ball": {"center": ["7/4"], "r": "1/4"}}],
        "subset": {"union": [member("0/1", "1/1"), member("2/1", "3/1")]},
    })
    assert main(["refine", "--instance", file, "--scheme", "cauchy-halving"]) == 3
    assert capsys.readouterr().err == "error: oracle contract violated at call 1: no point returned\n"


def test_cli_refine_triple_34_through_polyhedra(tmp_path, capsys):
    """Sets 0 and 2 of the triple as four rows each: the box search of
    ``pair_witness`` on their rows gives the box triple's report."""
    boxes = json.loads((SRC.parent / "bench" / "instances" / "triple.json").read_text())
    sets = [to_jsonable(box_to_polyhedron(parse_subset(s))) if i != 1 else s
            for i, s in enumerate(boxes["sets"])]
    checks = []
    for instance in (boxes, dict(boxes, sets=sets)):
        file = write(tmp_path, "triple.json", instance)
        assert main(["refine", "--instance", file, "--scheme", "triple-34", "--json"]) == 0
        checks.append(json.loads(capsys.readouterr().out)["checks"])
    assert checks[0] == checks[1]


def test_cli_internal_failures_exit_4(tmp_path, capsys, monkeypatch):
    polyhedron = write(tmp_path, "p.json", {"polyhedron": {"dim": 1, "rows": [{"a": ["1/1"], "b": "0/1"}]}})
    union = write(tmp_path, "union.json", {
        "type": "family",
        "balls": [{"ball": {"center": ["0/1", "0/1"], "r": "1/1"}}],
        "subset": {"union": [BOX, {"box": {"lo": ["3/1", "0/1"], "hi": ["4/1", "1/1"]}}]},
    })

    def kernel_bug(*args):
        raise lp.LPKernelError("witness fails a constraint")

    monkeypatch.setattr(lp, "_verify_witness", kernel_bug)
    assert main(["check", "--instance", polyhedron]) == 4
    monkeypatch.setattr(lab, "verify_refutation", lambda subset, balls, mode: False)
    assert main(["refute", "--instance", union, "--level", "2", "--budget", "1000", "--seed", "7"]) == 4
    monkeypatch.setattr(BARYCENTER, "ip_threshold", lambda k: 1 // 0)
    assert main(["ip-threshold", "--k", "2"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: internal error: witness fails a constraint",
        "error: internal error: refutation failed exact re-verification",
        "error: internal error: ZeroDivisionError: integer division or modulo by zero",
    ]


def test_a_tampered_sampler_hit_fails_exact_re_verification(tmp_path, capsys, monkeypatch):
    """The sampler's hit is reported only once the real
    ``verify_refutation`` passes it: a hit with one radius shrunk below its
    floor d(c, A) raises ``InternalError``, and ``refute`` exits 4.  The
    free first ball of ``weakly-external`` mode has a positive floor.  The
    wedge x1 + x2 + x3 <= 0 is a half-space, so its center modes run on the
    sampler."""
    wedge = lp.halfspace([1, 1, 1], 0)
    real, tampered = lab._scalar_candidate, []

    def scalar_candidate(subset, arena, seed, index, start):
        balls = real(subset, arena, seed, index, start)
        if lab.external_witness(subset, lab.LinfBallFamily(balls)).feasible:
            return balls
        i, floor = max(enumerate(sets.subset_dist(wedge, b.center) for b in balls), key=lambda f: f[1])
        assert floor > 0
        tampered.append(index)
        return balls[:i] + (linf.Ball(balls[i].center, floor / 2),) + balls[i + 1:]

    monkeypatch.setattr(lab, "_scalar_candidate", scalar_candidate)
    with pytest.raises(InternalError, match="refutation failed exact re-verification"):
        lab.refute_search(wedge, 2, 1000, seed=7, mode="weakly-external")
    rows = [{"a": ["1/1", "1/1", "1/1"], "b": "0/1"}]
    path = write(tmp_path, "wedge.json", {"subset": {"polyhedron": {"dim": 3, "rows": rows}}, "type": "family",
                                          "balls": [{"ball": {"center": ["0/1"] * 3, "r": "1/1"}}]})
    argv = ["refute", "--instance", path, "--level", "2", "--budget", "1000", "--seed", "7"]
    assert main(argv + ["--mode", "weakly-external"]) == 4
    assert capsys.readouterr().err == "error: internal error: refutation failed exact re-verification\n"
    assert len(tampered) == 2


def test_cli_a_stray_value_error_inside_a_subcommand_exits_4(capsys, monkeypatch):
    """Only parsing, the instance checks and the entry points' argument
    checks (``InvalidArgument``) exit 3; any other ValueError is a bug."""
    def stray(*args, **kwargs):
        raise ValueError("max() arg is an empty sequence")

    union = str(SRC.parent / "bench" / "instances" / "union.json")
    monkeypatch.setattr(lab, "refute_search", stray)
    assert main(["refute", "--instance", union, "--level", "2"]) == 4
    monkeypatch.setattr(BARYCENTER, "ip_threshold", lambda k: int("two"))
    assert main(["ip-threshold", "--k", "2"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: internal error: ValueError: max() arg is an empty sequence",
        "error: internal error: ValueError: invalid literal for int() with base 10: 'two'",
    ]


def _bench_instance(name):
    return parse_instance(SRC.parent / "bench" / "instances" / f"{name}.json")[1]


@pytest.mark.parametrize("call", [
    lambda: lab.refute_search(_bench_instance("union").subset, 1, 10, 0),
    lambda: lab.refute_search(_bench_instance("union").subset, 2, -1, 0),
    lambda: lab.refute_search(_bench_instance("union").subset, 2, 10, 0, mode="internal"),
    lambda: lab.helly_order_check([], 2),
    lambda: lab.graph_n_helly_bruteforce(_bench_instance("scan"), -1),
    lambda: refine.almost_to_exact(refine.exact_subset_oracle(_bench_instance("family").subset),
                                   _bench_instance("family"), iterations=0),
    lambda: refine.triple_intersection(*map(refine.exact_subset_oracle, _bench_instance("triple")[0]),
                                       pt(100, 100), rounds=3),
    lambda: refine.chain_walk(*map(refine.exact_subset_oracle, _bench_instance("chain")["sets"]),
                              pt(0, 0), F(1), pt(0, 0), F(0), F(1)),
    lambda: refine.ip_constants(2, 3),
    lambda: ip_lift(refine.exact_subset_oracle(None, 2), _bench_instance("ip")["balls"],
                    refine.ip_constants(2, 2), rounds=-1),
], ids=["refute-level", "refute-budget", "refute-mode", "helly-empty", "graph-scan-level",
        "cauchy-iterations", "triple-x0", "chain-eps", "ip-k-above-n", "ip-lift-rounds"])
def test_entry_point_argument_checks_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument) as caught:
        call()
    assert isinstance(caught.value, ValueError) and isinstance(caught.value, HyperballError)


_TWO_POINTS = metric.validate_metric([[0, 1], [1, 0]])
_HALF_LINE = box_to_polyhedron(linf.Box(pt(-10), pt(0)))
_ODD_TRACE = refine.RefinementTrace("bogus", (pt(0),))


@pytest.mark.parametrize("call, message", [
    (lambda: lab.LinfBallFamily(()), "family needs at least one ball"),
    (lambda: lab.FiniteBallFamily(_TWO_POINTS, ((2, F(1)),)), "center index 2 out of range"),
    (lambda: lab.FiniteBallFamily(_TWO_POINTS, ((0, F(-1)),)), "radius must be >= 0"),
    (lambda: lab.HellyInstance(1, (_HALF_LINE,), ()), "one witness per leave-one-out intersection"),
    (lambda: lab.HellyInstance(1, (_HALF_LINE, _HALF_LINE), (pt(0), pt(1))), "witness 1 fails set 0"),
    (lambda: linf.Ball(pt(0), F(-1)), "ball radius must be >= 0"),
    (lambda: linf.balls_box([]), "need at least one ball"),
    (lambda: barycenter([]), "barycenter of no points"),
    (lambda: lp.lp_feasible(None), "cannot infer dimension from empty input"),
    (lambda: refine.exact_subset_oracle(None, 1).ask((linf.Ball(pt(0), F(1)),) * 2, F(0), 0),
     "oracle contract does not cover 2 balls (level 1)"),
    (lambda: refine.exact_subset_oracle(None).ask((linf.Ball(pt(0), F(1)),), F(-1, 2), 0),
     "slack -1/2 is negative"),
    (lambda: _ODD_TRACE.slacks, "unknown scheme 'bogus'"),
    (lambda: refine.verify_trace(_ODD_TRACE), "unknown scheme 'bogus'"),
    (lambda: sets.BoxUnion(()), "union of no boxes"),
    (lambda: sets.FiniteSubset(_TWO_POINTS, ("0",)), "index '0' is not an int"),
    (lambda: sets.FiniteSubset(_TWO_POINTS, (2,)), "index 2 out of range"),
    (lambda: reports.PropertyReport("maybe"), "unknown verdict: 'maybe'"),
    (lambda: rng.SplitMix64(0).below(0), "bound must be positive"),
    (lambda: metric.GraphInstance(0, ()), "vertex count must be positive"),
    (lambda: metric.GraphInstance(2, ((1, 1),)), "self-loop at vertex 1"),
    (lambda: metric.GraphInstance(2, ((0, 2),)), "edge (0,2) out of range"),
    (lambda: metric.GraphInstance(2, ((0, 1),), (F(1), F(1))), "one weight per edge required"),
    (lambda: metric.GraphInstance(2, ((0, 1),), (F(0),)), "edge weights must be positive"),
    (lambda: metric.GraphInstance(3, ((0, 1, 2),)), "every edge must be a pair of vertices"),
], ids=["family-no-balls", "finite-center-index", "finite-radius", "helly-witness-count",
        "helly-witness-fails", "ball-radius", "balls-box-empty", "mean-no-points", "lp-no-dim",
        "oracle-over-ask", "oracle-negative-slack", "slacks-scheme", "verify-trace-scheme", "union-no-boxes",
        "subset-index-type", "subset-index-range", "report-verdict", "rng-bound",
        "graph-no-vertices", "graph-self-loop", "graph-edge-range", "graph-weight-count",
        "graph-weight-sign", "graph-edge-arity"])
def test_every_argument_check_raises_invalid_argument(call, message):
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        call()


_B1 = {"ball": {"center": ["0/1"], "r": "1/1"}}
_H1 = {"polyhedron": {"dim": 1, "rows": [{"a": ["1/1"], "b": "0/1"}]}}


@pytest.mark.parametrize("instance, line", [
    ({"type": "family", "balls": [{"ball": {"center": ["0/1"], "r": "-1/1"}}], "subset": None},
     "ball radius must be >= 0"),
    ({"type": "family", "balls": [_B1], "subset": {"union": []}}, "union of no boxes"),
    ({"type": "graph", "n": 2, "edges": [[0, 0]]}, "self-loop at vertex 0"),
    ({"type": "graph", "n": 0, "edges": []}, "vertex count must be positive"),
    ({"type": "graph", "n": 2, "edges": [[0, 2]]}, "edge (0,2) out of range"),
    ({"type": "graph", "n": 2, "edges": [[0, 1]], "weights": ["-1/1"]}, "edge weights must be positive"),
    ({"type": "family", "balls": [], "subset": None}, "family needs at least one ball"),
    ({"type": "family", "balls": [_B1, {"ball": {"center": ["0/1", "0/1"], "r": "1/1"}}],
      "subset": None}, "balls of different dims"),
    ({"type": "family", "balls": [_B1], "subset": BOX},
     "subset is not a max-norm subset of the balls' dim"),
    ({"type": "matrix", "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]},
     "dist[0][2] > dist[0][1] + dist[1][2]"),
    ({"type": "matrix", "dist": [[0, 1], [2, 0]]}, "dist[0][1] != dist[1][0]"),
    ({"type": "helly", "dim": 1, "halfspaces": [_H1], "witnesses": []},
     "one witness per leave-one-out intersection"),
    ({"polyhedron": {"dim": 2, "rows": [{"a": ["1/1"], "b": "0/1"}]}},
     "row length does not match polyhedron dim"),
    ({"type": "points", "points": []}, "points instance needs at least one point"),
    ({"type": "graph", "n": 3, "edges": [[0, 1, 2]]}, "every edge must be a pair of vertices"),
    ({"type": "graph", "n": 3, "edges": [[0]]}, "every edge must be a pair of vertices"),
], ids=["negative-radius", "empty-union", "graph-self-loop", "graph-no-vertices",
        "graph-edge-range", "graph-negative-weight", "family-no-balls", "mixed-ball-dims",
        "subset-other-dim", "triangle", "asymmetric", "helly-witness-count",
        "polyhedron-row-length", "no-points", "graph-edge-triple", "graph-edge-single"])
def test_cli_a_rejected_instance_exits_3_with_its_check_message(tmp_path, capsys, instance, line):
    """The constructor's own message reaches the user unwrapped, with exit 3."""
    path = write(tmp_path, "bad.json", instance)
    assert main(["check", "--instance", path]) == 3
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("content, line", [
    (b'{"type": "points", "points": [["\xff"]]}',
     "unreadable instance: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
    (b'{"type": "graph", "n": ' + b"9" * 5000 + b', "edges": []}',
     "unreadable instance: ValueError: Exceeds the limit (4300 digits)"),
    (b"[" * 100_000 + b"]" * 100_000, "unreadable instance: RecursionError: maximum recursion depth"),
    (b'{"type": "points",\n "points": [}', "invalid JSON at line 2"),
], ids=["not-utf8", "huge-integer", "deep-nesting", "invalid-json"])
def test_cli_a_malformed_file_is_a_parse_error(tmp_path, capsys, content, line):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        parse_instance(path)
    assert main(["check", "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {line}") and err.count("\n") == 1


def test_cli_cauchy_halving_asks_a_family_of_64_balls_and_one_more(tmp_path, capsys):
    balls = [{"ball": {"center": [f"{i}/1", "0/1"], "r": "64/1"}} for i in range(64)]
    box = {"box": {"lo": ["0/1", "-1/1"], "hi": ["63/1", "1/1"]}}
    path = write(tmp_path, "family64.json", {"type": "family", "balls": balls, "subset": box})
    assert main(["refine", "--instance", path, "--scheme", "cauchy-halving", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["verdict"] == "holds"
    family = parse_instance(path)[1]
    with pytest.raises(InvalidArgument, match=r"^oracle contract does not cover 65 balls \(level 64\)$"):
        refine.almost_to_exact(refine.exact_subset_oracle(family.subset), family)


@pytest.mark.parametrize(
    "argv, message",
    [(["check"], "limited to 12 points, got 200"),
     (["graph-scan", "--level", "3"], "at least 10827200 families exceed cap 5000000")],
    ids=["check", "graph-scan"],
)
def test_cli_refuses_a_large_graph_before_its_shortest_paths(tmp_path, capsys, monkeypatch,
                                                             argv, message):
    def cubic(graph):
        raise AssertionError("graph_metric ran")  # an internal error: exit 4

    monkeypatch.setattr(metric, "graph_metric", cubic)
    monkeypatch.setattr(lab, "graph_metric", cubic)
    path = write(tmp_path, "path.json", {"type": "graph", "n": 200,
                                         "edges": [[i, i + 1] for i in range(199)]})
    assert main([argv[0], "--instance", path, *argv[1:]]) == 3
    assert message in capsys.readouterr().err


def test_cli_refuses_a_large_matrix_before_its_triangle_scan(tmp_path, capsys, monkeypatch):
    def cubic(matrix):
        raise AssertionError("validate_metric ran")  # an internal error: exit 4

    monkeypatch.setattr(metric, "validate_metric", cubic)
    ones = [["0/1" if i == j else "1/1" for j in range(100)] for i in range(100)]
    path = write(tmp_path, "ones.json", {"type": "matrix", "dist": ones})
    assert main(["check", "--instance", path]) == 3
    assert "limited to 12 points, got 100" in capsys.readouterr().err


# Small JSON: ints |v| <= 20, "p/q" with q <= 20, at most 4 items per list.
# Instances mostly follow a schema of io.py in one dimension, with any value
# one time in sixteen, so that most examples get past the parser.
_leaf = st.one_of(st.none(), st.booleans(), st.integers(-20, 20),
                  st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 20)))
_any = st.recursive(_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)
_rational = st.builds("{}/{}".format, st.integers(-20, 20), st.integers(1, 20))
_radius = st.builds("{}/{}".format, st.integers(0, 20), st.integers(1, 20))


def _or_any(strategy):
    return st.integers(0, 15).flatmap(lambda i: _any if i == 0 else strategy)


def _instances(dim):
    q, small = _or_any(_rational), _or_any(st.integers(-1, 6))
    pt = _or_any(st.lists(_rational, min_size=dim, max_size=dim))

    def items(strategy, size=None):
        return _or_any(st.lists(strategy, min_size=size or 0, max_size=size or 4))

    def typed(name, **fields):
        return st.fixed_dictionaries({"type": st.just(name), **fields})

    box = st.fixed_dictionaries({"box": st.fixed_dictionaries({"lo": pt, "hi": pt})})
    poly = st.fixed_dictionaries({"polyhedron": st.fixed_dictionaries(
        {"dim": _or_any(st.just(dim)), "rows": items(st.fixed_dictionaries({"a": pt, "b": q}))})})
    subset = _or_any(st.one_of(box, poly, st.fixed_dictionaries({"union": items(box)})))
    ball = st.fixed_dictionaries(
        {"ball": st.fixed_dictionaries({"center": pt, "r": _or_any(_radius)})})
    return st.one_of(
        box, ball, poly,
        typed("matrix", dist=items(items(q))),
        typed("graph", n=small, edges=items(st.lists(small, min_size=2, max_size=2))),
        typed("family", balls=items(ball), subset=subset),
        typed("helly", dim=_or_any(st.just(dim)), halfspaces=items(poly), witnesses=items(pt)),
        typed("triple", sets=items(subset, 3), x0=pt),
        typed("chain", sets=items(subset, 2), x=pt, y=pt, r=q, eps=q, delta=q),
        typed("points", points=items(pt)),
        typed("ip", k=small, eps=q, balls=items(ball)),
    )


_INSTANCES = st.integers(0, 9).flatmap(
    lambda i: st.dictionaries(st.text(max_size=4), _any, max_size=4) if i == 0
    else st.integers(0, 3).flatmap(_instances))
_COMMANDS = (
    ["check"], ["refute", "--level", "2", "--budget", "20"], ["barycenter"],
    ["ip-lift", "--iters", "3"], ["graph-scan", "--level", "2"],
    *(["refine", "--scheme", scheme, "--iters", "3"] for scheme in ("cauchy-halving", "triple-34")),
    ["refine", "--scheme", "chain-walk"],
)


@settings(max_examples=40, deadline=None)
@given(_INSTANCES)
def test_cli_any_json_object_exits_0_to_3_without_traceback(tmp_path_factory, instance):
    path = write(tmp_path_factory.mktemp("any"), "instance.json", instance)
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--instance", path, "--json", *command[1:]])
        assert 0 <= code <= 3 and "Traceback" not in err.getvalue(), (command, err.getvalue())
