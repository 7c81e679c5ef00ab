"""Guards on numpy staying out of the package, on where the SplitMix64
constants may live, on what importing the package and running each CLI
subcommand (and a center-mode union refute) loads, on the
package exporting each name lazily from its defining module, on knobs
that were removed (the refuter's ``arena``, ``BarycenterConfig.max_rounds``,
the barycenter's backend object, the convexity checkers' ``grid`` and the
graph brute force's ``cap`` among them), on the lift's constants being
closed forms without a search and its reach and check reading the balls'
box without listing subfamilies, on each CLI subcommand taking only the flags it reads, on the
LP kernel, the kept distance pieces (ranked only by the one lookup) and
the oracle's ball tests staying in integers, on the
refinement bounds living only in ``verify_trace`` (every refinement verdict
included) and the oracle's ball count only in ``EpsOracle.ask``, on a
refinement trace keeping only its iterates and inputs (steps, slacks and
the ip-lift constants derived, never recorded and cross-checked), on
subset and ball-family kinds answering for themselves instead of through
type ladders, on one error class for a rejected argument, raised by its
check and never re-wrapped by the parser, on the exception classes being
exactly the kept set, each an ``InvalidArgument`` unless it is a failure of
a run or of a self-check, on no module raising the bare base class, and on
no module importing a name it never uses."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hyperball"
SPLITMIX_CONSTANTS = ("9E3779B97F4A7C15", "BF58476D1CE4E5B9", "94D049BB133111EB")


def _sources():
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_no_package_module_imports_numpy():
    importers = {
        name for name, text in _sources().items()
        if any(line.strip().startswith(("import numpy", "from numpy")) for line in text.splitlines())
    }
    assert importers == set()


def test_splitmix_constants_live_only_in_rng():
    holders = {
        name for name, text in _sources().items()
        if any(c in text.upper() for c in SPLITMIX_CONSTANTS)
    }
    assert holders == {"rng.py"}


CENTER_MODE_UNION = (
    "import sys; from hyperball.lab import BoxUnion, refute_search; from hyperball.linf import Box; "
    "union = BoxUnion((Box((0, 0), (2, 1)), Box((0, 0), (1, 2)))); "  # connected: the sampler
    "assert refute_search(union, 3, 50, 0, mode='hyperconvex').refuted; "
    "assert refute_search(union, 3, 50, 0, mode='weakly-external').refuted"
)


@pytest.mark.parametrize(
    "code",
    [
        "import sys, hyperball, hyperball.cli",
        "import sys; from hyperball.cli import main; main(['ip-threshold', '--k', '2', '--json'])",
        pytest.param(CENTER_MODE_UNION, id="center-mode-union"),
    ],
)
def test_numpy_is_not_loaded_outside_the_refuter(code):
    # Nothing loads numpy, a center-mode union refute (the sampler)
    # included; tests/test_lab.py probes the span and polyhedron paths.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = code + "; assert 'numpy' not in sys.modules, 'numpy loaded'"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


INSTANCES = PACKAGE.parents[1] / "bench" / "instances"
# What a check needs none of: the refuter, the refinements, the barycenter.
NOT_FOR_A_CHECK = {"lab", "refine", "barycenter", "sets", "rng", "convexity"}


def _loaded_after(code):
    """The ``hyperball`` submodules (by short name), and ``numpy`` if it is
    loaded, once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = code + "\nprint(*sorted(m.removeprefix('hyperball.') for m in sys.modules" \
                   " if m.startswith('hyperball.') or m == 'numpy'), file=sys.stderr)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.splitlines()[-1].split())


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import sys, hyperball") == set()


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["check", "--instance", "metric.json"], NOT_FOR_A_CHECK | {"lp"}),
        (["check", "--instance", "graph.json"], NOT_FOR_A_CHECK | {"lp"}),
        (["check", "--instance", "polyhedron.json"], NOT_FOR_A_CHECK),
        (["barycenter", "--instance", "points.json"], {"lab", "lp", "refine"}),
        (["ip-threshold", "--k", "3"], {"lab", "lp", "refine"}),
    ],
    ids=["check-metric", "check-graph", "check-polyhedron", "barycenter", "ip-threshold"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, unloaded):
    argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
    loaded = _loaded_after(f"import sys; from hyperball.cli import main; main({argv + ['--json']!r})")
    assert "cli" in loaded and not loaded & (unloaded | {"numpy"}), sorted(loaded)


# The public names the package bound eagerly from its submodules.
EXPORTED = {
    "Ball", "BarycenterConfig", "Box", "BoxUnion", "ContractionReport", "DimMismatch", "EmptySet",
    "EpsOracle", "FeasibilityResult", "FiniteBallFamily", "FiniteMetricSpace", "FiniteSubset",
    "GraphInstance", "HPolyhedron", "HellyInstance", "HyperballError", "IPParams",
    "InvalidArgument", "Isometry", "LinfBallFamily", "PropertyReport", "RefinementTrace",
    "SizeCapExceeded", "almost_to_exact", "ball_family_intersection", "barycenter",
    "barycenter_contraction_check", "box_retraction", "box_to_polyhedron", "chain_walk",
    "check_admissible", "default_ip_eps", "dist_to_polyhedron", "distance_convexity_check",
    "equivariance_check", "exact_subset_oracle", "external_witness", "format_rational",
    "four_to_n_consistency", "graph_metric", "graph_n_helly_bruteforce", "gromov_product",
    "halfspace", "helly_counterexample", "helly_order_check", "hyperconvex_witness",
    "ip_constants", "ip_lift", "ip_threshold", "is_modular", "linf_dist", "lp_feasible",
    "lp_minimize", "median_set", "metric_interval", "pair_witness", "parse_rational",
    "refute_search", "saturating_subset_oracle", "sigma", "sigma_convexity_check", "subset_dist",
    "triple_intersection", "validate_metric", "verify_refutation", "verify_trace",
    "weakly_external_witness",
}


def test_the_package_exports_each_name_from_its_defining_module():
    import hyperball

    assert set(hyperball.__all__) == EXPORTED
    starred = {}
    exec("from hyperball import *", starred)
    assert set(starred) - {"__builtins__"} == EXPORTED
    for name in hyperball.__all__:
        obj = getattr(hyperball, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert callable(hyperball.barycenter)  # the function, not its loaded submodule
    assert EXPORTED <= set(dir(hyperball))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hyperball.no_such_name
    from hyperball import lab

    assert lab is sys.modules["hyperball.lab"]


def test_lp_entry_points_have_no_kernel_knob():
    from hyperball import lp

    for fn in (lp.lp_feasible, lp.lp_minimize, lp.polyhedron_coordinate_bounds,
               lp.dist_to_polyhedron):
        assert not {"kernel", "dim"} & set(inspect.signature(fn).parameters), fn.__name__


def test_refine_and_barycenter_have_no_dead_knob():
    from dataclasses import fields

    from hyperball import refine
    from hyperball.barycenter import BarycenterConfig

    assert [f.name for f in fields(refine.EpsOracle)] == ["query", "level", "subset"]
    for fn in (refine.exact_subset_oracle, refine.saturating_subset_oracle):
        assert "label" not in inspect.signature(fn).parameters, fn.__name__
    assert list(inspect.signature(refine.verify_trace).parameters) == ["trace"]
    assert "pointwise" not in {f.name for f in fields(BarycenterConfig)}
    # One barycenter, over the max norm: no backend object, no pointwise path.
    from hyperball.barycenter import barycenter, min_matching_average

    tree = ast.parse(_sources()["barycenter.py"])
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert not {"BicombingBackend", "linf_backend", "_barycenter_pointwise"} & defined
    assert list(inspect.signature(barycenter).parameters) == ["points", "cfg"]
    assert list(inspect.signature(min_matching_average).parameters) == ["xs", "ys"]
    called = {node.func.id for node in ast.walk(ast.parse(inspect.getsource(barycenter)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "linf_dist" not in called


def test_refuter_setup_has_no_dead_knob():
    from dataclasses import fields

    from hyperball import lab
    from hyperball.barycenter import BarycenterConfig

    assert "arena" not in inspect.signature(lab.refute_search).parameters
    assert list(inspect.signature(lab._build_arena).parameters) == ["subset", "level"]
    assert [f.name for f in fields(BarycenterConfig)] == ["tau"]


def test_convexity_sample_graph_cap_and_lift_constants_have_no_dead_knob():
    # The convexity checkers sample t = k/16 and the graph brute force reads
    # its cap: no grid or cap argument.  The lift's constants are closed
    # forms, so no loop may search for them.
    from hyperball import convexity, lab, refine
    from hyperball.barycenter import default_ip_eps

    assert list(inspect.signature(convexity.sigma_convexity_check).parameters) == ["subset", "pairs"]
    assert list(inspect.signature(convexity.distance_convexity_check).parameters) == ["subset", "x", "y"]
    assert list(inspect.signature(lab.graph_n_helly_bruteforce).parameters) == ["g", "n"]
    for fn in (refine.ip_constants, default_ip_eps):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        loops = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.For, ast.While, ast.comprehension))]
        assert not loops, fn.__name__


def test_the_lift_enumerates_only_the_subfamilies_it_asks_the_oracle_about():
    # Max-norm balls are boxes and intervals on a line that meet pairwise
    # meet together, so the reach is the distance to the balls' box and
    # the lift's check reads that box: no k- or (k-1)-subfamily is listed.
    from hyperball import refine

    refine_names = {node.id if isinstance(node, ast.Name) else node.name
                    for node in ast.walk(ast.parse(_sources()["refine.py"]))
                    if isinstance(node, (ast.Name, ast.alias))}
    assert "combinations" not in refine_names
    assert list(inspect.signature(refine.ip_reach).parameters) == ["balls"]
    calls, stack = [], [(ast.parse(_sources()["barycenter.py"]), None)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "combinations":
            calls.append((scope, ast.unparse(node)))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    assert calls == [("ip_lift", "combinations(balls, n - 1)")]


def test_scheme_bounds_live_only_in_verify_trace():
    from hyperball import refine

    def reports_built(source):
        return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ContractionReport"
                   for node in ast.walk(ast.parse(textwrap.dedent(source))))

    everywhere = sum(reports_built(text) for text in _sources().values())
    assert everywhere == reports_built(inspect.getsource(refine.verify_trace)) > 0
    assert "_verify_oracle_point" not in _sources()["refine.py"]


def test_oracle_level_is_read_only_by_ask_and_triple_34_raises_no_bound():
    def level_readers(tree):
        readers, stack = [], [(tree, None)]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, ast.FunctionDef):
                scope = node.name
            if isinstance(node, ast.Attribute) and node.attr == "level":
                readers.append(scope)
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
        return readers

    trees = {name: ast.parse(_sources()[name]) for name in ("refine.py", "barycenter.py")}
    assert set(level_readers(trees["refine.py"])) == {"ask"}
    assert level_readers(trees["barycenter.py"]) == []
    scheme = next(node for node in ast.walk(trees["refine.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "triple_intersection")
    raised = {node.exc.func.id for node in ast.walk(scheme)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)}
    assert "OracleFailure" not in raised


def test_every_refinement_verdict_comes_from_verify_trace():
    """No scheme raises a bound of its own: ``OracleFailure`` is raised only
    by ``EpsOracle.ask``, and the ``refine`` and ``ip-lift`` handlers name no
    verdict themselves."""
    from hyperball import cli, refine

    raisers, stack = set(), [(ast.parse(_sources()["refine.py"]), None)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and \
                getattr(node.exc.func, "id", None) == "OracleFailure":
            raisers.add(scope)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    assert raisers == {"ask"}
    for fn in (cli.cmd_refine, cli.cmd_ip_lift):
        names = {node.id for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
                 if isinstance(node, ast.Name)}
        assert "HOLDS" not in names, fn.__name__
    assert not hasattr(refine, "ChainWalkResult") and "ChainWalkResult" not in _sources()["refine.py"]


def test_refinement_trace_keeps_only_its_iterates_and_inputs():
    """Steps and slacks are cached derivations, no scheme builds them, and
    no report compares a recorded copy with a recomputed one."""
    from dataclasses import fields
    from fractions import Fraction
    from functools import cached_property

    from hyperball import refine
    from hyperball.barycenter import ip_lift
    from hyperball.linf import Ball

    assert [f.name for f in fields(refine.RefinementTrace)] == ["scheme", "iterates", "family", "aux"]
    for name in ("steps", "slacks"):
        assert isinstance(vars(refine.RefinementTrace)[name], cached_property), name
    for fn in (refine.almost_to_exact, refine.chain_walk, refine.triple_intersection, ip_lift):
        names = {node.id for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
                 if isinstance(node, ast.Name)}
        assert not {"steps", "slacks"} & names, fn.__name__
    assert "trace" not in {f.name for f in fields(refine.ContractionReport)}
    assert "backend" not in inspect.signature(ip_lift).parameters
    assert "disagree" not in _sources()["refine.py"]
    balls = tuple(Ball((Fraction(i), Fraction(0)), Fraction(5)) for i in range(5))
    params = refine.ip_constants(4, 2, Fraction(1, 64))
    _, trace = ip_lift(refine.exact_subset_oracle(None), balls, params, rounds=2)
    assert set(trace.aux) == {"eps", "k", "tau"}


def test_lp_kernel_and_certificate_checks_build_no_fraction():
    # Fractions belong only in the read-out of _solve; the tableau and the
    # certificate checks work on the integer rows.
    from hyperball import lp

    verifiers = [getattr(lp, name) for name in dir(lp) if name.startswith("_verify")]
    assert len(verifiers) == 4
    for obj in [lp._Tableau, lp._combination, lp._dot, *verifiers]:
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "Fraction" not in names, obj.__name__


def test_oracle_ball_tests_compare_integers():
    # The oracle's hit test and contract check test every ball in one pass
    # with within_balls, on integers over one common denominator, never
    # linf_dist; the contract check names a missed ball with linf_within.
    from hyperball import linf, refine

    def names(obj):
        return {node.id for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(obj))))
                if isinstance(node, ast.Name)}

    for fn in (refine.EpsOracle.ask, refine.exact_subset_oracle):
        assert "linf_dist" not in names(fn), fn.__name__
        assert "within_balls" in _called_names(fn), fn.__name__
    assert "linf_within" in names(refine.EpsOracle.ask)
    assert "linf_within" in names(linf.Ball.contains)
    for fn in (linf.Ball.contains, linf.linf_within, linf.within_balls, linf.Ball._integer_form.func):
        assert "Fraction" not in _called_names(fn), fn.__name__


def test_subset_entry_points_dispatch_through_the_protocol():
    from hyperball import lab

    tree = ast.parse(_sources()["sets.py"])
    entry_points = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("subset_")]
    assert {fn.name for fn in entry_points} == {
        "subset_nonempty", "subset_dist", "subset_nearest", "subset_witness_in_box", "subset_window"}
    for fn in entry_points:
        calls = {node.func.id for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "isinstance" not in calls, fn.name
    assert not hasattr(lab, "_intersect_with_box")


def _called_names(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_ball_families_share_one_path():
    from hyperball import lab

    for fn in (lab.check_admissible, lab.weakly_external_witness, lab.verify_refutation):
        assert "isinstance" not in _called_names(fn), fn.__name__
    assert not hasattr(lab, "_refute_finite")
    assert not hasattr(lab, "_no_refutation")


def test_distance_convexity_takes_segment_distances_through_the_protocol():
    from hyperball import convexity, lp

    assert "isinstance" not in _called_names(convexity.distance_convexity_check)
    # One distance-row builder serves the nearest point and the kept pieces,
    # and one piece lookup serves the point and the segment distances.
    for fn in (lp.dist_to_polyhedron, lp._dist_at):
        assert "_distance_rows" in _called_names(fn), fn.__name__
    for fn in (lp.HPolyhedron.dist, lp.dists_along_segment):
        assert "_dist_at" in _called_names(fn), fn.__name__
    # A segment gets each stretch's piece from that lookup alone and checks
    # the stretch's ends in place; it ranks, builds and solves nothing itself.
    along = _called_names(lp.dists_along_segment)
    assert "_piece_vertex" in along
    assert not {"_best_bounds", "_distance_rows", "_distance_lp", "_solve"} & along


def test_kept_distance_pieces_are_ranked_and_checked_in_integers():
    # The pieces are ranked by cross-multiplied integers: no float, so no
    # OverflowError to catch, and no true division where a piece is ranked
    # or checked.  The one piece lookup is the only caller of the ranking.
    from hyperball import lp

    module = ast.parse(inspect.getsource(lp))
    assert "OverflowError" not in {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    for fn in (lp._best_bounds, lp._piece_vertex, lp.dists_along_segment):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.Div) for node in ast.walk(tree)), fn.__name__
    def called(node):
        return {call.func.id for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}

    callers = {node.name for node in ast.walk(module)
               if isinstance(node, ast.FunctionDef) and "_best_bounds" in called(node)}
    assert callers == {"_dist_at"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    import argparse

    from hyperball.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        for name, parser in subparsers.choices.items()
    }
    report = {"--json", "--out"}
    assert flags == {
        "check": report | {"--instance", "--k"},
        "refute": report | {"--instance", "--level", "--mode", "--seed", "--budget"},
        "helly": report | {"--dim", "--verify", "--k"},
        "refine": report | {"--instance", "--scheme", "--iters", "--scale"},
        "barycenter": report | {"--instance", "--tau"},
        "ip-threshold": report | {"--k"},
        "ip-lift": report | {"--instance", "--iters", "--tau"},
        "graph-scan": report | {"--instance", "--level"},
    }


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_a_rejected_argument_raises_invalid_argument_and_io_does_not_rewrap_it():
    from hyperball import io as hio
    from hyperball.errors import InvalidArgument
    from hyperball.metric import MetricError

    for name, text in _sources().items():
        module = ast.parse(text)
        raised = {_raised_name(node) for node in ast.walk(module) if isinstance(node, ast.Raise)}
        assert "ValueError" not in raised, name
        assert "HyperballError" not in raised, name  # the base class says neither bad input nor bug
        names = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        classes = {node.name for node in ast.walk(module) if isinstance(node, ast.ClassDef)}
        assert "ValidationError" not in names | classes, name
    assert issubclass(MetricError, InvalidArgument)
    for fn in (hio.parse_ball, hio.parse_polyhedron, hio.parse_subset, hio._parse_object):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.Try) for node in ast.walk(tree)), fn.__name__


# The exception classes of the package, by module; every one of them is a
# rejected argument except the failures of a run and of a self-check.
KEPT_ERRORS = {
    "errors": {"HyperballError", "InvalidArgument", "InternalError", "ParseError", "EmptySet",
               "DimMismatch", "SizeCapExceeded"},
    "lp": {"LPKernelError"},
    "lab": {"NotAdmissible"},
    "metric": {"MetricError", "Asymmetric", "NegativeOrNonzeroDiagonal", "NonpositiveDistance",
               "TriangleViolation", "Disconnected"},
    "refine": {"OracleFailure", "PairwiseIntersectionUnverified"},
    "barycenter": {"NoConvergence"},
}


def _defined_errors():
    import importlib

    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"hyperball.{path.stem}")
        classes = {name for name, obj in vars(module).items() if inspect.isclass(obj)
                   and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
        if classes:
            found[path.stem] = {name: getattr(module, name) for name in classes}
    return found


def test_the_exception_classes_are_the_kept_set():
    assert {module: set(classes) for module, classes in _defined_errors().items()} == KEPT_ERRORS


def test_every_error_but_a_run_or_self_check_failure_is_an_invalid_argument():
    from hyperball.barycenter import NoConvergence
    from hyperball.errors import HyperballError, InternalError, InvalidArgument
    from hyperball.refine import OracleFailure, PairwiseIntersectionUnverified

    outside = (InternalError, OracleFailure, NoConvergence, PairwiseIntersectionUnverified)
    for classes in _defined_errors().values():
        for name, cls in classes.items():
            assert issubclass(cls, HyperballError), name
            if cls is not HyperballError:
                assert issubclass(cls, outside) != issubclass(cls, InvalidArgument), name


def test_no_module_imports_a_name_it_never_uses():
    exempt = {("lab.py", "BoxUnion")}  # re-exported: ``from hyperball.lab import BoxUnion``
    for name, text in _sources().items():
        if name == "__init__.py":
            continue
        module = ast.parse(text)
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(module) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        assert {n for n in imported - used if (name, n) not in exempt} == set(), name
