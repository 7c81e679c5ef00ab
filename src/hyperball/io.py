"""Instance files and report serialization.

All rationals travel as "p/q" strings, read by ``parse_rational``, which
raises ``ParseError`` (an ``InvalidArgument``) for a bad literal or a float.
Non-UTF-8 or invalid JSON and a bool, float or string where a count or index
is due are a ``ParseError`` too.  A rational's or a constructor's error
passes through unwrapped.
``canonical_dumps`` fixes key order and layout so that identical inputs and
seeds yield byte-identical artifacts (reports exclude their timing field
from that guarantee).
Each instance kind imports its constructor's module when it is parsed,
and ``to_jsonable`` looks for a class only once its module is loaded, so
reading or writing a kind loads only the modules its classes need.

Instance schemas (the ``type`` field selects the shape):

* ``{"type": "matrix", "dist": [["0/1", ...], ...]}``
* ``{"type": "graph", "n": 5, "edges": [[0, 1], ...], "weights": [...]}``
* ``{"polyhedron": {"dim": 2, "rows": [{"a": ["1/1","1/1"], "b": "-1/1"}]}}``
* ``{"ball": {"center": ["0/1","0/1"], "r": "2/1"}}``
* ``{"box": {"lo": [...], "hi": [...]}}``
* ``{"type": "family", "balls": [...], "subset": ... | null}``
* ``{"type": "helly", "dim": n, "halfspaces": [...], "witnesses": [...]}``
* ``{"type": "triple", "sets": [s0, s1, s2], "x0": [...]}``
* ``{"type": "chain", "sets": [sA, sB], "x": [...], "y": [...], "r": ..,
     "eps": .., "delta": ..}``
* ``{"type": "points", "points": [[...], ...]}``
* ``{"type": "ip", "k": 2, "eps": "1/64", "balls": [...]}``
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import InvalidArgument, ParseError
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from .linf import Ball, Box, Point
    from .lp import HPolyhedron


def canonical_dumps(obj: Any) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n"


def to_jsonable(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if _instance(obj, "linf", "Ball"):
        return {"ball": {"center": [format_rational(c) for c in obj.center], "r": format_rational(obj.radius)}}
    if _instance(obj, "linf", "Box"):
        return {"box": {"lo": [format_rational(c) for c in obj.lo], "hi": [format_rational(c) for c in obj.hi]}}
    if _instance(obj, "lp", "HPolyhedron"):
        return {
            "polyhedron": {
                "dim": obj.dim,
                "rows": [
                    {"a": [format_rational(c) for c in a], "b": format_rational(b)}
                    for a, b in obj.rows
                ],
            }
        }
    if _instance(obj, "sets", "BoxUnion"):
        return {"union": [to_jsonable(b) for b in obj.boxes]}
    if _instance(obj, "lab", "HellyInstance"):
        return {
            "type": "helly",
            "dim": obj.dim,
            "halfspaces": [to_jsonable(h) for h in obj.halfspaces],
            "witnesses": [[format_rational(c) for c in w] for w in obj.witnesses],
        }
    if _instance(obj, "lab", "LinfBallFamily"):
        return {
            "type": "family",
            "balls": [to_jsonable(b) for b in obj.balls],
            "subset": to_jsonable(obj.subset) if obj.subset is not None else None,
        }
    if hasattr(obj, "__dataclass_fields__"):
        return {k: to_jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _instance(obj: Any, module: str, name: str) -> bool:
    """``isinstance(obj, hyperball.<module>.<name>)`` without loading the
    module: no instance of the class exists before its module is loaded."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(obj, getattr(loaded, name))


def _integer(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def _point(values: Any) -> Point:
    if not isinstance(values, list):
        raise ParseError("point must be a list of rationals")
    return tuple(parse_rational(v) for v in values)


def parse_ball(data: Any) -> Ball:
    from .linf import Ball

    return Ball(_point(data["center"]), parse_rational(data["r"]))


def parse_box(data: Any) -> Box:
    from .linf import Box

    return Box(_point(data["lo"]), _point(data["hi"]))


def parse_polyhedron(data: Any) -> HPolyhedron:
    from .lp import HPolyhedron

    rows = tuple(
        (tuple(parse_rational(c) for c in row["a"]), parse_rational(row["b"]))
        for row in data["rows"]
    )
    return HPolyhedron(_integer(data["dim"]), rows)


def parse_subset(data: Any):
    if data is None:
        return None
    if "polyhedron" in data:
        return parse_polyhedron(data["polyhedron"])
    if "box" in data:
        return parse_box(data["box"])
    if "union" in data:
        from .sets import BoxUnion

        return BoxUnion(tuple(parse_box(item["box"]) for item in data["union"]))
    raise ParseError("subset must be a polyhedron, box, union, or null")


def _parse_sets(data: dict, kind: str, count: int) -> tuple:
    """The ``count`` subsets of a triple or chain instance, none of them null."""
    sets = tuple(parse_subset(s) for s in data["sets"])
    if len(sets) != count:
        raise ParseError(f"{kind} instance needs exactly {count} sets")
    if any(s is None for s in sets):
        raise ParseError(f"{kind} instance sets must not be null")
    return sets


def parse_instance(source: str | Path | dict):
    """Parse an instance file (or already-loaded dict) into a pair (kind, payload)."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}") from exc
        except (ValueError, RecursionError) as exc:  # non-UTF-8 bytes, huge integers, deep nesting
            raise ParseError(f"unreadable instance: {type(exc).__name__}: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    try:
        return _parse_object(data)
    except (KeyError, IndexError, TypeError) as exc:
        raise ParseError(f"malformed instance: {type(exc).__name__}: {exc}") from exc


def _parse_object(data: dict):
    if "polyhedron" in data and "type" not in data:
        return "polyhedron", parse_polyhedron(data["polyhedron"])
    if "ball" in data and "type" not in data:
        return "ball", parse_ball(data["ball"])
    if "box" in data and "type" not in data:
        return "box", parse_box(data["box"])
    kind = data.get("type")
    if kind == "matrix":
        from .metric import check_cap, validate_metric

        check_cap(len(data["dist"]))  # before the cubic triangle scan
        matrix = [[parse_rational(v) for v in row] for row in data["dist"]]
        return "metric", validate_metric(matrix)
    if kind == "graph":
        from .metric import GraphInstance

        weights = (
            tuple(parse_rational(w) for w in data["weights"]) if "weights" in data else None
        )
        graph = GraphInstance(
            _integer(data["n"]),
            tuple(tuple(map(_integer, edge)) for edge in data["edges"]),
            weights,
        )
        return "graph", graph
    if kind == "family":
        from .lab import LinfBallFamily

        balls = tuple(parse_ball(item["ball"]) for item in data["balls"])
        subset = parse_subset(data.get("subset"))
        return "family", LinfBallFamily(balls, subset)
    if kind == "helly":
        from .lab import HellyInstance

        halfspaces = tuple(parse_polyhedron(h["polyhedron"]) for h in data["halfspaces"])
        witnesses = tuple(_point(w) for w in data["witnesses"])
        return "helly", HellyInstance(_integer(data["dim"]), halfspaces, witnesses)
    if kind == "triple":
        return "triple", (_parse_sets(data, kind, 3), _point(data["x0"]))
    if kind == "chain":
        return "chain", {
            "sets": _parse_sets(data, kind, 2),
            "x": _point(data["x"]),
            "y": _point(data["y"]),
            "r": parse_rational(data["r"]),
            "eps": parse_rational(data["eps"]),
            "delta": parse_rational(data["delta"]),
        }
    if kind == "points":
        points = tuple(_point(p) for p in data["points"])
        if not points:
            raise InvalidArgument("points instance needs at least one point")
        return "points", points
    if kind == "ip":
        return "ip", {
            "k": _integer(data["k"]),
            "eps": parse_rational(data["eps"]) if "eps" in data else None,
            "balls": tuple(parse_ball(item["ball"]) for item in data["balls"]),
        }
    raise ParseError(f"unknown instance type {kind!r}")
