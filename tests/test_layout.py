"""Guards on where numpy and the SplitMix64 constants may live, and on
knobs that were removed."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hyperball"
SPLITMIX_CONSTANTS = ("9E3779B97F4A7C15", "BF58476D1CE4E5B9", "94D049BB133111EB")


def _sources():
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_numpy_is_imported_only_by_the_screen():
    importers = {
        name for name, text in _sources().items()
        if any(line.strip().startswith(("import numpy", "from numpy")) for line in text.splitlines())
    }
    assert importers == {"screen.py"}


def test_splitmix_constants_live_only_in_rng():
    holders = {
        name for name, text in _sources().items()
        if any(c in text.upper() for c in SPLITMIX_CONSTANTS)
    }
    assert holders == {"rng.py"}


@pytest.mark.parametrize(
    "code",
    [
        "import sys, hyperball, hyperball.cli",
        "import sys; from hyperball.cli import main; main(['ip-threshold', '--k', '2', '--json'])",
    ],
)
def test_numpy_is_not_loaded_outside_the_refuter(code):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = code + "; assert 'numpy' not in sys.modules, 'numpy loaded'"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_lp_entry_points_have_no_kernel_knob():
    from hyperball import lp

    for fn in (lp.lp_feasible, lp.lp_minimize, lp.polyhedron_coordinate_bounds,
               lp.dist_to_polyhedron):
        assert "kernel" not in inspect.signature(fn).parameters, fn.__name__
