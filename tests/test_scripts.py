"""Smoke runs of the scripts under ``scripts/``."""

import importlib.util
import pathlib

from hyperball.lab import REFUTE_MODES

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
    subsets = dict(sweep.fixtures())
    for row in rows:
        *_, mode, _, _, used, _, rate = row.split()
        scalar = mode != "external" and not hasattr(subsets[row[:28].strip()], "boxes")
        assert int(used) <= (4 if scalar else 16) and float(rate) > 0
