"""The names that the benchmark in ``bench/`` hooks into.

``bench/worker.py`` rebinds ``solver.step`` and ``cli._run_one_check`` in
every module that holds them, and ``bench/spans.py`` wraps the modules of
``LAYER_MODULES`` and a few methods; an execution fails when one of them is
missing.  These tests catch a refactor that breaks the benchmark here.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cbftorus
from cbftorus import cli, solver
from cbftorus.families import random_band_limited
from cbftorus.fields import SpectralField
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams
from cbftorus.verification import FieldSampler

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layer_modules():
    """``LAYER_MODULES`` as ``bench/spans.py`` assigns it."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYER_MODULES"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_MODULES in {SPANS}")


def test_importing_the_cli_loads_every_layer_module():
    layers = _layer_modules()
    assert "solver" in layers and "verification" in layers
    src = str(Path(cbftorus.__file__).resolve().parent.parent)
    code = ("import sys, cbftorus.cli; "
            f"print(' '.join(m for m in {layers!r} "
            "if 'cbftorus.' + m not in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_run_calls_step_as_bound_at_call_time(monkeypatch):
    calls = []
    original = solver.step

    def counted(state):
        calls.append(state.t)
        return original(state)

    monkeypatch.setattr(solver, "step", counted)
    grid = TorusGrid(dim=2, n_points=16)
    config = solver.SolverConfig(dt=1e-3, t_end=3e-3)
    solver.run(random_band_limited(grid, seed=1, band_limit=4), CbfParams(),
               config)
    assert len(calls) == 3


def test_the_hooked_names_exist():
    assert callable(cli._run_one_check)
    assert callable(TorusGrid.compatible)
    assert callable(SpectralField.symmetry_defect)
    assert callable(FieldSampler.field_from_seed)
