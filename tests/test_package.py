"""The package root's exports and the modules each command loads."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import toricroots

SRC = Path(__file__).resolve().parent.parent / "src"

#: The package's exports: its functions, classes and errors, and the
#: submodules that importing all of them used to load.
EXPORTS = [
    "Bilateralization", "CapExceededError", "DegenerateRaysError", "DegreeCapError",
    "DemazureRoot", "DomainError", "IncompleteFanError", "InputError", "InvariantViolation",
    "NoOpenOrbitError", "NotBilateralError", "NotCanonicalError", "NotRadiantError",
    "NotTypeIError", "RayList", "RayMatrix", "ResultCapError", "RootSet", "SurfaceSequence",
    "ToricError", "bilateralize", "blow_up", "canonical_reorder", "center", "column_preorder",
    "demazure_roots", "enumerate_open_orbit_subgroups", "enumerate_smooth_surfaces", "errors",
    "fan", "groups", "has_open_orbit", "is_radiant_sequence", "is_saturated", "lattice",
    "positive_roots", "root_graph", "roots", "saturation_closure", "sequence_to_rays",
    "series_report", "split_projective_lines", "surface_report", "surfaces", "umax_shape",
    "uss_shape", "validate_ray_matrix", "variety_type",
]

#: Modules that only ``verify`` or ``surface`` needs.
COMMAND_MODULES = ["fractions", "toricroots.coxaction", "toricroots.liealg",
                   "toricroots.poly", "toricroots.surfaces"]

#: Modules that no command loads: ``dataclasses`` alone pulls in ``inspect``
#: and ten more, about a third of a fresh process's set-up.
NEVER_LOADED = ["dataclasses", "inspect"]

#: Run in a fresh interpreter: which of ``COMMAND_MODULES`` (and, after the
#: bare package import, which package modules) are loaded after each step,
#: which of ``NEVER_LOADED`` are loaded after ``import toricroots.cli`` and
#: after each command, and whether the parser of all commands was built.
PROBE = """
import contextlib, io, json, sys

WATCHED, NEVER = %r, %r
steps = {}
import toricroots
steps["package"] = sorted(m for m in sys.modules if m.startswith("toricroots."))
import toricroots.cli
steps["cli"] = [m for m in WATCHED if m in sys.modules]
loaded = {"cli": [m for m in NEVER if m in sys.modules]}
for argv in (["roots", "--ray-matrix", "2 1"], ["verify", "--ray-matrix", "2 1"],
             ["surface", "--sequence=0,2,0,-2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = toricroots.cli.main(argv)
    steps[argv[0]] = [code] + [m for m in WATCHED if m in sys.modules]
    loaded[argv[0]] = [m for m in NEVER if m in sys.modules]
steps["never loaded"] = loaded
steps["whole parser built"] = toricroots.cli.build_parser.cache_info().currsize
print(json.dumps(steps))
""" % (COMMAND_MODULES, NEVER_LOADED)


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports from ``src``."""
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_each_command_loads_only_the_modules_it_runs():
    steps = json.loads(fresh(PROBE))
    assert steps["package"] == []
    assert steps["cli"] == []
    assert steps["roots"] == [0]
    # verify's battery has int coefficients only, so no Fraction is built
    assert steps["verify"] == [0, "toricroots.coxaction", "toricroots.liealg", "toricroots.poly"]
    assert steps["surface"] == [0] + COMMAND_MODULES[1:]
    assert steps["whole parser built"] == 0  # each command's own parser sufficed
    assert steps["never loaded"] == {"cli": [], "roots": [], "verify": [], "surface": []}


def test_the_exports_are_the_defining_modules_objects():
    assert toricroots.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(toricroots, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"toricroots.{name}"]
        else:
            assert value.__module__.startswith("toricroots.")
            assert getattr(importlib.import_module(value.__module__), name) is value


def test_a_fresh_package_resolves_its_submodules_by_attribute():
    out = fresh("import toricroots; print(toricroots.lattice.__name__, toricroots.surfaces.blow_up)")
    assert out.split()[:3] == ["toricroots.lattice", "<function", "blow_up"]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from toricroots import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_submodules_and_unknown_names():
    from toricroots import roots

    assert roots is sys.modules["toricroots.roots"]
    with pytest.raises(AttributeError, match="nosuch"):
        toricroots.nosuch
    assert not hasattr(toricroots, "nosuch")
    assert set(EXPORTS) <= set(dir(toricroots))
    assert toricroots.__version__ == "0.1.0"
