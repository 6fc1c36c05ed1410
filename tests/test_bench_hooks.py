"""The benchmark's hooks into the program still resolve.

``perfbench/tracing.py`` wraps functions of ``toricroots`` by name and reads
work counts off their results, and ``perfbench/run.py`` loads the subgroup
oracle from ``tests/oracles.py``.  A rename in the program would otherwise
show up only as a failed ``--trace 1`` run.  Nothing here installs the trace.
The benchmark's own output checks must also pass the program's real output.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from toricroots import validate_ray_matrix
from toricroots.coxaction import verify_all
from toricroots.groups import enumerate_open_orbit_subgroups, root_graph, umax_rootset
from toricroots.roots import demazure_roots
from toricroots.surfaces import enumerate_smooth_surfaces

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    """Import a module of ``perfbench/`` the way its scripts import each other."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module


def test_every_traced_name_resolves(perfbench):
    tracing = perfbench("tracing")
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"toricroots.{module_name}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                assert callable(getattr(module, cls_name).__dict__[method]), name
            else:
                assert callable(getattr(module, name)), name


def test_every_work_reader_reads_a_small_fans_result(perfbench):
    tracing = perfbench("tracing")
    A = validate_ray_matrix([[3, 2, 1]], 3)
    results = {
        "roots.demazure_roots": demazure_roots(A),
        "groups.enumerate_open_orbit_subgroups": enumerate_open_orbit_subgroups(A),
        "groups.root_graph": root_graph(umax_rootset(A)),
        "coxaction.verify_all": verify_all(A),
        "surfaces.enumerate_smooth_surfaces": enumerate_smooth_surfaces(4),
    }
    assert set(tracing.WORK) == set(results)
    for key, (_, read) in tracing.WORK.items():
        module, name = key.split(".")
        assert name in tracing.TRACED[module]
        count = read(results[key])
        assert type(count) is int and count > 0, key
    assert tracing.WORK["groups.enumerate_open_orbit_subgroups"][1](
        results["groups.enumerate_open_orbit_subgroups"]) == 27


def test_the_benchmark_oracle_loads_from_the_checkout(perfbench):
    oracle = perfbench("run").load_oracle(ROOT)
    subgroups = oracle([[3, 2, 1]])
    assert len(subgroups) == 27 and len(set(subgroups)) == 27
    assert all(isinstance(s, frozenset) for s in subgroups)


def test_the_benchmark_self_test_passes():
    """``perfbench/selftest.py`` runs each workload's checker on real output;
    a program change those checks reject fails here, not only in a run."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
