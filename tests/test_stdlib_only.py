"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricroots"


def outside_imports(source: str) -> list[str]:
    """Top-level modules that ``source`` imports and that are neither in
    the standard library nor ``toricroots``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.split(".")[0] for name in names)
    return [t for t in tops if t not in sys.stdlib_module_names and t != "toricroots"]


def test_the_guard_sees_a_third_party_import():
    source = "import json\nimport orjson.x\nfrom . import cli\nfrom numpy import array\n"
    assert outside_imports(source) == ["orjson", "numpy"]
    assert outside_imports("def f():\n    import sympy\n") == ["sympy"]


def test_src_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        assert outside_imports(path.read_text(encoding="utf-8")) == [], path.name
