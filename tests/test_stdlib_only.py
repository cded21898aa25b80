"""The runtime depends on nothing outside the standard library.

pyproject.toml declares no dependencies, so every module of src/valdiv may
import only the standard library and valdiv itself.  Third-party packages
that happen to be installed would otherwise make a stray import pass.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "valdiv").glob("*.py"))


def outside_imports(source: str, filename: str = "<source>") -> list[str]:
    """`file:line module` for every absolute import outside the standard
    library and valdiv; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top != "valdiv" and top not in sys.stdlib_module_names:
                found.append(f"{filename}:{node.lineno} {module}")
    return found


def test_the_guard_flags_third_party_imports():
    source = "import os\nimport numpy as np\nfrom sympy.core import S\nfrom . import fields\n"
    assert outside_imports(source) == ["<source>:2 numpy", "<source>:3 sympy.core"]
    assert outside_imports("from valdiv.fields import QQ\nimport fractions\n") == []


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        found += outside_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []
