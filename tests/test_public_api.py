"""The package's public surface: the README's "Library entry points" block
imports exactly ``koszul_lift.__all__`` and runs as written."""

import ast
import re
from pathlib import Path

import koszul_lift

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_point_block() -> str:
    section = README.read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_entry_points_are_the_exported_names():
    code = _entry_point_block()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "koszul_lift"
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert set(imported) == set(koszul_lift.__all__) - {"__version__"}
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert all(namespace[name] is getattr(koszul_lift, name) for name in imported)
