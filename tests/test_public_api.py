"""The package's public surface: the README's "Library entry points" block
imports exactly ``koszul_lift.__all__`` and runs as written, and the error
list after it names exactly the exported ``KoszulLiftError`` subclasses."""

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


def test_readme_error_list_is_the_exported_subclasses():
    section = README.read_text().split("## Library entry points", 1)[1]
    listed = re.search(r"subclass of\s+`KoszulLiftError`\s+\((.*?)\)", section, re.S)
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) == len(set(names))
    exported = {
        name
        for name in koszul_lift.__all__
        if isinstance(getattr(koszul_lift, name), type)
        and issubclass(getattr(koszul_lift, name), koszul_lift.KoszulLiftError)
    }
    assert set(names) == exported - {"KoszulLiftError"}
