"""Tests for the package root: its exports and the README's library example."""
import ast
import re
from pathlib import Path

import marlbench

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in marlbench.__all__:
        assert getattr(marlbench, name) is not None, name
    assert "Transition" not in marlbench.__all__


def test_readme_library_example_imports_from_the_root():
    text = README.read_text()
    example = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    imports = [node for node in ast.walk(ast.parse(example))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("marlbench")]
    assert imports
    for node in imports:
        assert node.module == "marlbench", node.module
        for alias in node.names:
            assert alias.name in marlbench.__all__, alias.name
