"""Each module under ``tests/`` and ``scripts/`` binds every top-level
name once. Python silently keeps the last of two ``def test_...``, and a
local definition silently shadows an imported helper of the same name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def rebound_names(source: str) -> list[str]:
    """Top-level names a module defines twice, or defines and also imports."""
    defined, imported = [], set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    twice = {name for name in defined if defined.count(name) > 1}
    return sorted(twice | (set(defined) & imported))


def test_rebound_names_finds_both_kinds():
    source = "from shared import load_script\ndef test_a(): pass\ndef test_a(): pass\ndef load_script(): pass\n"
    assert rebound_names(source) == ["load_script", "test_a"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_top_level_name_is_bound_twice(path):
    assert rebound_names(path.read_text()) == []
