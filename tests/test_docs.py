"""The README's Library layout table and the public API match: every
backticked name in a row is an attribute of the module that row describes,
and every name in ``corrldp.__all__`` is listed in its home module's row."""

import ast
import importlib
import re
from pathlib import Path

import corrldp

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _layout_rows() -> list[tuple[str, list[str]]]:
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`corrldp."):
            names = [n for n in re.findall(r"`([^`]+)`", cells[1]) if IDENTIFIER.fullmatch(n)]
            rows.append((cells[0].strip("`"), names))
    return rows


def test_layout_table_names_exist():
    rows = _layout_rows()
    assert len(rows) >= 10
    missing = [
        (module, name)
        for module, names in rows
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def test_layout_table_lists_every_public_name():
    # a public name's home module is the one the package re-exports it from
    tree = ast.parse((ROOT / "src" / "corrldp" / "__init__.py").read_text(encoding="utf-8"))
    home = {
        alias.name: f"corrldp.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    listed = {(module, name) for module, names in _layout_rows() for name in names}
    missing = [(home[name], name) for name in corrldp.__all__ if (home[name], name) not in listed]
    assert not missing, missing
