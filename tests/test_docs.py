"""The README names only what exists: every backticked name in its Library
layout table is an attribute of the module that row describes."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
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
