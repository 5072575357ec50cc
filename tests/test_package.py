"""The package's public surface, and no unused imports in its modules, scripts or tests."""

import ast
import types
from pathlib import Path

import corrldp

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_functions_and_classes_not_submodules():
    assert len(corrldp.__all__) == len(set(corrldp.__all__))
    for name in corrldp.__all__:
        assert not isinstance(getattr(corrldp, name), types.ModuleType), name
    for name in ("attack", "beacon", "data", "mechanism", "ordering", "rr", "experiments"):
        assert name not in corrldp.__all__
    assert {"attack_population", "rr_postprocess_population", "perturb_population"} <= set(corrldp.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind that its code never reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_and_scripts_have_no_unused_imports():
    paths = [p for p in (ROOT / "src" / "corrldp").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "scripts").glob("*.py")
    paths += (ROOT / "tests").glob("*.py")
    assert len(paths) > 25
    unused = {p.relative_to(ROOT).as_posix(): names for p in paths if (names := _unused_imports(p))}
    assert unused == {}


def test_unused_import_scan_sees_plain_from_and_dotted_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom math import pi, tau\n"
        "print(pi)\n"
    )
    assert _unused_imports(module) == ["os", "system", "tau"]


def test_only_the_model_lays_out_the_increment_table():
    # CorrelationModel.increments is stored as every reader takes it; no other
    # module asks for the [i, k, a, b] view or re-lays the table out
    offenders = [
        p.name
        for p in (ROOT / "src" / "corrldp").glob("*.py")
        if p.name != "data.py"
        and ("low_mask(" in (text := p.read_text()) or "transpose(1, 3, 0, 2)" in text)
    ]
    assert offenders == []


def test_only_the_mechanism_builds_thresholds_and_branch_tables():
    # mechanism._thresholds and mechanism.branch_tables are the one step rule;
    # no other module derives a threshold from gamma_hat or a report/utility
    # table from the per-case distributions
    offenders = []
    for p in (ROOT / "src" / "corrldp").glob("*.py"):
        if p.name == "mechanism.py":
            continue
        for line in p.read_text().splitlines():
            if line.startswith("def per_snp_expected_utility(") and p.name == "beacon.py":
                continue
            if any(s in line for s in ("sharing_probs(", "per_snp_expected_utility(", "gamma_hat *")):
                offenders.append(f"{p.name}: {line.strip()}")
    assert offenders == []


def _float32_conversions(path: Path) -> list[str]:
    """Functions of a module that call ``.astype`` with a float32 argument."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and any("float32" in ast.unparse(arg) for arg in node.args + [k.value for k in node.keywords])
            ):
                found.append(f"{path.name}: {func.name}")
                break
    return found


def test_one_function_converts_the_increment_table_to_float32():
    # mechanism._count_operand builds the float32 (2k, 3i) operand that the
    # blocked kernel (per block) and the attack (whole table) multiply by
    found = [f for p in sorted((ROOT / "src" / "corrldp").glob("*.py")) for f in _float32_conversions(p)]
    assert found == ["mechanism.py: _count_operand"]
