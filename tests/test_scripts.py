"""Each script under scripts/ runs end to end at its smallest size, so a
script that imports or calls a name the package no longer has fails here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == {
        "demo_pipeline",
        "run_directional_comparison",
        "run_order_benchmark",
    }


@pytest.mark.parametrize(
    "name, argv, expect",
    [
        ("run_order_benchmark", ["--instances", "2", "--l", "5"], "mean per-SNP gap"),
        (
            "run_directional_comparison",
            ["--trials", "1", "--epsilon-grid", "1.0"],
            "ran 1 trials",
        ),
        ("demo_pipeline", ["--workdir", "{tmp}"], "intermediate files kept in"),
        ("run_order_benchmark", ["--instances", "2", "--l", "5"], "s total, memo states mean "),
    ],
)
def test_script_runs(name, argv, expect, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path / "work")) for a in argv]
    assert _load(name).main(argv) == 0
    assert expect in capsys.readouterr().out
