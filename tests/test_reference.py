"""The references in ``reference.py`` stay independent of the fast paths they check."""
import ast
from pathlib import Path

FAST_PATHS = {
    "apply_rescaled",
    "pauli_sum_apply",
    "trace_plan",
    "count",
    "_cx_count",
    "shot_costs",
    "mean_cost",
    "expected_cost",
    "_jw_masks",
    "_weighted_median",
    "optimize_bliss",
    "_binomial",
    "run_shots",
}


def _names_imported(tree):
    """Every name the module imports, and every attribute it reads off an imported module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                modules.add(alias.asname or alias.name.split(".")[0])
                yield from alias.name.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield node.attr


def test_reference_imports_no_fast_path():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    assert not FAST_PATHS & set(_names_imported(tree))


def test_the_check_sees_an_import_and_an_attribute():
    code = "from lcusim.sampler import trace_plan\nfrom lcusim import resources\nresources.count"
    assert {"trace_plan", "count"} <= set(_names_imported(ast.parse(code)))
    assert "count" not in set(_names_imported(ast.parse("bin(5).count('1')")))
