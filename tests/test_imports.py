"""The package's import graph and public names, read from the sources with
`ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathcheck"


def imported_modules(name: str) -> set[str]:
    """The pathcheck modules that `name` imports, at any nesting depth."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "pathcheck" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            # `from . import x` and `from pathcheck import x` name modules
            modules = [f"{module}.{a.name}" for a in node.names] if module == "pathcheck" else [module]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("pathcheck."))
    return found


def test_reader_sees_relative_imports():
    assert {"builder", "rows", "semantics"} <= imported_modules("contraction")


def test_oracle_shares_no_code_with_the_circuit_pipeline():
    assert imported_modules("semantics") <= {"formula", "trace", "errors"}


def test_contraction_checks_rows_without_the_gate_view():
    assert "circuit" not in imported_modules("contraction")


def imported_names(name: str) -> set[str]:
    """Every name that `name` binds by an import statement, at any depth."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_cli_runs_the_pipeline_only_through_check():
    assert "check" in imported_names("cli")
    assert not {"init_tree", "run_contraction", "to_pnf", "prune_bounds"} & imported_names("cli")


def defined_names(name: str) -> set[str]:
    """Every name that `name` binds at module level by def, class or import."""
    found = set()
    for node in ast.parse((SRC / f"{name}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.asname or alias.name for alias in node.names)
    return found


def test_test_only_referees_are_not_shipped():
    # the recursive oracle, the single-leaf step, the two formula metrics and
    # the tree referee with its row and literal checks live in the tests; the
    # package has one oracle and one way to contract
    removed = {
        "holds_at", "contract_step", "is_pnf", "size", "verify_tree", "is_evaluated", "is_literal",
    }
    assert not removed & imported_names("__init__")
    for module in ("semantics", "formula", "contraction", "rows"):
        assert not removed & defined_names(module), module


def test_contraction_builds_no_formulas():
    # the tree keeps operator tokens; only the tests' referee rebuilds formulas
    assert not {"Not", "format_formula"} & imported_names("contraction")


def test_gate_model_class_is_not_exported():
    # the DOT writer is public; the gate model behind it stays in its module
    assert "to_dot" in imported_names("__init__")
    assert "Circuit" not in imported_names("__init__")
