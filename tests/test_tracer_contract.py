"""The names and shapes pathbench reads from the program.

`pathbench/tracer.py` wraps functions by name and reads label gates in its
stage census, and the other scripts import names from the program; this
keeps those lookups working. Nothing is installed or patched: the tracer
module is only read and its census run on a copy of a contraction's stages.
"""

import ast
import importlib.util
import random
from pathlib import Path

import pathcheck
import pathcheck.cli  # the tracer wraps names in it; importing pathcheck alone does not load it
from pathcheck import builder, contraction, rows
from pathcheck.campaign import CampaignConfig, case_seed, random_formula
from pathcheck.formula import (
    Atom,
    Binary,
    BINARY_TEMPORAL,
    Not,
    TOKENS,
    parse,
    prune_bounds,
    to_pnf,
)
from pathcheck.trace import make_trace

from test_builder import random_trace

PATHBENCH = Path(__file__).resolve().parent.parent / "pathbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"pathbench_{name}", PATHBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return _load("tracer")


def test_wrapped_names_exist():
    tracer = load_tracer()
    for module_name, attr, _ in tracer.WRAPPED:
        assert callable(getattr(getattr(pathcheck, module_name), attr)), (module_name, attr)
    # the spans on contraction's compose, identity and apply time the row code
    for name in ("compose_evaluated", "identity", "apply"):
        assert getattr(contraction, name) is getattr(rows, name)


def test_benchmark_imports_resolve():
    """Every `from pathcheck... import name` in a pathbench script names
    something the program defines, and the campaign workload's
    `Trace.states` is there."""
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(PATHBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pathcheck")
        for alias in node.names
    ]
    for script, module, name in imported:
        assert hasattr(importlib.import_module(module), name), (script, module, name)
    assert ("workloads.py", "pathcheck.campaign", "random_formula") in imported
    assert ("figures.py", "pathcheck.formula", "to_pnf") in imported
    assert make_trace([{"a"}, set()], ["a"]).states == (frozenset({"a"}), frozenset())


def test_census_runs_on_every_stage():
    tracer = load_tracer()
    rng = random.Random(3)
    tr = random_trace(rng, 9, names=("a", "b", "c"))
    f = prune_bounds(to_pnf(parse("(a U[2] b) & (X (c S a) | (b R[3] X c))")), len(tr))
    census = []
    contraction.run_contraction(
        contraction.init_tree(f, tr), on_stage=lambda t, s: census.append(tracer._census(t))
    )
    assert [leaves for leaves, _, _ in census] == [6, 3, 2, 1]
    for _, arena, live in census:
        assert 0 < live <= arena


def test_builder_results_have_gates():
    rng = random.Random(4)
    tr = random_trace(rng, 5)
    known = (True, False, False, True, True)
    results = [
        builder.build_literal(tr, "a"),
        builder.build_shift(5, "Y"),
        builder.build_boolean(5, "&", known),
        builder.build_unbounded(5, "S", "left", known),
        builder.build_bounded(5, "U", 2, "right", known),
    ]
    assert [len(r.circuit) for r in results] == [5, 10, 10, 10, 10]


# The campaign workload reads formulas by class name and fields only.
A, B = ("ap", "a"), ("ap", "b")
FROM_PROGRAM = {
    "! a": ("not", A),
    "a & b": ("and", A, B),
    "a | b": ("or", A, B),
    "X a": ("X", A),
    "wX a": ("wX", A),
    "Y a": ("Y", A),
    "wY a": ("wY", A),
    **{f"a {op} b": (op, A, B, None) for op in "URST"},
    **{f"a {op}[3] b": (op, A, B, 3) for op in "URST"},
    "a U[0] b": ("U", A, B, 0),
    "F[2] true": ("U", ("tt",), ("tt",), 2),
    "G false": ("R", ("ff",), ("ff",), None),
}


def _expected(f):
    """The benchmark's tuple for a node, read by isinstance and fields."""
    if isinstance(f, Atom):
        return {"_true": ("tt",), "_false": ("ff",)}.get(f.name, ("ap", f.name))
    if isinstance(f, Binary):
        left, right = _expected(f.left), _expected(f.right)
        if isinstance(f, BINARY_TEMPORAL):
            return (TOKENS[type(f)], left, right, f.bound)
        return ("and" if TOKENS[type(f)] == "&" else "or", left, right)
    tag = "not" if isinstance(f, Not) else TOKENS[type(f)]
    return (tag, _expected(f.child))


def test_from_program_reads_every_operator():
    ref = _load("reference")
    for text, want in FROM_PROGRAM.items():
        assert ref.from_program(parse(text)) == want, text


def test_from_program_reads_campaign_formulas():
    ref = _load("reference")
    cfg = CampaignConfig()
    for seed in range(200):
        f = random_formula(random.Random(case_seed(seed, 0)), cfg.max_size, cfg.max_bound)
        got = ref.from_program(f)
        assert got == _expected(f)
        assert parse(ref.render(got)) == f
