"""The names and shapes pathbench's traced run reads from the program.

`pathbench/tracer.py` wraps functions by name and reads label gates in its
stage census; this keeps those lookups working. Nothing is installed or
patched: the tracer module is only read and its census run on a copy of a
contraction's stages.
"""

import importlib.util
import random
from pathlib import Path

import pathcheck
from pathcheck import builder, contraction, rows
from pathcheck.formula import parse, prune_bounds, to_pnf

from test_builder import random_trace

TRACER = Path(__file__).resolve().parent.parent / "pathbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("pathbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist():
    tracer = load_tracer()
    for module_name, attr, _ in tracer.WRAPPED:
        assert callable(getattr(getattr(pathcheck, module_name), attr)), (module_name, attr)
    # the spans on contraction's compose, identity and apply time the row code
    for name in ("compose_evaluated", "identity", "apply"):
        assert getattr(contraction, name) is getattr(rows, name)


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
