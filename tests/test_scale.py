"""Correctness at scale: both engines agree on traces of 10^4 and 10^5
states, also with bounds near n, the oracle's memory stays linear in n,
formulas nested 10^4 deep parse and check on both engines, and formulas of
tens of thousands of distinct names stay linear in their size."""

import tracemalloc

import numpy as np
import pytest

from pathcheck import check, parse
from pathcheck.contraction import init_tree, run_contraction
from pathcheck.formula import atom_names, prune_bounds, to_pnf
from pathcheck.semantics import eval_array
from pathcheck.trace import Trace

# The benchmark's four few-literal families, with `{B}` marking each unbounded
# temporal operator: name -> (formula template, proposition densities).
FAMILIES = {
    "response": ("false R{B} (!req | (true U[16] ack))", {"req": 0.05, "ack": 0.1}),
    "until_chain": ("a U{B} (b U{B} c)", {"a": 0.9, "b": 0.9, "c": 0.05}),
    "past": ("(false T{B} (c | Y d)) & (a S[3] e)",
             {"a": 0.8, "c": 0.7, "d": 0.5, "e": 0.1}),
    "left_grid": ("z & (p U[3] (q R{B} r))", {"z": 0.9, "p": 0.7, "q": 0.1, "r": 0.9}),
}


def family_trace(name: str, n: int) -> Trace:
    densities = FAMILIES[name][1]
    rng = np.random.default_rng(sorted(FAMILIES).index(name) * 1_000_003 + n)
    alphabet = tuple(densities)
    return Trace(np.array([rng.random(n) < densities[a] for a in alphabet]), alphabet)


def assert_engines_agree(f, tr):
    circuit = check(f, tr).sequence
    naive = check(f, tr, engine="naive").sequence
    assert len(circuit) == len(tr)
    assert np.array_equal(circuit, naive)


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_agree(name, n):
    assert_engines_agree(parse(FAMILIES[name][0].replace("{B}", "")), family_trace(name, n))


@pytest.mark.parametrize("offset", [-2, -1, 0, 1])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_bounds_near_n_agree(name, offset):
    n = 10_000
    f = parse(FAMILIES[name][0].replace("{B}", f"[{n + offset}]"))
    assert (prune_bounds(f, n) != f) == (offset > 0)
    assert_engines_agree(f, family_trace(name, n))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_window_covering_trace_is_unbounded(offset):
    # a bound of at least n - 1 is the unbounded operator: one chain row,
    # where a bounded operator with its left operand known would unroll
    # `bound` rows
    n = 10_000
    f = parse(f"a U[{n + offset}] (b U[{n + offset}] c)")
    tr = family_trace("until_chain", n)
    depths = []

    def on_stage(tree, stage):
        depths.append(max(len(label.rows) for label in tree.labels.values()))

    seq = run_contraction(init_tree(prune_bounds(to_pnf(f), n), tr), on_stage=on_stage)
    assert max(depths) <= 2
    assert np.array_equal(seq, check(f, tr, engine="naive").sequence)


def test_oracle_memory_is_linear():
    n = 1_000_000
    rng = np.random.default_rng(5)
    tr = Trace(rng.random((3, n)) < 0.5, ("a", "b", "c"))
    f = parse("(a U (b S[5] c)) S (!a U[7] (b T (a R c)))")
    tracemalloc.start()
    try:
        eval_array(tr, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n, f"peak {peak / n:.1f} bytes per position"


DEPTH = 10_000
# name -> (formula text nested DEPTH deep, its sequence as a function of a's)
DEEP = {
    "parentheses": ("(" * DEPTH + "a" + ")" * DEPTH, lambda a: a),
    "negations": ("! " * (DEPTH + 1) + "a", lambda a: ~a),
    "nexts": ("X " * DEPTH + "a", lambda a: np.zeros_like(a)),  # past the end
    "until_chain": (" U ".join(["a"] * DEPTH), lambda a: a),  # a U a == a
    "bounded_until_chain": (" U[2] ".join(["a"] * DEPTH), lambda a: a),
}


@pytest.mark.parametrize("engine", ["circuit", "naive"])
@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_nesting(name, engine):
    text, expected = DEEP[name]
    tr = Trace(np.array([[True, False, True, True]]), ("a",))
    seq = check(parse(text), tr, engine=engine).sequence
    assert np.array_equal(seq, expected(tr.columns[0]))


def test_atom_names_of_a_wide_conjunction():
    names = [f"p{i}" for i in range(50_000)]
    assert atom_names(parse(" & ".join(names))) == set(names)


def test_wide_alphabet():
    # every literal looks its name up in an alphabet of 20,000 names
    names = tuple(f"p{i}" for i in range(20_000))
    tr = Trace(np.ones((len(names), 16), dtype=bool), names)
    f = parse(" & ".join(names))
    circuit, naive = check(f, tr), check(f, tr, engine="naive")
    assert circuit.satisfied and naive.satisfied and circuit == naive
