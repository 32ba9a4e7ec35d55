"""Tests of the benchmark itself: the reference evaluator against a
brute-force reading of the quantifier definitions, and the output check.

    python3 -m pytest pathbench/test_reference.py
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import worker
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def brute(f, columns: dict, n: int, i: int) -> bool:
    """Satisfaction of f at position i, read off the definitions."""
    tag = f[0]
    if tag == "ap":
        return bool(columns[f[1]][i])
    if tag in ("tt", "ff"):
        return tag == "tt"
    if tag == "not":
        return not brute(f[1], columns, n, i)
    if tag == "and":
        return brute(f[1], columns, n, i) and brute(f[2], columns, n, i)
    if tag == "or":
        return brute(f[1], columns, n, i) or brute(f[2], columns, n, i)
    if tag in ("X", "wX"):
        return brute(f[1], columns, n, i + 1) if i + 1 < n else tag == "wX"
    if tag in ("Y", "wY"):
        return brute(f[1], columns, n, i - 1) if i > 0 else tag == "wY"
    op, left, right, bound = f
    b = n if bound is None else bound
    if op in ("U", "R"):
        window = range(i, min(i + b, n - 1) + 1)
        between = lambda j: range(i, j)  # noqa: E731
    else:
        window = range(max(i - b, 0), i + 1)
        between = lambda j: range(j + 1, i + 1)  # noqa: E731
    if op in ("U", "S"):
        return any(brute(right, columns, n, j)
                   and all(brute(left, columns, n, k) for k in between(j)) for j in window)
    return all(brute(right, columns, n, j)
               or any(brute(left, columns, n, k) for k in between(j)) for j in window)


def random_formula(rng: random.Random, depth: int, n: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([("ap", "a"), ("ap", "b"), ("ap", "c"), ("tt",), ("ff",)])
    tag = rng.choice(["not", "and", "or", *ref.SHIFTS, *ref.BINARY_TEMPORAL])
    if tag == "not" or tag in ref.SHIFTS:
        return (tag, random_formula(rng, depth - 1, n))
    left, right = random_formula(rng, depth - 1, n), random_formula(rng, depth - 1, n)
    if tag in ("and", "or"):
        return (tag, left, right)
    bound = rng.choice([None, 0, 1, 2, n - 1, n, n + 3])
    return (tag, left, right, bound)


def random_columns(rng: random.Random, n: int) -> dict:
    return {p: np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool) for p in "abc"}


def assert_matches(f, columns, n):
    want = [brute(f, columns, n, i) for i in range(n)]
    assert ref.evaluate(f, columns, n).tolist() == want, ref.render(f)


def test_random_formulas_match_brute_force():
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randint(1, 7)
        assert_matches(random_formula(rng, 3, n), random_columns(rng, n), n)


@pytest.mark.parametrize("op", ref.BINARY_TEMPORAL)
def test_every_bound_on_every_trace(op):
    """Bounds 0 through beyond n, every 0/1 assignment of both operands."""
    for n in range(1, 5):
        for left_bits, right_bits in itertools.product(itertools.product((0, 1), repeat=n), repeat=2):
            columns = {"a": np.array(left_bits, dtype=bool), "b": np.array(right_bits, dtype=bool)}
            for bound in (None, 0, 1, n - 1, n, n + 2):
                assert_matches((op, ("ap", "a"), ("ap", "b"), bound), columns, n)


@pytest.mark.parametrize("tag", ref.SHIFTS)
def test_shifts_at_the_trace_edges(tag):
    for n in (1, 2, 5):
        columns = {"a": np.ones(n, dtype=bool)}
        out = ref.evaluate((tag, ("ap", "a")), columns, n).tolist()
        edge = n - 1 if tag in ("X", "wX") else 0
        assert out[edge] == tag.startswith("w")
        assert all(out[i] for i in range(n) if i != edge)


def test_render_round_trips_through_sugar():
    assert ref.render(("U", ("tt",), ("ap", "a"), 3)) == "F[3] (a)"
    assert ref.render(("T", ("ff",), ("ap", "a"), None)) == "H (a)"
    assert ref.render(("R", ("ap", "a"), ("ap", "b"), 0)) == "(a R[0] b)"


@pytest.fixture(scope="module")
def cli():
    return worker.load_program(str(SRC)).cli


def test_checked_operation_passes_and_one_flipped_bit_fails(cli, tmp_path):
    rng = random.Random(5)
    f, densities, _ = workloads.FAMILIES["past"]
    op = workloads.check_op(tmp_path, "past", f, workloads.random_trace(rng, 64, densities),
                            64, "csv", "circuit")
    argv = op["argv"] + worker.check_flags(cli)
    assert worker.verify(op, *worker.call(cli, argv)) is None
    flipped = dict(op, expected=op["expected"][:7] + "10"[int(op["expected"][7])] + op["expected"][8:])
    loop = worker.Loop(cli, [flipped], {"check": worker.check_flags(cli)})
    dt, reason = loop.run_op(flipped)
    loop.record(reason, dt)
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "position 7" in reason


def test_campaign_block_digest_matches_the_reference(cli):
    sys.path.insert(0, str(SRC))
    op = workloads.campaign_round(3)[0]
    small = dict(op, argv=op["argv"] + ["--processes", "1"])
    assert worker.verify(small, *worker.call(cli, small["argv"])) is None
