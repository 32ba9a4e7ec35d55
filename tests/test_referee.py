"""The engine's rows against the per-row referee (`referee.py`), byte for
byte: kinds, operand indices, directions, flags, counts and dtypes.

The engine settles chain rows with one neighbour test, builds a chain of
shifts as one row and finds a collapsed bounded row's window with slices;
the referee does each of these the way it was first written.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcheck import builder, contraction, rows
from pathcheck.campaign import CampaignConfig, case_seed, random_formula
from pathcheck.campaign import random_trace as campaign_trace
from pathcheck.formula import prune_bounds, to_pnf

import referee
from helpers import contract_step, random_builder_label, random_label, wide_cases
from test_builder import random_trace
from test_formula import formulas

SHIFTS = ("X", "wX", "Y", "wY")


def row_bytes(row):
    return tuple(
        (x.dtype.str, x.shape, x.tobytes()) for x in (row.kind, row.a, row.b)
    ) + (row.d, row.raw, type(row.top), row.top, type(row.consts), row.consts)


def label_bytes(label):
    return label.n, tuple(row_bytes(row) for row in label.rows)


def stages(g, tr):
    """Every stage's tree of one run: structure and label bytes."""
    seen = []

    def record(t, stage):
        seen.append((
            stage,
            sorted(t.parent.items()),
            sorted(t.leaf_numbers.items()),
            {v: label_bytes(label) for v, label in t.labels.items()},
        ))

    seq = contraction.run_contraction(contraction.init_tree(g, tr), on_stage=record)
    return seen, seq.tolist()


def refereed(g, tr):
    with pytest.MonkeyPatch.context() as mp:
        referee.install(mp, contraction)
        return stages(g, tr)


def test_fold_matches_referee():
    rng = random.Random(31)
    for _ in range(1500):
        n = rng.randrange(1, 14)
        row = random_builder_label(rng, n)
        if not row.rows:
            continue
        for below in (None, *random_label(rng, n).rows[-1:], *random_builder_label(rng, n).rows[:1]):
            for r in row.rows[:2]:
                assert row_bytes(rows.fold(r, below)) == row_bytes(referee.fold(r, below))


def test_compose_matches_referee():
    rng = random.Random(32)
    for _ in range(600):
        n = rng.randrange(1, 12)
        first = random_label(rng, n)
        for second in (random_label(rng, n), random_builder_label(rng, n)):
            assert label_bytes(rows.compose_evaluated(first, second)) == label_bytes(
                referee.compose_evaluated(first, second)
            )


@pytest.mark.parametrize("op", ["U", "R", "S", "T"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_builders_match_referee(op, side):
    rng = random.Random(f"{op}{side}")
    for n in list(range(1, 12)) + [17, 40, 129]:
        for _ in range(6):
            known = [rng.random() < rng.choice((0.1, 0.5, 0.9)) for _ in range(n)]
            assert label_bytes(builder.build_unbounded(n, op, side, known)) == label_bytes(
                referee.build_unbounded(n, op, side, known)
            )
            for bound in sorted({0, 1, 2, 3, n - 2, n - 1, n, n + 2, rng.randrange(n + 3)}):
                if bound < 0:
                    continue
                assert label_bytes(builder.build_bounded(n, op, bound, side, known)) == label_bytes(
                    referee.build_bounded(n, op, bound, side, known)
                ), (n, bound)


def test_shift_chains_match_referee():
    for n in range(1, 7):
        for length in range(1, 5):
            for ops in itertools.product(SHIFTS, repeat=length):
                assert label_bytes(builder.build_shifts(n, ops)) == label_bytes(
                    referee.build_shifts(n, ops)
                ), (n, ops)
    rng = random.Random(33)
    for n in (1, 2, 5, 40, 301):
        for ops in (("X",) * 300, ("wY",) * 7 + ("X",) * 9, tuple(rng.choice(SHIFTS) for _ in range(60))):
            assert label_bytes(builder.build_shifts(n, ops)) == label_bytes(
                referee.build_shifts(n, ops)
            ), (n, ops[:5])


def test_every_stage_matches_referee_on_campaign_formulas():
    cfg = CampaignConfig()
    for index in range(500):
        rng = random.Random(case_seed(11, index))
        f = random_formula(rng, cfg.max_size, cfg.max_bound)
        tr = campaign_trace(rng, cfg.max_len)
        g = prune_bounds(to_pnf(f), len(tr))
        assert stages(g, tr) == refereed(g, tr), index


def test_every_stage_matches_referee_on_wide_formulas():
    # 100-140 literals at n = 128: bounds 0-4 and beyond n, shift chains
    # and negations, with many plans per pass and long labels
    for f, tr in wide_cases():
        assert stages(f, tr) == refereed(f, tr)


@settings(max_examples=150, deadline=None)
@given(formulas(max_leaves=12), st.integers(1, 14), st.integers(0, 2**32 - 1))
def test_every_stage_matches_referee(f, n, seed):
    tr = random_trace(random.Random(seed), n, names=("a", "b", "c", "d"))
    g = prune_bounds(to_pnf(f), n)
    assert stages(g, tr) == refereed(g, tr)


def test_contract_step_matches_referee():
    rng = random.Random(34)
    for _ in range(120):
        f = random_formula(rng, rng.randrange(1, 16), max_bound=6)
        tr = random_trace(rng, rng.randrange(1, 10), names=("a", "b", "c", "d"))
        g = prune_bounds(to_pnf(f), len(tr))
        tree = contraction.init_tree(g, tr)
        while len(tree.leaf_numbers) > 1:
            leaf = rng.choice(sorted(tree.leaf_numbers))
            mine = contract_step(tree, leaf)
            with pytest.MonkeyPatch.context() as mp:
                referee.install(mp, contraction)
                theirs = contract_step(tree, leaf)
            assert {v: label_bytes(x) for v, x in mine.labels.items()} == {
                v: label_bytes(x) for v, x in theirs.labels.items()
            }
            tree = mine
