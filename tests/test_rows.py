"""Row labels against their gate view: `apply`, `compose_evaluated` and the
row invariant."""

import random

import numpy as np
import pytest

from pathcheck.builder import build_boolean, build_shift
from pathcheck.circuit import (
    Transducer,
    apply as gate_apply,
    compose,
    constants_are_sinks,
    evaluate,
    validate,
)
from pathcheck.errors import CircuitError
from pathcheck.rows import COPY, TRUE, apply, compose_evaluated, identity

from helpers import random_bits, random_builder_label, random_label, truth_table


def assert_row_invariant(label):
    """No cell reads a constant, and every chain ends inside its row."""
    assert constants_are_sinks(label.circuit)
    validate(label)
    for row in label.rows:
        if row.top >= COPY:
            assert row.d in (1, -1)
            far = len(row.kind) - 1 if row.d > 0 else 0
            assert row.kind[far] < COPY


class TestApply:
    def test_matches_gate_view(self):
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randrange(1, 13)
            label = rng.choice((random_label, lambda r, n: random_builder_label(r, n)))(rng, n)
            bits = random_bits(rng, n)
            assert tuple(apply(label, bits).tolist()) == gate_apply(label, bits)

    def test_identity(self):
        bits = np.array([True, False, True])
        assert apply(identity(3), bits).tolist() == [True, False, True]

    def test_wrong_arity(self):
        with pytest.raises(CircuitError, match="arity"):
            apply(identity(2), (True,))


class TestComposeEvaluated:
    def test_matches_evaluate_of_compose(self):
        rng = random.Random(22)
        pairs = []
        for _ in range(150):
            n = rng.randrange(1, 8)
            a, b = random_label(rng, n), random_label(rng, n)
            pairs.append((a, b))
            pairs.append((identity(n), a))
            pairs.append((b, identity(n)))
            # a builder result on top: raw collapsed rows, all-constant rows
            pairs.append((a, random_builder_label(rng, n)))
            pairs.append((identity(n), random_builder_label(rng, n)))
        for a, b in pairs:
            fused = compose_evaluated(a, b)
            plain = compose(a, b)
            cooked = Transducer(evaluate(plain.circuit), plain.inputs, plain.outputs)
            assert truth_table(fused) == truth_table(cooked)
            assert (fused.arity_in, fused.arity_out) == (a.arity_in, b.arity_out)
            assert_row_invariant(fused)

    def test_constant_first_stage(self):
        # every output of the first stage is decided: whatever comes after
        # reads nothing below, so one all-constant row is left
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(1, 9)
            first = build_boolean(n, "|", (True,) * n)
            second = random_label(rng, n)
            fused = compose_evaluated(first, second)
            assert len(fused.rows) == 1 and fused.rows[0].top <= TRUE
            assert truth_table(fused) == truth_table(compose(first, second))

    def test_shift_rows_fuse(self):
        label = identity(6)
        for op in ("X", "X", "Y", "wX"):
            label = compose_evaluated(label, build_shift(6, op))
        assert len(label.rows) == 1
        assert_row_invariant(label)

    def test_arity_mismatch(self):
        with pytest.raises(CircuitError, match="arity"):
            compose_evaluated(identity(1), identity(2))
