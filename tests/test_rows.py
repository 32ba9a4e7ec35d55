"""Row labels against their gate view: `apply`, `compose_evaluated` and the
row invariant."""

import random

import numpy as np
import pytest

from pathcheck.builder import (
    build_boolean,
    build_bounded,
    build_shift,
    build_unbounded,
)
from pathcheck.circuit import Transducer, evaluate
from pathcheck.errors import CircuitError
from pathcheck.rows import (
    _BINCOUNT_WIDTH,
    AND,
    CHAIN_OR,
    COPY,
    FALSE,
    ID,
    OR,
    TRUE,
    Label,
    Row,
    apply,
    compose_evaluated,
    identity,
    positions,
)

import referee
from gates import apply as gate_apply, compose, constants_are_sinks, validate
from helpers import is_evaluated, random_bits, random_builder_label, random_label, truth_table
from test_referee import label_bytes


def assert_row_invariant(label):
    """No cell reads a constant, and every chain ends inside its row."""
    assert constants_are_sinks(label.circuit)
    validate(label)
    assert is_evaluated(label)
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
            assert fused.n == a.n == b.n
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


def gates_say_evaluated(label):
    """The gate-level referee's verdict on the label's gate view."""
    validate(label)
    return constants_are_sinks(label.circuit)


class TestIsEvaluated:
    def test_matches_gate_referee(self):
        rng = random.Random(24)
        verdicts = {True: 0, False: 0}
        for _ in range(6000):
            n = rng.randrange(1, 13)
            pick = rng.randrange(3)
            if pick == 0:
                label = random_label(rng, n)
            elif pick == 1:
                label = random_builder_label(rng, n)  # may be a raw row
            else:  # two builder results stacked without folding the seam
                first, second = random_builder_label(rng, n), random_builder_label(rng, n)
                label = Label(n, first.rows + second.rows)
            verdict = is_evaluated(label)
            assert verdict == gates_say_evaluated(label)
            verdicts[verdict] += 1
        assert min(verdicts.values()) > 1000

    def test_identity_is_evaluated(self):
        assert is_evaluated(identity(4))

    @staticmethod
    def chain_row(kind, d=1, a=None):
        kind = np.array(kind, dtype=np.uint8)
        return Row(kind, np.arange(len(kind)) if a is None else np.array(a), d=d)

    def test_reads_constant_below(self):
        # the row below holds a constant at 0
        const = Row(np.array([TRUE, ID, ID], dtype=np.uint8), np.arange(3))

        def above(kind, a, b):
            row = Row(np.array(kind, dtype=np.uint8), np.array(a), np.array(b), d=1)
            return is_evaluated(Label(3, (const, row)))

        assert not above([ID, ID, ID], [0, 1, 2], [1, 1, 2])  # through a
        assert not above([CHAIN_OR, ID, ID], [0, 1, 2], [1, 1, 2])
        assert not above([ID, ID, AND], [1, 1, 2], [1, 1, 0])  # through AND's b
        assert above([ID, ID, ID], [1, 1, 2], [0, 0, 0])  # an ID's b is unused
        assert above([AND, ID, OR], [1, 1, 2], [2, 1, 1])

    def test_operand_out_of_range(self):
        assert is_evaluated(Label(3, (self.chain_row([ID, ID, ID], d=0, a=[2, 1, 0]),)))
        assert not is_evaluated(Label(3, (self.chain_row([ID, ID, ID], d=0, a=[3, 1, 0]),)))
        assert not is_evaluated(Label(3, (self.chain_row([ID, ID, ID], d=0, a=[-1, 1, 0]),)))

    def test_row_width(self):
        assert not is_evaluated(Label(4, (self.chain_row([ID, ID, ID], d=0),)))

    def test_chain_direction(self):
        assert is_evaluated(Label(3, (self.chain_row([CHAIN_OR, COPY, ID], d=1),)))
        assert not is_evaluated(Label(3, (self.chain_row([CHAIN_OR, COPY, ID], d=0),)))
        assert not is_evaluated(Label(3, (self.chain_row([CHAIN_OR, COPY, ID], d=2),)))

    def test_chain_far_end(self):
        assert not is_evaluated(Label(3, (self.chain_row([ID, COPY, CHAIN_OR], d=1),)))
        assert is_evaluated(Label(3, (self.chain_row([ID, COPY, CHAIN_OR], d=-1),)))
        assert not is_evaluated(Label(3, (self.chain_row([CHAIN_OR, COPY, ID], d=-1),)))

    def test_chain_neighbour_constant(self):
        assert not is_evaluated(Label(3, (self.chain_row([CHAIN_OR, TRUE, ID], d=1),)))
        assert not is_evaluated(Label(3, (self.chain_row([ID, TRUE, COPY], d=-1),)))
        assert is_evaluated(Label(3, (self.chain_row([TRUE, CHAIN_OR, ID], d=1),)))


def skewed_bits(rng, n):
    # mostly-true or mostly-false runs make long chains, as on real traces
    p = rng.choice((0.03, 0.5, 0.97))
    return tuple(rng.random() < p for _ in range(n))


def wide_builder_label(rng, n, kind):
    op = rng.choice(("U", "R", "S", "T"))  # chains run forward for U/R, back for S/T
    known = skewed_bits(rng, n)
    if kind == "unbounded":
        return build_unbounded(n, op, rng.choice(("left", "right")), known)
    if kind == "raw":  # a collapsed bounded row, not folded
        return build_bounded(n, op, rng.choice((1, 7, n // 3, n - 2)), "right", known)
    if kind == "grid":
        return build_bounded(n, op, rng.randrange(1, 4), "left", known)
    if kind == "constant":
        boolean = rng.choice("&|")
        return build_boolean(n, boolean, (boolean == "|",) * n)
    if kind == "boolean":
        return build_boolean(n, rng.choice("&|"), known)
    return build_shift(n, rng.choice(("X", "wX", "Y", "wY")))


def unshared(label):
    """The label with every operand index that is the shared positions(n)
    replaced by a copy, so that no gather is skipped."""
    def copy(index):
        return np.arange(label.n) if index is positions(label.n) else index

    out = []
    for row in label.rows:
        a = copy(row.a)
        out.append(Row(row.kind, a, a if row.b is row.a else copy(row.b), row.d, row.raw))
    return Label(label.n, out)


KINDS = ("unbounded", "raw", "grid", "constant", "boolean", "shift")


class TestWide:
    """The kernels at widths where chains are long, against the gate-level
    referee, with and without the shared identity operand."""

    @pytest.mark.parametrize("n", [257, 4099])
    def test_apply_matches_gate_view(self, n):
        rng = random.Random(n)
        for kind in KINDS * 2:
            built = wide_builder_label(rng, n, kind)  # raw rows as built
            stacked = compose_evaluated(
                compose_evaluated(identity(n), built), wide_builder_label(rng, n, "unbounded")
            )
            for label in (built, stacked):
                bits = skewed_bits(rng, n)
                want = gate_apply(label, bits)
                assert tuple(apply(label, bits).tolist()) == want
                assert tuple(apply(unshared(label), bits).tolist()) == want

    @pytest.mark.parametrize("n", [257, 4099])
    def test_compose_matches_evaluate_of_compose(self, n):
        rng = random.Random(n + 1)
        for kind in KINDS * 2:
            first = compose_evaluated(identity(n), wide_builder_label(rng, n, rng.choice(KINDS)))
            second = wide_builder_label(rng, n, kind)  # may be raw: it goes on top
            plain = compose(first, second)
            cooked = Transducer(evaluate(plain.circuit), plain.inputs, plain.outputs)
            bits = skewed_bits(rng, n)
            want = gate_apply(cooked, bits)
            fused = compose_evaluated(first, second)
            assert_row_invariant(fused)
            assert tuple(apply(fused, bits).tolist()) == want
            copied = compose_evaluated(unshared(first), unshared(second))
            assert [r.kind.tolist() for r in copied.rows] == [r.kind.tolist() for r in fused.rows]
            assert tuple(apply(copied, bits).tolist()) == want


@pytest.mark.parametrize("n", [1, 2, 100, _BINCOUNT_WIDTH, _BINCOUNT_WIDTH + 1, 5000])
def test_row_counts_on_both_sides_of_the_bincount_width(n):
    rng = np.random.default_rng(n)
    for kinds in ([TRUE], [FALSE, ID], [ID, COPY], list(range(8))):
        kind = rng.choice(np.array(kinds, dtype=np.uint8), n)
        row = Row(kind, positions(n))
        assert (type(row.top), type(row.consts)) == (int, int)
        assert (row.top, row.consts) == (int(kind.max()), int(np.count_nonzero(kind <= TRUE)))


def test_compose_of_many_is_compose_in_pairs():
    # one call folds each seam in turn and drops and fuses once: the same
    # rows, byte for byte, as composing two labels at a time
    rng = random.Random(35)
    for _ in range(400):
        n = rng.randrange(1, 12)
        first = random_label(rng, n)
        later = [
            random_builder_label(rng, n) if rng.random() < 0.5 else random_label(rng, n)
            for _ in range(rng.randrange(0, 4))
        ]
        pairwise = first
        for label in later:
            pairwise = compose_evaluated(pairwise, label)
        assert label_bytes(compose_evaluated(first, *later)) == label_bytes(pairwise)


def test_compose_reads_any_evaluated_first():
    # `first` need not be as compose_evaluated returns it: gather rows below
    # other rows, such as two permutations, and all-constant rows above
    # live ones are fused and dropped over the whole stack, as composing in
    # pairs does
    rng = random.Random(36)

    def permutation(n):
        return Row(np.full(n, ID, dtype=np.uint8), np.array(rng.sample(range(n), n)))

    def check(first, later):
        got = compose_evaluated(first, *later)
        want = referee.compose_evaluated(first, *later)
        assert label_bytes(got) == label_bytes(want)
        assert is_evaluated(got)
        bits = random_bits(rng, n)
        expected = apply(first, bits)
        for label in later:
            expected = apply(label, expected)
        assert apply(got, bits).tolist() == apply(want, bits).tolist() == expected.tolist()

    n = 8
    two_permutations = Label(n, (permutation(n), permutation(n)))
    check(two_permutations, [build_shift(n, "X")])
    check(two_permutations, [build_boolean(n, "&", random_bits(rng, n)),
                             build_unbounded(n, "U", "left", random_bits(rng, n))])
    checked = 0
    while checked < 300:
        n = rng.randrange(1, 10)
        stack = []
        for _ in range(rng.randrange(2, 5)):
            pick = rng.randrange(3)
            if pick == 0:
                stack.append(permutation(n))
            elif pick == 1:
                kind = np.array([rng.choice((FALSE, TRUE)) for _ in range(n)], dtype=np.uint8)
                stack.append(Row(kind, np.arange(n)))
            else:
                stack += random_label(rng, n).rows
        first = Label(n, stack)
        later = [random_builder_label(rng, n) for _ in range(rng.randrange(1, 3))]
        if is_evaluated(first) and any(label.rows for label in later):
            check(first, later)
            checked += 1
