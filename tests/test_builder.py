import random

import pytest

from pathcheck.builder import (
    build_boolean,
    build_bounded,
    build_literal,
    build_shift,
    build_unbounded,
)
from pathcheck.circuit import G_AND, G_FALSE, G_TRUE, evaluate
from pathcheck.errors import BuildError
from pathcheck.formula import parse
from pathcheck.semantics import eval_seq
from pathcheck.trace import atom_sequence, load_trace, make_trace

from gates import apply, constants_are_sinks, validate
from helpers import random_bits


def random_trace(rng, n, names=("a", "b")):
    states = [{p for p in names if rng.random() < 0.5} for _ in range(n)]
    return make_trace(states, list(names))


class TestLiteral:
    def test_golden(self):
        tr = load_trace("p,q\n1,0\n0,1\n1,1\n")
        t = build_literal(tr, "p")
        assert t.arity_in == 0
        assert apply(t, ()) == (True, False, True)
        assert apply(build_literal(tr, "p", negated=True), ()) == (False, True, False)
        assert apply(build_literal(tr, "_true"), ()) == (True, True, True)

    def test_all_outputs_constant(self):
        tr = load_trace("p\n1\n0\n")
        t = build_literal(tr, "p")
        assert all(t.circuit.is_const(o) for o in t.outputs)


class TestShift:
    def test_layout_and_golden_kinds(self):
        t = build_shift(3, "X")
        c = t.circuit
        assert t.inputs == (0, 1, 2)
        assert t.outputs == (3, 4, 5)
        assert c.gate(3) == ("id", 1)
        assert c.gate(4) == ("id", 2)
        assert c.gate(5) == ("const", False)
        assert build_shift(3, "wX").circuit.gate(5) == ("const", True)
        y = build_shift(3, "Y").circuit
        assert y.gate(3) == ("const", False)
        assert y.gate(4) == ("id", 0)
        assert y.gate(5) == ("id", 1)
        assert build_shift(3, "wY").circuit.gate(3) == ("const", True)

    def test_length_one(self):
        assert apply(build_shift(1, "X"), (True,)) == (False,)
        assert apply(build_shift(1, "wX"), (False,)) == (True,)
        assert apply(build_shift(1, "Y"), (True,)) == (False,)
        assert apply(build_shift(1, "wY"), (False,)) == (True,)

    @pytest.mark.parametrize("op", ["X", "wX", "Y", "wY"])
    def test_matches_oracle(self, op):
        rng = random.Random(hash(op) & 0xFFFF)
        for _ in range(25):
            n = rng.randrange(1, 9)
            tr = random_trace(rng, n, names=("a",))
            bits = atom_sequence(tr, "a")
            t = build_shift(n, op)
            validate(t)
            assert apply(t, bits) == eval_seq(tr, parse(f"{op} a"))

    def test_rejects(self):
        with pytest.raises(BuildError):
            build_shift(3, "Z")
        with pytest.raises(BuildError):
            build_shift(0, "X")
        with pytest.raises(BuildError, match="arity"):
            build_shift(10**20, "X")


class TestBoolean:
    def test_golden(self):
        t = build_boolean(2, "&", (True, False))
        c = t.circuit
        assert c.gate(2) == ("id", 0)
        assert c.gate(3) == ("const", False)
        t = build_boolean(2, "|", (True, False))
        c = t.circuit
        assert c.gate(2) == ("const", True)
        assert c.gate(3) == ("id", 1)

    @pytest.mark.parametrize("op,text", [("&", "a & b"), ("|", "a | b")])
    def test_matches_oracle(self, op, text):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randrange(1, 9)
            tr = random_trace(rng, n)
            t = build_boolean(n, op, atom_sequence(tr, "a"))
            validate(t)
            assert apply(t, atom_sequence(tr, "b")) == eval_seq(tr, parse(text))

    def test_rejects(self):
        with pytest.raises(BuildError):
            build_boolean(2, "x", (True, False))
        with pytest.raises(BuildError):
            build_boolean(3, "&", (True, False))


# known_side=left fixes the left operand, so the circuit maps the right
# operand's bits to the result, and vice versa.
def run_binary(build, tr, op_text, known_side):
    f = parse(op_text)
    known_atom, var_atom = ("a", "b") if known_side == "left" else ("b", "a")
    t = build(atom_sequence(tr, known_atom))
    validate(t)
    return apply(t, atom_sequence(tr, var_atom)), eval_seq(tr, f)


class TestUnbounded:
    @pytest.mark.parametrize("op", ["U", "R", "S", "T"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_oracle(self, op, side):
        rng = random.Random(ord(op) * 2 + (side == "left"))
        for _ in range(40):
            n = rng.randrange(1, 10)
            tr = random_trace(rng, n)
            got, want = run_binary(
                lambda known: build_unbounded(n, op, side, known),
                tr, f"a {op} b", side,
            )
            assert got == want

    def test_result_is_evaluated(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randrange(1, 8)
            known = random_bits(rng, n)
            for op in ("U", "R", "S", "T"):
                for side in ("left", "right"):
                    t = build_unbounded(n, op, side, known)
                    assert constants_are_sinks(t.circuit)
                    validate(t)

    def test_layout(self):
        t = build_unbounded(4, "U", "left", (True,) * 4)
        assert t.inputs == (0, 1, 2, 3)
        assert t.outputs == (4, 5, 6, 7)

    def test_rejects(self):
        with pytest.raises(BuildError):
            build_unbounded(2, "X", "left", (True, False))
        with pytest.raises(BuildError):
            build_unbounded(2, "U", "top", (True, False))
        with pytest.raises(BuildError):
            build_unbounded(2, "U", "left", (True,))


class TestBoundedCollapsed:
    def test_golden_row(self):
        # U with bound 3 over 8 positions, right operand 0,1,0,0,0,0,0,1
        t = build_bounded(8, "U", 3, "right", (0, 1, 0, 0, 0, 0, 0, 1))
        c = t.circuit
        assert t.inputs == tuple(range(8))
        assert t.outputs == tuple(range(8, 16))
        kinds = [c.kind[o] for o in t.outputs]
        assert kinds == [G_AND, G_TRUE, G_FALSE, G_FALSE, G_AND, G_AND, G_AND, G_TRUE]
        # chain gates keep their raw pointers: var below, output to the right
        assert c.gate(8) == ("and", 0, 9)
        assert c.gate(12) == ("and", 4, 13)
        assert c.gate(13) == ("and", 5, 14)
        assert c.gate(14) == ("and", 6, 15)

    def test_row_is_raw_not_evaluated(self):
        t = build_bounded(8, "U", 3, "right", (0, 1, 0, 0, 0, 0, 0, 1))
        # gate 8 reads the constant gate 9, so constants are not sinks here
        assert not constants_are_sinks(t.circuit)

    @pytest.mark.parametrize("op", ["U", "R", "S", "T"])
    def test_matches_oracle(self, op):
        rng = random.Random(ord(op))
        for _ in range(40):
            n = rng.randrange(1, 10)
            bound = rng.randrange(0, 7)
            tr = random_trace(rng, n)
            got, want = run_binary(
                lambda known: build_bounded(n, op, bound, "right", known),
                tr, f"a {op}[{bound}] b", "right",
            )
            assert got == want


class TestBoundedGrid:
    def test_golden_grid(self):
        # U with bound 3 over 8 positions, left operand 0,1,0,1,1,1,0,1
        s = (0, 1, 0, 1, 1, 1, 0, 1)
        t = build_bounded(8, "U", 3, "left", s)
        c = t.circuit
        assert len(c) == 32
        assert t.inputs == tuple(range(8))
        assert t.outputs == tuple(range(24, 32))
        for row_start in (8, 16, 24):
            for i in range(8):
                g = row_start + i
                if s[i] and i < 7:
                    assert c.kind[g] == 5, f"gate {g} should be Or"  # G_OR
                else:
                    assert c.kind[g] == 3, f"gate {g} should be Id"  # G_ID

    def test_grid_or_operands(self):
        s = (0, 1, 0, 1, 1, 1, 0, 1)
        t = build_bounded(8, "U", 3, "left", s)
        # the first computed row's Or at position 1 reads var 1 and var 2
        assert t.circuit.gate(9) == ("or", 1, 2)
        # the next row's Or reads the row below
        assert t.circuit.gate(17) == ("or", 9, 10)

    def test_bound_zero_grid_is_identity(self):
        t = build_bounded(5, "U", 0, "left", (True,) * 5)
        assert t.inputs == t.outputs

    @pytest.mark.parametrize("op", ["U", "R", "S", "T"])
    def test_matches_oracle(self, op):
        rng = random.Random(ord(op) * 31)
        for _ in range(40):
            n = rng.randrange(1, 10)
            bound = rng.randrange(0, 7)
            tr = random_trace(rng, n)
            got, want = run_binary(
                lambda known: build_bounded(n, op, bound, "left", known),
                tr, f"a {op}[{bound}] b", "left",
            )
            assert got == want

    def test_grid_is_evaluated(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randrange(1, 8)
            bound = rng.randrange(0, 6)
            known = random_bits(rng, n)
            for op in ("U", "R", "S", "T"):
                t = build_bounded(n, op, bound, "left", known)
                assert constants_are_sinks(t.circuit)
                validate(t)


    def test_grid_equals_its_evaluation(self):
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randrange(1, 12)
            bound = rng.randrange(0, 6)
            known = random_bits(rng, n)
            for op in ("U", "R", "S", "T"):
                c = build_bounded(n, op, bound, "left", known).circuit
                cooked = evaluate(c)
                assert (c.kind, c.arg0, c.arg1) == (cooked.kind, cooked.arg0, cooked.arg1)

def test_bounded_rejects():
    with pytest.raises(BuildError):
        build_bounded(2, "X", 1, "left", (True, False))
    with pytest.raises(BuildError):
        build_bounded(2, "U", -1, "left", (True, False))
    with pytest.raises(BuildError):
        build_bounded(2, "U", 1, "middle", (True, False))
    with pytest.raises(BuildError):
        build_bounded(2, "U", 1, "left", (True,))
