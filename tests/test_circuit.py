import random

import pytest

from pathcheck.circuit import (
    G_AND,
    G_FALSE,
    G_ID,
    G_OR,
    G_TRUE,
    G_VAR,
    Circuit,
    Transducer,
    constant_circuit,
    evaluate,
    to_dot,
)
from pathcheck.errors import CircuitError

from gates import apply, compose, constants_are_sinks, identity, validate
from helpers import random_bits, random_evaluated_transducer, truth_table


class TestBasics:
    def test_add_and_gate_labels(self):
        c = Circuit()
        v = c.add_var()
        t = c.add_const(True)
        a = c.add_and(v, t)
        i = c.add_id(a)
        assert len(c) == 4
        assert c.gate(v) == ("var",)
        assert c.gate(t) == ("const", True)
        assert c.gate(a) == ("and", v, t)
        assert c.gate(i) == ("id", a)
        assert c.dependencies(a) == (v, t)
        assert c.dependencies(i) == (a,)
        assert c.dependencies(v) == ()

    def test_copy_is_independent(self):
        c = Circuit()
        c.add_var()
        d = c.copy()
        d.add_const(False)
        assert len(c) == 1
        assert len(d) == 2

    def test_identity(self):
        t = identity(3)
        assert t.inputs == t.outputs
        assert t.arity_in == t.arity_out == 3
        assert apply(t, (True, False, True)) == (True, False, True)

    def test_identity_rejects_negative(self):
        with pytest.raises(CircuitError):
            identity(-1)

    def test_constant_circuit(self):
        t = constant_circuit([True, False])
        assert t.arity_in == 0
        assert apply(t, ()) == (True, False)


class TestValidate:
    def test_accepts_good(self):
        rng = random.Random(7)
        for _ in range(20):
            validate(random_evaluated_transducer(rng, 3, 2))

    def test_inputs_must_cover_vars(self):
        c = Circuit()
        c.add_var()
        c.add_var()
        with pytest.raises(CircuitError, match="Var gates"):
            validate(Transducer(c, (0,), (0,)))

    def test_inputs_must_be_vars(self):
        c = Circuit()
        c.add_var()
        c.add_const(True)
        with pytest.raises(CircuitError, match="Var gates"):
            validate(Transducer(c, (0, 1), (0,)))

    def test_output_range(self):
        c = Circuit()
        c.add_var()
        with pytest.raises(CircuitError, match="out of range"):
            validate(Transducer(c, (0,), (5,)))

    def test_cycle_rejected(self):
        c = Circuit()
        g = c.add_id(0)  # gate 0 points at itself
        with pytest.raises(CircuitError, match="cycle"):
            validate(Transducer(c, (), (g,)))


class TestEvaluate:
    def test_and_with_true_becomes_id(self):
        c = Circuit()
        v = c.add_var()
        t = c.add_const(True)
        a = c.add_and(v, t)
        e = evaluate(c)
        assert e.gate(a) == ("id", v)
        assert len(e) == len(c)

    def test_and_with_false_becomes_const(self):
        c = Circuit()
        v = c.add_var()
        f = c.add_const(False)
        a = c.add_and(v, f)
        e = evaluate(c)
        assert e.gate(a) == ("const", False)

    def test_or_with_true_becomes_const(self):
        c = Circuit()
        v = c.add_var()
        t = c.add_const(True)
        o = c.add_or(t, v)
        assert evaluate(c).gate(o) == ("const", True)

    def test_or_with_false_becomes_id(self):
        c = Circuit()
        v = c.add_var()
        f = c.add_const(False)
        o = c.add_or(f, v)
        assert evaluate(c).gate(o) == ("id", v)

    def test_constant_folding_cascades(self):
        c = Circuit()
        t = c.add_const(True)
        f = c.add_const(False)
        a = c.add_and(t, t)
        o = c.add_or(a, f)
        i = c.add_id(o)
        e = evaluate(c)
        assert e.gate(a) == ("const", True)
        assert e.gate(o) == ("const", True)
        assert e.gate(i) == ("const", True)

    def test_id_chain_compression(self):
        c = Circuit()
        v = c.add_var()
        i1 = c.add_id(v)
        i2 = c.add_id(i1)
        i3 = c.add_id(i2)
        e = evaluate(c)
        assert e.gate(i1) == ("id", v)
        assert e.gate(i2) == ("id", v)
        assert e.gate(i3) == ("id", v)

    def test_decided_gate_points_at_compressed_target(self):
        c = Circuit()
        v = c.add_var()
        i1 = c.add_id(v)
        t = c.add_const(True)
        a = c.add_and(i1, t)
        # the Id produced for the decided And skips over i1
        assert evaluate(c).gate(a) == ("id", v)

    def test_surviving_gate_keeps_operands(self):
        c = Circuit()
        v1 = c.add_var()
        v2 = c.add_var()
        i = c.add_id(v1)
        a = c.add_and(i, v2)
        e = evaluate(c)
        # the And survives, still reading the Id gate, not v1 directly
        assert e.gate(a) == ("and", i, v2)

    def test_forward_references_ok(self):
        # gate 0 reads gate 2, which is defined later
        c = Circuit([G_ID, G_TRUE, G_AND], [2, -1, 1], [-1, -1, 1])
        e = evaluate(c)
        assert e.gate(2) == ("const", True)
        assert e.gate(0) == ("const", True)

    def test_result_has_constant_sinks(self):
        rng = random.Random(3)
        for _ in range(30):
            t = random_evaluated_transducer(rng, 4, 3)
            assert constants_are_sinks(t.circuit)

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(30):
            t = random_evaluated_transducer(rng, 4, 3)
            again = evaluate(t.circuit)
            assert again.kind == t.circuit.kind
            assert again.arg0 == t.circuit.arg0
            assert again.arg1 == t.circuit.arg1

    def test_preserves_function(self):
        rng = random.Random(5)
        for _ in range(30):
            c = Circuit()
            ins = tuple(c.add_var() for _ in range(4))
            pool = list(ins) + [c.add_const(True), c.add_const(False)]
            for _ in range(15):
                if rng.random() < 0.5:
                    pool.append(c.add_and(rng.choice(pool), rng.choice(pool)))
                else:
                    pool.append(c.add_or(rng.choice(pool), rng.choice(pool)))
            outs = tuple(rng.sample(pool, 3))
            raw = Transducer(c, ins, outs)
            cooked = Transducer(evaluate(c), ins, outs)
            assert truth_table(cooked) == truth_table(raw)

    def test_cycle_raises(self):
        c = Circuit([G_AND, G_VAR], [1, -1], [0, -1])
        c.kind[0] = G_AND
        c.arg0[0] = 0
        c.arg1[0] = 1
        with pytest.raises(CircuitError, match="cycle"):
            evaluate(c)


class TestCompose:
    def test_arity_mismatch(self):
        with pytest.raises(CircuitError, match="arity"):
            compose(identity(2), identity(3))

    def test_identity_neutral(self):
        rng = random.Random(11)
        t = random_evaluated_transducer(rng, 3, 3)
        assert truth_table(compose(identity(3), t)) == truth_table(t)
        assert truth_table(compose(t, identity(3))) == truth_table(t)

    def test_function_is_second_after_first(self):
        # first: (x, y) -> (x and y, x or y); second: (p, q) -> (p or q,)
        c1 = Circuit()
        x = c1.add_var()
        y = c1.add_var()
        f1 = Transducer(c1, (x, y), (c1.add_and(x, y), c1.add_or(x, y)))
        c2 = Circuit()
        p = c2.add_var()
        q = c2.add_var()
        f2 = Transducer(c2, (p, q), (c2.add_or(p, q),))
        g = compose(f1, f2)
        assert g.arity_in == 2 and g.arity_out == 1
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            want = ((bits[0] and bits[1]) or (bits[0] or bits[1]),)
            assert apply(g, bits) == (bool(want[0]),)

    def test_inputs_outputs_offsets(self):
        f1 = identity(2)
        f2 = identity(2)
        g = compose(f1, f2)
        assert g.inputs == (0, 1)
        assert g.outputs == (2, 3)
        # the second copy's var gates became Id gates reading the first's outputs
        assert g.circuit.gate(2) == ("id", 0)
        assert g.circuit.gate(3) == ("id", 1)

    def test_random_pairs_compose_pointwise(self):
        rng = random.Random(12)
        for _ in range(25):
            k = rng.randrange(1, 5)
            mid = rng.randrange(1, 5)
            out = rng.randrange(1, 4)
            a = random_evaluated_transducer(rng, k, mid)
            b = random_evaluated_transducer(rng, mid, out)
            g = compose(a, b)
            for _ in range(8):
                bits = random_bits(rng, k)
                assert apply(g, bits) == apply(b, apply(a, bits))


class TestApply:
    def test_golden(self):
        c = Circuit()
        x = c.add_var()
        y = c.add_var()
        a = c.add_and(x, y)
        o = c.add_or(x, y)
        t = Transducer(c, (x, y), (a, o, x))
        assert apply(t, (True, False)) == (False, True, True)

    def test_wrong_arity(self):
        with pytest.raises(CircuitError, match="arity"):
            apply(identity(2), (True,))

    def test_unassigned_var(self):
        c = Circuit()
        v = c.add_var()
        t = Transducer(c, (), (v,))  # invalid on purpose
        with pytest.raises(CircuitError, match="missing"):
            apply(t, ())

    def test_cycle_guard(self):
        c = Circuit([G_ID, G_ID], [1, 0], [-1, -1])
        with pytest.raises(CircuitError, match="cycle"):
            apply(Transducer(c, (), (0,)), ())

    def test_matches_constant_composition(self):
        rng = random.Random(14)
        for _ in range(40):
            k = rng.randrange(0, 6)
            t = random_evaluated_transducer(rng, k, rng.randrange(1, 4))
            bits = random_bits(rng, k)
            direct = apply(t, bits)
            folded = evaluate(compose(constant_circuit(bits), t).circuit)
            off = len(bits)
            got = tuple(folded.kind[o + off] == G_TRUE for o in t.outputs)
            decided = all(folded.is_const(o + off) for o in t.outputs)
            assert decided
            assert got == direct


class TestDot:
    def test_shape(self):
        c = Circuit()
        x = c.add_var()
        y = c.add_var()
        a = c.add_and(x, y)
        dot = to_dot(Transducer(c, (x, y), (a,)), graph_name="g")
        assert dot.startswith("digraph g {")
        assert dot.rstrip().endswith("}")
        assert '  g0 [label="VAR"];' in dot
        assert '  g2 [label="AND"];' in dot
        assert "  g2 -> g0;" in dot
        assert "  g2 -> g1;" in dot
        assert "// inputs: g0 g1" in dot
        assert "// outputs: g2" in dot
        assert "{ rank=same; g0; g1; }" in dot

    def test_constants_show_value(self):
        c = Circuit()
        c.add_const(True)
        c.add_const(False)
        dot = to_dot(Transducer(c, (), (0, 1)))
        assert '  g0 [label="1"];' in dot
        assert '  g1 [label="0"];' in dot

    def test_every_gate_and_edge_present(self):
        rng = random.Random(15)
        t = random_evaluated_transducer(rng, 3, 2)
        dot = to_dot(t)
        c = t.circuit
        for g in range(len(c)):
            assert f"  g{g} [label=" in dot
            for d in c.dependencies(g):
                assert f"  g{g} -> g{d};" in dot
