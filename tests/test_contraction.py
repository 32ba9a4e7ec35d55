import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings

from pathcheck import builder, contraction, formula, rows
from pathcheck.circuit import G_VAR
from pathcheck.contraction import (
    ROOT,
    CheckResult,
    ContractionRecord,
    check,
    init_tree,
    run_contraction,
)
from pathcheck.errors import (
    ContractionError,
    TraceError,
    UnknownProposition,
)
from pathcheck.campaign import CampaignConfig, case_seed, random_formula
from pathcheck.campaign import random_trace as campaign_trace
from pathcheck.formula import Binary, parse, prune_bounds, to_pnf
from pathcheck.semantics import eval_seq
from pathcheck.trace import Trace, make_trace

from gates import apply, constants_are_sinks, is_identity
from helpers import (
    contract_step, is_literal, random_builder_label, shuffle_plans, tree_formulas, truth_table,
    verify_tree, wide_cases,
)
from test_builder import random_trace
from test_formula import formulas
from test_referee import stages
from test_semantics import bits_trace, traces

NESTED_UNTIL = "((a U b) U (c U d)) U e"


def small_trace(n=4):
    rng = random.Random(0)
    return random_trace(rng, n, names=("a", "b", "c", "d", "e"))


def leaves_left_to_right(t):
    """The live leaves in the order of their numbers."""
    return sorted(t.leaf_numbers, key=t.leaf_numbers.__getitem__)


def preorder_ids(f):
    """(id, subformula) of every node a contraction tree has, by a plain
    preorder count of the formula's occurrences, unary ones included and
    literals not descended into."""
    out = []
    todo = [f]
    count = 0
    while todo:
        g = todo.pop()
        if is_literal(g) or isinstance(g, Binary):
            out.append((count, g))
        count += 1
        if isinstance(g, Binary):
            todo += [g.right, g.left]
        elif not is_literal(g):
            todo.append(g.child)
    return out


def is_identity_label(label, n):
    c = label.circuit
    return (
        len(c) == n
        and all(c.kind[g] == G_VAR for g in range(n))
        and label.inputs == label.outputs
    )


class TestInitTree:
    def test_structure(self):
        tr = small_trace()
        t = init_tree(parse("(a U b) & c"), tr)
        # preorder indices: 0 And, 1 Until, 2 a, 3 b, 4 c
        assert t.children[ROOT] == [0]
        assert t.children[0] == [1, 4]
        assert t.children[1] == [2, 3]
        assert 2 not in t.children and 3 not in t.children and 4 not in t.children
        assert 0 in t.children and 1 in t.children
        assert leaves_left_to_right(t) == [2, 3, 4]
        assert t.leaf_numbers == {2: 0, 3: 1, 4: 2}
        assert t.parent[1] == 0 and t.children[0].index(1) == 0
        assert t.parent[4] == 0 and t.children[0].index(4) == 1
        assert t.top() == 0

    def test_all_identity_labels_without_unary(self):
        tr = small_trace()
        t = init_tree(parse(NESTED_UNTIL), tr)
        node_formula, edge_formula = tree_formulas(t, parse(NESTED_UNTIL))
        assert len(t.literal_bits) == 5
        inner = [v for v in node_formula if v in t.children]
        assert len(inner) == 4
        for v in node_formula:
            assert is_identity_label(t.labels[v], len(tr))
            assert edge_formula[v] == node_formula[v]

    def test_unary_chain_is_one_edge(self):
        tr = bits_trace(a="0110")
        t = init_tree(parse("X X a"), tr)
        # only the atom remains as a node, directly under ROOT
        assert set(t.parent) == {2}
        assert t.children[ROOT] == [2]
        assert tree_formulas(t, parse("X X a"))[1][2] == parse("X X a")
        label = t.labels[2]
        assert label.n == 4
        got = apply(label, t.literal_bits[2])
        assert got == eval_seq(tr, parse("X X a"))

    def test_unary_chain_label_stays_linear(self):
        # composing X onto the label one shift at a time must not keep the
        # dead gates of every earlier shift: the label stays at 2n gates
        d, n = 64, 256
        rng = random.Random(64)
        tr = random_trace(rng, n, names=("a",))
        f = parse("X " * d + "a")
        t = init_tree(f, tr)
        assert len(t.labels[t.top()].circuit) <= 2 * n
        assert check(f, tr) == check(f, tr, engine="naive")

    def test_unary_above_binary(self):
        tr = bits_trace(a="0110", b="1011")
        t = init_tree(parse("wY (a U (X b))"), tr)
        node_formula, edge_formula = tree_formulas(t, parse("wY (a U (X b))"))
        # nodes: the Until occurrence and the two literals
        until = [v for v in node_formula if v in t.children]
        assert len(until) == 1
        u = until[0]
        assert t.children[ROOT] == [u]
        assert edge_formula[u] == parse("wY (a U (X b))")
        left, right = t.children[u]
        assert edge_formula[left] == parse("a")
        assert edge_formula[right] == parse("X b")
        assert apply(t.labels[right], t.literal_bits[right]) == eval_seq(
            tr, parse("X b")
        )

    def test_literal_leaves(self):
        tr = bits_trace(a="01")
        t = init_tree(parse("(! a) U a"), tr)
        leaves = leaves_left_to_right(t)
        assert t.literal_bits[leaves[0]].tolist() == [True, False]
        assert t.literal_bits[leaves[1]].tolist() == [False, True]

    def test_non_pnf_reads_as_its_pnf(self):
        # a negation folds into the duals below it: every stage's structure,
        # leaf numbers and label bytes are those of the pruned PNF, bounds
        # above n included
        rng = random.Random(19)
        for text in ("! (a U b)", "! ! a", "! X ! (a S[2] b)", "! (a R[9] (b T[40] ! c))"):
            f = parse(text)
            for n in (1, 2, 3, 5, 12):
                tr = random_trace(rng, n, names=("a", "b", "c"))
                assert stages(f, tr) == stages(prune_bounds(to_pnf(f), n), tr), (text, n)
        f = parse("! X ! (a S[2] b)")
        tr = random_trace(rng, 5, names=("a", "b"))
        t = init_tree(f, tr)
        verify_tree(t, f, tr)
        node_formula, edge_formula = tree_formulas(t, f)
        assert node_formula[1] == parse("a S[2] b")
        assert edge_formula[1] == parse("! X ! (a S[2] b)")

    @settings(max_examples=80, deadline=None)
    @given(formulas(), traces())
    def test_invariants_hold_after_init(self, f, tr):
        g = prune_bounds(to_pnf(f), len(tr))
        t = init_tree(g, tr)
        verify_tree(t, g, tr)
        for v, ch in t.children.items():
            if v != ROOT:
                assert len(ch) == 2

    def test_non_pnf_below_a_chain_reads_as_its_pnf(self):
        tr = bits_trace(a="01", b="10", c="11")
        f = parse("X wY (a U (c & ! (a | b)))")
        assert stages(f, tr) == stages(prune_bounds(to_pnf(f), len(tr)), tr)
        t = init_tree(f, tr)
        verify_tree(t, f, tr)
        # preorder over the PNF: 0 X, 1 wY, 2 U, 3 a, 4 &, 5 c, 6 the dual of
        # |, 7 and 8 the negated literals
        assert sorted(t.parent) == [2, 3, 4, 5, 6, 7, 8]
        node_formula = tree_formulas(t, f)[0]
        assert node_formula[6] == parse("! (a | b)")
        assert node_formula[7] == parse("! a")
        assert t.literal_bits[8].tolist() == [False, True]

    def test_campaign_formulas_read_as_their_pnf(self):
        cfg = CampaignConfig()
        for index in range(500):
            rng = random.Random(case_seed(19, index))
            f = random_formula(rng, cfg.max_size, cfg.max_bound)
            tr = campaign_trace(rng, cfg.max_len)
            assert stages(f, tr) == stages(prune_bounds(to_pnf(f), len(tr)), tr), index

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_leaves=12), traces())
    def test_any_formula_reads_as_its_pnf(self, f, tr):
        assert stages(f, tr) == stages(prune_bounds(to_pnf(f), len(tr)), tr)
        verify_tree(init_tree(f, tr), f, tr)

    @settings(max_examples=100, deadline=None)
    @given(formulas(), traces())
    def test_ids_are_preorder_indices(self, f, tr):
        g = prune_bounds(to_pnf(f), len(tr))
        t = init_tree(g, tr)
        ids = preorder_ids(g)
        assert sorted(tree_formulas(t, g)[0].items()) == ids
        assert leaves_left_to_right(t) == [v for v, h in ids if is_literal(h)]

    def test_repeated_literal_is_two_leaves(self):
        tr = bits_trace(a="01")
        t = init_tree(to_pnf(parse("a & a")), tr)
        assert t.children[0] == [1, 2]
        assert t.leaf_numbers == {1: 0, 2: 1}
        node_formula = tree_formulas(t, to_pnf(parse("a & a")))[0]
        assert node_formula[1] == node_formula[2] == parse("a")
        assert t.literal_bits[1] is t.literal_bits[2]


class TestContractStep:
    def test_right_leaf_golden(self):
        # contracting the known right operand of a bounded Until must leave
        # an edge functionally equal to the collapsed one-row circuit
        tr = bits_trace(a="11111111", b="01000001")
        t = init_tree(parse("a U[3] b"), tr)
        leaf_a, leaf_b = leaves_left_to_right(t)
        t2 = contract_step(t, leaf_b)
        assert leaves_left_to_right(t2) == [leaf_a]
        assert t2.parent[leaf_a] == ROOT
        label = t2.labels[leaf_a]
        from pathcheck.builder import build_bounded

        raw = build_bounded(8, "U", 3, "right", (0, 1, 0, 0, 0, 0, 0, 1))
        assert truth_table(label) == truth_table(raw)
        assert constants_are_sinks(label.circuit)
        # and the contracted edge still computes the right sequence
        assert apply(label, t2.literal_bits[leaf_a]) == eval_seq(
            tr, parse("a U[3] b")
        )

    def test_purity(self):
        tr = bits_trace(a="1010", b="0110")
        t = init_tree(parse("a U b"), tr)
        before = (dict(t.ops), dict(t.leaf_numbers), dict(t.parent))
        leaf = leaves_left_to_right(t)[0]
        t2 = contract_step(t, leaf)
        assert (dict(t.ops), dict(t.leaf_numbers), dict(t.parent)) == before
        assert set(t2.parent) < set(t.parent)

    def test_edge_formula_inherited(self):
        tr = bits_trace(a="1010", b="0110")
        t = init_tree(parse("X (a & b)"), tr)
        leaf_a, leaf_b = leaves_left_to_right(t)
        t2 = contract_step(t, leaf_a)
        assert tree_formulas(t2, parse("X (a & b)"))[1][leaf_b] == parse("X (a & b)")
        assert apply(t2.labels[leaf_b], t2.literal_bits[leaf_b]) == eval_seq(
            tr, parse("X (a & b)")
        )

    @settings(max_examples=60, deadline=None)
    @given(formulas(max_leaves=6), traces(max_len=6))
    def test_invariants_hold_after_every_step(self, f, tr):
        g = prune_bounds(to_pnf(f), len(tr))
        t = init_tree(g, tr)
        verify_tree(t, g, tr)
        rng = random.Random(1234)
        while len(t.leaf_numbers) > 1:
            leaf = rng.choice(sorted(t.leaf_numbers))
            t = contract_step(t, leaf)
            verify_tree(t, g, tr)
        last = t.top()
        assert apply(t.labels[last], t.literal_bits[last]) == eval_seq(tr, g)


class TestRunContraction:
    def test_five_leaf_schedule(self):
        tr = small_trace(3)
        t = init_tree(parse("(a U (b U c)) U (d U e)"), tr)
        record = ContractionRecord()
        seq = run_contraction(t, record=record)
        assert tuple(seq.tolist()) == eval_seq(tr, parse("(a U (b U c)) U (d U e)"))
        assert record.initial_leaves == 5
        assert record.stages == 3
        assert record.leaf_counts == [5, 3, 2, 1]
        assert record.selections == [
            (1, 0, (1, 3)),
            (2, 1, (1,)),
            (3, 1, (1,)),
        ]

    def test_left_nested_counts(self):
        tr = small_trace(3)
        record = ContractionRecord()
        run_contraction(init_tree(parse(NESTED_UNTIL), tr), record=record)
        assert record.stages == 3
        assert record.leaf_counts == [5, 3, 2, 1]

    def test_single_leaf(self):
        tr = bits_trace(a="011")
        t = init_tree(parse("X a"), tr)
        record = ContractionRecord()
        seq = run_contraction(t, record=record)
        assert seq.tolist() == [True, True, False]
        assert record.stages == 0
        assert record.leaf_counts == [1]

    def test_matches_oracle_randomly(self):
        rng = random.Random(99)
        from pathcheck.campaign import random_formula

        for _ in range(150):
            f = random_formula(rng, rng.randrange(1, 16), max_bound=6)
            tr = random_trace(rng, rng.randrange(1, 12), names=("a", "b", "c", "d"))
            g = prune_bounds(to_pnf(f), len(tr))
            got = run_contraction(init_tree(g, tr))
            assert tuple(got.tolist()) == eval_seq(tr, f)

    def test_plan_order_does_not_change_anything(self, monkeypatch):
        # the plans of one pass are disjoint, so any application order
        # gives the same sequences and the same schedule
        from pathcheck.campaign import random_formula

        rng = random.Random(5)
        cases = []
        for _ in range(10):
            f = random_formula(rng, 14, max_bound=5)
            tr = random_trace(rng, 9, names=("a", "b", "c", "d"))
            cases.append((prune_bounds(to_pnf(f), len(tr)), tr))

        def run_all():
            results = []
            for g, tr in cases:
                record = ContractionRecord()
                seq = run_contraction(init_tree(g, tr), record=record)
                results.append((seq.tolist(), record.leaf_counts, record.selections))
            return results

        plain = run_all()
        for seed in range(3):
            sizes = shuffle_plans(monkeypatch, seed)
            assert run_all() == plain
            assert max(sizes) > 1

    def test_stage_budget(self):
        rng = random.Random(6)
        from pathcheck.campaign import random_formula

        import math

        for _ in range(60):
            f = random_formula(rng, rng.randrange(1, 20), max_bound=4)
            tr = random_trace(rng, rng.randrange(1, 6), names=("a", "b", "c", "d"))
            g = prune_bounds(to_pnf(f), len(tr))
            t = init_tree(g, tr)
            leaves = len(t.leaf_numbers)
            record = ContractionRecord()
            run_contraction(t, record=record)
            if leaves > 1:
                assert record.stages <= math.ceil(math.log2(leaves))
            else:
                assert record.stages == 0

    def test_on_stage_hook(self):
        tr = small_trace(3)
        t = init_tree(parse(NESTED_UNTIL), tr)
        seen = []
        run_contraction(t, on_stage=lambda tree, s: seen.append(s))
        assert seen == [0, 1, 2, 3]

    def test_input_tree_unchanged(self):
        tr = bits_trace(a="01", b="10")
        t = init_tree(parse("a U b"), tr)
        nodes = set(t.parent)
        run_contraction(t)
        assert set(t.parent) == nodes


def stage_digest(cases) -> str:
    """One sha256 over every stage of every case's run: the parent pointers,
    the leaf numbers and every edge's rows (kind, a and b with their dtypes,
    then d, raw, top and consts), then the final sequence."""
    h = hashlib.sha256()

    def record(t, stage):
        h.update(repr((stage, sorted(t.parent.items()), sorted(t.leaf_numbers.items()))).encode())
        for v in sorted(t.labels):
            label = t.labels[v]
            h.update(repr((v, len(label.rows))).encode())
            for row in label.rows:
                for x in (row.kind, row.a, row.b):
                    h.update(x.dtype.str.encode() + x.tobytes())
                h.update(repr((row.d, row.raw, row.top, row.consts)).encode())

    for f, tr in cases:
        h.update(run_contraction(init_tree(f, tr), on_stage=record).tobytes())
    return h.hexdigest()


def test_stage_dump_is_pinned():
    # every label of every stage, byte for byte, over 1,000 campaign cases
    # (seed 1) and four wide formulas at n = 128: a change to the kernels or
    # builders that is meant to be faster, not different, keeps this digest
    cfg = CampaignConfig()
    cases = []
    for index in range(1000):
        rng = random.Random(case_seed(1, index))
        f = random_formula(rng, cfg.max_size, cfg.max_bound)
        cases.append((f, campaign_trace(rng, cfg.max_len)))
    assert stage_digest(cases + wide_cases()) == "7642f55262b5e492cd64b56ff37ccef3cd2014cde5307a3071c1d18136609cc4"


class TestVerifyTreeLeafOrder:
    def test_rejects_swapped_numbers(self):
        f, tr = parse("(a U b) & c"), small_trace()
        t = init_tree(f, tr)
        t.leaf_numbers[2], t.leaf_numbers[4] = t.leaf_numbers[4], t.leaf_numbers[2]
        with pytest.raises(ContractionError, match="left to right"):
            verify_tree(t, f, tr)

    def test_rejects_numbered_inner_node(self):
        f, tr = parse("(a U b) & c"), small_trace()
        t = init_tree(f, tr)
        t.leaf_numbers[1] = 5
        with pytest.raises(ContractionError, match="numbered nodes"):
            verify_tree(t, f, tr)

    @settings(max_examples=60, deadline=None)
    @given(formulas(max_leaves=8), traces(max_len=6))
    def test_holds_at_every_stage(self, f, tr):
        g = prune_bounds(to_pnf(f), len(tr))
        stages = []

        def verify(t, stage):
            verify_tree(t, g, tr)
            stages.append(stage)

        seq = run_contraction(init_tree(g, tr), on_stage=verify)
        assert stages == list(range(len(stages)))
        assert tuple(seq.tolist()) == eval_seq(tr, g)


class TestVerifyTreeLabels:
    """verify_tree checks evaluatedness on the rows, not on a gate view."""

    def test_rejects_unfolded_stack(self):
        rng = random.Random(77)
        rejected = 0
        for _ in range(200):
            n = rng.randrange(1, 9)
            tr = random_trace(rng, n)
            g = prune_bounds(to_pnf(parse("X (a U b) & Y (b S[2] a)")), n)
            t = init_tree(g, tr)
            first, second = random_builder_label(rng, n), random_builder_label(rng, n)
            stacked = rows.Label(n, first.rows + second.rows)
            if constants_are_sinks(stacked.circuit):
                continue  # evaluated as stacked; the gate referee says so
            v = rng.choice(sorted(t.labels))
            t.labels[v] = stacked
            with pytest.raises(ContractionError, match=f"edge to {v} is not evaluated"):
                verify_tree(t, g, tr)
            rejected += 1
        assert rejected > 50

    def test_no_gate_view_built(self, monkeypatch):
        def refuse(label):
            raise AssertionError("verify_tree built a gate view")

        monkeypatch.setattr(rows, "_flatten", refuse)
        rng = random.Random(78)
        tr = random_trace(rng, 12, names=("a", "b", "c"))
        f = prune_bounds(to_pnf(parse("(a U[2] b) & (X (c S a) | (b R[3] X c))")), 12)
        stages = []

        def verify(t, stage):
            verify_tree(t, f, tr)
            stages.append(stage)

        run_contraction(init_tree(f, tr), on_stage=verify)
        assert stages == [0, 1, 2, 3]


class TestVerifyTreeEdgeFormulas:
    """An edge stands for the topmost occurrence below its parent on the
    path to its node, not for the node's own formula."""

    F = "X (a & b) & (c & (d & e))"

    def trace(self):
        # a & b is 1100 and X (a & b) is 1000: the chain edge moves the bits
        return bits_trace(a="1100", b="1111", c="0101", d="1010", e="0011")

    def test_rejects_moved_label_at_stage_zero(self):
        # nodes: 0 &, 1 X, 2 a & b, 3 a, 4 b, 5 &, 6 c, 7 &, 8 d, 9 e
        f, tr = parse(self.F), self.trace()
        t = init_tree(f, tr)
        verify_tree(t, f, tr)
        assert tree_formulas(t, f)[1][2] == parse("X (a & b)")
        t.labels[2] = t.labels[6]  # the identity, from the edge to c
        with pytest.raises(ContractionError, match="edge to 2 does not compute"):
            verify_tree(t, f, tr)

    def test_rejects_moved_label_after_stage_one(self):
        f, tr = parse(self.F), self.trace()
        after = {}

        def keep(t, stage):
            verify_tree(t, f, tr)
            after[stage] = t.copy()

        run_contraction(init_tree(f, tr), on_stage=keep)
        # stage 1 contracted b into a's edge and d into e's, leaving c's
        # edge the identity and a's edge standing for X (a & b)
        t = after[1]
        assert t.children == {ROOT: [0], 0: [3, 5], 5: [6, 9]}
        assert tree_formulas(t, f)[1][3] == parse("X (a & b)")
        t.labels[3] = t.labels[6]
        with pytest.raises(ContractionError, match="edge to 3 does not compute"):
            verify_tree(t, f, tr)


class TestTreeHoldsNoFormulas:
    def test_slots(self):
        assert set(contraction.ContractionTree.__slots__) == {
            "n", "parent", "children", "labels", "ops", "leaf_numbers", "literal_bits",
        }

    def test_init_tree_builds_no_not(self, monkeypatch):
        f = parse("! (a U[2] ! X ! (b & ! c)) | ! Y wX ! (d R ! wY X e) & ! X ! Y ! f")
        tr = make_trace([set("abcdef"), set("ace"), set(), set("bdf")], list("abcdef"))
        made = []
        real = formula.Not.__init__

        def counting(self, *args):
            made.append(args)
            real(self, *args)

        monkeypatch.setattr(formula.Not, "__init__", counting)
        t = init_tree(f, tr)
        assert made == []
        assert run_contraction(t).tolist() == check(f, tr, engine="naive").sequence.tolist()

    def test_ops_are_dual_tokens_and_pruned_bounds(self):
        f = parse("! ((a U[2] b) & (c S[9] ! (d T[3] e)))")
        t = init_tree(f, make_trace([set("abcde")] * 8, list("abcde")))
        # PNF: (!a R[2] !b) | (!c T[9] (d T[3] e)), in preorder 0 |, 1 R, 2 !a,
        # 3 !b, 4 T, 5 !c, 6 T, 7 d, 8 e; the bound 9 reaches n - 1 = 7
        assert t.ops == {0: ("|", None), 1: ("R", 2), 4: ("T", None), 6: ("T", 3)}


class TestRawRowUnderShift:
    """The right operand is leaf 1, contracted first, so the bounded operator
    is the raw collapsed row; the shift above it makes the parent's label a
    real transducer, which the row must meet evaluated."""

    @pytest.mark.parametrize("text", ["X (a U[3] b)", "Y (a S[2] b)",
                                      "wX (a R[1] b)", "wY (a T[4] b)"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_naive_and_keeps_invariants(self, text, n):
        rng = random.Random(f"{text} {n}")
        tr = random_trace(rng, n)
        f = prune_bounds(to_pnf(parse(text)), n)
        tree = init_tree(f, tr)
        leaf_b = leaves_left_to_right(tree)[1]
        assert tree.children[tree.parent[leaf_b]].index(leaf_b) == 1
        assert not is_identity(tree.labels[tree.parent[leaf_b]])
        stages = []

        def verify(t, stage):
            verify_tree(t, f, tr)
            stages.append(stage)

        got = run_contraction(tree, on_stage=verify)
        assert stages == [0, 1]
        assert got.tolist() == check(parse(text), tr, engine="naive").sequence.tolist()


# the few-literal formula families of the long-trace benchmark workload,
# with their proposition densities
FOLD_BUDGET_FAMILIES = [
    ("G ((!(req) | F[16] (ack)))", {"req": 0.05, "ack": 0.1}),
    ("(a U (b U c))", {"a": 0.9, "b": 0.9, "c": 0.05}),
    ("(H ((c | Y (d))) & (a S[3] e))", {"a": 0.8, "c": 0.7, "d": 0.5, "e": 0.1}),
    ("(z & (p U[3] (q R r)))", {"z": 0.9, "p": 0.7, "q": 0.1, "r": 0.9}),
]


@pytest.mark.parametrize("text,densities", FOLD_BUDGET_FAMILIES)
def test_evaluate_gate_budget(monkeypatch, text, densities):
    # gates evaluated over one check, that is, row cells rewritten by
    # folding: constants are folded only where two stacks meet and only as
    # far up as they reach, so this stays a small multiple of n
    n = 2048
    rng = random.Random(text)
    names = sorted(densities)
    states = [{p for p in names if rng.random() < densities[p]} for _ in range(n)]
    tr = make_trace(states, names)
    real = rows.fold
    folded = []

    def counting(row, below=None):
        out = real(row, below)
        if out is not row:
            folded.append(len(row.kind))
        return out

    monkeypatch.setattr(rows, "fold", counting)
    monkeypatch.setattr(builder, "fold", counting)
    result = check(parse(text), tr)
    assert sum(folded) <= 6 * n
    assert result.sequence.tolist() == check(parse(text), tr, engine="naive").sequence.tolist()


class TestCheck:
    def test_true_is_satisfied(self):
        tr = bits_trace(a="000")
        res = check(parse("true"), tr)
        assert res == CheckResult(True, (True, True, True))

    @pytest.mark.parametrize("engine", ["circuit", "naive"])
    @pytest.mark.parametrize("text", ["a", "a U b", "X (a S[2] b)"])
    def test_result_types(self, engine, text):
        tr = bits_trace(a="0110", b="1011")
        res = check(parse(text), tr, engine=engine)
        assert type(res.satisfied) is bool
        assert isinstance(res.sequence, np.ndarray)
        assert res.sequence.dtype == bool and res.sequence.shape == (4,)
        assert not res.sequence.flags.writeable
        assert res.satisfied == res.sequence[0]
        assert res.sequence.tolist() == list(eval_seq(tr, parse(text)))

    def test_results_compare_by_sequence(self):
        tr = bits_trace(a="0110", b="1011")
        assert check(parse("a"), tr) == check(parse("!!a"), tr, engine="naive")
        assert check(parse("a"), tr) != check(parse("b"), tr)
        assert check(parse("a"), tr) != check(parse("a"), bits_trace(a="011"))

    def test_immediate_witness(self):
        # e holds at position 0, so the outermost Until fires immediately
        states = [{"e"}, set(), set(), set(), set()]
        tr = make_trace(states, ["a", "b", "c", "d", "e"])
        assert check(parse(NESTED_UNTIL), tr).satisfied

    def test_engines_agree(self):
        rng = random.Random(17)
        from pathcheck.campaign import random_formula

        for _ in range(60):
            f = random_formula(rng, rng.randrange(1, 14), max_bound=5)
            tr = random_trace(rng, rng.randrange(1, 10), names=("a", "b", "c", "d"))
            assert check(f, tr, engine="circuit") == check(f, tr, engine="naive")

    def test_atom_sequence_once_per_literal(self, monkeypatch):
        tr = bits_trace(a="0110", b="1011")
        real = contraction.atom_sequence
        calls = []

        def counting(trace, name, negated=False):
            calls.append((name, negated))
            return real(trace, name, negated)

        monkeypatch.setattr(contraction, "atom_sequence", counting)
        f = parse("((a U !b) & ((X a) | (b S !b))) & (a R a)")
        assert check(f, tr) == check(f, tr, engine="naive")
        assert sorted(calls) == [("a", False), ("b", False), ("b", True)]

    def test_unknown_engine(self):
        tr = bits_trace(a="1")
        with pytest.raises(ContractionError, match="engine"):
            check(parse("a"), tr, engine="quantum")

    def test_unknown_atom_both_engines(self):
        tr = bits_trace(a="1")
        for engine in ("circuit", "naive"):
            with pytest.raises(UnknownProposition, match="'z'"):
                check(parse("z"), tr, engine=engine)
            # the sorted-first unknown name, not the first one the walk reaches
            with pytest.raises(UnknownProposition, match="'y'"):
                check(parse("z U (y & a)"), tr, engine=engine)

    def test_unknown_atom_before_any_column(self, monkeypatch):
        tr = bits_trace(a="1")
        calls = []
        monkeypatch.setattr(contraction, "atom_sequence", lambda *args: calls.append(args))
        with pytest.raises(UnknownProposition, match="'y'"):
            check(parse("a & ! z U (y & a)"), tr)
        assert calls == []

    def test_circuit_check_calls_no_fold(self, monkeypatch):
        tr = bits_trace(a="0110", b="1011")
        f = parse("! (a U[2] X ! b) & Y ! (a S[9] ! b)")
        calls = []
        real = formula.fold

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(formula, "fold", counting)
        got = check(f, tr)
        assert calls == []
        assert got == check(f, tr, engine="naive")
        formula.format_formula(f)
        assert calls  # a walk through `fold` shows in the counter

    def test_empty_trace(self):
        empty = Trace(np.zeros((1, 0), dtype=bool), ("a",))
        with pytest.raises(TraceError, match="empty"):
            check(parse("a"), empty)

    def test_record_populated(self):
        tr = bits_trace(a="0101", b="1100")
        record = ContractionRecord()
        check(parse("a U b"), tr, record=record)
        assert record.initial_leaves == 2
        assert record.stages == 1
        assert record.final_gates > 0
