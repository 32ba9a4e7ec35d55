"""End-to-end acceptance suite.

One test per release criterion, each printing a single [C#] PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to watch them). The campaign
criteria share one 10,000-case run, and C8 adds a second, so this module
takes on the order of a minute.
"""

import math
import random

from pathcheck.builder import build_bounded
from pathcheck.campaign import CampaignConfig, random_formula, random_trace, run_campaign
from pathcheck.circuit import (
    G_AND,
    G_FALSE,
    G_ID,
    G_OR,
    G_TRUE,
    Transducer,
    evaluate,
    to_dot,
)
from pathcheck.contraction import ContractionRecord, check, init_tree, run_contraction
from pathcheck.formula import (
    And,
    Atom,
    Next,
    Not,
    Or,
    Release,
    Since,
    Trigger,
    UNARY_TEMPORAL,
    Until,
    WeakNext,
    WeakYesterday,
    Yesterday,
    parse,
    prune_bounds,
    to_pnf,
)
from pathcheck.rows import compose_evaluated
from pathcheck.semantics import eval_seq
from pathcheck.trace import make_trace

from gates import apply, compose, constants_are_sinks
from helpers import (
    contract_step, random_builder_label, random_label, shuffle_plans, truth_table, verify_tree,
)

FULL_CFG = CampaignConfig(cases=10_000, max_size=20, max_len=50, max_bound=10, seed=0)

_campaigns = {}


def full_campaign():
    if not _campaigns:
        _campaigns["plain"] = run_campaign(FULL_CFG, processes=4)
    return _campaigns["plain"]


def test_c1_differential_soundness():
    result = full_campaign()
    try:
        assert result.failure_count == 0, (
            f"{result.failure_count} of {result.total} cases disagree; "
            f"first: {result.failures[:1]}"
        )
        assert result.total == 10_000
        assert result.elapsed < 60, f"campaign took {result.elapsed:.1f}s"
    except AssertionError:
        print(f"[C1] FAIL differential campaign ({result.failure_count} "
              f"disagreements, {result.elapsed:.1f}s)")
        raise
    print(f"[C1] PASS 10000/10000 random cases match the oracle "
          f"in {result.elapsed:.1f}s (< 60s)")


def test_c2_collapsed_row_golden():
    try:
        t = build_bounded(8, "U", 3, "right", (0, 1, 0, 0, 0, 0, 0, 1))
        c = t.circuit
        kinds = [c.kind[o] for o in t.outputs]
        assert kinds == [G_AND, G_TRUE, G_FALSE, G_FALSE, G_AND, G_AND, G_AND, G_TRUE], kinds
        assert c.gate(8) == ("and", 0, 9)
        assert c.gate(12) == ("and", 4, 13)
        assert c.gate(13) == ("and", 5, 14)
        assert c.gate(14) == ("and", 6, 15)
        dot = to_dot(t)
        for edge in (
            "g8 -> g0", "g8 -> g9",
            "g12 -> g4", "g12 -> g13",
            "g13 -> g5", "g13 -> g14",
            "g14 -> g6", "g14 -> g15",
        ):
            assert f"  {edge};" in dot, edge
    except AssertionError:
        print("[C2] FAIL collapsed bounded-Until row golden")
        raise
    print("[C2] PASS collapsed U[3] row has gate kinds (and,1,0,0,and,and,and,1) "
          "and the expected chain edges")


def test_c3_grid_golden():
    s = (0, 1, 0, 1, 1, 1, 0, 1)
    try:
        t = build_bounded(8, "U", 3, "left", s)
        c = t.circuit
        assert len(c) == 32, len(c)
        assert t.inputs == tuple(range(8))
        assert t.outputs == tuple(range(24, 32))
        for row in range(1, 4):  # gate rows above the variable row
            for i in range(8):
                g = row * 8 + i
                want = G_OR if (s[i] and i < 7) else G_ID
                assert c.kind[g] == want, f"gate {g} (row {row}, col {i})"
    except AssertionError:
        print("[C3] FAIL bounded-Until grid golden")
        raise
    print("[C3] PASS 8x4 U[3] grid puts Or exactly at live interior columns, "
          "Id elsewhere")


def _random_operands(rng):
    l = random_formula(rng, rng.randrange(1, 5), max_bound=3)
    r = random_formula(rng, rng.randrange(1, 5), max_bound=3)
    tr = random_trace(rng, 12)
    return l, r, tr


def test_c4_expansion_laws():
    rng = random.Random(0)
    unbounded = [
        ("U", Until, lambda l, r, f: Or(r, And(l, Next(f)))),
        ("R", Release, lambda l, r, f: And(r, Or(l, WeakNext(f)))),
        ("S", Since, lambda l, r, f: Or(r, And(l, Yesterday(f)))),
        ("T", Trigger, lambda l, r, f: And(r, Or(l, WeakYesterday(f)))),
    ]
    bounded = [
        ("U[b]", Until, lambda l, r, g: Or(r, And(l, Next(g)))),
        ("R[b]", Release, lambda l, r, g: And(r, Or(l, WeakNext(g)))),
        ("S[b]", Since, lambda l, r, g: Or(r, And(l, Yesterday(g)))),
        ("T[b]", Trigger, lambda l, r, g: And(r, Or(l, WeakYesterday(g)))),
    ]
    try:
        for name, cls, expand in unbounded:
            for _ in range(1000):
                l, r, tr = _random_operands(rng)
                f = cls(l, r)
                assert eval_seq(tr, f) == eval_seq(tr, expand(l, r, f)), name
        for name, cls, expand in bounded:
            for _ in range(1000):
                l, r, tr = _random_operands(rng)
                b = rng.randint(0, 6)
                f = cls(l, r, b)
                if b == 0:
                    want = eval_seq(tr, r)
                else:
                    want = eval_seq(tr, expand(l, r, cls(l, r, b - 1)))
                assert eval_seq(tr, f) == want, f"{name} b={b}"
    except AssertionError:
        print("[C4] FAIL expansion laws")
        raise
    print("[C4] PASS all 8 expansion laws hold pointwise on 1000 random "
          "instances each (b=0 base cases included)")


def test_c5_evaluated_composition():
    rng = random.Random(1)
    try:
        for _ in range(1000):
            n = rng.randrange(1, 9)
            a = random_label(rng, n)
            # the second side is a stack of builder rows or one builder
            # result as built (a raw collapsed row, an all-constant row)
            b = random_label(rng, n) if rng.random() < 0.5 else random_builder_label(rng, n)
            fused = compose_evaluated(a, b)
            plain = compose(a, b)
            cooked = Transducer(evaluate(plain.circuit), plain.inputs, plain.outputs)
            assert truth_table(fused) == truth_table(cooked)
            assert constants_are_sinks(fused.circuit)
    except AssertionError:
        print("[C5] FAIL evaluated composition")
        raise
    print("[C5] PASS row compose_evaluated matches evaluate(compose(..)) of the "
          "gate views on 1000 random pairs of row labels, constants stay sinks")


def _ast_nodes(f):
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Not,) + UNARY_TEMPORAL):
        return 1 + _ast_nodes(f.child)
    return 1 + _ast_nodes(f.left) + _ast_nodes(f.right)


def test_c6_bound_pruning():
    rng = random.Random(2)
    try:
        for _ in range(500):
            f = random_formula(rng, rng.randrange(1, 21), max_bound=10)
            tr = random_trace(rng, 15)
            n = len(tr)
            g = to_pnf(f)
            pruned = prune_bounds(g, n)
            record = ContractionRecord()
            with_prune = run_contraction(init_tree(pruned, tr), record=record)
            without = run_contraction(init_tree(g, tr))
            assert with_prune.tolist() == without.tolist()
            limit = (n + 1) * n * _ast_nodes(pruned)
            assert record.final_gates <= limit, (
                f"{record.final_gates} gates > {limit}"
            )
    except AssertionError:
        print("[C6] FAIL bound pruning")
        raise
    print("[C6] PASS pruning preserves verdicts on 500 instances and keeps the "
          "final arena within (n+1)*n*nodes gates")


def _random_tree(rng, leaves):
    if leaves == 1:
        return Atom(rng.choice(("a", "b")))
    lo = max(1, leaves // 3)
    hi = leaves - max(1, leaves // 3)
    left = rng.randint(lo, hi)
    cls = And if rng.random() < 0.5 else Or
    return cls(_random_tree(rng, left), _random_tree(rng, leaves - left))


def test_c7_stage_schedule():
    rng = random.Random(3)
    tr = random_trace(rng, 2)
    try:
        for leaves in (1, 2, 3, 5, 6, 17, 64, 100, 513, 1024, 2500, 4096):
            f = _random_tree(rng, leaves)
            record = ContractionRecord()
            run_contraction(init_tree(f, tr), record=record)
            assert record.initial_leaves == leaves
            budget = math.ceil(math.log2(leaves)) if leaves > 1 else 0
            assert record.stages <= budget, (
                f"{record.stages} stages for {leaves} leaves (budget {budget})"
            )
        five_tr = make_trace(
            [{"a"}, {"c", "e"}, set(), {"b", "d"}], ["a", "b", "c", "d", "e"]
        )
        five = init_tree(parse("(a U (b U c)) U (d U e)"), five_tr)
        record = ContractionRecord()
        run_contraction(five, record=record)
        assert record.stages == 3
        assert record.leaf_counts == [5, 3, 2, 1]
    except AssertionError:
        print("[C7] FAIL stage schedule")
        raise
    print("[C7] PASS stage count stays within ceil(log2(leaves)) up to 4096 "
          "leaves; the 5-leaf tree contracts 5>3>2>1 in 3 stages")


def test_c8_parallel_determinism(monkeypatch):
    # the plans of one pass are independent: applying them in any order
    # (here a seeded shuffle in every pass) must not change a single byte
    plain = full_campaign()
    shuffle_plans(monkeypatch, seed=8)
    shuffled = run_campaign(FULL_CFG, processes=4)
    try:
        assert shuffled.failure_count == 0
        assert shuffled.payload == plain.payload
        assert shuffled.digest == plain.digest
    except AssertionError:
        print("[C8] FAIL parallel determinism")
        raise
    print(f"[C8] PASS 10000-case payloads are byte-identical when every pass "
          f"applies its plans in shuffled order (digest {plain.digest[:16]}...)")


def test_c9_tree_invariants():
    rng = random.Random(4)
    checked = 0
    steps = 0
    try:
        for _ in range(250):
            f = random_formula(rng, rng.randrange(1, 16), max_bound=6)
            tr = random_trace(rng, 12)
            g = prune_bounds(to_pnf(f), len(tr))
            t = init_tree(g, tr)
            verify_tree(t, g, tr)
            while len(t.leaf_numbers) > 1:
                leaf = rng.choice(sorted(t.leaf_numbers))
                t = contract_step(t, leaf)
                verify_tree(t, g, tr)
                steps += 1
            last = t.top()
            assert apply(t.labels[last], t.literal_bits[last]) == eval_seq(tr, g)
            checked += 1
    except Exception:
        print(f"[C9] FAIL tree invariants (after {checked} clean instances)")
        raise
    print(f"[C9] PASS edge invariants held after init and after every "
          f"contraction step ({checked} instances, {steps} steps)")
