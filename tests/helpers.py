"""Shared test utilities: bit-parallel truth tables, random circuits,
random row labels, wide formulas and single-leaf contraction steps."""

from __future__ import annotations

import random

from pathcheck import contraction
from pathcheck.builder import build_boolean, build_bounded, build_shift, build_unbounded
from pathcheck.circuit import (
    G_AND,
    G_FALSE,
    G_ID,
    G_OR,
    G_TRUE,
    G_VAR,
    Circuit,
    Transducer,
    evaluate,
)
from pathcheck.formula import (
    TRUE_NAME, FALSE_NAME, And, Atom, Formula, Next, Not, Or, Release, Since, Trigger, Until,
    WeakNext, WeakYesterday, Yesterday,
)
from pathcheck.rows import Label, compose_evaluated, identity
from pathcheck.trace import Trace, make_trace


def truth_table(t: Transducer) -> tuple[int, ...]:
    """One bitmask per output, over all 2^k input assignments.

    Bit `a` of an output's mask is that output's value on the assignment
    whose variable i takes bit i of `a`. Two transducers with equal input
    arity compute the same function iff their tables are equal.
    """
    k = len(t.inputs)
    if k > 16:
        raise ValueError("truth tables limited to 16 inputs")
    width = 1 << k
    full = (1 << width) - 1
    c = t.circuit
    kind, arg0, arg1 = c.kind, c.arg0, c.arg1
    masks: dict[int, int] = {}
    for i, gate in enumerate(t.inputs):
        # variable i is 1 exactly on assignments with bit i set
        block = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i zeros then 2^i ones
        m = 0
        step = 1 << (i + 1)
        for start in range(0, width, step):
            m |= block << start
        masks[gate] = m
    for root in t.outputs:
        if root in masks:
            continue
        stack = [root]
        while stack:
            g = stack[-1]
            if g in masks:
                stack.pop()
                continue
            knd = kind[g]
            if knd == G_FALSE:
                masks[g] = 0
                stack.pop()
            elif knd == G_TRUE:
                masks[g] = full
                stack.pop()
            elif knd == G_VAR:
                raise AssertionError(f"var gate {g} is not an input")
            elif knd == G_ID:
                d = arg0[g]
                if d in masks:
                    masks[g] = masks[d]
                    stack.pop()
                else:
                    stack.append(d)
            else:
                l, r = arg0[g], arg1[g]
                ml, mr = masks.get(l), masks.get(r)
                if ml is None:
                    stack.append(l)
                if mr is None:
                    stack.append(r)
                if ml is not None and mr is not None:
                    masks[g] = (ml & mr) if knd == G_AND else (ml | mr)
                    stack.pop()
    return tuple(masks[o] for o in t.outputs)


def random_evaluated_transducer(
    rng: random.Random,
    arity_in: int,
    arity_out: int,
    extra_gates: int = 12,
    const_bias: float = 0.2,
) -> Transducer:
    """A random DAG circuit, evaluated so constants are sinks.

    Outputs are drawn with replacement-free sampling when possible and may
    well be constants.
    """
    c = Circuit()
    inputs = tuple(c.add_var() for _ in range(arity_in))
    pool = list(inputs)
    if not pool:
        pool.append(c.add_const(rng.random() < 0.5))
    while len(pool) - arity_in < extra_gates or len(pool) < arity_out:
        r = rng.random()
        if r < const_bias:
            g = c.add_const(rng.random() < 0.5)
        elif r < const_bias + 0.15:
            g = c.add_id(rng.choice(pool))
        elif r < const_bias + 0.575:
            g = c.add_and(rng.choice(pool), rng.choice(pool))
        else:
            g = c.add_or(rng.choice(pool), rng.choice(pool))
        pool.append(g)
    outputs = tuple(rng.sample(pool, arity_out))
    return Transducer(evaluate(c), inputs, outputs)


def random_bits(rng: random.Random, n: int) -> tuple[bool, ...]:
    return tuple(rng.random() < 0.5 for _ in range(n))


def random_builder_label(rng: random.Random, n: int) -> Label:
    """One builder result of width n, as built: a shift row, a boolean row
    (sometimes all constant), an unbounded chain row, a bounded grid, or a
    raw collapsed bounded row."""
    known = random_bits(rng, n)
    op = rng.choice(("U", "R", "S", "T"))
    pick = rng.randrange(5)
    if pick == 0:
        return build_shift(n, rng.choice(("X", "wX", "Y", "wY")))
    if pick == 1:
        boolean = rng.choice("&|")
        if rng.random() < 0.3:
            known = (boolean == "|",) * n  # every output decided
        return build_boolean(n, boolean, known)
    if pick == 2:
        return build_unbounded(n, op, rng.choice(("left", "right")), known)
    if pick == 3:
        return build_bounded(n, op, rng.randrange(0, 4), "left", known)
    return build_bounded(n, op, rng.randrange(0, n + 2), "right", known)


def random_label(rng: random.Random, n: int, depth: int = 3) -> Label:
    """An evaluated label: up to `depth` builder results stacked with
    compose_evaluated, starting from the identity."""
    label = identity(n)
    for _ in range(rng.randrange(0, depth + 1)):
        label = compose_evaluated(label, random_builder_label(rng, n))
    return label


def contract_step(tree: contraction.ContractionTree, leaf: int) -> contraction.ContractionTree:
    """One leaf contraction, planned on the tree and applied to a copy of it
    (the input is unchanged). The leaf must be live and have a sibling."""
    out = tree.copy()
    contraction._apply_plan(out, contraction._plan(tree, leaf))
    return out


def shuffle_plans(monkeypatch, seed: int) -> list[int]:
    """Make every contraction pass apply its plans in a seeded shuffled
    order. Returns a list that collects the size of each shuffled pass."""
    real = contraction._assert_disjoint
    rng = random.Random(seed)
    sizes: list[int] = []

    def shuffled(plans):
        rng.shuffle(plans)
        sizes.append(len(plans))
        real(plans)

    monkeypatch.setattr(contraction, "_assert_disjoint", shuffled)
    return sizes


WIDE_N = 128
_WIDE_PROPS = tuple(f"p{i}" for i in range(8))
_WIDE_BINARY = (And, Or, Until, Release, Since, Trigger)
_WIDE_SHIFTS = (Next, WeakNext, Yesterday, WeakYesterday)


def wide_formula(rng: random.Random, leaves: int) -> Formula:
    """A formula with exactly `leaves` literals mixing every operator:
    temporal binaries unbounded, bounded by 0-4 or beyond WIDE_N, some with
    a constant left operand (F/G/O/H); a third of the subformulas wrapped
    in a chain of 1-3 shifts or a negation."""
    if leaves == 1:
        f = Atom(rng.choice(_WIDE_PROPS))
    else:
        cls = rng.choice(_WIDE_BINARY)
        split = rng.randint(1, leaves - 1)
        if cls in (And, Or):
            f = cls(wide_formula(rng, split), wide_formula(rng, leaves - split))
        else:
            roll = rng.random()
            bound = None if roll < 0.4 else rng.randint(0, 4) if roll < 0.85 else WIDE_N + 70
            if rng.random() < 0.15:
                left = Atom(TRUE_NAME if cls in (Until, Since) else FALSE_NAME)
                f = cls(left, wide_formula(rng, leaves - 1), bound)
            else:
                f = cls(wide_formula(rng, split), wide_formula(rng, leaves - split), bound)
    roll = rng.random()
    if roll < 0.25:
        for _ in range(rng.randint(1, 3)):
            f = rng.choice(_WIDE_SHIFTS)(f)
    elif roll < 0.35:
        f = Not(f)
    return f


def wide_cases() -> list[tuple[Formula, Trace]]:
    """Four wide formulas of 100-140 literals, each with its own random
    trace of WIDE_N states over p0..p7."""
    cases = []
    for k in range(4):
        rng = random.Random(f"wide:{k}")
        f = wide_formula(rng, rng.randint(100, 140))
        density = {p: rng.uniform(0.2, 0.8) for p in _WIDE_PROPS}
        states = [{p for p in _WIDE_PROPS if rng.random() < density[p]} for _ in range(WIDE_N)]
        cases.append((f, make_trace(states, _WIDE_PROPS)))
    return cases
