"""Shared test utilities: bit-parallel truth tables, random circuits,
random row labels, wide formulas, single-leaf contraction steps and the
contraction-tree referee (`verify_tree`, with the row invariant
`is_evaluated` and the formulas a tree's nodes and edges stand for)."""

from __future__ import annotations

import random

import numpy as np

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
from pathcheck.contraction import ROOT
from pathcheck.errors import ContractionError
from pathcheck.formula import (
    _DUAL, TOKENS, TRUE_NAME, FALSE_NAME, And, Atom, Binary, Formula, Next, Not, Or, Release,
    Since, Trigger, Unary, Until, WeakNext, WeakYesterday, Yesterday,
)
from pathcheck.rows import AND, COPY, ID, OR, TRUE, Label, apply, compose_evaluated, identity
from pathcheck.semantics import eval_seq
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


def is_literal(f: Formula) -> bool:
    """An atom or a negated atom; the only leaves a PNF tree may have."""
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.child, Atom))


def _any_before(cells: np.ndarray, ends: np.ndarray, d: int) -> bool:
    """Whether some cell i has cells[i] and ends[i + d]."""
    if d > 0:
        return bool((cells[:-1] & ends[1:]).any())
    return bool((cells[1:] & ends[:-1]).any())


def is_evaluated(label: Label) -> bool:
    """Whether every row is well formed and no cell reads a constant.

    Every row holds n cells whose operands a and b lie in [0, n). No ID,
    AND, OR or chain AND/OR cell reads a constant of the row below through
    a, and no AND or OR cell does through b. A row with chain cells runs in
    direction d = +1 or -1, its far end is not a chain cell, and no chain
    cell's neighbour at i + d is a constant.
    """
    n = label.n
    below = np.zeros(n, dtype=bool)  # the variables: no constants
    for row in label.rows:
        kind = row.kind
        if any(x.shape != (n,) for x in (kind, row.a, row.b)):
            return False
        if min(row.a.min(), row.b.min()) < 0 or max(row.a.max(), row.b.max()) >= n:
            return False
        reads_a = (kind >= ID) & (kind != COPY)
        reads_b = (kind == AND) | (kind == OR)
        if (reads_a & below[row.a]).any() or (reads_b & below[row.b]).any():
            return False
        const = kind <= TRUE
        chain = kind >= COPY
        if chain.any():
            if row.d not in (1, -1) or chain[n - 1 if row.d > 0 else 0]:
                return False
            if _any_before(chain, const, row.d):
                return False
        below = const
    return True


def occurrences(f: Formula) -> dict[int, tuple[Formula, int]]:
    """Every node id `init_tree` gives f's occurrences -> (the formula the
    occurrence stands for, the id of the occurrence above it or ROOT).

    Ids count f's occurrences in preorder, unary ones included; a Not is no
    occurrence, and one under an odd number of them stands for Not(g)."""
    out = {}
    todo = [(f, False, ROOT)]
    while todo:
        g, neg, above = todo.pop()
        if type(g) is Not:
            todo.append((g.child, not neg, above))
            continue
        node = len(out)
        out[node] = (Not(g) if neg else g, above)
        if isinstance(g, Binary):
            todo += [(g.right, neg, node), (g.left, neg, node)]
        elif isinstance(g, Unary):
            todo.append((g.child, neg, node))
    return out


def edge_formula(occ: dict[int, tuple[Formula, int]], parent: int, v: int) -> Formula:
    """The formula the edge from `parent` down to v stands for: the topmost
    occurrence below `parent` on the path to v."""
    u = v
    while occ[u][1] != parent:
        u = occ[u][1]
        if u == ROOT:
            raise ContractionError(f"node {parent} is not above node {v}")
    return occ[u][0]


def tree_formulas(tree: contraction.ContractionTree, f: Formula) -> tuple[dict, dict]:
    """(node formulas, edge formulas) of the live nodes of a tree built from
    f, derived from f and the tree's parent map."""
    occ = occurrences(f)
    nodes = {v: occ[v][0] for v in tree.parent}
    return nodes, {v: edge_formula(occ, p, v) for v, p in tree.parent.items()}


def expected_op(g: Formula, n: int) -> tuple:
    """The `ops` entry of the inner node that stands for g."""
    neg = type(g) is Not
    if neg:
        g = g.child
    if not isinstance(g, Binary):
        return None
    bound = g.bound if g.bound is not None and g.bound < n - 1 else None
    return TOKENS[_DUAL[type(g)] if neg else type(g)], bound


def verify_tree(tree: contraction.ContractionTree, f: Formula, trace) -> None:
    """Check the invariants of a tree that contraction made from
    `init_tree(f, trace)`; raises ContractionError on violation.

    Structure: ROOT has one child, inner nodes two, every parent/child
    pointer agrees, leaves are exactly the literal nodes and carry numbers
    that increase from left to right, and each inner node's `ops` entry is
    its operator's.
    Labels: every edge holds an n -> n row label that is evaluated
    (`is_evaluated`: well-formed rows, no cell reading a constant),
    checked on the rows without building a gate view.
    Semantics: feeding a node's own sequence through its edge label yields
    the sequence of the subformula the edge stands for (`edge_formula`).
    """
    n = tree.n
    if ROOT not in tree.children or len(tree.children[ROOT]) != 1:
        raise ContractionError("ROOT must have exactly one child")
    occ = occurrences(f)
    live = set(tree.parent)
    seen: set[int] = set()
    last = -1  # the number of the leaf before, left to right
    stack = [tree.top()]
    while stack:
        v = stack.pop()
        if v not in live or v in seen or v not in occ:
            raise ContractionError(f"node {v} is dangling or repeated")
        seen.add(v)
        ch = tree.children.get(v)
        if ch is None:
            if not is_literal(occ[v][0]):
                raise ContractionError(f"leaf {v} is not a literal")
            if v not in tree.leaf_numbers or v not in tree.literal_bits:
                raise ContractionError(f"leaf {v} is missing its number or bits")
            if tree.leaf_numbers[v] <= last:
                raise ContractionError("leaf numbers do not increase from left to right")
            last = tree.leaf_numbers[v]
        else:
            if len(ch) != 2:
                raise ContractionError(f"inner node {v} must have two children")
            if is_literal(occ[v][0]):
                raise ContractionError(f"inner node {v} is a literal")
            if tree.ops.get(v) != expected_op(occ[v][0], n):
                raise ContractionError(f"inner node {v} has the wrong operator")
            if any(tree.parent.get(c) != v for c in ch):
                raise ContractionError(f"child pointers of {v} are inconsistent")
            stack += reversed(ch)  # the left child is popped first
    if seen != live:
        raise ContractionError("tree does not reach every live node")
    if set(tree.leaf_numbers) != seen - set(tree.children):
        raise ContractionError("the numbered nodes are not the live leaves")
    for v in live:
        label = tree.labels.get(v)
        if label is None:
            raise ContractionError(f"edge to {v} has no label")
        if label.n != n:
            raise ContractionError(f"edge to {v} is not an n->n transducer")
        if not is_evaluated(label):
            raise ContractionError(f"edge to {v} is not evaluated")
        child_seq = eval_seq(trace, occ[v][0])
        want = eval_seq(trace, edge_formula(occ, tree.parent[v], v))
        if tuple(apply(label, child_seq).tolist()) != want:
            raise ContractionError(f"edge to {v} does not compute its subformula")


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
