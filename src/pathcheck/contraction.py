"""Contraction trees and the staged evaluation engine.

A formula becomes a tree whose inner nodes are its binary operators and
whose leaves are its literals, negations folded into operator duals on the
way down (the tree of its positive normal form); unary step operators are
swallowed into the edges. Every edge carries a transducer that maps the
sequence below the edge to the sequence the rest of the formula expects.

Every edge label is a stack of n-wide rows (`rows.Label`). Contracting a
leaf applies its edge to its literal's bit column, specializes the parent
operator on the known operand (one builder call), and composes the sibling's
edge, the specialized operator and the parent's edge into one evaluated
label, folding constants only where the stacks meet. Leaves are numbered
left to right; every stage removes all odd-numbered leaves (left children
first, then right children, so the removals in one pass never touch each
other), then halves the numbers. A tree with L leaves therefore contracts in
exactly ceil(log2 L) stages, and the last leaf's edge maps its literal to
the whole formula's sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import builder
from .errors import ContractionError, TraceError
from .formula import (
    _DUAL, TOKENS, UNARY_TEMPORAL, Binary, Formula, Not, atom_names, format_formula, is_literal,
)
from .formula import prune_bounds, to_pnf  # not called here; pathbench/tracer.py wraps these names
from .rows import Label, apply, compose_evaluated, identity, is_evaluated
from .trace import Trace, atom_sequence, require_known

ROOT = -1

class ContractionTree:
    """Mutable contraction state over one trace.

    Nodes are identified by their preorder index in the formula's PNF, unary
    occurrences counted (`init_tree`); ROOT (-1) marks the region above the
    topmost node. `children[v]` lists v's children left to right, so a
    node's side is its index there. `labels[v]` is the row label on the edge
    from v's parent down to v, and `edge_formula[v]` is the subformula whose
    sequence that edge must emit when fed v's sequence (it differs from v's
    own formula exactly when the edge swallowed unary operators, and is
    inherited when edges merge).
    """

    __slots__ = (
        "trace",
        "n",
        "node_formula",
        "parent",
        "children",
        "labels",
        "edge_formula",
        "leaf_numbers",
        "literal_bits",
    )

    def __init__(self, trace: Trace):
        self.trace = trace
        self.n = len(trace)
        self.node_formula: dict[int, Formula] = {}
        self.parent: dict[int, int] = {}
        self.children: dict[int, list[int]] = {}
        self.labels: dict[int, Label] = {}
        self.edge_formula: dict[int, Formula] = {}
        self.leaf_numbers: dict[int, int] = {}
        self.literal_bits: dict[int, np.ndarray] = {}

    def copy(self) -> "ContractionTree":
        t = ContractionTree.__new__(ContractionTree)
        t.trace = self.trace
        t.n = self.n
        t.node_formula = dict(self.node_formula)
        t.parent = dict(self.parent)
        t.children = {k: list(v) for k, v in self.children.items()}
        t.labels = dict(self.labels)
        t.edge_formula = dict(self.edge_formula)
        t.leaf_numbers = dict(self.leaf_numbers)
        t.literal_bits = dict(self.literal_bits)
        return t

    def top(self) -> int:
        return self.children[ROOT][0]


def init_tree(f: Formula, trace: Trace) -> ContractionTree:
    """Build the initial tree for a formula, as parsed, over a trace in one
    preorder walk that carries the polarity down, as `formula.fold` does.

    A Not is no node; under an odd number of them a node stands for its dual
    (`_DUAL`) and stores `Not(g)`, which has the dual's sequence, so nodes
    are numbered by their preorder index in the formula's PNF, unary
    occurrences counted. Unary operators never become nodes: the walk
    carries each chain down as nested (operator, polarity, rest) triples,
    and the edge to the first non-unary subformula beneath it gets the whole
    chain as one gather row (`builder.build_shifts`, the row that composing
    the shifts innermost first would give), built once per distinct chain
    in the call. Other edges keep the identity.
    Leaves are numbered as preorder reaches them, left to right. Once every
    name is known to the trace, each distinct literal's bit column is built
    once, as a bool array shared by its leaves.
    """
    tree = ContractionTree(trace)
    n = tree.n
    ident = identity(n)
    literals: dict[int, tuple[str, bool]] = {}  # leaf -> (name, negated)
    shift_rows: dict[tuple[str, ...], Label] = {}  # chain, innermost first -> its row
    tree.children[ROOT] = []
    todo: list[tuple[Formula, bool, int, Optional[tuple]]] = [(f, False, ROOT, None)]
    node = -1
    while todo:
        g, neg, parent, chain = todo.pop()
        if type(g) is Not:
            todo.append((g.child, not neg, parent, chain))
            continue
        node += 1
        if isinstance(g, UNARY_TEMPORAL):
            todo.append((g.child, neg, parent, (g, neg, chain)))
            continue
        tree.node_formula[node] = tree.edge_formula[node] = Not(g) if neg else g
        if chain is None:
            tree.labels[node] = ident
        else:
            shifts = []  # innermost first
            while chain is not None:
                u, uneg, chain = chain
                shifts.append(TOKENS[_DUAL[type(u)] if uneg else type(u)])
            key = tuple(shifts)
            if key not in shift_rows:
                shift_rows[key] = builder.build_shifts(n, key)
            tree.labels[node] = shift_rows[key]
            tree.edge_formula[node] = Not(u) if uneg else u
        tree.parent[node] = parent
        tree.children[parent].append(node)  # left is reached first
        if isinstance(g, Binary):
            tree.children[node] = []
            todo += [(g.right, neg, node, None), (g.left, neg, node, None)]
        else:
            literals[node] = (g.name, neg)
            tree.leaf_numbers[node] = len(tree.leaf_numbers)
    require_known(trace, {name for name, _ in literals.values()})
    columns = {key: atom_sequence(trace, *key) for key in dict.fromkeys(literals.values())}
    tree.literal_bits = {leaf: columns[key] for leaf, key in literals.items()}
    return tree


class _Plan(NamedTuple):
    leaf: int
    parent: int
    sibling: int
    grandparent: int
    parent_slot: int
    new_label: Label


def _build_partial(f: Formula, known_side: str, known, n: int) -> Label:
    """The operator node f (a node Not(g) is g's dual) specialized on its
    known operand: evaluated, except for the raw chain row of an unbounded
    operator and the raw collapsed row of a bounded operator with its right
    side known, which the compose settles. A bound of at least n - 1 lets
    every window reach the trace's end, so that operator is built as
    unbounded."""
    g = f.child if isinstance(f, Not) else f
    if not isinstance(g, Binary):
        raise ContractionError(f"not a binary operator node: {format_formula(f)}")
    op = TOKENS[_DUAL[type(g)] if g is not f else type(g)]
    if op in ("&", "|"):
        return builder.build_boolean(n, op, known)
    if g.bound is not None and g.bound < n - 1:
        return builder.build_bounded(n, op, g.bound, known_side, known)
    return builder._raw_unbounded(n, op, known_side, known)


def _plan(tree: ContractionTree, leaf: int) -> _Plan:
    """The plan that contracts `leaf`, a live leaf whose parent is not ROOT."""
    p = tree.parent[leaf]
    half = tree.children[p].index(leaf)
    sibling = tree.children[p][1 - half]
    grandparent = tree.parent[p]
    edge, known = tree.labels[leaf], tree.literal_bits[leaf]
    if edge.rows:
        known = apply(edge, known)
    partial = _build_partial(tree.node_formula[p], ("left", "right")[half], known, tree.n)
    # the partial goes on top of the sibling's edge, so that a raw row is
    # the bottom of a later label, where compose_evaluated folds it
    new_label = compose_evaluated(tree.labels[sibling], partial, tree.labels[p])
    return _Plan(leaf, p, sibling, grandparent, tree.children[grandparent].index(p), new_label)


def _apply_plan(tree: ContractionTree, plan: _Plan) -> None:
    tree.edge_formula[plan.sibling] = tree.edge_formula[plan.parent]
    tree.labels[plan.sibling] = plan.new_label
    tree.children[plan.grandparent][plan.parent_slot] = plan.sibling
    tree.parent[plan.sibling] = plan.grandparent
    for node in (plan.leaf, plan.parent):
        tree.node_formula.pop(node)
        tree.parent.pop(node)
        tree.labels.pop(node)
        tree.edge_formula.pop(node)
        tree.children.pop(node, None)
    tree.literal_bits.pop(plan.leaf, None)
    tree.leaf_numbers.pop(plan.leaf, None)


@dataclass
class ContractionRecord:
    """What a run did, for tests and the DOT dumper."""

    initial_leaves: int = 0
    stages: int = 0
    leaf_counts: list[int] = field(default_factory=list)
    selections: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)
    final_gates: int = 0  # gate-view size of the last remaining edge label


def run_contraction(
    tree: ContractionTree,
    record: Optional[ContractionRecord] = None,
    on_stage: Optional[Callable[[ContractionTree, int], None]] = None,
) -> np.ndarray:
    """Contract to a single leaf and return the whole formula's sequence, as
    the read-only bool array the last edge's `apply` produces.

    Each stage removes the odd-numbered leaves: first those that are left
    children, then (re-examining the tree) those that are right children.
    Within a pass the removals are structurally disjoint, so their plans are
    computed from the same tree snapshot and the order in which they are
    applied does not matter.
    """
    t = tree.copy()
    numbers = t.leaf_numbers
    initial = len(numbers)
    if initial == 0:
        raise ContractionError("tree has no leaves")
    budget = max(1, math.ceil(math.log2(initial))) if initial > 1 else 0
    if record is not None:
        record.initial_leaves = initial
        record.leaf_counts.append(initial)
    if on_stage is not None:
        on_stage(t, 0)
    stage = 0
    while len(numbers) > 1:
        stage += 1
        if stage > budget:
            raise ContractionError(
                f"stage budget {budget} exceeded on {initial} leaves"
            )
        for half in (0, 1):
            # `numbers` keeps its leaves in left-to-right order: `init_tree`
            # inserts them in preorder, and stages only delete and halve
            selected = [
                leaf for leaf, num in numbers.items()
                if num & 1 and t.children[t.parent[leaf]][half] == leaf
            ]
            if not selected:
                continue
            if record is not None:
                record.selections.append((stage, half, tuple(numbers[lf] for lf in selected)))
            plans = [_plan(t, lf) for lf in selected]
            _assert_disjoint(plans)
            for plan in plans:
                _apply_plan(t, plan)
        for leaf in numbers:
            if numbers[leaf] & 1:
                raise ContractionError(f"leaf {leaf} survived stage {stage} odd")
        for leaf in numbers:
            numbers[leaf] >>= 1
        if record is not None:
            record.leaf_counts.append(len(numbers))
        if on_stage is not None:
            on_stage(t, stage)
    last = t.top()
    if record is not None:
        record.stages = stage
        record.final_gates = (len(t.labels[last].rows) + 1) * t.n
    seq = apply(t.labels[last], t.literal_bits[last])
    seq.flags.writeable = False
    return seq


def _assert_disjoint(plans: list[_Plan]) -> None:
    removed: set[int] = set()
    for p in plans:
        for node in (p.leaf, p.parent):
            if node in removed:
                raise ContractionError("overlapping contraction plans")
            removed.add(node)
    rewritten: set[int] = set()
    for p in plans:
        if p.sibling in removed or p.sibling in rewritten:
            raise ContractionError("overlapping contraction plans")
        rewritten.add(p.sibling)
        if p.grandparent != ROOT and p.grandparent in removed:
            raise ContractionError("overlapping contraction plans")


def verify_tree(tree: ContractionTree) -> None:
    """Check the tree invariants; raises ContractionError on violation.

    Structure: ROOT has one child, inner nodes two, every parent/child
    pointer agrees, leaves are exactly the literal nodes and carry numbers
    that increase from left to right.
    Labels: every edge holds an n -> n row label that is evaluated
    (`rows.is_evaluated`: well-formed rows, no cell reading a constant),
    checked on the rows without building a gate view.
    Semantics: feeding a node's own sequence through its edge label yields
    the sequence of the subformula the edge stands for.
    """
    from .semantics import eval_seq  # referee only; the engine never calls this

    n = tree.n
    if ROOT not in tree.children or len(tree.children[ROOT]) != 1:
        raise ContractionError("ROOT must have exactly one child")
    live = set(tree.node_formula)
    seen: set[int] = set()
    last = -1  # the number of the leaf before, left to right
    stack = [tree.top()]
    while stack:
        v = stack.pop()
        if v not in live or v in seen:
            raise ContractionError(f"node {v} is dangling or repeated")
        seen.add(v)
        ch = tree.children.get(v)
        if ch is None:
            if not is_literal(tree.node_formula[v]):
                raise ContractionError(f"leaf {v} is not a literal")
            if v not in tree.leaf_numbers or v not in tree.literal_bits:
                raise ContractionError(f"leaf {v} is missing its number or bits")
            if tree.leaf_numbers[v] <= last:
                raise ContractionError("leaf numbers do not increase from left to right")
            last = tree.leaf_numbers[v]
        else:
            if len(ch) != 2:
                raise ContractionError(f"inner node {v} must have two children")
            if is_literal(tree.node_formula[v]):
                raise ContractionError(f"inner node {v} is a literal")
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
        if label.arity_in != n or label.arity_out != n:
            raise ContractionError(f"edge to {v} is not an n->n transducer")
        if not is_evaluated(label):
            raise ContractionError(f"edge to {v} is not evaluated")
        child_seq = eval_seq(tree.trace, tree.node_formula[v])
        want = eval_seq(tree.trace, tree.edge_formula[v])
        if tuple(apply(label, child_seq).tolist()) != want:
            raise ContractionError(f"edge to {v} does not compute its subformula")


@dataclass(frozen=True, eq=False)
class CheckResult:
    """`satisfied` is the bit at position 0, as a Python bool; `sequence` is
    the bit at every position, as a read-only numpy bool array on both
    engines. Two results are equal when their sequences are."""

    satisfied: bool
    sequence: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, CheckResult):
            return NotImplemented
        return np.array_equal(self.sequence, other.sequence)


def check(
    f: Formula,
    trace: Trace,
    engine: str = "circuit",
    record: Optional[ContractionRecord] = None,
    on_stage: Optional[Callable[[ContractionTree, int], None]] = None,
) -> CheckResult:
    """Decide whether the trace satisfies the formula (at position 0).

    engine="circuit" runs the contraction pipeline on f as parsed (`init_tree`
    folds negations into duals), passing `record` and `on_stage` to
    `run_contraction`; engine="naive" evaluates the defining quantifiers
    directly. Both return the full satisfaction sequence.
    """
    if len(trace) == 0:
        raise TraceError("cannot check an empty trace")
    if engine == "naive":
        from .semantics import eval_array

        require_known(trace, atom_names(f))
        seq = eval_array(trace, f)
    elif engine == "circuit":
        seq = run_contraction(init_tree(f, trace), record=record, on_stage=on_stage)
    else:
        raise ContractionError(f"unknown engine {engine!r}")
    return CheckResult(bool(seq[0]), seq)
