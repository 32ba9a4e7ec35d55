"""Contraction trees and the staged evaluation engine.

A formula becomes a tree whose inner nodes are its binary operators and
whose leaves are its literals, negations folded into operator duals on the
way down (the tree of its positive normal form); unary step operators are
swallowed into the edges. Every edge carries a transducer that maps the
sequence below the edge to the sequence the rest of the formula expects.
The tree keeps only what contracting reads: each inner node's operator,
each edge's label and each leaf's bits and number. The formula is not
stored; what an edge stands for follows from the formula and the tree's
shape, which is how the tests check it.

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

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import builder
from .errors import ContractionError, TraceError
from .formula import _DUAL, TOKENS, Binary, Formula, Unary, atom_names
from .formula import prune_bounds, to_pnf  # not called here; pathbench/tracer.py wraps these names
from .rows import Label, apply, compose_evaluated, identity
from .trace import Trace, atom_sequence, require_known

ROOT = -1

# every operator class but Not -> its token under even and odd polarity
_TOKENS = {cls: (TOKENS[cls], TOKENS[dual]) for cls, dual in _DUAL.items()}


class ContractionTree:
    """Mutable contraction state over a trace of n positions.

    Nodes are identified by their preorder index in the formula's PNF, unary
    occurrences counted (`init_tree`); ROOT (-1) marks the region above the
    topmost node. `children[v]` lists v's children left to right, so a
    node's side is its index there, and `labels[v]` is the row label on the
    edge from v's parent down to v. `ops[v]` is inner node v's operator as
    (token, bound): the token of its PNF operator, the dual under an odd
    number of negations, and its bound, None where the operator is unbounded
    or its bound reaches n - 1. A leaf has a number (`leaf_numbers`) and its
    literal's bits (`literal_bits`).
    """

    __slots__ = ("n", "parent", "children", "labels", "ops", "leaf_numbers", "literal_bits")

    def __init__(self, n: int):
        self.n = n
        self.parent: dict[int, int] = {}
        self.children: dict[int, list[int]] = {}
        self.labels: dict[int, Label] = {}
        self.ops: dict[int, tuple[str, Optional[int]]] = {}
        self.leaf_numbers: dict[int, int] = {}
        self.literal_bits: dict[int, np.ndarray] = {}

    def copy(self) -> "ContractionTree":
        t = ContractionTree(self.n)
        t.parent = dict(self.parent)
        t.children = {k: list(v) for k, v in self.children.items()}
        t.labels = dict(self.labels)
        t.ops = dict(self.ops)
        t.leaf_numbers = dict(self.leaf_numbers)
        t.literal_bits = dict(self.literal_bits)
        return t

    def top(self) -> int:
        return self.children[ROOT][0]


def init_tree(f: Formula, trace: Trace) -> ContractionTree:
    """Build the initial tree for a formula, as parsed, over a trace in one
    preorder walk that carries the polarity down, as `formula.fold` does.

    A Not is no node; under an odd number of them a node stands for its
    dual, so nodes are numbered by their preorder index in the formula's
    PNF, unary occurrences counted. Unary operators never become nodes: the
    walk carries each chain down as nested (token, rest) pairs, and the edge
    to the first non-unary subformula beneath it gets the whole chain as one
    gather row (`builder.build_shifts`, the row that composing the shifts
    innermost first would give), built once per distinct chain in the call.
    Other edges keep the identity.
    Leaves are numbered as preorder reaches them, left to right. Once every
    name is known to the trace, each distinct literal's bit column is built
    once, as a bool array shared by its leaves.
    """
    n = len(trace)
    tree = ContractionTree(n)
    ident = identity(n)
    literals: dict[int, tuple[str, bool]] = {}  # leaf -> (name, negated)
    shift_rows: dict[tuple[str, ...], Label] = {}  # chain, innermost first -> its row
    tree.children[ROOT] = []
    todo: list[tuple[Formula, bool, int, Optional[tuple]]] = [(f, False, ROOT, None)]
    node = -1
    while todo:
        g, neg, parent, chain = todo.pop()
        if isinstance(g, Unary):
            tokens = _TOKENS.get(type(g))
            if tokens is None:  # a Not: no node, the polarity flips
                todo.append((g.child, not neg, parent, chain))
            else:
                node += 1
                todo.append((g.child, neg, parent, (tokens[neg], chain)))
            continue
        node += 1
        if chain is None:
            tree.labels[node] = ident
        else:
            shifts = []  # innermost first
            while chain is not None:
                token, chain = chain
                shifts.append(token)
            key = tuple(shifts)
            if key not in shift_rows:
                shift_rows[key] = builder.build_shifts(n, key)
            tree.labels[node] = shift_rows[key]
        tree.parent[node] = parent
        tree.children[parent].append(node)  # left is reached first
        if isinstance(g, Binary):
            bound = g.bound
            tree.ops[node] = (_TOKENS[type(g)][neg], bound if bound is None or bound < n - 1 else None)
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


def _build_partial(op: str, bound: Optional[int], known_side: str, known, n: int) -> Label:
    """An operator node's `ops` entry specialized on its known operand:
    evaluated, except for the raw chain row of an unbounded operator and the
    raw collapsed row of a bounded operator with its right side known, which
    the compose settles. A bound of at least n - 1 lets every window reach
    the trace's end, so `init_tree` stores it as None and the operator is
    built as unbounded."""
    if op in ("&", "|"):
        return builder.build_boolean(n, op, known)
    if bound is not None:
        return builder.build_bounded(n, op, bound, known_side, known)
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
    partial = _build_partial(*tree.ops[p], ("left", "right")[half], known, tree.n)
    # the partial goes on top of the sibling's edge, so that a raw row is
    # the bottom of a later label, where compose_evaluated folds it
    new_label = compose_evaluated(tree.labels[sibling], partial, tree.labels[p])
    return _Plan(leaf, p, sibling, grandparent, tree.children[grandparent].index(p), new_label)


def _apply_plan(tree: ContractionTree, plan: _Plan) -> None:
    tree.labels[plan.sibling] = plan.new_label
    tree.children[plan.grandparent][plan.parent_slot] = plan.sibling
    tree.parent[plan.sibling] = plan.grandparent
    for node in (plan.leaf, plan.parent):
        del tree.parent[node], tree.labels[node]
    del tree.literal_bits[plan.leaf], tree.leaf_numbers[plan.leaf]
    del tree.children[plan.parent], tree.ops[plan.parent]


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
    budget = (initial - 1).bit_length()
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
