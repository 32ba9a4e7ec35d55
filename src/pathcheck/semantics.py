"""Direct-from-the-definitions evaluation of formulas over finite traces.

This module is the reference oracle the circuit engine is tested against.
Every operator is decided from the positions its quantifiers range over;
there are no recurrences, no normal forms, and no code shared with the
circuit pipeline beyond the formula tree and its walk.

`eval_seq` computes the satisfaction bit of a formula at every position at
once with numpy, children first over `formula.fold` (an explicit stack, so
any depth works), by a first-witness comparison over next/previous-occurrence
arrays, O(n) per operator: `l U[b] r` holds at i iff the first j >= i with
r[j] exists, lies within i + b, and comes no later than the first j >= i
where l fails (if the first witness is blocked or out of reach, so is every
later one). Since is the mirror image, and Release and Trigger are the exact
duals over the same window. The tests check it against the literal
recursive reading of the satisfaction relation, which is exponential in
formula depth while differential campaigns need tens of thousands of runs.
`eval_array` hands over the same bits as a read-only numpy array.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownProposition
from .formula import (
    FALSE_NAME,
    TRUE_NAME,
    And,
    Atom,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Since,
    Until,
    WeakNext,
    WeakYesterday,
    fold,
)
from .trace import Trace


def eval_seq(trace: Trace, f: Formula) -> tuple[bool, ...]:
    """The satisfaction bit of f at every position of the trace."""
    return tuple(eval_array(trace, f).tolist())


def eval_array(trace: Trace, f: Formula) -> np.ndarray:
    """`eval_seq` as a read-only numpy bool array."""
    seq = _seq(trace, f)
    seq.flags.writeable = False
    return seq


def _seq(trace: Trace, f: Formula) -> np.ndarray:
    n = len(trace)

    def atom(node: Atom, neg: bool) -> np.ndarray:
        if node.name == TRUE_NAME:
            return np.ones(n, dtype=bool)
        if node.name == FALSE_NAME:
            return np.zeros(n, dtype=bool)
        if node.name not in trace.row_of:
            raise UnknownProposition(f"proposition {node.name!r} is not in the trace alphabet")
        return trace.columns[trace.row_of[node.name]]

    def unary(node: Formula, child: np.ndarray, neg: bool) -> np.ndarray:
        cls = type(node)
        if cls is Not:
            return ~child
        if cls is Next or cls is WeakNext:
            return np.concatenate((child[1:], np.array([cls is WeakNext], dtype=bool)))
        return np.concatenate((np.array([cls is WeakYesterday], dtype=bool), child[:-1]))

    def binary(node: Formula, left: np.ndarray, right: np.ndarray, neg: bool) -> np.ndarray:
        cls = type(node)
        if cls is And:
            return left & right
        if cls is Or:
            return left | right
        b = n if node.bound is None else min(node.bound, n)
        if cls is Until:
            return _until(left, right, b)
        if cls is Release:  # l R[b] r == !(!l U[b] !r)
            return ~_until(~left, ~right, b)
        if cls is Since:
            return _since(left, right, b)
        return ~_since(~left, ~right, b)  # Trigger: l T[b] r == !(!l S[b] !r)

    return fold(f, atom, unary, binary)


def next_true(a: np.ndarray) -> np.ndarray:
    """At each i, the least j >= i with a[j], or len(a) if there is none."""
    n = len(a)
    return np.minimum.accumulate(np.where(a, np.arange(n), n)[::-1])[::-1]


def prev_true(a: np.ndarray) -> np.ndarray:
    """At each i, the greatest j <= i with a[j], or -1 if there is none."""
    return np.maximum.accumulate(np.where(a, np.arange(len(a)), -1))


def _until(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    # out[i] <=> exists j in [i, i + b] with right[j] and left true on [i, j)
    n = len(left)
    j = next_true(right)
    return (j < n) & (j - np.arange(n) <= b) & (j <= next_true(~left))


def _since(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    # out[i] <=> exists j in [i - b, i] with right[j] and left true on (j, i]
    j = prev_true(right)
    return (j >= 0) & (np.arange(len(left)) - j <= b) & (j >= prev_true(~left))
