"""Direct-from-the-definitions evaluation of formulas over finite traces.

This module is the reference oracle the circuit engine is tested against.
Every operator is decided by enumerating the positions its quantifiers range
over; there are no recurrences, no normal forms, and no shared code with the
circuit pipeline.

`holds_at` is the literal recursive reading of the satisfaction relation.
`eval_seq` computes the same thing for all positions at once with numpy,
counting "no failure of the left operand inside the between-window" via
prefix sums; it exists because the literal recursion is exponential in
formula depth while differential campaigns need tens of thousands of runs.
The two are property-tested against each other. `eval_array` hands over
the same bits as a read-only numpy array.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownProposition
from .formula import (
    FALSE_NAME,
    TRUE_NAME,
    And,
    Atom,
    BoundedRelease,
    BoundedSince,
    BoundedTrigger,
    BoundedUntil,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Since,
    Trigger,
    Until,
    WeakNext,
    WeakYesterday,
    Yesterday,
)
from .trace import Trace


def _atom_holds(trace: Trace, name: str, i: int) -> bool:
    if name == TRUE_NAME:
        return True
    if name == FALSE_NAME:
        return False
    if name not in trace.alphabet:
        raise UnknownProposition(f"proposition {name!r} is not in the trace alphabet")
    return name in trace.states[i]


def holds_at(trace: Trace, f: Formula, i: int) -> bool:
    """Does the trace satisfy f at position i? Literal recursion; only
    suitable for small formulas and short traces."""
    n = len(trace)
    if not 0 <= i < n:
        raise ValueError(f"position {i} outside trace of length {n}")
    if isinstance(f, Atom):
        return _atom_holds(trace, f.name, i)
    if isinstance(f, Not):
        return not holds_at(trace, f.child, i)
    if isinstance(f, And):
        return holds_at(trace, f.left, i) and holds_at(trace, f.right, i)
    if isinstance(f, Or):
        return holds_at(trace, f.left, i) or holds_at(trace, f.right, i)
    if isinstance(f, Next):
        return i + 1 < n and holds_at(trace, f.child, i + 1)
    if isinstance(f, WeakNext):
        return i + 1 == n or holds_at(trace, f.child, i + 1)
    if isinstance(f, Yesterday):
        return i - 1 >= 0 and holds_at(trace, f.child, i - 1)
    if isinstance(f, WeakYesterday):
        return i - 1 < 0 or holds_at(trace, f.child, i - 1)
    if isinstance(f, (Until, BoundedUntil)):
        hi = n - 1 if isinstance(f, Until) else min(i + f.bound, n - 1)
        return any(
            holds_at(trace, f.right, j)
            and all(holds_at(trace, f.left, k) for k in range(i, j))
            for j in range(i, hi + 1)
        )
    if isinstance(f, (Release, BoundedRelease)):
        hi = n - 1 if isinstance(f, Release) else min(i + f.bound, n - 1)
        return all(
            holds_at(trace, f.right, j)
            or any(holds_at(trace, f.left, k) for k in range(i, j))
            for j in range(i, hi + 1)
        )
    if isinstance(f, (Since, BoundedSince)):
        lo = 0 if isinstance(f, Since) else max(i - f.bound, 0)
        return any(
            holds_at(trace, f.right, j)
            and all(holds_at(trace, f.left, k) for k in range(j + 1, i + 1))
            for j in range(lo, i + 1)
        )
    if isinstance(f, (Trigger, BoundedTrigger)):
        lo = 0 if isinstance(f, Trigger) else max(i - f.bound, 0)
        return all(
            holds_at(trace, f.right, j)
            or any(holds_at(trace, f.left, k) for k in range(j + 1, i + 1))
            for j in range(lo, i + 1)
        )
    raise TypeError(f"unknown formula node {f!r}")


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
    if isinstance(f, Atom):
        if f.name == TRUE_NAME:
            return np.ones(n, dtype=bool)
        if f.name == FALSE_NAME:
            return np.zeros(n, dtype=bool)
        if f.name not in trace.alphabet:
            raise UnknownProposition(
                f"proposition {f.name!r} is not in the trace alphabet"
            )
        return trace.columns[trace.alphabet.index(f.name)]
    if isinstance(f, Not):
        return ~_seq(trace, f.child)
    if isinstance(f, And):
        return _seq(trace, f.left) & _seq(trace, f.right)
    if isinstance(f, Or):
        return _seq(trace, f.left) | _seq(trace, f.right)
    if isinstance(f, (Next, WeakNext)):
        pad = isinstance(f, WeakNext)
        child = _seq(trace, f.child)
        return np.concatenate((child[1:], np.array([pad], dtype=bool)))
    if isinstance(f, (Yesterday, WeakYesterday)):
        pad = isinstance(f, WeakYesterday)
        child = _seq(trace, f.child)
        return np.concatenate((np.array([pad], dtype=bool), child[:-1]))
    if isinstance(f, (Until, BoundedUntil)):
        b = n if isinstance(f, Until) else f.bound
        return _exists_future(_seq(trace, f.left), _seq(trace, f.right), b)
    if isinstance(f, (Release, BoundedRelease)):
        b = n if isinstance(f, Release) else f.bound
        return _forall_future(_seq(trace, f.left), _seq(trace, f.right), b)
    if isinstance(f, (Since, BoundedSince)):
        b = n if isinstance(f, Since) else f.bound
        return _exists_past(_seq(trace, f.left), _seq(trace, f.right), b)
    if isinstance(f, (Trigger, BoundedTrigger)):
        b = n if isinstance(f, Trigger) else f.bound
        return _forall_past(_seq(trace, f.left), _seq(trace, f.right), b)
    raise TypeError(f"unknown formula node {f!r}")


def _future_window(n: int, b: int) -> np.ndarray:
    # window[i, j] <=> i <= j <= min(i + b, n - 1)
    idx = np.arange(n)
    ii, jj = idx[:, None], idx[None, :]
    return (jj >= ii) & (jj <= ii + b)


def _past_window(n: int, b: int) -> np.ndarray:
    # window[i, j] <=> max(i - b, 0) <= j <= i
    idx = np.arange(n)
    ii, jj = idx[:, None], idx[None, :]
    return (jj <= ii) & (jj >= ii - b)


def _exists_future(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    # out[i] <=> exists j in the window with right[j] and left true on [i, j)
    n = len(left)
    falses = np.concatenate(([0], np.cumsum(~left)))
    left_solid = (falses[None, :n] - falses[:n, None]) == 0  # [i, j]: no false in left[i:j]
    hit = _future_window(n, b) & right[None, :] & left_solid
    return hit.any(axis=1)


def _forall_future(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    # out[i] <=> for all j in the window: right[j] or some left in [i, j)
    n = len(left)
    trues = np.concatenate(([0], np.cumsum(left)))
    left_seen = (trues[None, :n] - trues[:n, None]) > 0
    ok = right[None, :] | left_seen
    return (ok | ~_future_window(n, b)).all(axis=1)


def _exists_past(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    # out[i] <=> exists j in the window with right[j] and left true on (j, i]
    n = len(left)
    falses = np.concatenate(([0], np.cumsum(~left)))
    left_solid = (falses[1 : n + 1][:, None] - falses[1 : n + 1][None, :]) == 0
    hit = _past_window(n, b) & right[None, :] & left_solid
    return hit.any(axis=1)


def _forall_past(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    # out[i] <=> for all j in the window: right[j] or some left in (j, i]
    n = len(left)
    trues = np.concatenate(([0], np.cumsum(left)))
    left_seen = (trues[1 : n + 1][:, None] - trues[1 : n + 1][None, :]) > 0
    ok = right[None, :] | left_seen
    return (ok | ~_past_window(n, b)).all(axis=1)
