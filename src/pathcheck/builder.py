"""Trace-specialized transducer constructions, one per operator shape.

Each builder takes the known operand's bit sequence (already evaluated along
the trace) and returns a transducer mapping the unknown operand's sequence to
the operator's sequence. Except for literals, that transducer is a stack of
n-wide rows (`rows.Label`) built straight from numpy arrays of the known
bits. The row layout is fixed and documented per builder; in the gate view
the variables come first and row r sits at gates (r+1)*n .. (r+2)*n - 1, so
tests can address gates by position.
"""

from __future__ import annotations

import numpy as np

from .circuit import Transducer, constant_circuit
from .errors import BuildError
from .rows import AND, CHAIN_AND, CHAIN_OR, FALSE, ID, OR, TRUE, Label, Row, fold, positions
from .trace import Trace, atom_sequence

FUTURE_OPS = ("U", "R")
PAST_OPS = ("S", "T")
BINARY_OPS = FUTURE_OPS + PAST_OPS
SHIFT_OPS = ("X", "wX", "Y", "wY")
BOOLEAN_OPS = ("&", "|")
# The most cells a row can hold: its operand indices take 8 bytes a cell, and
# numpy cannot even describe a larger array.
MAX_ARITY = np.iinfo(np.intp).max // 8


def build_literal(trace: Trace, name: str, negated: bool = False) -> Transducer:
    """Arity 0 -> n: the constant circuit of one literal's bit sequence."""
    return constant_circuit(atom_sequence(trace, name, negated))


def build_shift(n: int, op: str) -> Label:
    """One-step shift: output i reads the input at i+1 (X/wX) or i-1 (Y/wY);
    a missing neighbour reads as False for strong forms, True for weak forms.

    Layout: one row of ID cells and the constant at the missing neighbour.
    """
    return build_shifts(n, (op,))


def build_shifts(n: int, ops) -> Label:
    """A chain of one-step shifts, innermost first, as one row: the label
    that composing their `build_shift` rows innermost first would give.

    Output i walks the chain from the outermost shift: it is the constant of
    the first shift whose missing neighbour it reaches, else an ID of the
    input at i plus the chain's net offset. `a` composes the steps' indices,
    each clamped to [0, n-1], so a constant cell reads where the clamped walk
    ends; a row that is all constant keeps the outermost step's indices.
    Both are computed from the chain's offsets in O(n + len(ops)).
    """
    _arity(n)
    if not ops:
        return Label(n)
    hits: dict[int, int] = {}  # cell -> the constant it reaches first
    offset = 0  # the net offset of the shifts outside the current one
    lo, hi = -np.inf, np.inf  # the walk so far is clip(i + offset, lo, hi)
    for op in reversed(ops):
        if op not in SHIFT_OPS:
            raise BuildError(f"unknown shift operator {op!r}")
        step = 1 if op in ("X", "wX") else -1
        cell = (n - 1 if step > 0 else 0) - offset  # it reaches the missing neighbour here
        if 0 <= cell < n:
            hits.setdefault(cell, TRUE if op in ("wX", "wY") else FALSE)
        offset += step
        lo, hi = max(lo + step, 0), min(max(hi + step, 0), n - 1)
    kind = np.full(n, ID, dtype=np.uint8)
    for cell, value in hits.items():
        kind[cell] = value
    if len(hits) == n:  # the outermost step's own indices
        offset, lo, hi = (1 if ops[-1] in ("X", "wX") else -1), 0, n - 1
    # i + offset rises with i, so the clamp sets a prefix to lo, then a
    # suffix to hi
    a = np.arange(offset, n + offset)
    a[: max(lo - offset, 0)] = lo
    a[max(hi - offset + 1, 0):] = hi
    return Label(n, (Row(kind, a),))


def build_boolean(n: int, op: str, known) -> Label:
    """Conjunction/disjunction with one operand known.

    Output i is the constant when known[i] decides the result, otherwise an
    ID of variable i. One row, as in build_shift.
    """
    if op not in BOOLEAN_OPS:
        raise BuildError(f"unknown boolean operator {op!r}")
    known = _known(n, known)
    absorbing = op == "|"  # the known value that decides the output
    kind = _BOOLEAN_KINDS[absorbing].take(known.view(np.uint8))
    return Label(n, (Row(kind, positions(n)),))


def _arity(n: int) -> None:
    if not 1 <= n <= MAX_ARITY:
        raise BuildError(f"arity must be between 1 and {MAX_ARITY}")


def _known(n: int, known) -> np.ndarray:
    _arity(n)
    known = np.asarray(known, dtype=bool)
    if known.shape != (n,):
        raise BuildError(f"known sequence has length {len(known)}, expected {n}")
    return known


# Cell kinds by the known bit (False, True), as uint8 tables that the known
# sequence is looked up in.
#
# A boolean row by its absorbing value (True for |): the constant where the
# known bit decides the output, else an ID of the variable.
_BOOLEAN_KINDS = {True: np.array([ID, TRUE], dtype=np.uint8), False: np.array([FALSE, ID], dtype=np.uint8)}
# An unbounded chain row by (U or S, right operand known), from the one-step
# expansion with the known side substituted: ID cells read the variable at
# their position; chain cells read it and the neighbouring output.
_CHAIN_KINDS = {
    (True, True): np.array([CHAIN_AND, TRUE], dtype=np.uint8),
    (True, False): np.array([ID, CHAIN_OR], dtype=np.uint8),
    (False, True): np.array([FALSE, CHAIN_OR], dtype=np.uint8),
    (False, False): np.array([CHAIN_AND, ID], dtype=np.uint8),
}
# A bounded grid row by U or S: a binary cell where the known bit is a
# witness, else an ID of the variable below.
_GRID_KINDS = {True: np.array([ID, OR], dtype=np.uint8), False: np.array([AND, ID], dtype=np.uint8)}


def build_unbounded(n: int, op: str, known_side: str, known) -> Label:
    """Unbounded binary operator with one operand known, as one evaluated
    chain row: `_raw_unbounded`'s row, folded, which lets the boundary
    constant flow into the chain."""
    return Label(n, (fold(_raw_unbounded(n, op, known_side, known).rows[0]),))


def _raw_unbounded(n: int, op: str, known_side: str, known) -> Label:
    """`build_unbounded`'s chain row before folding, returned raw: chain
    cells may read constant neighbours, and the contraction settles them
    once, where the row is composed.

    Future operators (U, R) chain output i to output i+1 with the far end at
    n-1; past operators (S, T) chain to i-1 with the far end at 0. The chain
    rules come from the one-step expansion of each operator with the known
    side substituted.
    """
    if op not in BINARY_OPS:
        raise BuildError(f"unknown binary operator {op!r}")
    if known_side not in ("left", "right"):
        raise BuildError(f"known_side must be 'left' or 'right', got {known_side!r}")
    known = _known(n, known)
    future = op in FUTURE_OPS
    right_known = known_side == "right"
    kind = _CHAIN_KINDS[op in ("U", "S"), right_known].take(known.view(np.uint8))
    # the chain's far end: no neighbour to recurse into
    edge = n - 1 if future else 0
    kind[edge] = (TRUE if known[edge] else FALSE) if right_known else ID
    return Label(n, (Row(kind, positions(n), d=1 if future else -1, raw=True),))


def build_bounded(n: int, op: str, bound: int, known_side: str, known) -> Label:
    """Bounded binary operator with one operand known.

    With the right operand known the window can be decided per position, so
    the result is a single collapsed row: output i is a constant wherever the
    known sequence settles the window, else a chain cell into output i+1
    (future) or i-1 (past). That row is returned raw, without folding: chain
    cells may read constant neighbours, and composing the label settles
    them, as for `_raw_unbounded`.

    With the left operand known, the bound becomes an unrolled grid of
    `bound` identical rows over the variables; each row applies one step of
    the operator's expansion to the row below. Counting the variables as
    grid row `bound` and the output as grid row 0, cell (i, j) is gate
    (bound - j) * n + i of the gate view, where each ID column points
    straight at its variable. Grid rows are evaluated, not raw. With
    bound = 0 the operator degenerates to its right operand and the grid is
    the identity. A bound above n builds as bound n.
    """
    if op not in BINARY_OPS:
        raise BuildError(f"unknown binary operator {op!r}")
    if known_side not in ("left", "right"):
        raise BuildError(f"known_side must be 'left' or 'right', got {known_side!r}")
    if bound < 0:
        raise BuildError("bound must be non-negative")
    known = _known(n, known)
    bound = min(bound, n)  # as in prune_bounds: a window never uses more than n steps
    exists = op in ("U", "S")
    step = 1 if op in FUTURE_OPS else -1
    at = positions(n)
    if known_side == "right":
        # a witness settles output i at once: a known True for U/S, False for R/T
        witness = known if exists else ~known
        # how far each position is from the first witness in direction
        # step, more than the bound when there is none
        if step > 0:
            dist = np.minimum.accumulate(np.where(witness, at, n + bound)[::-1])[::-1] - at
        else:
            dist = at - np.maximum.accumulate(np.where(witness, at, -bound - 1))
        hit, miss, chain = (TRUE, FALSE, CHAIN_AND) if exists else (FALSE, TRUE, CHAIN_OR)
        kind = np.where(dist <= bound, np.uint8(chain), np.uint8(miss))
        kind[witness] = hit
        return Label(n, (Row(kind, at, d=step, raw=True),))
    # a binary cell reads the cell below it and the diagonal neighbour below
    # it; an ID cell reads the cell below it, as does the edge column, which
    # has no diagonal (its b is 0). The grid's rows share one read-only b.
    edge = n - 1 if step > 0 else 0
    kind = _GRID_KINDS[exists].take(known.view(np.uint8))
    kind[edge] = ID
    diagonal = at + step
    diagonal[edge] = 0
    diagonal.flags.writeable = False
    return Label(n, (Row(kind, at, diagonal),) * bound)
