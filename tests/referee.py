"""The row kernels and builders as they were written one row and one
operator at a time, kept as the referee for the engine's faster ones.

`fold` settles every chain row with two constant scans and a `_CUT` table
lookup; `build_shift` makes one row per step, and a chain of them is
composed step by step (`build_shifts`); the collapsed bounded row looks its
window up with two gathers; `compose_evaluated` composes two labels at a
time, and the unbounded chain row is folded in its builder, so a run
replayed here settles that row twice where the engine settles it once.
Tests compare the engine's rows with these ones byte for byte (kinds,
operand indices, directions, flags, counts and dtypes). `install` swaps
them into the contraction module, so that a whole run can be replayed on
them.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from pathcheck import builder as _builder
from pathcheck.builder import BINARY_OPS, FUTURE_OPS, SHIFT_OPS, _CHAIN_KINDS, _known
from pathcheck.errors import BuildError, CircuitError
from pathcheck.rows import (
    _APPLY,
    _FOLD,
    _NEXT,
    _SWAPPED,
    AND,
    CHAIN_AND,
    CHAIN_OR,
    COPY,
    FALSE,
    ID,
    OR,
    TRUE,
    Label,
    Row,
    identity,
    positions,
)

# 0/1 for a constant kind, 2 for any other
_CONST = np.array([0, 1, 2, 2, 2, 2, 2, 2], dtype=np.uint8)

# _CUT[kind * 8 + neighbour kind]: a chain AND/OR next to a constant is an ID
# of its operand below (the constant cases that absorb were settled before)
_CUT = np.repeat(np.arange(8, dtype=np.uint8), 8)
for _k, _x in product((CHAIN_AND, CHAIN_OR), (FALSE, TRUE)):
    _CUT[_k * 8 + _x] = ID


def _read(cells: np.ndarray, index: np.ndarray) -> np.ndarray:
    """cells[index], without the gather when index is positions(n)."""
    return cells if index is positions(len(cells)) else cells[index]


def _next(stop, d: int) -> np.ndarray:
    """For every cell, the first cell at or after it in direction d where
    `stop` holds; a chain's far end always stops it."""
    n = len(stop)
    if d > 0:
        return np.minimum.accumulate(np.where(stop, positions(n), n)[::-1])[::-1]
    return np.maximum.accumulate(np.where(stop, positions(n), -1))


def _operands(row: Row, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row below's cells at a[i] and at b[i]."""
    x = _read(cells, row.a)
    return x, (x if row.b is row.a else _read(cells, row.b))


def apply(label: Label, bits) -> np.ndarray:
    """Output bits of the label on its n input bits, as a bool array."""
    v = np.asarray(bits, dtype=bool)
    if v.shape != (label.n,):
        raise CircuitError(f"arity mismatch: {len(v)} bits for {label.n} inputs")
    v = v.view(np.uint8)
    for row in label.rows:
        x, y = _operands(row, v)
        v = _APPLY.take(row.kind * 4 + 2 * x + y)  # uint8 codes below 32
        if row.top >= COPY:
            v = v[_next(v != _NEXT, row.d)]
    return v.view(bool)


def _any_before(cells: np.ndarray, ends: np.ndarray, d: int) -> bool:
    """Whether some cell i has cells[i] and ends[i + d]."""
    if d > 0:
        return bool((cells[:-1] & ends[1:]).any())
    return bool((cells[1:] & ends[:-1]).any())


# each constant, and the chain kind it flows through besides COPY
_THROUGH = ((FALSE, CHAIN_AND), (TRUE, CHAIN_OR))


def fold(row: Row, below: Row | None = None) -> Row:
    """The row with the constants of `below` (None: the variables) folded in
    and let flow along its chains; the row itself when nothing changes."""
    kind, a, consts = row.kind, row.a, row.consts
    if below is not None and below.consts:
        x, y = _operands(row, _CONST.take(below.kind))
        kind = _FOLD.take(kind * 9 + 3 * x + y)  # uint8 codes below 72
        if kind.max() >= _SWAPPED:
            swap = kind >= _SWAPPED
            a = np.where(swap, row.b, a)
            kind -= swap * np.uint8(_SWAPPED)
        consts = int(np.count_nonzero(kind <= TRUE))
    elif not row.raw:
        return row
    if row.top >= COPY and (row.raw or consts > row.consts):
        for value, chain in _THROUGH:
            passes = (kind == COPY) | (kind == chain)
            if not _any_before(passes, kind == value, row.d):
                continue  # no chain ends at this constant
            reached = passes & (kind[_next(~passes, row.d)] == value)
            kind = np.where(reached, np.uint8(value), kind)
        # the far end gets no neighbour in its code: it is not a chain cell
        code = kind * 8
        if row.d > 0:
            code[:-1] += kind[1:]
        else:
            code[1:] += kind[:-1]
        kind = _CUT.take(code)
        consts = None
    return Row(kind, a, row.b, row.d, consts=consts)


def compose_evaluated(first: Label, *later: Label) -> Label:
    """The labels applied in turn, `first` innermost, composed pairwise."""
    for second in later:
        first = _compose_pair(first, second)
    return first


def _compose_pair(first: Label, second: Label) -> Label:
    """`second` after `first`, evaluated: the stacked rows with the seam
    folded, dead rows dropped and pure-gather rows fused into the row above.

    Both labels must be evaluated, except that the bottom row of `second`
    may be raw.
    """
    if first.n != second.n:
        raise CircuitError(f"arity mismatch: {first.n} outputs fed into {second.n} inputs")
    if not second.rows:
        return first
    seam = len(first.rows)
    rows = list(first.rows + second.rows)
    below = rows[seam - 1] if seam else None
    for r in range(seam, len(rows)):
        row = rows[r]
        below = rows[r] = fold(row, below)
        if below.consts == row.consts:
            break  # nothing new for the rows above to fold
    for r in range(len(rows) - 1, 0, -1):
        if rows[r].top <= TRUE:  # reads nothing below
            del rows[:r]
            break
    fused = []
    for row in rows:
        if fused and fused[-1].top <= ID:
            gather = fused.pop().a
            a = _read(gather, row.a)
            b = _read(gather, row.b) if row.b is not row.a else None
            row = Row(row.kind, a, b, row.d, top=row.top, consts=row.consts)
        fused.append(row)
    return Label(first.n, fused)


def build_shift(n: int, op: str) -> Label:
    """One-step shift: output i reads the input at i+1 (X/wX) or i-1 (Y/wY);
    a missing neighbour reads as False for strong forms, True for weak forms.

    Layout: one row of ID cells and the constant at the missing neighbour.
    """
    if op not in SHIFT_OPS:
        raise BuildError(f"unknown shift operator {op!r}")
    if n < 1:
        raise BuildError("arity must be at least 1")
    step = 1 if op in ("X", "wX") else -1
    edge = n - 1 if step > 0 else 0  # the missing neighbour's position
    kind = np.full(n, ID, dtype=np.uint8)
    kind[edge] = TRUE if op in ("wX", "wY") else FALSE
    a = np.arange(step, n + step)
    a[edge] = edge
    return Label(n, (Row(kind, a),))


def build_unbounded(n: int, op: str, known_side: str, known) -> Label:
    """Unbounded binary operator with one operand known, as one evaluated
    chain row.

    Future operators (U, R) chain output i to output i+1 with the far end at
    n-1; past operators (S, T) chain to i-1 with the far end at 0. The raw
    chain rules come from the one-step expansion of each operator with the
    known side substituted; the row is folded before returning, which lets
    the boundary constant flow into the chain.
    """
    if op not in BINARY_OPS:
        raise BuildError(f"unknown binary operator {op!r}")
    if known_side not in ("left", "right"):
        raise BuildError(f"known_side must be 'left' or 'right', got {known_side!r}")
    known = _known(n, known)
    future = op in FUTURE_OPS
    right_known = known_side == "right"
    off, on = _CHAIN_KINDS[op in ("U", "S"), right_known]
    kind = np.where(known, on, off).astype(np.uint8)
    # the chain's far end: no neighbour to recurse into
    edge = n - 1 if future else 0
    kind[edge] = (TRUE if known[edge] else FALSE) if right_known else ID
    raw = Row(kind, positions(n), d=1 if future else -1, raw=True)
    return Label(n, (fold(raw),))


def build_bounded(n: int, op: str, bound: int, known_side: str, known) -> Label:
    """Bounded binary operator with one operand known.

    With the right operand known the window can be decided per position, so
    the result is a single collapsed row: output i is a constant wherever the
    known sequence settles the window, else a chain cell into output i+1
    (future) or i-1 (past). That row is returned raw, without folding: chain
    cells may read constant neighbours.

    With the left operand known, the bound becomes an unrolled grid of
    `bound` identical rows over the variables; each row applies one step of
    the operator's expansion to the row below. Counting the variables as
    grid row `bound` and the output as grid row 0, cell (i, j) is gate
    (bound - j) * n + i of the gate view, where each ID column points
    straight at its variable. With bound = 0 the operator degenerates to
    its right operand and the grid is the identity. A bound above n builds
    as bound n.
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
        witness = known == exists
        before = np.concatenate(([0], np.cumsum(witness)))  # witnesses before each position
        last = np.clip(at + step * bound, 0, n - 1)
        in_window = before[np.maximum(at, last) + 1] > before[np.minimum(at, last)]
        hit, miss, chain = (TRUE, FALSE, CHAIN_AND) if exists else (FALSE, TRUE, CHAIN_OR)
        kind = np.where(witness, hit, np.where(in_window, chain, miss))
        return Label(n, (Row(kind.astype(np.uint8), at, d=step, raw=True),))
    # a binary cell reads the cell below it and the diagonal neighbour below
    # it; an ID cell reads the cell below it
    diagonal = at + step
    diagonal[n - 1 if step > 0 else 0] = -1  # the edge column has no diagonal
    kind = np.where((known == exists) & (diagonal >= 0), OR if exists else AND, ID)
    row = Row(kind.astype(np.uint8), at, np.maximum(diagonal, 0))
    return Label(n, (row,) * bound)


def build_shifts(n: int, ops) -> Label:
    """A chain of shifts, innermost first, composed step by step."""
    label = identity(n)
    for op in ops:
        label = compose_evaluated(label, build_shift(n, op))
    return label


class _Builders:
    """The builder functions the contraction module reads. The raw chain
    row is the evaluated one: settling it again at the seam must give what
    settling it once there gives."""

    build_shift = staticmethod(build_shift)
    build_shifts = staticmethod(build_shifts)
    build_boolean = staticmethod(_builder.build_boolean)
    build_unbounded = staticmethod(build_unbounded)
    _raw_unbounded = staticmethod(build_unbounded)
    build_bounded = staticmethod(build_bounded)


def install(monkeypatch, contraction) -> None:
    """Make `contraction` build, apply and compose with the referee."""
    monkeypatch.setattr(contraction, "builder", _Builders)
    monkeypatch.setattr(contraction, "apply", apply)
    monkeypatch.setattr(contraction, "compose_evaluated", compose_evaluated)
