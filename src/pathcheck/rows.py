"""Edge labels as stacks of n-wide rows, applied and folded by numpy scans.

Every builder emits its transducer as rows of n cells, and composing such
transducers stacks the rows, so the contraction keeps its edge labels in that
shape. A label is a tuple of rows, bottom first; the empty stack is the
identity. Row r reads the row below it (row 0 reads the variables):

- FALSE and TRUE cells are constants;
- ID cells copy the row below at a[i], AND and OR cells combine it at a[i]
  and b[i];
- chain cells also read their own row at i + d, d (+1 or -1) being the row's
  chain direction: COPY copies that cell, CHAIN_AND and CHAIN_OR combine it
  with the row below at a[i]. The far end of a chain is never a chain cell.

A chain is a prefix computation: a chain cell takes the value of the next
settled cell in direction d, which one `np.minimum.accumulate` (maximum, for
d = -1) finds for the whole row. So `apply` is at most two gathers, one
table lookup and one scan per row.

Applying and folding a cell is one lookup in a flat uint8 table, by a code
computed in uint8 from the cell's kind and what it reads: `kind * 4 + 2x +
y` when applying, `kind * 9 + 3x + y` when folding (x, y: 0, 1, or 2 for
not a constant, which is `min(kind below, 2)`). A lookup by three index
arrays would have numpy widen each of them to intp first. A row whose b is
its a reads one operand and looks up tables derived from those two at
import, by `kind * 2 + x` and `kind * 8 + kind below`, which saves the
`min` and a multiply. Rows that read the row below in place (boolean,
unbounded and collapsed bounded rows) share one read-only `positions(n)` as
their operand index, and the kernels skip the gather through it; an equal
array that is not that one is gathered, with the same result.

A label is evaluated when no cell reads a constant. `compose_evaluated`
stacks any number of labels and folds the constants at each seam upward,
stopping at the first row that gains no constant: a table lookup per cell,
then, where a chain cell has come to sit next to a constant (one lookup of
each cell with its neighbour tells), one scan per constant that flows (0
through COPY and CHAIN_AND cells, 1 through COPY and CHAIN_OR cells) and a
cut of the chain cells left next to a constant. A builder's raw row is
settled there, once. Then, once over the whole stack, it drops every row
below the topmost all-constant row and fuses each pure-gather row
(constants and IDs, such as a shift) into the row above by composing
indices, so the first label may be any evaluated stack. `is_evaluated`
checks that invariant on the rows themselves.

Labels keep the reading interface of `circuit.Transducer` (`circuit`,
`inputs`, `outputs`) through a gate view built on demand, which the DOT
output draws.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .circuit import G_AND, G_FALSE, G_ID, G_OR, G_TRUE, G_VAR, Circuit
from .errors import CircuitError

# Cell kinds, ordered so that a row's largest kind classifies it: at most
# TRUE is all constant, at most ID a pure gather, at least COPY has chains.
FALSE, TRUE, ID, AND, OR, COPY, CHAIN_AND, CHAIN_OR = range(8)

_GATE_KIND = np.array([G_FALSE, G_TRUE, G_ID, G_AND, G_OR, G_ID, G_AND, G_OR])

# _APPLY[kind * 4 + 2 * x + y]: a cell's value when the row below holds x at
# a[i] and y at b[i]; 2 means the value of the next cell along the chain.
_NEXT = 2
_APPLY = np.array([
    0, 0, 0, 0,  # FALSE
    1, 1, 1, 1,  # TRUE
    0, 0, 1, 1,  # ID
    0, 0, 0, 1,  # AND
    0, 1, 1, 1,  # OR
    2, 2, 2, 2,  # COPY
    0, 0, 2, 2,  # CHAIN_AND
    2, 2, 1, 1,  # CHAIN_OR
], dtype=np.uint8)


def _local_fold(kind: int, x: int, y: int) -> tuple[int, bool]:
    """A cell's kind once the row below is known to hold x at a[i] and y at
    b[i] (2: not a constant), and whether the operand that survives is b."""
    absorbing = 0 if kind in (AND, CHAIN_AND) else 1
    if kind == ID:
        return (ID if x == 2 else x), False
    if kind in (AND, OR):
        if absorbing in (x, y) or 2 not in (x, y):
            return (absorbing if absorbing in (x, y) else 1 - absorbing), False
        return (kind if x == y else ID), x != 2
    if kind in (CHAIN_AND, CHAIN_OR):
        return (kind if x == 2 else absorbing if x == absorbing else COPY), False
    return kind, False  # constants and COPY read nothing below


# _FOLD[kind * 9 + 3 * x + y]: the folded kind, plus _SWAPPED where the
# surviving operand is b
_SWAPPED = 8
_FOLD = np.zeros(8 * 9, dtype=np.uint8)
for _k, _x, _y in product(range(8), range(3), range(3)):
    _kind, _swap = _local_fold(_k, _x, _y)
    _FOLD[_k * 9 + _x * 3 + _y] = _kind + _SWAPPED * _swap

# The same tables for a row whose b is a: _APPLY_ONE[kind * 2 + x] and
# _FOLD_ONE[kind * 8 + kind below at a] (one operand never swaps)
_APPLY_ONE = _APPLY.reshape(8, 4)[:, [0, 3]].ravel()
_FOLD_ONE = _FOLD.reshape(8, 9)[:, [0, 4, 8, 8, 8, 8, 8, 8]].ravel()


@lru_cache(maxsize=4)  # a check works at one n
def positions(n: int) -> np.ndarray:
    """The read-only array 0..n-1. Builders pass it as the operand index of
    rows that read the row below in place, and the kernels skip the gather
    through it; any other array holding 0..n-1 reads the same, gathered."""
    at = np.arange(n)
    at.flags.writeable = False
    return at


def _read(cells: np.ndarray, index: np.ndarray) -> np.ndarray:
    """cells[index], without the gather when index is positions(n)."""
    return cells if index is positions(len(cells)) else cells[index]


class Row:
    """One row: cell kinds, operand indices a and b into the row below (valid
    indices even where unused) and the chain direction d (0 without chains).
    A raw row (a builder's unbounded chain row or collapsed bounded row) may
    have chain cells that read constants; folding it settles them. Rows are
    never mutated. The row counts `top` (the largest kind) and `consts` (the
    number of constant cells) itself; the kernels here pass the counts they
    already hold."""

    __slots__ = ("kind", "a", "b", "d", "raw", "top", "consts")

    def __init__(self, kind, a, b=None, d: int = 0, raw: bool = False, *,
                 top: int | None = None, consts: int | None = None):
        self.kind = kind
        self.a = a
        self.b = a if b is None else b
        self.d = d
        self.raw = raw
        if top is None or consts is None:
            counted = _counts(kind)
            top = counted[0] if top is None else top
            consts = counted[1] if consts is None else consts
        self.top = top
        self.consts = consts


# Up to this width one bincount costs less than a max and a count (which
# cost about the same at any width); beyond it, more.
_BINCOUNT_WIDTH = 1024


def _counts(kind: np.ndarray) -> tuple[int, int]:
    """The largest kind and the number of constant cells."""
    if len(kind) > _BINCOUNT_WIDTH:
        return int(kind.max()), int(np.count_nonzero(kind <= TRUE))
    per_kind = np.bincount(kind).tolist()
    return len(per_kind) - 1, sum(per_kind[:TRUE + 1])


class Label:
    """An n -> n transducer as a stack of rows, bottom first."""

    __slots__ = ("n", "rows", "_view")

    def __init__(self, n: int, rows=()):
        self.n = n
        self.rows = tuple(rows)
        self._view = None

    @property
    def circuit(self) -> Circuit:
        """The gate view: variables 0..n-1, then row r at gates (r+1)*n + i.
        An ID (or COPY) gate points at the final target of any ID chain it
        reads; AND and OR gates keep their operands."""
        if self._view is None:
            self._view = _flatten(self)
        return self._view

    inputs = property(lambda self: tuple(range(self.n)))
    arity_in = arity_out = property(lambda self: self.n)

    @property
    def outputs(self) -> tuple[int, ...]:
        start = len(self.rows) * self.n
        return tuple(range(start, start + self.n))


def identity(n: int) -> Label:
    """The empty stack: n inputs wired straight through."""
    if n < 0:
        raise CircuitError("identity arity must be non-negative")
    return Label(n)


def _next(stop, d: int) -> np.ndarray:
    """For every cell, the first cell at or after it in direction d where
    `stop` holds; a chain's far end always stops it."""
    n = len(stop)
    if d > 0:
        return np.minimum.accumulate(np.where(stop, positions(n), n)[::-1])[::-1]
    return np.maximum.accumulate(np.where(stop, positions(n), -1))


def apply(label: Label, bits) -> np.ndarray:
    """Output bits of the label on its n input bits, as a bool array."""
    v = np.asarray(bits, dtype=bool)
    if v.shape != (label.n,):
        raise CircuitError(f"arity mismatch: {len(v)} bits for {label.n} inputs")
    v = v.view(np.uint8)
    for row in label.rows:
        x = _read(v, row.a)
        if row.b is row.a:
            v = _APPLY_ONE.take(row.kind * 2 + x)  # uint8 codes below 16
        else:
            v = _APPLY.take(row.kind * 4 + 2 * x + _read(v, row.b))  # uint8 codes below 32
        if row.top >= COPY:
            v = v[_next(v != _NEXT, row.d)]
    return v.view(bool)


def _any_before(cells: np.ndarray, ends: np.ndarray, d: int) -> bool:
    """Whether some cell i has cells[i] and ends[i + d]."""
    if d > 0:
        return bool((cells[:-1] & ends[1:]).any())
    return bool((cells[1:] & ends[:-1]).any())


def fold(row: Row, below: Row | None = None) -> Row:
    """The row with the constants of `below` (None: the variables) folded in
    and let flow along its chains; the row itself when it is not raw and
    `below` holds no constant."""
    kind, a, top, consts = row.kind, row.a, row.top, row.consts
    if below is not None and below.consts:
        if row.b is a:
            kind = _FOLD_ONE.take(kind * 8 + _read(below.kind, a))  # uint8 codes below 64
        else:
            known = np.minimum(below.kind, 2)  # 2: not a constant
            x, y = _read(known, a), _read(known, row.b)
            kind = _FOLD.take(kind * 9 + 3 * x + y)  # uint8 codes below 72
        top, consts = _counts(kind)
        if top >= _SWAPPED:  # a swapped cell is no constant
            swap = kind >= _SWAPPED
            a = np.where(swap, row.b, a)
            kind -= swap * np.uint8(_SWAPPED)
            top = int(kind.max())
    elif not row.raw:
        return row
    if row.top >= COPY and (row.raw or consts > row.consts):
        kind, settled = _settle(kind, row.d)
        if settled:
            top, consts = _counts(kind)
    return Row(kind, a, row.b, row.d, top=top, consts=consts)


# What settling needs where a cell meets the next one along its chain, by
# _ENDS[kind * 8 + next kind]: bit 1 << c a flow of the constant c, _CUT a
# chain AND/OR to cut. Per constant, _FLOWS holds the kinds that stop its
# flow (all but COPY and the chain kind it flows through) and its table
# [kind * 8 + the kind where the flow stops]: the constant for a cell it
# reaches, else the kind.
_CUT = 4
_ENDS = np.zeros(64, dtype=np.uint8)
_FLOWS = []
for _value, _chain, _other in ((FALSE, CHAIN_AND, CHAIN_OR), (TRUE, CHAIN_OR, CHAIN_AND)):
    _stops = np.ones(8, dtype=bool)
    _stops[[COPY, _chain]] = False
    _flow = np.repeat(np.arange(8, dtype=np.uint8), 8)
    _flow[[COPY * 8 + _value, _chain * 8 + _value]] = _value
    _FLOWS.append((_value, _stops, _flow))
    _ENDS[[COPY * 8 + _value, _chain * 8 + _value]] = 1 << _value
    _ENDS[_other * 8 + _value] = _CUT


def _settle(kind: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    """The kinds of a row with chains in direction d, with its constants let
    flow along the chains and the chains cut next to the constants left, and
    whether anything changed. Both need a chain cell next to a constant, so
    one table lookup over the neighbours usually settles it; a constant's
    flow is skipped when no chain it flows through ends at it."""
    def cells(kind):  # every cell but the far end, and the next one along
        return (kind[:-1], kind[1:]) if d > 0 else (kind[1:], kind[:-1])

    here, after = cells(kind)
    # a flow of FALSE neither makes nor removes a chain that TRUE flows
    # through to a TRUE, so both are read before either flows
    needs = int(np.bitwise_or.reduce(_ENDS.take(here * 8 + after)))  # uint8 codes below 64
    if not needs:
        return kind, False
    for value, stops, flow in _FLOWS:
        if needs >> value & 1:
            kind = flow.take(kind * 8 + kind[_next(stops.take(kind), d)])
    if needs == _CUT:
        kind = kind.copy()
    # a chain AND/OR next to a constant is an ID of its operand below (the
    # constant cases that absorb were settled by the flows)
    here, after = cells(kind)
    here[(here >= CHAIN_AND) & (after <= TRUE)] = ID
    return kind, True


def compose_evaluated(first: Label, *later: Label) -> Label:
    """The labels applied in turn, `first` innermost, evaluated: the stacked
    rows with each seam folded, dead rows dropped and pure-gather rows fused
    into the row above. The result is that of composing them pairwise.

    Every label must be evaluated, except that the bottom row of each later
    one may be raw.
    """
    rows = list(first.rows)
    for second in later:
        if first.n != second.n:
            raise CircuitError(f"arity mismatch: {first.n} outputs fed into {second.n} inputs")
        seam = len(rows)
        rows += second.rows
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


def _flatten(label: Label) -> Circuit:
    n = label.n
    at = positions(n)
    kind, arg0, arg1 = [G_VAR] * n, [-1] * n, [-1] * n
    target = at  # per cell of the row below: the gate an ID reading it points at
    for r, row in enumerate(label.rows):
        k = row.kind
        own = (r + 1) * n + at
        target = np.where(k == ID, target[row.a], own)
        if row.top >= COPY:
            target = target[_next(k != COPY, row.d)]
        below = r * n
        kind += _GATE_KIND[k].tolist()
        arg0 += np.where(
            k <= TRUE, -1, np.where((k == ID) | (k == COPY), target, below + row.a)
        ).tolist()
        arg1 += np.where(
            (k == AND) | (k == OR), below + row.b, np.where(k >= CHAIN_AND, own + row.d, -1)
        ).tolist()
    return Circuit(kind, arg0, arg1)
