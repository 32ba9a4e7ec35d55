"""Trace-specialized transducer constructions, one per operator shape.

Each builder takes the known operand's bit sequence (already evaluated along
the trace) and returns a transducer mapping the unknown operand's sequence to
the operator's sequence. Gate layout is fixed and documented per builder so
tests can address gates by position; variables always come first.
"""

from __future__ import annotations

from itertools import accumulate

from .circuit import (
    G_AND,
    G_FALSE,
    G_ID,
    G_OR,
    G_TRUE,
    G_VAR,
    Circuit,
    Transducer,
    constant_circuit,
    evaluate_transducer,
)
from .errors import BuildError
from .trace import Trace, atom_sequence

FUTURE_OPS = ("U", "R")
PAST_OPS = ("S", "T")
BINARY_OPS = FUTURE_OPS + PAST_OPS
SHIFT_OPS = ("X", "wX", "Y", "wY")
BOOLEAN_OPS = ("&", "|")


def build_literal(trace: Trace, name: str, negated: bool = False) -> Transducer:
    """Arity 0 -> n: the constant circuit of one literal's bit sequence."""
    return constant_circuit(atom_sequence(trace, name, negated))


def build_shift(n: int, op: str) -> Transducer:
    """One-step shift: output i reads the input at i+1 (X/wX) or i-1 (Y/wY);
    a missing neighbour reads as False for strong forms, True for weak forms.

    Layout: variables 0..n-1, outputs n..2n-1 (output i is gate n+i).
    """
    if op not in SHIFT_OPS:
        raise BuildError(f"unknown shift operator {op!r}")
    if n < 1:
        raise BuildError("arity must be at least 1")
    pad = G_TRUE if op in ("wX", "wY") else G_FALSE
    if op in ("X", "wX"):
        kind = [G_ID] * (n - 1) + [pad]
        arg0 = list(range(1, n)) + [-1]
    else:
        kind = [pad] + [G_ID] * (n - 1)
        arg0 = [-1] + list(range(n - 1))
    return _row(n, kind, arg0, [-1] * n)


def _row(n: int, kind: list, arg0: list, arg1: list) -> Transducer:
    """Variables 0..n-1, then the given output row at n..2n-1."""
    c = Circuit([G_VAR] * n + kind, [-1] * n + arg0, [-1] * n + arg1)
    return Transducer(c, tuple(range(n)), tuple(range(n, 2 * n)))


def build_boolean(n: int, op: str, known) -> Transducer:
    """Conjunction/disjunction with one operand known.

    Output i is the constant when known[i] decides the result, otherwise an
    Id of variable i. Layout as in build_shift.
    """
    if op not in BOOLEAN_OPS:
        raise BuildError(f"unknown boolean operator {op!r}")
    known = tuple(bool(b) for b in known)
    n = _check_len(n, known)
    absorbing = op == "|"  # the known value that decides the output
    const = G_TRUE if absorbing else G_FALSE
    kind = [const if b == absorbing else G_ID for b in known]
    arg0 = [i if k == G_ID else -1 for i, k in enumerate(kind)]
    return _row(n, kind, arg0, [-1] * n)


def _check_len(n: int, known: tuple) -> int:
    if n < 1:
        raise BuildError("arity must be at least 1")
    if len(known) != n:
        raise BuildError(f"known sequence has length {len(known)}, expected {n}")
    return n


# (U or S, right operand known) -> chain gate kinds where the known bit is
# (True, False), from the one-step expansion with the known side substituted.
# Id gates read the variable at their position; And/Or gates read it and the
# neighbouring output.
_CHAIN_KINDS = {
    (True, True): (G_TRUE, G_AND),
    (True, False): (G_OR, G_ID),
    (False, True): (G_OR, G_FALSE),
    (False, False): (G_ID, G_AND),
}


def build_unbounded(n: int, op: str, known_side: str, known) -> Transducer:
    """Unbounded binary operator with one operand known, as an evaluated
    chain circuit.

    Future operators (U, R) chain output i to output i+1 with the far end at
    n-1; past operators (S, T) chain to i-1 with the far end at 0. The raw
    chain rules come from the one-step expansion of each operator with the
    known side substituted; the result is evaluated before returning, which
    folds the boundary constant into the chain.

    Layout: variables 0..n-1, outputs n..2n-1.
    """
    if op not in BINARY_OPS:
        raise BuildError(f"unknown binary operator {op!r}")
    if known_side not in ("left", "right"):
        raise BuildError(f"known_side must be 'left' or 'right', got {known_side!r}")
    known = tuple(bool(b) for b in known)
    n = _check_len(n, known)
    future = op in FUTURE_OPS
    right_known = known_side == "right"
    on, off = _CHAIN_KINDS[op in ("U", "S"), right_known]
    kind = [on if b else off for b in known]
    step = 1 if future else -1
    arg0 = [i if k >= G_ID else -1 for i, k in enumerate(kind)]
    arg1 = [n + i + step if k >= G_AND else -1 for i, k in enumerate(kind)]
    # the chain's far end: no neighbour to recurse into
    edge = n - 1 if future else 0
    if right_known:
        kind[edge] = G_TRUE if known[edge] else G_FALSE
        arg0[edge] = -1
    else:
        kind[edge] = G_ID
        arg0[edge] = edge
    arg1[edge] = -1
    return evaluate_transducer(_row(n, kind, arg0, arg1))


def build_bounded(n: int, op: str, bound: int, known_side: str, known) -> Transducer:
    """Bounded binary operator with one operand known.

    With the right operand known the window can be decided per position, so
    the result is a single collapsed row: output i is a constant wherever the
    known sequence settles the window, else a chain gate into output i+1
    (future) or i-1 (past). That row is returned raw, without evaluation;
    chain gates keep their pointers at constant neighbours.

    With the left operand known, the bound becomes an unrolled grid of
    bound+1 rows. Row `bound` is the variable row; each row applies one step
    of the operator's expansion reading the row below, and row 0 is the
    output. Gate (i, j) sits at id (bound - j) * n + i. The grid is emitted
    evaluated: it holds no constants, so evaluating it would only compress
    its Id chains, and every Id column already points at its variable. With
    bound = 0 the operator degenerates to its right operand and the grid is
    just the variable row (inputs == outputs).
    """
    if op not in BINARY_OPS:
        raise BuildError(f"unknown binary operator {op!r}")
    if known_side not in ("left", "right"):
        raise BuildError(f"known_side must be 'left' or 'right', got {known_side!r}")
    if bound < 0:
        raise BuildError("bound must be non-negative")
    known = tuple(bool(b) for b in known)
    n = _check_len(n, known)
    future = op in FUTURE_OPS
    if known_side == "right":
        return _bounded_collapsed(n, op, bound, known, future)
    return _bounded_grid(n, op, bound, known, future)


def _window(i: int, n: int, bound: int, future: bool) -> range:
    if future:
        return range(i, min(i + bound, n - 1) + 1)
    return range(max(i - bound, 0), i + 1)


def _bounded_collapsed(n, op, bound, known, future) -> Transducer:
    exists = op in ("U", "S")
    # a witness settles output i at once: a known True for U/S, False for R/T
    witness = [b == exists for b in known]
    before = list(accumulate(witness, initial=0))  # witnesses before each position
    windows = (_window(i, n, bound, future) for i in range(n))
    in_window = [before[w.stop] > before[w.start] for w in windows]
    hit, miss = (G_TRUE, G_FALSE) if exists else (G_FALSE, G_TRUE)
    chain = G_AND if exists else G_OR
    kind = [
        hit if w else (chain if later else miss)
        for w, later in zip(witness, in_window)
    ]
    step = 1 if future else -1
    arg0 = [i if k == chain else -1 for i, k in enumerate(kind)]
    arg1 = [n + i + step if k == chain else -1 for i, k in enumerate(kind)]
    return _row(n, kind, arg0, arg1)


def _bounded_grid(n, op, bound, known, future) -> Transducer:
    exists = op in ("U", "S")
    step = 1 if future else -1
    binary = G_OR if exists else G_AND
    # every grid row has the same kinds, so a column is all binary or all Id;
    # a binary gate reads the gate below it (id minus n) and the diagonal
    # neighbour below it, an Id gate reads its column's variable directly
    row = [
        binary if known[i] == exists and 0 <= i + step < n else G_ID
        for i in range(n)
    ]
    bases = range(0, bound * n, n)
    arg0 = [base + i if k == binary else i for base in bases for i, k in enumerate(row)]
    arg1 = [base + i + step if k == binary else -1 for base in bases for i, k in enumerate(row)]
    c = Circuit([G_VAR] * n + row * bound, [-1] * n + arg0, [-1] * n + arg1)
    return Transducer(c, tuple(range(n)), tuple(range(bound * n, bound * n + n)))
