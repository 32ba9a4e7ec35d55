"""Reference evaluator and formula representation of the benchmark.

It shares no code with pathcheck (not even pathcheck.semantics, which is the
program's own oracle under test). A formula is a nested tuple:

    ("ap", name)  ("tt",)  ("ff",)  ("not", f)  ("and", l, r)  ("or", l, r)
    ("X", f)  ("wX", f)  ("Y", f)  ("wY", f)
    (op, l, r, bound)   op in U R S T, bound None for the unbounded form

Every operator is computed for all positions at once by a linear-time
first-witness comparison over numpy arrays. For `l U[b] r` at i: let w be
the first position >= i where r holds and k the first position >= i where l
fails; the formula holds iff w <= min(i + b, n - 1) and w <= k. `S` is the
mirror image with last positions <= i; `R` and `T` are the duals of `U` and
`S`.
"""

from __future__ import annotations

import math

import numpy as np

BINARY_TEMPORAL = ("U", "R", "S", "T")
SHIFTS = ("X", "wX", "Y", "wY")
# (binary operator, constant left operand) -> F/G/O/H sugar
_SUGAR = {("U", "tt"): "F", ("R", "ff"): "G", ("S", "tt"): "O", ("T", "ff"): "H"}


def evaluate(f, columns, n: int) -> np.ndarray:
    """Satisfaction bit of f at every position, as a bool array of length n.

    `columns` maps each proposition name to its bool array along the trace.
    """
    tag = f[0]
    if tag == "ap":
        return columns[f[1]]
    if tag == "tt":
        return np.ones(n, dtype=bool)
    if tag == "ff":
        return np.zeros(n, dtype=bool)
    if tag == "not":
        return ~evaluate(f[1], columns, n)
    if tag in ("and", "or"):
        left = evaluate(f[1], columns, n)
        right = evaluate(f[2], columns, n)
        return left & right if tag == "and" else left | right
    if tag in SHIFTS:
        child = evaluate(f[1], columns, n)
        out = np.empty(n, dtype=bool)
        if tag in ("X", "wX"):
            out[:-1] = child[1:]
            out[-1] = tag == "wX"
        else:
            out[1:] = child[:-1]
            out[0] = tag == "wY"
        return out
    if tag in BINARY_TEMPORAL:
        left = evaluate(f[1], columns, n)
        right = evaluate(f[2], columns, n)
        b = n if f[3] is None else min(f[3], n)
        if tag == "U":
            return _until(left, right, b)
        if tag == "R":
            return ~_until(~left, ~right, b)
        if tag == "S":
            return _since(left, right, b)
        return ~_since(~left, ~right, b)
    raise ValueError(f"unknown formula node {f!r}")


def _until(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    n = len(left)
    pos = np.arange(n)
    witness = _first_at_or_after(right)
    return (witness <= np.minimum(pos + b, n - 1)) & (witness <= _first_at_or_after(~left))


def _since(left: np.ndarray, right: np.ndarray, b: int) -> np.ndarray:
    pos = np.arange(len(left))
    witness = _last_at_or_before(right)
    return (witness >= np.maximum(pos - b, 0)) & (witness >= _last_at_or_before(~left))


def _first_at_or_after(x: np.ndarray) -> np.ndarray:
    """Index of the first True at or after each position; len(x) if none."""
    n = len(x)
    idx = np.where(x, np.arange(n), n)
    return np.minimum.accumulate(idx[::-1])[::-1]


def _last_at_or_before(x: np.ndarray) -> np.ndarray:
    """Index of the last True at or before each position; -1 if none."""
    idx = np.where(x, np.arange(len(x)), -1)
    return np.maximum.accumulate(idx)


def bits(seq: np.ndarray) -> str:
    """A bool array as a string of 0/1 characters."""
    return (seq.astype(np.uint8) + ord("0")).tobytes().decode()


# --- formula helpers ---------------------------------------------------------


def render(f) -> str:
    """pathcheck's concrete syntax, parenthesized so precedence never matters."""
    tag = f[0]
    if tag == "ap":
        return f[1]
    if tag == "tt":
        return "true"
    if tag == "ff":
        return "false"
    if tag == "not":
        return f"!({render(f[1])})"
    if tag in ("and", "or"):
        sym = "&" if tag == "and" else "|"
        return f"({render(f[1])} {sym} {render(f[2])})"
    if tag in SHIFTS:
        return f"{tag} ({render(f[1])})"
    if tag in BINARY_TEMPORAL:
        bound = "" if f[3] is None else f"[{f[3]}]"
        sugar = _SUGAR.get((tag, f[1][0]))
        if sugar is not None:
            return f"{sugar}{bound} ({render(f[2])})"
        return f"({render(f[1])} {tag}{bound} {render(f[2])})"
    raise ValueError(f"unknown formula node {f!r}")


def literals(f) -> int:
    """Leaves of the formula tree (atoms and constants). Positive normal form
    keeps this count, so it is the L of the paper's ceil(log2 L) stages."""
    tag = f[0]
    if tag in ("ap", "tt", "ff"):
        return 1
    if tag == "not" or tag in SHIFTS:
        return literals(f[1])
    return literals(f[1]) + literals(f[2])


def formula_size(f, n: int) -> int:
    """|f|: nodes of the formula, a bounded operator counting 1 + min(bound, n)."""
    tag = f[0]
    if tag in ("ap", "tt", "ff"):
        return 1
    if tag == "not" or tag in SHIFTS:
        return 1 + formula_size(f[1], n)
    extra = 0 if tag in ("and", "or") or f[3] is None else min(f[3], n)
    return 1 + extra + formula_size(f[1], n) + formula_size(f[2], n)


def stages(f) -> int:
    """The paper's stage count ceil(log2 L) for L literals."""
    return math.ceil(math.log2(literals(f)))


# Class names of pathcheck's formula nodes, read by name and fields only.
_CLASS_TAGS = {
    "Not": "not", "And": "and", "Or": "or",
    "Next": "X", "WeakNext": "wX", "Yesterday": "Y", "WeakYesterday": "wY",
    "Until": "U", "Release": "R", "Since": "S", "Trigger": "T",
    "BoundedUntil": "U", "BoundedRelease": "R", "BoundedSince": "S", "BoundedTrigger": "T",
}
_RESERVED_ATOMS = {"_true": ("tt",), "_false": ("ff",)}


def from_program(node):
    """Convert a pathcheck formula object by its class name and fields."""
    cls = type(node).__name__
    if cls == "Atom":
        return _RESERVED_ATOMS.get(node.name, ("ap", node.name))
    tag = _CLASS_TAGS[cls]
    if tag == "not" or tag in SHIFTS:
        return (tag, from_program(node.child))
    left, right = from_program(node.left), from_program(node.right)
    if tag in ("and", "or"):
        return (tag, left, right)
    return (tag, left, right, getattr(node, "bound", None))
