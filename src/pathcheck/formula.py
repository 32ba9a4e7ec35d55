"""Formula AST, concrete syntax, and structural transforms.

Every node is an `Atom(name)`, a `Unary(child)` or a `Binary(left, right)`;
the concrete classes below differ only in their names. Temporal operators
come in future/past pairs: Until/Release look forward, Since/Trigger look
backward. Their `bound` is None for the unbounded operator and a natural b
for the bounded one, which only scans a window of at most b steps away from
the current position. The unary steps are Next/Yesterday (strong: the
neighbour position must exist) and WeakNext/WeakYesterday (weak: true at
the trace edge).

Nothing here recurses: the transforms and repr walk an explicit stack (as
`fold` and `Formula._nodes` do), and `parse` is one loop over an operator
stack, so the nesting depth of a formula is limited only by its text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, TypeVar

from .errors import FormulaError, ParseError

TRUE_NAME = "_true"
FALSE_NAME = "_false"
RESERVED_NAMES = frozenset({TRUE_NAME, FALSE_NAME})

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

V = TypeVar("V")


class Formula:
    """Base class; every node is a frozen dataclass below. Hashing, pickling
    and `atom_names` read one encoding, the node list `_nodes`; with each
    class's arity it decodes to exactly one tree (`_unflatten`). Equality
    walks both trees in lockstep over one stack and compares the same
    (class, name or bound) pairs without building them, so
    `Until(a, b) != Release(a, b)` and `a U[0] b` is not `a U b`."""

    __slots__ = ()

    def _nodes(self) -> list[tuple]:
        """(class, name) for an atom, (class, bound) for an operator, children
        first, the right one first: the preorder `fold` walks, reversed."""
        nodes = []
        todo = [self]
        while todo:
            f = todo.pop()
            if isinstance(f, Binary):
                nodes.append((type(f), f.bound))
                todo += [f.right, f.left]
            elif isinstance(f, Unary):
                nodes.append((type(f), None))
                todo.append(f.child)
            else:
                nodes.append((Atom, f.name))
        return nodes[::-1]

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        todo = [self, other]  # pairs of subtrees still to compare
        push, pop = todo.append, todo.pop
        while todo:
            g = pop()
            f = pop()
            if f is g:
                continue
            if type(f) is not type(g):
                return False
            if isinstance(f, Binary):
                if f.bound != g.bound:
                    return False
                push(f.right)
                push(g.right)
                push(f.left)
                push(g.left)
            elif isinstance(f, Unary):
                push(f.child)
                push(g.child)
            elif f.name != g.name:
                return False
        return True

    def __hash__(self):
        return hash(tuple(self._nodes()))

    def __repr__(self):
        """The dataclass repr, for example `Until(left=Atom(name='a'),
        right=Atom(name='b'), bound=None)`, built in one pass."""
        parts = []
        todo = [self]
        while todo:
            f = todo.pop()
            if isinstance(f, str):
                parts.append(f)
            elif isinstance(f, Atom):
                parts.append(f"Atom(name={f.name!r})")
            elif isinstance(f, Unary):
                parts.append(f"{type(f).__qualname__}(child=")
                todo += [")", f.child]
            else:
                parts.append(f"{type(f).__qualname__}(left=")
                close = f", bound={f.bound!r})" if isinstance(f, Temporal) else ")"
                todo += [close, f.right, ", right=", f.left]
        return "".join(parts)

    def __reduce__(self):
        return _unflatten, (self._nodes(),)


def _unflatten(nodes: list[tuple]) -> Formula:
    """The formula whose `Formula._nodes` list this is, rebuilt over a stack."""
    values = []
    for cls, arg in nodes:
        if cls is Atom:
            values.append(Atom(arg))
        elif issubclass(cls, Unary):
            values.append(cls(values.pop()))
        else:
            left = values.pop()  # the left value is on top, as in `fold`
            values.append(_binary(cls, left, values.pop(), arg))
    return values[0]


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Unary(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Binary(Formula):
    left: Formula
    right: Formula
    bound = None  # only the temporal operators have a window


@dataclass(frozen=True, eq=False, repr=False)
class Temporal(Binary):
    bound: Optional[int] = None  # None: unbounded


class Not(Unary): pass
class Next(Unary): pass
class WeakNext(Unary): pass
class Yesterday(Unary): pass
class WeakYesterday(Unary): pass
class And(Binary): pass
class Or(Binary): pass
class Until(Temporal): pass
class Release(Temporal): pass
class Since(Temporal): pass
class Trigger(Temporal): pass


UNARY_TEMPORAL = (Next, WeakNext, Yesterday, WeakYesterday)
BINARY_TEMPORAL = (Until, Release, Since, Trigger)

TOKENS = {
    Not: "!", And: "&", Or: "|",
    Next: "X", WeakNext: "wX", Yesterday: "Y", WeakYesterday: "wY",
    Until: "U", Release: "R", Since: "S", Trigger: "T",
}


def fold(
    f: Formula,
    atom: Callable[[Atom, bool], V],
    unary: Callable[[Unary, V, bool], V],
    binary: Callable[[Binary, V, V, bool], V],
) -> V:
    """Post-order fold over an explicit stack, so any depth works.

    Children first, every node is replaced by atom(node, neg),
    unary(node, child_value, neg) or binary(node, left_value, right_value,
    neg), where `neg` is the node's polarity: the parity of the Not nodes
    above it.
    """
    order = []  # preorder; reversed, every node comes after its children
    todo = [(f, False)]
    while todo:
        item = todo.pop()
        order.append(item)
        node, neg = item
        if isinstance(node, Binary):
            todo.append((node.right, neg))
            todo.append((node.left, neg))
        elif isinstance(node, Unary):
            todo.append((node.child, neg ^ (type(node) is Not)))
    values = []
    push, pop = values.append, values.pop
    for node, neg in reversed(order):
        if isinstance(node, Binary):
            push(binary(node, pop(), pop(), neg))  # the left value is on top
        elif isinstance(node, Unary):
            push(unary(node, pop(), neg))
        else:
            push(atom(node, neg))
    return values[0]


def children(f: Formula) -> tuple[Formula, ...]:
    """The operands of a node, left to right."""
    if isinstance(f, Binary):
        return (f.left, f.right)
    if isinstance(f, Unary):
        return (f.child,)
    return ()


def _binary(cls: type, left: Formula, right: Formula, bound: Optional[int]) -> Binary:
    return cls(left, right) if bound is None else cls(left, right, bound)


def _format_binary(node: Binary, left: str, right: str, neg: bool) -> str:
    tok = TOKENS[type(node)]
    if node.bound is not None:
        tok = f"{tok}[{node.bound}]"
    return f"({left} {tok} {right})"


def format_formula(f: Formula) -> str:
    """Concrete syntax with explicit parentheses around every operator."""
    return fold(
        f,
        lambda node, neg: node.name,
        lambda node, child, neg: f"({TOKENS[type(node)]} {child})",
        _format_binary,
    )


# --- parsing ---------------------------------------------------------------

# One match per token (an identifier, a natural or a punctuation mark), with
# the run of blanks before it; once _BAD_RE has found no other character,
# only trailing blanks are left unmatched.
_TOKEN_RE = re.compile(r"[ \t\r\n]*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[!&|()\[\]])")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_BAD_RE = re.compile(r"[^A-Za-z0-9_!&|()\[\] \t\r\n]")

# Operator-stack entries are (precedence, class, bound). Prefix operators
# bind tightest, then & over |, then the temporal binaries; every binary
# associates to the right. An open parenthesis is precedence 0.
_UNARY_PREC = 5
_SUGAR_PREC = 4
_OPEN = (0, None, None)
_PREFIX = {"!": Not, "X": Next, "wX": WeakNext, "Y": Yesterday, "wY": WeakYesterday}
_INFIX = {
    "&": (3, And), "|": (2, Or),
    "U": (1, Until), "R": (1, Release), "S": (1, Since), "T": (1, Trigger),
}
# F/G/O/H are sugar over the temporal binaries with a constant left operand.
_SUGAR = {
    "F": (TRUE_NAME, Until), "G": (FALSE_NAME, Release),
    "O": (TRUE_NAME, Since), "H": (FALSE_NAME, Trigger),
}
_CONSTANTS = {"true": TRUE_NAME, "false": FALSE_NAME}

# What the loop expects next: an operand; an operand, after an operator
# that may or must not take a bound; the bound's natural; its "]"; or, once
# an operand is complete, a binary operator, ")" or the end.
_OPERAND, _MAY_BOUND, _NO_BOUND, _NAT, _CLOSE, _AFTER = range(6)


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _token_error(text: str, index: int, message: str) -> ParseError:
    """A ParseError at the start of token number `index`: the loop reads the
    tokens' text only, so their positions are matched again here."""
    m = next(islice(_TOKEN_RE.finditer(text), index, None))
    return _error(text, m.start(1), message)


def _reduce(operands: list[Formula], ops: list[tuple], prec: int) -> None:
    """Apply every stacked operator that binds tighter than `prec`."""
    while ops[-1][0] > prec:
        p, cls, bound = ops.pop()
        if p == _UNARY_PREC:
            operands[-1] = cls(operands[-1])
        else:
            right = operands.pop()
            operands[-1] = _binary(cls, operands[-1], right, bound)


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST.

    Raises ParseError (with 1-based line:col) on malformed input; a
    character outside the syntax is reported before any other error.
    """
    bad = _BAD_RE.search(text)
    if bad is not None:
        raise _error(text, bad.start(), f"unexpected character {bad.group()!r}")
    operands: list[Formula] = []
    ops = [_OPEN]  # the whole text is one group
    depth = 0  # open parentheses
    state = _OPERAND
    for index, tok in enumerate(_TOKEN_RE.findall(text)):
        if state == _AFTER:
            if tok in _INFIX:
                prec, cls = _INFIX[tok]
                _reduce(operands, ops, prec)
                ops.append((prec, cls, None))
                state = _MAY_BOUND if prec == 1 else _OPERAND
            elif tok == ")" and depth:
                _reduce(operands, ops, 0)
                ops.pop()
                depth -= 1
            elif depth:
                raise _token_error(text, index, f"expected ')', got {tok!r}")
            else:
                raise _token_error(
                    text, index, f"expected a binary operator or end of input, got {tok!r}"
                )
            continue
        if state == _NAT:
            if not tok.isdigit():
                raise _token_error(text, index, f"bound must be a decimal natural, got {tok!r}")
            prec, cls, _ = ops[-1]
            ops[-1] = (prec, cls, int(tok))
            state = _CLOSE
            continue
        if state == _CLOSE:
            if tok != "]":
                raise _token_error(text, index, f"expected ']', got {tok!r}")
            state = _OPERAND
            continue
        if tok == "[" and state != _OPERAND:
            if state == _NO_BOUND:
                raise _token_error(text, index, f"operator {TOKENS[ops[-1][1]]} does not take a bound")
            state = _NAT
            continue
        state = _OPERAND
        if tok in _PREFIX:
            ops.append((_UNARY_PREC, _PREFIX[tok], None))
            if tok != "!":
                state = _NO_BOUND
        elif tok == "(":
            ops.append(_OPEN)
            depth += 1
        elif tok in _SUGAR:
            base, cls = _SUGAR[tok]
            operands.append(Atom(base))
            ops.append((_SUGAR_PREC, cls, None))
            state = _MAY_BOUND
        elif tok[0] not in _IDENT_START:
            raise _token_error(text, index, f"expected a formula, got {tok!r}")
        elif tok in _INFIX:
            raise _token_error(text, index, f"keyword {tok!r} cannot be used as a proposition")
        else:
            operands.append(Atom(_CONSTANTS.get(tok, tok)))
            state = _AFTER
    if state == _AFTER and not depth:
        _reduce(operands, ops, 0)
        return operands[0]
    expected = {_AFTER: "expected ')'", _NAT: "bound must be a decimal natural", _CLOSE: "expected ']'"}
    raise _error(text, len(text), f"{expected.get(state, 'expected a formula')}, got 'end of input'")


# --- transforms ------------------------------------------------------------

_DUAL = {
    And: Or, Or: And,
    Next: WeakNext, WeakNext: Next, Yesterday: WeakYesterday, WeakYesterday: Yesterday,
    Until: Release, Release: Until, Since: Trigger, Trigger: Since,
}


def _pnf_unary(node: Unary, child: Formula, neg: bool) -> Formula:
    cls = type(node)
    if cls is Not:
        return child
    if neg:
        return _DUAL[cls](child)
    return node if child is node.child else cls(child)


def _pnf_binary(node: Binary, left: Formula, right: Formula, neg: bool) -> Formula:
    if neg:
        return _binary(_DUAL[type(node)], left, right, node.bound)
    if left is node.left and right is node.right:
        return node
    return _binary(type(node), left, right, node.bound)


def to_pnf(f: Formula) -> Formula:
    """Positive normal form: negation pushed down to atoms.

    Negating a temporal operator swaps it with its dual and negates both
    operands; bounds carry over unchanged. Unchanged subtrees are shared.
    """
    return fold(f, lambda node, neg: Not(node) if neg else node, _pnf_unary, _pnf_binary)


def prune_bounds(f: Formula, n: int) -> Formula:
    """Clip every bound to the trace length: a window can never use more
    than n steps, so semantics over length-n traces are unchanged."""
    if n < 1:
        raise FormulaError("trace length must be at least 1")

    def binary(node: Binary, left: Formula, right: Formula, neg: bool) -> Formula:
        bound = node.bound
        if bound is not None and bound > n:
            bound = n
        elif left is node.left and right is node.right:
            return node
        return _binary(type(node), left, right, bound)

    def unary(node: Unary, child: Formula, neg: bool) -> Formula:
        return node if child is node.child else type(node)(child)

    return fold(f, lambda node, neg: node, unary, binary)


def atom_names(f: Formula) -> set[str]:
    """Every proposition name the formula mentions (reserved ones included)."""
    return {arg for cls, arg in f._nodes() if cls is Atom}
