"""Formula AST, concrete syntax, and structural transforms.

Temporal operators come in future/past pairs: Until/Release look forward,
Since/Trigger look backward. Each has a bounded variant that only scans a
window of at most `bound` steps away from the current position. The unary
steps are Next/Yesterday (strong: the neighbour position must exist) and
WeakNext/WeakYesterday (weak: true at the trace edge).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import FormulaError, ParseError

TRUE_NAME = "_true"
FALSE_NAME = "_false"
RESERVED_NAMES = frozenset({TRUE_NAME, FALSE_NAME})

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Formula:
    """Marker base class; every node is a frozen dataclass below."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class WeakNext(Formula):
    child: Formula


@dataclass(frozen=True)
class Yesterday(Formula):
    child: Formula


@dataclass(frozen=True)
class WeakYesterday(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Since(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Trigger(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class BoundedUntil(Formula):
    left: Formula
    right: Formula
    bound: int


@dataclass(frozen=True)
class BoundedRelease(Formula):
    left: Formula
    right: Formula
    bound: int


@dataclass(frozen=True)
class BoundedSince(Formula):
    left: Formula
    right: Formula
    bound: int


@dataclass(frozen=True)
class BoundedTrigger(Formula):
    left: Formula
    right: Formula
    bound: int


UNARY_TEMPORAL = (Next, WeakNext, Yesterday, WeakYesterday)
UNBOUNDED_BINARY = (Until, Release, Since, Trigger)
BOUNDED_BINARY = (BoundedUntil, BoundedRelease, BoundedSince, BoundedTrigger)
BINARY_TEMPORAL = UNBOUNDED_BINARY + BOUNDED_BINARY

_UNARY_TOKEN = {Next: "X", WeakNext: "wX", Yesterday: "Y", WeakYesterday: "wY"}
_BINARY_TOKEN = {
    Until: "U",
    Release: "R",
    Since: "S",
    Trigger: "T",
    BoundedUntil: "U",
    BoundedRelease: "R",
    BoundedSince: "S",
    BoundedTrigger: "T",
}


def is_literal(f: Formula) -> bool:
    """An atom or a negated atom; the only leaves a PNF tree may have."""
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.child, Atom))


def literal_parts(f: Formula) -> tuple[str, bool]:
    """Return (atom name, negated) for a literal."""
    if isinstance(f, Atom):
        return f.name, False
    if isinstance(f, Not) and isinstance(f.child, Atom):
        return f.child.name, True
    raise FormulaError(f"not a literal: {format_formula(f)}")


def format_formula(f: Formula) -> str:
    """Concrete syntax with explicit parentheses around every operator."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return f"(! {format_formula(f.child)})"
    if isinstance(f, And):
        return f"({format_formula(f.left)} & {format_formula(f.right)})"
    if isinstance(f, Or):
        return f"({format_formula(f.left)} | {format_formula(f.right)})"
    if isinstance(f, UNARY_TEMPORAL):
        return f"({_UNARY_TOKEN[type(f)]} {format_formula(f.child)})"
    if isinstance(f, UNBOUNDED_BINARY):
        tok = _BINARY_TOKEN[type(f)]
        return f"({format_formula(f.left)} {tok} {format_formula(f.right)})"
    if isinstance(f, BOUNDED_BINARY):
        tok = f"{_BINARY_TOKEN[type(f)]}[{f.bound}]"
        return f"({format_formula(f.left)} {tok} {format_formula(f.right)})"
    raise FormulaError(f"unknown formula node {f!r}")


# --- parsing ---------------------------------------------------------------

# One alternative matches at every offset: a token, a newline, a run of
# blanks, or (last) any other character, which is an error.
_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<nat>[0-9]+)|(?P<punct>[!&|()\[\]])"
    r"|(?P<newline>\n)|[ \t\r]+|(?P<bad>.)",
    re.DOTALL,
)

_UNARY_KEYWORDS = {"X": Next, "wX": WeakNext, "Y": Yesterday, "wY": WeakYesterday}
_BINARY_KEYWORDS = {
    "U": (Until, BoundedUntil),
    "R": (Release, BoundedRelease),
    "S": (Since, BoundedSince),
    "T": (Trigger, BoundedTrigger),
}
# F/G/O/H are sugar over the binary operators with a constant left operand.
_SUGAR_KEYWORDS = {
    "F": (TRUE_NAME, Until, BoundedUntil),
    "G": (FALSE_NAME, Release, BoundedRelease),
    "O": (TRUE_NAME, Since, BoundedSince),
    "H": (FALSE_NAME, Trigger, BoundedTrigger),
}


class _Token(NamedTuple):
    kind: str  # "ident", "nat", "eof", or the punctuation character itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blanks
            continue
        if kind == "newline":
            line += 1
            start = m.end()
            continue
        tok = m.group()
        col = m.start() - start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        tokens.append(_Token(tok if kind == "punct" else kind, tok, line, col))
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    """Recursive descent over the precedence chain
    unary > & > | > binary temporal, with right-associative binaries."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, got {shown!r}", tok.line, tok.col)
        return self.advance()

    def parse_temporal(self) -> Formula:
        left = self.parse_or()
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _BINARY_KEYWORDS:
            self.advance()
            plain, bounded = _BINARY_KEYWORDS[tok.text]
            bound = self.maybe_bound()
            right = self.parse_temporal()
            if bound is None:
                return plain(left, right)
            return bounded(left, right, bound)
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        if self.peek().kind == "|":
            self.advance()
            return Or(left, self.parse_or())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        if self.peek().kind == "&":
            self.advance()
            return And(left, self.parse_and())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return Not(self.parse_unary())
        if tok.kind == "(":
            self.advance()
            inner = self.parse_temporal()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.advance()
            if tok.text in _UNARY_KEYWORDS:
                nxt = self.peek()
                if nxt.kind == "[":
                    raise ParseError(
                        f"operator {tok.text} does not take a bound", nxt.line, nxt.col
                    )
                return _UNARY_KEYWORDS[tok.text](self.parse_unary())
            if tok.text in _SUGAR_KEYWORDS:
                base, plain, bounded = _SUGAR_KEYWORDS[tok.text]
                bound = self.maybe_bound()
                child = self.parse_unary()
                if bound is None:
                    return plain(Atom(base), child)
                return bounded(Atom(base), child, bound)
            if tok.text == "true":
                return Atom(TRUE_NAME)
            if tok.text == "false":
                return Atom(FALSE_NAME)
            if tok.text in _BINARY_KEYWORDS:
                raise ParseError(
                    f"keyword {tok.text!r} cannot be used as a proposition",
                    tok.line,
                    tok.col,
                )
            return Atom(tok.text)
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, got {shown!r}", tok.line, tok.col)

    def maybe_bound(self) -> Optional[int]:
        if self.peek().kind != "[":
            return None
        self.advance()
        tok = self.peek()
        if tok.kind != "nat":
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"bound must be a decimal natural, got {shown!r}", tok.line, tok.col)
        self.advance()
        self.expect("]")
        return int(tok.text)


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST.

    Raises ParseError (with 1-based line:col) on malformed input.
    """
    parser = _Parser(_tokenize(text))
    f = parser.parse_temporal()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(
            f"expected a binary operator or end of input, got {tok.text!r}",
            tok.line,
            tok.col,
        )
    return f


# --- transforms ------------------------------------------------------------

_DUAL_UNARY = {Next: WeakNext, WeakNext: Next, Yesterday: WeakYesterday, WeakYesterday: Yesterday}
_DUAL_BINARY = {
    Until: Release,
    Release: Until,
    Since: Trigger,
    Trigger: Since,
    BoundedUntil: BoundedRelease,
    BoundedRelease: BoundedUntil,
    BoundedSince: BoundedTrigger,
    BoundedTrigger: BoundedSince,
}


def to_pnf(f: Formula) -> Formula:
    """Positive normal form: negation pushed down to atoms.

    Negating a temporal operator swaps it with its dual and negates both
    operands; bounds carry over unchanged.
    """
    return _pnf(f, False)


def _pnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, Atom):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _pnf(f.child, not neg)
    if isinstance(f, And):
        cls = Or if neg else And
        return cls(_pnf(f.left, neg), _pnf(f.right, neg))
    if isinstance(f, Or):
        cls = And if neg else Or
        return cls(_pnf(f.left, neg), _pnf(f.right, neg))
    if isinstance(f, UNARY_TEMPORAL):
        cls = _DUAL_UNARY[type(f)] if neg else type(f)
        return cls(_pnf(f.child, neg))
    if isinstance(f, UNBOUNDED_BINARY):
        cls = _DUAL_BINARY[type(f)] if neg else type(f)
        return cls(_pnf(f.left, neg), _pnf(f.right, neg))
    if isinstance(f, BOUNDED_BINARY):
        cls = _DUAL_BINARY[type(f)] if neg else type(f)
        return cls(_pnf(f.left, neg), _pnf(f.right, neg), f.bound)
    raise FormulaError(f"unknown formula node {f!r}")


def is_pnf(f: Formula) -> bool:
    """True when negation only occurs directly on atoms."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return isinstance(f.child, Atom)
    if isinstance(f, UNARY_TEMPORAL):
        return is_pnf(f.child)
    if isinstance(f, (And, Or) + BINARY_TEMPORAL):
        return is_pnf(f.left) and is_pnf(f.right)
    raise FormulaError(f"unknown formula node {f!r}")


def prune_bounds(f: Formula, n: int) -> Formula:
    """Clip every bound to the trace length: a window can never use more
    than n steps, so semantics over length-n traces are unchanged."""
    if n < 1:
        raise FormulaError("trace length must be at least 1")
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(prune_bounds(f.child, n))
    if isinstance(f, UNARY_TEMPORAL):
        return type(f)(prune_bounds(f.child, n))
    if isinstance(f, (And, Or) + UNBOUNDED_BINARY):
        return type(f)(prune_bounds(f.left, n), prune_bounds(f.right, n))
    if isinstance(f, BOUNDED_BINARY):
        return type(f)(prune_bounds(f.left, n), prune_bounds(f.right, n), min(f.bound, n))
    raise FormulaError(f"unknown formula node {f!r}")


def size(f: Formula) -> int:
    """Node count, with a bounded operator counting as 1 + its bound."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Not):
        return 1 + size(f.child)
    if isinstance(f, UNARY_TEMPORAL):
        return 1 + size(f.child)
    if isinstance(f, (And, Or) + UNBOUNDED_BINARY):
        return 1 + size(f.left) + size(f.right)
    if isinstance(f, BOUNDED_BINARY):
        return 1 + f.bound + size(f.left) + size(f.right)
    raise FormulaError(f"unknown formula node {f!r}")


@dataclass(frozen=True)
class Occurrence:
    """One subformula occurrence in preorder; literals are leaves."""

    index: int
    formula: Formula
    parent: Optional[int]  # occurrence index, None for the root
    slot: Optional[str]  # "left"/"right"/"child", None for the root


def subformula_occurrences(f: Formula) -> list[Occurrence]:
    """Preorder list of occurrences of a PNF formula.

    Literals (atoms and negated atoms) are not descended into, so the leaves
    of the returned tree are exactly the literals.
    """
    if not is_pnf(f):
        raise FormulaError("formula must be in positive normal form")
    out: list[Occurrence] = []

    def walk(node: Formula, parent: Optional[int], slot: Optional[str]) -> None:
        idx = len(out)
        out.append(Occurrence(idx, node, parent, slot))
        if is_literal(node):
            return
        if isinstance(node, UNARY_TEMPORAL):
            walk(node.child, idx, "child")
        else:
            walk(node.left, idx, "left")
            walk(node.right, idx, "right")

    walk(f, None, None)
    return out


def atom_names(f: Formula) -> set[str]:
    """Every proposition name the formula mentions (reserved ones included)."""
    out: set[str] = set()

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            out.add(node.name)
        elif isinstance(node, Not) or isinstance(node, UNARY_TEMPORAL):
            walk(node.child)
        else:
            walk(node.left)
            walk(node.right)

    walk(f)
    return out
