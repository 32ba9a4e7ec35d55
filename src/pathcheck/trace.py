"""Finite traces: loading, serialization, per-proposition bit sequences."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import TraceError, UnknownProposition
from .formula import FALSE_NAME, IDENT_RE, RESERVED_NAMES, TRUE_NAME


@dataclass(frozen=True)
class Trace:
    """A non-empty finite sequence of states over a fixed alphabet.

    Each state is the set of propositions true at that position. The alphabet
    order is preserved from the input and drives CSV column order.
    """

    states: tuple[frozenset[str], ...]
    alphabet: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.states)


def make_trace(states, alphabet=None) -> Trace:
    """Validating constructor. `states` is an iterable of proposition
    collections; alphabet defaults to first-appearance order."""
    state_lists = [list(st) for st in states]
    state_sets = [frozenset(st) for st in state_lists]
    if not state_sets:
        raise TraceError("a trace must contain at least one state")
    if alphabet is None:
        seen: list[str] = []
        for st in state_lists:
            for name in st:
                if name not in seen:
                    seen.append(name)
        alphabet = seen
    names = list(alphabet)
    _validate_alphabet(names)
    known = set(names)
    for i, st in enumerate(state_sets):
        for name in st:
            if name not in known:
                raise TraceError(f"state {i} uses {name!r}, not in the alphabet")
    return Trace(tuple(state_sets), tuple(names))


def _validate_alphabet(names: list[str]) -> None:
    seen = set()
    for name in names:
        if not IDENT_RE.match(name):
            raise TraceError(f"invalid proposition name {name!r}")
        if name in RESERVED_NAMES:
            raise TraceError(f"proposition name {name!r} is reserved")
        if name in seen:
            raise TraceError(f"duplicate proposition {name!r}")
        seen.add(name)


def load_trace(data: str, format: str = "csv") -> Trace:
    """Parse trace text in either supported format.

    csv: header row of proposition names, then one 0/1 row per state.
    jsonl: one JSON array of true propositions per line; an optional leading
    object {"alphabet": [...]} pins the alphabet and its order.
    """
    if format == "csv":
        return _load_csv(data)
    if format == "jsonl":
        return _load_jsonl(data)
    raise TraceError(f"unknown trace format {format!r}")


def _load_csv(data: str) -> Trace:
    rows = list(csv.reader(io.StringIO(data)))
    if not rows:
        raise TraceError("empty trace: missing header row")
    header = [cell.strip() for cell in rows[0]]
    _validate_alphabet(header)
    states = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TraceError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        on = []
        for name, cell in zip(header, row):
            cell = cell.strip()
            if cell == "1":
                on.append(name)
            elif cell != "0":
                raise TraceError(f"line {lineno}: cell must be 0 or 1, got {cell!r}")
        states.append(frozenset(on))
    if not states:
        raise TraceError("empty trace: no state rows")
    return Trace(tuple(states), tuple(header))


def _load_jsonl(data: str) -> Trace:
    lines = [(i + 1, ln) for i, ln in enumerate(data.splitlines()) if ln.strip()]
    if not lines:
        raise TraceError("empty trace: no lines")
    alphabet: list[str] = []
    pinned = False
    start = 0
    lineno, first = lines[0]
    try:
        head = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceError(f"line {lineno}: invalid JSON: {exc}") from exc
    if isinstance(head, dict):
        if set(head) != {"alphabet"} or not isinstance(head["alphabet"], list):
            raise TraceError(f"line {lineno}: header object must be {{\"alphabet\": [...]}}")
        alphabet = [str(x) for x in head["alphabet"]]
        _validate_alphabet(alphabet)
        pinned = True
        start = 1
    states = []
    known = set(alphabet)
    for lineno, ln in lines[start:]:
        try:
            arr = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(arr, list) or not all(isinstance(x, str) for x in arr):
            raise TraceError(f"line {lineno}: state must be a JSON array of strings")
        for name in arr:
            if name not in known:
                if pinned:
                    raise TraceError(f"line {lineno}: {name!r} not in the declared alphabet")
                _validate_alphabet([name])
                alphabet.append(name)
                known.add(name)
        states.append(frozenset(arr))
    if not states:
        raise TraceError("empty trace: no state lines")
    return Trace(tuple(states), tuple(alphabet))


def to_csv(trace: Trace) -> str:
    """Serialize to the CSV format; load_trace(to_csv(t)) round-trips."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(trace.alphabet)
    for st in trace.states:
        writer.writerow(["1" if name in st else "0" for name in trace.alphabet])
    return out.getvalue()


def atom_sequence(trace: Trace, name: str, negated: bool = False) -> tuple[bool, ...]:
    """The bit sequence of one proposition along the trace, optionally negated.

    The reserved names _true/_false give constant sequences.
    """
    if name == TRUE_NAME:
        bits = [True] * len(trace)
    elif name == FALSE_NAME:
        bits = [False] * len(trace)
    else:
        require_known(trace, (name,))
        bits = [name in st for st in trace.states]
    if negated:
        bits = [not b for b in bits]
    return tuple(bits)


def require_known(trace: Trace, names) -> None:
    """Raise UnknownProposition for the first name, in sorted order, that is
    neither reserved nor in the trace alphabet."""
    unknown = sorted(set(names).difference(RESERVED_NAMES, trace.alphabet))
    if unknown:
        raise UnknownProposition(f"proposition {unknown[0]!r} is not in the trace alphabet")
