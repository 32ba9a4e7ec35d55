"""Finite traces: loading, serialization, per-proposition bit columns.

A `Trace` stores its bits as one read-only numpy bool matrix, `columns`, of
shape (len(alphabet), n): row j is proposition alphabet[j] along the trace.
The loaders fill that matrix directly. `atom_sequence` hands a literal its
row (a view) or the row's negation, so the circuit engine reads its input
without a copy. `states`, one frozenset of true propositions per position,
and `row_of`, the row of each name (an O(1) lookup for any alphabet), are
derived on first use and cached.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import TraceError, UnknownProposition
from .formula import IDENT_RE, RESERVED_NAMES, TRUE_NAME


@dataclass(frozen=True, eq=False)
class Trace:
    """A finite sequence of states over a fixed alphabet.

    `columns[j, i]` says whether `alphabet[j]` holds at position i. The
    matrix is read-only: an array that is already read-only is kept as it
    is, anything else is copied. The alphabet order is preserved from the
    input and drives CSV column order. Loaders and `make_trace` reject empty
    traces; the constructor accepts n = 0, which `check` rejects.
    """

    columns: np.ndarray
    alphabet: tuple[str, ...]

    def __post_init__(self):
        columns = np.asarray(self.columns, dtype=bool)
        alphabet = tuple(self.alphabet)
        if columns.ndim != 2 or columns.shape[0] != len(alphabet):
            raise TraceError(
                f"columns of shape {columns.shape} do not fit an alphabet of {len(alphabet)}"
            )
        if columns.flags.writeable:
            columns = columns.copy()
            columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "alphabet", alphabet)

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.columns, other.columns)

    def __hash__(self):
        return hash((self.alphabet, self.columns.shape, self.columns.tobytes()))

    @cached_property
    def states(self) -> tuple[frozenset[str], ...]:
        """The set of true propositions at each position."""
        return tuple(frozenset(compress(self.alphabet, bits)) for bits in self.columns.T.tolist())

    @cached_property
    def row_of(self) -> dict[str, int]:
        """The row of `columns` that holds each name of the alphabet."""
        return {name: j for j, name in enumerate(self.alphabet)}


def make_trace(states, alphabet=None) -> Trace:
    """Validating constructor. `states` is an iterable of proposition
    collections; alphabet defaults to first-appearance order."""
    state_lists = [list(st) for st in states]
    if not state_lists:
        raise TraceError("a trace must contain at least one state")
    if alphabet is None:
        alphabet = dict.fromkeys(name for st in state_lists for name in st)
    names = list(alphabet)
    _validate_alphabet(names)
    index = {name: j for j, name in enumerate(names)}
    columns = np.zeros((len(names), len(state_lists)), dtype=bool)
    for i, st in enumerate(state_lists):
        for name in st:
            if name not in index:
                raise TraceError(f"state {i} uses {name!r}, not in the alphabet")
            columns[index[name], i] = True
    return Trace(columns, tuple(names))


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

    csv: header row of proposition names, then one 0/1 row per state. The
    layout `to_csv` writes loads in one numpy pass; any other spelling
    (padded or quoted cells, CRLF) goes through the `csv` module.
    jsonl: one JSON array of true propositions per line; an optional leading
    object {"alphabet": [...]} pins the alphabet and its order.
    """
    if format == "csv":
        trace = _load_plain_csv(data)
        return _load_csv_rows(data) if trace is None else trace
    if format == "jsonl":
        return _load_jsonl(data)
    raise TraceError(f"unknown trace format {format!r}")


def _load_plain_csv(data: str) -> Trace | None:
    """The `to_csv` layout, or None for any other text: a header of plain
    names, then rows of 0/1 cells joined by commas, each ended by a newline
    (the last one may be missing)."""
    head, _, body = data.partition("\n")
    header = head.split(",")
    if not body or not all(IDENT_RE.match(name) for name in header):
        return None
    if not body.endswith("\n"):
        body += "\n"
    try:
        raw = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    # The model row "1,1,...,1\n": a byte c is a 0/1 cell iff c | 1 == "1",
    # and ",", "\n" (both even) must match exactly.
    model = np.frombuffer(",".join("1" * len(header)).encode() + b"\n", dtype=np.uint8)
    if len(raw) % len(model):
        return None
    cells = np.frombuffer(raw, dtype=np.uint8).reshape(-1, len(model))
    if not ((cells | (model & 1)) == model).all():
        return None
    _validate_alphabet(header)
    return Trace((cells[:, 0::2] == ord("1")).T, tuple(header))


def _load_csv_rows(data: str) -> Trace:
    # each record is numbered by the physical line it starts on: a quoted
    # cell may span several lines, and the reader's line_num counts them
    reader = csv.reader(io.StringIO(data))
    rows = []
    try:
        end = 0
        for row in reader:
            rows.append((end + 1, row))
            end = reader.line_num
    except csv.Error as exc:
        raise TraceError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise TraceError("empty trace: missing header row")
    header = [cell.strip() for cell in rows[0][1]]
    _validate_alphabet(header)
    bits = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise TraceError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        cells = [cell.strip() for cell in row]
        for cell in cells:
            if cell not in ("0", "1"):
                raise TraceError(f"line {lineno}: cell must be 0 or 1, got {cell!r}")
        bits.append([cell == "1" for cell in cells])
    if not bits:
        raise TraceError("empty trace: no state rows")
    return Trace(np.array(bits, dtype=bool).T, tuple(header))


def _load_jsonl(data: str) -> Trace:
    # lines are numbered by "\n" alone; str.splitlines would also break at
    # form feeds, U+2028 and other separators that text editors do not count
    lines = [(i + 1, ln) for i, ln in enumerate(data.split("\n")) if ln.strip()]
    if not lines:
        raise TraceError("empty trace: no lines")
    index: dict[str, int] = {}
    pinned = False
    start = 0
    lineno, first = lines[0]
    head = _json_line(lineno, first)
    if isinstance(head, dict):
        names = head.get("alphabet")
        if set(head) != {"alphabet"} or not isinstance(names, list):
            raise TraceError(f"line {lineno}: header object must be {{\"alphabet\": [...]}}")
        if not all(isinstance(x, str) for x in names):
            raise TraceError(f"line {lineno}: alphabet entries must be strings")
        _validate_alphabet(names)
        index = {name: j for j, name in enumerate(names)}
        pinned = True
        start = 1
    on_name: list[int] = []
    on_state: list[int] = []
    n = 0
    for lineno, ln in lines[start:]:
        arr = _json_line(lineno, ln)
        if not isinstance(arr, list) or not all(isinstance(x, str) for x in arr):
            raise TraceError(f"line {lineno}: state must be a JSON array of strings")
        for name in arr:
            if name not in index:
                if pinned:
                    raise TraceError(f"line {lineno}: {name!r} not in the declared alphabet")
                _validate_alphabet([name])
                index[name] = len(index)
            on_name.append(index[name])
            on_state.append(n)
        n += 1
    if not n:
        raise TraceError("empty trace: no state lines")
    columns = np.zeros((len(index), n), dtype=bool)
    columns[on_name, on_state] = True
    return Trace(columns, tuple(index))


def _json_line(lineno: int, line: str):
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceError(f"line {lineno}: invalid JSON: {exc}") from None


def to_csv(trace: Trace) -> str:
    """Serialize to the CSV layout that loads in one numpy pass: the names
    joined by commas, then one row of 0/1 cells per state, every line ended
    by a newline. load_trace(to_csv(t)) round-trips."""
    k, n = trace.columns.shape
    text = np.full((n, max(2 * k, 1)), ord(","), dtype=np.uint8)
    text[:, 0 : 2 * k : 2] = np.where(trace.columns.T, ord("1"), ord("0"))
    text[:, -1] = ord("\n")
    return ",".join(trace.alphabet) + "\n" + text.tobytes().decode("ascii")


def atom_sequence(trace: Trace, name: str, negated: bool = False) -> np.ndarray:
    """The bit column of one proposition along the trace, optionally negated,
    as a read-only bool array. Unnegated, it is a view of `trace.columns`.

    The reserved names _true/_false give constant columns.
    """
    if name in RESERVED_NAMES:
        bits = np.full(len(trace), (name == TRUE_NAME) != negated)
    else:
        require_known(trace, (name,))
        bits = trace.columns[trace.row_of[name]]
        if not negated:
            return bits
        bits = ~bits
    bits.flags.writeable = False
    return bits


def require_known(trace: Trace, names) -> None:
    """Raise UnknownProposition for the first name, in sorted order, that is
    neither reserved nor in the trace alphabet."""
    unknown = sorted({name for name in names if name not in trace.row_of} - RESERVED_NAMES)
    if unknown:
        raise UnknownProposition(f"proposition {unknown[0]!r} is not in the trace alphabet")
