import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcheck.errors import TraceError, UnknownProposition
from pathcheck.trace import Trace, atom_sequence, load_trace, make_trace, to_csv


@st.composite
def column_traces(draw):
    """Traces with 0..4 propositions and 1..12 states."""
    k = draw(st.integers(0, 4))
    n = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    return Trace(np.array(bits, dtype=bool).reshape(k, n), tuple(f"p{j}" for j in range(k)))


def to_jsonl(tr: Trace) -> str:
    lines = [json.dumps({"alphabet": list(tr.alphabet)})]
    lines += [json.dumps([p for p in tr.alphabet if p in st]) for st in tr.states]
    return "\n".join(lines) + "\n"


CANONICAL = "p,q\n1,0\n0,1\n1,1\n"


class TestCsv:
    def test_example(self):
        tr = load_trace("p,q\n1,0\n0,1")
        assert len(tr) == 2
        assert tr.alphabet == ("p", "q")
        assert tr.states == (frozenset({"p"}), frozenset({"q"}))

    def test_round_trip(self):
        tr = load_trace("p,q,r\n1,0,1\n0,0,0\n1,1,1\n")
        assert load_trace(to_csv(tr)) == tr

    def test_strips_cell_whitespace(self):
        tr = load_trace("p, q\n1, 0\n")
        assert tr.alphabet == ("p", "q")

    def test_missing_state_rows(self):
        with pytest.raises(TraceError, match="no state rows"):
            load_trace("p,q\n")

    def test_empty_input(self):
        with pytest.raises(TraceError, match="header"):
            load_trace("")

    def test_ragged_row_reports_line(self):
        with pytest.raises(TraceError, match="line 3"):
            load_trace("p,q\n1,0\n1\n")

    def test_bad_cell_reports_line(self):
        with pytest.raises(TraceError, match="line 2"):
            load_trace("p\n2\n")

    def test_duplicate_header(self):
        with pytest.raises(TraceError, match="duplicate"):
            load_trace("p,p\n1,1\n")

    def test_reserved_name_rejected(self):
        with pytest.raises(TraceError, match="reserved"):
            load_trace("_true\n1\n")

    def test_invalid_name_rejected(self):
        with pytest.raises(TraceError, match="invalid"):
            load_trace("2p\n1\n")


class TestJsonl:
    def test_example_with_header(self):
        tr = load_trace('{"alphabet":["p"]}\n["p"]\n[]', format="jsonl")
        assert len(tr) == 2
        assert tr.alphabet == ("p",)
        assert tr.states == (frozenset({"p"}), frozenset())

    def test_alphabet_from_first_appearance(self):
        tr = load_trace('["q"]\n["p","q"]\n[]', format="jsonl")
        assert tr.alphabet == ("q", "p")

    def test_pinned_alphabet_rejects_unknown(self):
        with pytest.raises(TraceError, match="line 2"):
            load_trace('{"alphabet":["p"]}\n["x"]', format="jsonl")

    def test_invalid_json_reports_line(self):
        with pytest.raises(TraceError, match="line 2"):
            load_trace('["p"]\nnot json', format="jsonl")

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028"])
    def test_lines_are_numbered_by_newlines_only(self, sep):
        # str.splitlines breaks at these too; a line holding only one of
        # them is blank, and the next line is still the third
        with pytest.raises(TraceError, match="^line 3: invalid JSON"):
            load_trace(f'["p"]\n{sep}\nbad', format="jsonl")

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028"])
    def test_separator_inside_a_line_is_that_lines_error(self, sep):
        # neither is JSON whitespace, so the first line is not one JSON value
        with pytest.raises(TraceError, match="^line 1: invalid JSON"):
            load_trace(f'["p"]{sep}["q"]\nbad', format="jsonl")

    def test_state_must_be_string_array(self):
        with pytest.raises(TraceError, match="array of strings"):
            load_trace("[1,2]", format="jsonl")

    def test_header_only(self):
        with pytest.raises(TraceError, match="no state lines"):
            load_trace('{"alphabet":["p"]}', format="jsonl")

    def test_empty(self):
        with pytest.raises(TraceError):
            load_trace("", format="jsonl")

    def test_bad_header_shape(self):
        with pytest.raises(TraceError, match="header object"):
            load_trace('{"alphabet":["p"],"x":1}\n["p"]', format="jsonl")

    @pytest.mark.parametrize("entry", ["null", "true", "1", '["p"]'])
    def test_header_entries_must_be_strings(self, entry):
        with pytest.raises(TraceError, match="^line 1: alphabet entries must be strings"):
            load_trace(f'{{"alphabet":[{entry}]}}\n[]', format="jsonl")

    def test_deep_nesting_is_a_trace_error(self):
        with pytest.raises(TraceError, match="line 2: invalid JSON"):
            load_trace('["p"]\n' + "[" * 100_000, format="jsonl")


def test_unknown_format():
    with pytest.raises(TraceError, match="unknown trace format"):
        load_trace("p\n1\n", format="xml")


class TestMakeTrace:
    def test_default_alphabet_order(self):
        tr = make_trace([["b"], ["a", "b"]])
        assert tr.alphabet == ("b", "a")

    def test_explicit_alphabet(self):
        tr = make_trace([{"a"}], ["a", "b"])
        assert tr.alphabet == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(TraceError, match="at least one state"):
            make_trace([])

    def test_unknown_proposition_in_state(self):
        with pytest.raises(TraceError, match="state 1"):
            make_trace([{"a"}, {"x"}], ["a"])


class TestAtomSequence:
    def test_basic_and_negated(self):
        tr = load_trace("p,q\n1,0\n0,1\n1,1\n")
        assert atom_sequence(tr, "p").tolist() == [True, False, True]
        assert atom_sequence(tr, "p", negated=True).tolist() == [False, True, False]
        assert atom_sequence(tr, "q").tolist() == [False, True, True]

    def test_reserved_names(self):
        tr = load_trace("p\n0\n1\n")
        assert atom_sequence(tr, "_true").tolist() == [True, True]
        assert atom_sequence(tr, "_false").tolist() == [False, False]
        assert atom_sequence(tr, "_false", negated=True).tolist() == [True, True]

    def test_unknown_raises(self):
        tr = load_trace("p\n1\n")
        with pytest.raises(UnknownProposition, match="'q'"):
            atom_sequence(tr, "q")


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(column_traces())
    def test_csv_round_trip(self, tr):
        text = to_csv(tr)
        back = load_trace(text)
        assert back == tr
        assert len(back) == len(tr)
        # the layout is the one csv.writer produces from the states
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(tr.alphabet)
        for st in tr.states:
            writer.writerow(["1" if p in st else "0" for p in tr.alphabet])
        assert text == out.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(column_traces())
    def test_jsonl_round_trip(self, tr):
        back = load_trace(to_jsonl(tr), format="jsonl")
        assert back == tr
        assert len(back) == len(tr)

    def test_empty_alphabet_keeps_length(self):
        tr = Trace(np.zeros((0, 3), dtype=bool), ())
        assert to_csv(tr) == "\n\n\n\n"
        assert len(load_trace(to_csv(tr))) == 3
        assert len(load_trace('{"alphabet":[]}\n[]\n[]\n[]', format="jsonl")) == 3

    @pytest.mark.parametrize(
        "text",
        [
            " p , q\n 1,0 \n0, 1\n1,1\n",
            "p,q\r\n1,0\r\n0,1\r\n1,1\r\n",
            '"p","q"\n"1",0\n0,"1"\n1,1\n',
            "p,q\n1,0\n0,1\n1,1",
        ],
        ids=["padded", "crlf", "quoted", "no-final-newline"],
    )
    def test_other_spellings_give_same_columns(self, text):
        tr = load_trace(text)
        assert tr == load_trace(CANONICAL)
        assert tr.columns.tolist() == [[True, False, True], [False, True, True]]

    @pytest.mark.parametrize("last", ["1,2", "1,2\n", "1", "1\n", "1,0,1\n", "1, \n"])
    def test_defect_in_last_line_reports_line(self, last):
        body = "1,0\n0,1\n" * 20
        with pytest.raises(TraceError, match="^line 42: "):
            load_trace("p,q\n" + body + last)

    def test_record_numbered_by_its_first_physical_line(self):
        # the quoted cell of the second record spans lines 2 and 3
        with pytest.raises(TraceError, match="^line 4: cell must be 0 or 1"):
            load_trace('p,q\n"1\n",0\n1,x\n')
        with pytest.raises(TraceError, match="^line 2: expected 2 cells"):
            load_trace('p,q\n"1\n"\n1,0\n')

    def test_csv_module_error_is_a_trace_error(self):
        with pytest.raises(TraceError, match="line 2: "):
            load_trace("p\n1\r0\n")

    def test_canonical_text_bypasses_csv_module(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on canonical text")

        monkeypatch.setattr(csv, "reader", refuse)
        tr = make_trace([{"a"}, set(), {"a", "b"}], ["a", "b"])
        assert load_trace(to_csv(tr)) == tr
        assert load_trace(to_csv(tr).rstrip("\n")) == tr

    def test_columns_and_sequences_are_read_only(self):
        bits = np.array([[True, False, True]])
        tr = Trace(bits, ("p",))
        bits[0, 0] = False  # the trace keeps its own copy
        assert tr.columns.tolist() == [[True, False, True]]
        for arr in (
            tr.columns,
            load_trace(CANONICAL).columns,
            load_trace(" p\n1\n").columns,
            load_trace('["p"]', format="jsonl").columns,
            atom_sequence(tr, "p"),
            atom_sequence(tr, "p", negated=True),
            atom_sequence(tr, "_true"),
            atom_sequence(tr, "_false", negated=True),
        ):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = False

    def test_columns_must_fit_alphabet(self):
        with pytest.raises(TraceError, match="do not fit"):
            Trace(np.zeros((2, 3), dtype=bool), ("p",))
