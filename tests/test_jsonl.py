"""Tests for the shared JSON-lines reader and the workload and report readers.

Every malformed input file must fail as :class:`ParseError` naming the file
and line, never as a raw ``KeyError``/``ValueError`` from deep inside a
reader, and never load non-finite numbers or negative ids.
"""

import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgesched import jsonl
from edgesched.errors import ConfigError, ParseError
from edgesched.harness import MetricsReport, MetricsWindow, emit_report, load_report
from edgesched.workload import (
    WorkloadGenerator,
    generate_topics,
    load_workload,
    save_workload,
)

DIM = 8


# -- the shared reader -------------------------------------------------------


class TestRows:
    def test_yields_objects_with_line_numbers_skipping_blanks(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"b": 2}\n')
        assert list(jsonl.rows(path)) == [
            (f"{path}: line 1", {"a": 1}),
            (f"{path}: line 4", {"b": 2}),
        ]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("{oops", "invalid JSON"),
            ("[" * 100_000, "invalid JSON"),
            ("[1, 2]", "expected a JSON object"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, reason):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: {reason}")):
            list(jsonl.rows(path))

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n\xff\xfe\n')
        with pytest.raises(ParseError, match="not a text file"):
            list(jsonl.rows(path))


class TestConverters:
    @pytest.mark.parametrize(
        "convert, value, expected",
        [
            (jsonl.integer, 3, 3),
            (jsonl.integer, 7, 7),
            (jsonl.integer, 2**63 - 1, 2**63 - 1),
            (jsonl.integer, 4.0, 4),
            (jsonl.integer, 2**53 + 1, 2**53 + 1),
            (jsonl.number, -1.5, -1.5),
            (jsonl.number, 0.25, 0.25),
            (jsonl.number, 3, 3.0),
            (jsonl.text, "abc", "abc"),
        ],
    )
    def test_accepts(self, convert, value, expected):
        out = convert("w", {"k": value}, "k")
        assert type(out) is type(expected) and out == expected

    def test_vector(self):
        out = jsonl.vector("w", {"k": [1, 2.5]}, "k")
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.5]

    def test_integer_lower_bound(self):
        assert jsonl.integer("w", {"k": -1}, "k", low=-1) == -1
        expected = re.escape("w: k: expected an integer in [1, ")
        with pytest.raises(ParseError, match=expected):
            jsonl.integer("w", {"k": 0}, "k", low=1)

    @pytest.mark.parametrize(
        "convert, value",
        [
            (jsonl.integer, -1),
            (jsonl.integer, 2**63),
            (jsonl.integer, "x"),
            (jsonl.integer, None),
            (jsonl.integer, [1]),
            (jsonl.integer, math.inf),
            (jsonl.integer, math.nan),
            (jsonl.number, math.nan),
            (jsonl.number, -math.inf),
            (jsonl.number, "1e999"),
            (jsonl.number, 10**400),
            (jsonl.number, {"a": 1}),
            (jsonl.vector, [1.0, math.nan]),
            (jsonl.vector, [math.inf]),
            (jsonl.vector, [[1.0], [2.0]]),
            (jsonl.vector, 1.0),
            (jsonl.vector, None),
            (jsonl.vector, ["a"]),
            (jsonl.vector, [10**400]),
            (jsonl.vector, [[1.0], 2.0]),
            (jsonl.text, 5),
            (jsonl.text, None),
            # JSON numbers only: no strings, no booleans, no fractional integers
            (jsonl.integer, "7"),
            (jsonl.integer, True),
            (jsonl.integer, False),
            (jsonl.integer, 2.9),
            (jsonl.integer, 10**400),
            (jsonl.number, "1.5"),
            (jsonl.number, False),
            (jsonl.number, True),
            (jsonl.vector, ["1", 2]),
            (jsonl.vector, [True, 0.5]),
            (jsonl.vector, [0.5, False]),
            (jsonl.vector, "12"),
        ],
    )
    def test_rejects(self, convert, value):
        with pytest.raises(ParseError, match="^w: k: expected "):
            convert("w", {"k": value}, "k")

    @pytest.mark.parametrize(
        "convert", [jsonl.integer, jsonl.number, jsonl.vector, jsonl.text]
    )
    def test_missing(self, convert):
        with pytest.raises(ParseError, match="^w: k: missing$"):
            convert("w", {"j": 1}, "k")


# -- writer-produced files of each format ------------------------------------


def write_workload(path):
    gen = WorkloadGenerator(generate_topics(6, DIM, seed=0), 2, 2, 0.5, 0.05, seed=0)
    save_workload(path, list(gen.stream(2)))  # 4 rows


def write_report(path):
    windows = [
        MetricsWindow(phase, 0, 5, -4.0 + i, -0.1, 2.0, 0.4, 0.01)
        for i, phase in enumerate(("train", "test"))
    ]
    report = MetricsReport("greedy-0.3", "nearest", 42, {"a.b": "1"}, windows)
    emit_report(report, path)


READERS = {
    "workload": (write_workload, "w.jsonl", lambda p: load_workload(p, dim=DIM)),
    "report-csv": (write_report, "r.csv", load_report),
}


# -- regressions: each of these escaped as a raw exception or loaded ---------


def set_field(key, value):
    return lambda row: {**row, key: value}


def drop_field(key):
    return lambda row: {k: v for k, v in row.items() if k != key}


def set_item(key, i, value):
    def edit(row):
        return {**row, key: [value if j == i else x for j, x in enumerate(row[key])]}

    return edit


@pytest.mark.parametrize(
    "reader, lineno, edit, reason",
    [
        ("workload", 1, set_field("id", "x"), "id: expected"),
        ("workload", 4, set_field("id", -1), "id: expected"),
        ("workload", 2, set_field("slot", "3"), "slot: expected an integer"),
        ("workload", 3, set_field("server", True), "server: expected an integer"),
        ("workload", 1, set_field("topic", 1.5), "topic: expected an integer"),
        ("workload", 2, set_item("question_vec", 3, math.nan), "question_vec: expected"),
        ("workload", 3, set_item("reference_vec", 0, math.inf), "reference_vec: expected"),
        ("workload", 2, set_item("question_vec", 0, 1e200), "question_vec norm overflows"),
        ("workload", 3, drop_field("slot"), "slot: missing"),
        ("workload", 2, set_item("question_vec", 2, "0.5"), "question_vec: expected a flat list"),
        ("workload", 4, set_item("reference_vec", 1, False), "reference_vec: expected a flat list"),
    ],
)
def test_malformed_row_names_path_and_line(tmp_path, reader, lineno, edit, reason):
    write, name, load = READERS[reader]
    path = tmp_path / name
    write(path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line {lineno}: {reason}")):
        load(path)


def test_csv_report_bad_seed_names_line(tmp_path):
    path = tmp_path / "r.csv"
    write_report(path)
    text = path.read_text()
    assert text.splitlines()[3] == "# seed = 42"
    path.write_text(text.replace("# seed = 42", "# seed = x"))
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 4: seed: expected")):
        load_report(path)


@pytest.mark.parametrize(
    "row, field",
    [
        ("test,0,5.5,-3.0,-0.1,2.0,0.4,0.01", "count"),
        ("test,0,true,-3.0,-0.1,2.0,0.4,0.01", "count"),
        ("test,0.5,5,-3.0,-0.1,2.0,0.4,0.01", "index"),
        ("test,0,5,x,-0.1,2.0,0.4,0.01", "mean_reward"),
        ("test,0,5,-3.0,-0.1,false,0.4,0.01", "mean_delay"),
    ],
)
def test_csv_report_bad_cell_names_field(tmp_path, row, field):
    path = tmp_path / "r.csv"
    write_report(path)
    lines = path.read_text().splitlines()
    assert lines[-1] == "test,0,5,-3.0,-0.1,2.0,0.4,0.01"
    lines[-1] = row
    path.write_text("\n".join(lines) + "\n")
    reason = f"{path}: line {len(lines)}: bad window row: {field}: expected"
    with pytest.raises(ParseError, match=re.escape(reason)):
        load_report(path)


# -- property: one mutated line never escapes as another exception ------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
# Field values: any JSON value, or a list of numbers of about a vector's length.
_VALUES = _JSON | st.lists(st.floats() | st.integers(), max_size=DIM + 2)


def mutations(line: str):
    """Strategy over replacements for ``line``: a splice of random text, any
    JSON value, and for a JSON object one field set to any value or dropped."""
    splice = st.tuples(
        st.integers(0, len(line)), st.integers(0, len(line)), _TEXT
    ).map(lambda t: line[: min(t[:2])] + t[2] + line[max(t[:2]) :])
    out = splice | _JSON.map(json.dumps)
    if not line.startswith("{"):
        return out
    row = json.loads(line)
    keys = st.sampled_from(sorted(row))
    set_any = st.tuples(keys, _VALUES).map(lambda kv: json.dumps({**row, kv[0]: kv[1]}))
    drop = keys.map(lambda k: json.dumps(drop_field(k)(row)))
    return out | set_any | drop


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_mutated_line_loads_or_raises_parse_error(reader, data):
    write, name, load = READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path)
        lines = path.read_text().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = data.draw(mutations(lines[i]), label="replacement")
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # renormalizing workload vectors
            try:
                load(path)
            except ParseError:
                pass
            except ConfigError as exc:
                # The one documented exception: a workload of the wrong dimension.
                assert reader == "workload" and "dimension" in str(exc)
