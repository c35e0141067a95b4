"""JSON wire format: exact roundtrips and input validation."""

from __future__ import annotations

import json

import pytest

from mqsp.documents import (
    DocumentError,
    dumps,
    load_pair,
    load_sequence,
    pair_from_document,
    pair_to_document,
    save_pair,
    save_sequence,
    sequence_from_document,
    sequence_to_document,
)
from mqsp.fixtures import counterexample_pair
from mqsp.laurent import MAX_VARIABLES
from helpers import oracle_pair


@pytest.mark.parametrize("seed,m,n", [(0, 1, 4), (1, 2, 5), (2, 3, 0)])
def test_pair_roundtrip_is_exact(seed, m, n):
    pair, _ = oracle_pair(m, n, seed)
    again = pair_from_document(json.loads(dumps(pair_to_document(pair))))
    assert again.p == pair.p
    assert again.q == pair.q


def test_sequence_roundtrip_is_exact():
    _, seq = oracle_pair(3, 9, seed=5)
    again = sequence_from_document(json.loads(dumps(sequence_to_document(seq))))
    assert again == seq


def test_terms_serialized_in_lexicographic_order():
    pair = counterexample_pair()
    doc = pair_to_document(pair)
    exps = [tuple(rec["exponents"]) for rec in doc["P"]]
    assert exps == sorted(exps)


def test_counterexample_reserialized_degrees():
    doc = pair_to_document(counterexample_pair(), {"name": "counterexample-2-2"})
    pair = pair_from_document(json.loads(dumps(doc)))
    assert pair.p.degrees() == (2, 2)
    assert pair.q.degrees() == (2, 2)


def test_metadata_is_optional_and_preserved():
    pair, _ = oracle_pair(1, 2, seed=9)
    doc = pair_to_document(pair, {"name": "x", "source": "y"})
    assert doc["metadata"] == {"name": "x", "source": "y"}
    assert "metadata" not in pair_to_document(pair)


def test_duplicate_exponents_rejected():
    doc = {
        "variables": 1,
        "P": [
            {"exponents": [1], "re": 1.0, "im": 0.0},
            {"exponents": [1], "re": 2.0, "im": 0.0},
        ],
        "Q": [],
    }
    with pytest.raises(DocumentError, match="duplicate"):
        pair_from_document(doc)


def test_wrong_exponent_length_rejected():
    doc = {"variables": 2, "P": [{"exponents": [1], "re": 1.0, "im": 0.0}], "Q": []}
    with pytest.raises(DocumentError):
        pair_from_document(doc)


def test_bad_variables_rejected():
    for bad in (0, -1, "2", None, True):
        with pytest.raises(DocumentError):
            pair_from_document({"variables": bad, "P": [], "Q": []})
    # the count is bounded, and the bound is reported against 'variables'
    pair, sequence = {"P": [], "Q": []}, {"phases": [0.0], "indices": []}
    message = f"^'variables' must be at most {MAX_VARIABLES}, got "
    for bad in (MAX_VARIABLES + 1, 10**30):
        for parse, rest in (pair_from_document, pair), (sequence_from_document, sequence):
            with pytest.raises(DocumentError, match=message + str(bad)):
                parse({"variables": bad, **rest})
    assert pair_from_document({"variables": MAX_VARIABLES, **pair}).variables == MAX_VARIABLES


SHORT_ECHOES = [
    ({"variables": "2", "P": [], "Q": []}, "'variables' must be a positive integer, got '2'"),
    (
        {"variables": 2, "P": [{"exponents": [1], "re": 1.0, "im": 0.0}], "Q": []},
        "P: 'exponents' must be a list of 2 integers, got [1]",
    ),
    (
        {"variables": 1, "P": [], "Q": [{"exponents": [0], "re": 1.0, "im": {"x": [None]}}]},
        "Q: 'im' must be a number, got {'x': [None]}",
    ),
]


@pytest.mark.parametrize("doc,message", SHORT_ECHOES, ids=["variables", "exponents", "im"])
def test_short_bad_values_are_echoed_whole(doc, message):
    with pytest.raises(DocumentError) as caught:
        pair_from_document(doc)
    assert str(caught.value) == message


@pytest.mark.parametrize("field", ["variables", "exponents", "re"])
def test_long_bad_values_are_echoed_short(field):
    huge = list(range(100000))
    term = {"exponents": [0], "re": 1.0, "im": 0.0}
    doc = {"variables": 1, "P": [term], "Q": []}
    if field == "variables":
        doc["variables"] = huge
    else:
        term[field] = huge
    with pytest.raises(DocumentError) as caught:
        pair_from_document(doc)
    message = str(caught.value)
    assert message.endswith(", got " + repr(huge)[:100] + "...")
    assert len(message) < 200


def test_echoes_are_cut_past_100_characters():
    for value, shown in ("x" * 98, repr("x" * 98)), ("x" * 99, repr("x" * 99)[:100] + "..."):
        with pytest.raises(DocumentError) as caught:
            pair_from_document({"variables": value, "P": [], "Q": []})
        assert str(caught.value) == f"'variables' must be a positive integer, got {shown}"
    # a huge variable count is refused against 'variables', before P is read
    doc = {"variables": 10**150, "P": [{"exponents": [0], "re": 1.0, "im": 0.0}], "Q": []}
    with pytest.raises(DocumentError) as caught:
        pair_from_document(doc)
    count = "1" + "0" * 99 + "..."
    assert str(caught.value) == f"'variables' must be at most 1000000, got {count}"


def test_missing_components_rejected():
    with pytest.raises(DocumentError):
        pair_from_document({"variables": 1, "Q": []})
    with pytest.raises(DocumentError):
        pair_from_document("not an object")
    with pytest.raises(DocumentError, match="^Q: term record must be an object$"):
        pair_from_document({"variables": 1, "P": [], "Q": [[0, 1.0, 0.0]]})
    with pytest.raises(DocumentError):
        sequence_from_document({"variables": 1, "phases": [0.0]})


def test_non_numeric_coefficient_rejected():
    doc = {"variables": 1, "P": [{"exponents": [0], "re": "1", "im": 0.0}], "Q": []}
    with pytest.raises(DocumentError):
        pair_from_document(doc)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("component", ["P", "Q"])
def test_oversized_coefficient_rejected(component, part):
    # a JSON integer too large for a double used to escape as an OverflowError
    term = {"exponents": [0], "re": 0.0, "im": 0.0}
    term[part] = 10**400
    doc = {"variables": 1, "P": [{"exponents": [0], "re": 1.0, "im": 0.0}], "Q": []}
    doc[component] = [term]
    message = rf"^{component}: the coefficient at \[0\] is too large for a double$"
    with pytest.raises(DocumentError, match=message):
        pair_from_document(doc)


@pytest.mark.parametrize("component", ["P", "Q"])
def test_nan_coefficient_rejected(component):
    # json reads NaN; the constructor's ValueError comes back as a document error
    doc = {"variables": 1, "P": [{"exponents": [0], "re": 1.0, "im": 0.0}], "Q": []}
    doc[component] = [{"exponents": [0], "re": float("nan"), "im": 0.0}]
    with pytest.raises(DocumentError, match=rf"^{component}: non-finite coefficient"):
        pair_from_document(doc)


def test_oversized_phase_rejected():
    doc = {"variables": 1, "phases": [0.0, -(10**400)], "indices": [1]}
    with pytest.raises(DocumentError, match="within the range of a double"):
        sequence_from_document(doc)


def test_sequence_validation_errors():
    with pytest.raises(DocumentError):
        sequence_from_document({"variables": 1, "phases": [0.0], "indices": [1]})
    with pytest.raises(DocumentError):
        sequence_from_document({"variables": 1, "phases": [0.0, 0.0], "indices": [2]})
    with pytest.raises(DocumentError):
        sequence_from_document({"variables": 1, "phases": "nope", "indices": []})


def test_file_roundtrip(tmp_path):
    pair, seq = oracle_pair(2, 4, seed=17)
    pair_path = tmp_path / "pair.json"
    seq_path = tmp_path / "seq.json"
    save_pair(pair, str(pair_path), {"name": "t"})
    save_sequence(seq, str(seq_path))
    assert load_pair(str(pair_path)).p == pair.p
    assert load_sequence(str(seq_path)) == seq


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"variables": 1, "P": [')
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_pair(str(path))


@pytest.mark.parametrize("load", [load_pair, load_sequence])
@pytest.mark.parametrize(
    "content,message",
    [
        pytest.param(
            b'{"variables": 1, "P": [], "Q": [], "metadata": {"name": "caf\xe9"}}',
            "^'utf-8' codec can't decode byte 0xe9",
            id="not-utf-8",
        ),
        # past the parser's digit limit where it has one, past MAX_VARIABLES
        # where it has none: a DocumentError either way
        pytest.param(
            b'{"variables": ' + b"1" * 5000 + b', "P": [], "Q": []}',
            "digits|'variables' must be at most",
            id="5000-digits",
        ),
    ],
)
def test_undecodable_json_file(load, content, message, tmp_path):
    # the decoding errors are ValueErrors; the loader reports them as its own
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    with pytest.raises(DocumentError, match=message):
        load(str(path))


@pytest.mark.parametrize("load", [load_pair, load_sequence])
def test_deeply_nested_json_file(load, tmp_path):
    # past the parser's recursion limit: a DocumentError, not a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"variables": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(DocumentError, match="^JSON nested too deeply to parse$"):
        load(str(path))
