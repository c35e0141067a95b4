"""JSON documents for pairs and sequences: the on-disk wire format.

A pair document looks like::

    {"variables": 2,
     "P": [{"exponents": [2, 2], "re": 0.06, "im": 0.0}, ...],
     "Q": [...],
     "metadata": {"name": "...", "source": "..."}}

and a sequence document like::

    {"variables": 2, "phases": [0.0, 1.5707963267948966], "indices": [1]}

Exponents are signed integers (one per variable), numbers are JSON doubles,
indices are 1-based.  Terms are serialized in lexicographic exponent order,
so serialization is deterministic and parse(serialize(x)) == x exactly.
"""

from __future__ import annotations

import json

from .laurent import MAX_VARIABLES, LaurentPoly, _shown, _variables
from .su2 import MqspSequence, PQPair


class DocumentError(ValueError):
    """Raised when an on-disk document fails to parse or validate."""


# -- encoding ---------------------------------------------------------------


def poly_to_terms(poly: LaurentPoly) -> list[dict[str, object]]:
    return [
        {"exponents": list(exps), "re": coeff.real, "im": coeff.imag}
        for exps, coeff in poly
    ]


def pair_to_document(pair: PQPair, metadata: dict[str, object] | None = None) -> dict[str, object]:
    doc: dict[str, object] = {
        "variables": pair.variables,
        "P": poly_to_terms(pair.p),
        "Q": poly_to_terms(pair.q),
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def sequence_to_document(seq: MqspSequence) -> dict[str, object]:
    return {
        "variables": seq.variables,
        "phases": list(seq.phases),
        "indices": list(seq.indices),
    }


# -- decoding ---------------------------------------------------------------
# Each check formats its message only when it fails: a pair document can hold
# thousands of terms.  A message shows a bad value by ``laurent._shown``.


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_variables(doc: object) -> int:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    variables = doc.get("variables")
    if not (_is_int(variables) and variables >= 1):
        raise DocumentError(f"'variables' must be a positive integer, got {_shown(variables)}")
    try:
        return _variables(variables)
    except ValueError:
        raise DocumentError(
            f"'variables' must be at most {MAX_VARIABLES}, got {_shown(variables)}"
        ) from None


def poly_from_terms(records: object, variables: int, label: str) -> LaurentPoly:
    if not isinstance(records, list):
        raise DocumentError(f"'{label}' must be a list of term records")
    terms: dict[tuple[int, ...], complex] = {}
    for record in records:
        if not isinstance(record, dict):
            raise DocumentError(f"{label}: term record must be an object")
        exps = record.get("exponents")
        if not (isinstance(exps, list) and len(exps) == variables and all(map(_is_int, exps))):
            raise DocumentError(
                f"{label}: 'exponents' must be a list of {_shown(variables)} integers, "
                f"got {_shown(exps)}"
            )
        key = tuple(exps)
        if key in terms:
            raise DocumentError(f"{label}: duplicate exponent vector {_shown(exps)}")
        re, im = record.get("re"), record.get("im")
        if not (_is_number(re) and _is_number(im)):
            name, value = ("im", im) if _is_number(re) else ("re", re)
            raise DocumentError(f"{label}: '{name}' must be a number, got {_shown(value)}")
        try:
            terms[key] = complex(re, im)
        except OverflowError:
            raise DocumentError(
                f"{label}: the coefficient at {_shown(exps)} is too large for a double"
            ) from None
    try:
        # keys and values are checked above: only the cut is left to run
        return LaurentPoly._from_arithmetic(variables, terms, None)
    except ValueError as exc:
        raise DocumentError(f"{label}: {exc}") from exc


def pair_from_document(doc: object) -> PQPair:
    variables = _parse_variables(doc)
    p = poly_from_terms(doc.get("P"), variables, "P")
    q = poly_from_terms(doc.get("Q"), variables, "Q")
    return PQPair(p, q)


def sequence_from_document(doc: object) -> MqspSequence:
    variables = _parse_variables(doc)
    phases = doc.get("phases")
    indices = doc.get("indices")
    if not (isinstance(phases, list) and all(map(_is_number, phases))):
        raise DocumentError("'phases' must be a list of numbers")
    if not (isinstance(indices, list) and all(map(_is_int, indices))):
        raise DocumentError("'indices' must be a list of integers")
    try:
        return MqspSequence(variables, tuple(phases), tuple(indices))
    except OverflowError:
        raise DocumentError("'phases' must be numbers within the range of a double") from None
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# -- files ------------------------------------------------------------------


def dumps(doc: dict[str, object]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(path: str) -> object:
    """The parsed file; a parse or decoding failure is a DocumentError that,
    like every other, leaves naming the file to the caller."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON ({exc})") from exc
    except RecursionError:
        raise DocumentError("JSON nested too deeply to parse") from None
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise DocumentError(str(exc)) from exc


def load_pair(path: str) -> PQPair:
    return pair_from_document(_load_json(path))


def load_sequence(path: str) -> MqspSequence:
    return sequence_from_document(_load_json(path))


def save_pair(pair: PQPair, path: str, metadata: dict[str, object] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(pair_to_document(pair, metadata)))


def save_sequence(seq: MqspSequence, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(sequence_to_document(seq)))
