"""Constructivity decision and sequence synthesis for multivariable quantum
signal processing.

Given a pair (P, Q) of m-variable Laurent polynomials, decide whether it is
the top row of an n-step interleaved product of per-variable signal
operators and z-rotations, and when it is, extract one valid choice of angle
and index parameters realizing it.

The public names load on first use (PEP 562): ``import mqsp`` loads none of
the submodules, and reading ``mqsp.decide`` loads the decision engine.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name.  ``__getattr__`` runs only
# for a name not yet in the module globals, and caches what it imports there.
_SOURCES = {
    "ANGLE_MODES": "oracle",
    "BaseAccept": "engine",
    "DecisionTrace": "engine",
    "EPS": "laurent",
    "GENERATOR": "oracle",
    "IdentityPad": "engine",
    "LaurentPoly": "laurent",
    "Mat2": "su2",
    "MqspSequence": "su2",
    "NecessaryReport": "engine",
    "OracleConfig": "oracle",
    "PhaseReduction": "engine",
    "PQPair": "su2",
    "Reject": "engine",
    "RoundtripReport": "oracle",
    "SynthesisResult": "engine",
    "check_necessary": "engine",
    "decide": "engine",
    "effective_degrees": "engine",
    "evaluate_sequence": "su2",
    "find_phase": "engine",
    "half_diff": "su2",
    "half_sum": "su2",
    "identity_matrix": "su2",
    "pair_to_matrix": "su2",
    "qsp1_characterize": "engine",
    "random_sequence": "oracle",
    "reduce_step": "engine",
    "roundtrip_check": "oracle",
    "run_decision": "engine",
    "signal_operator": "su2",
    "synthesize": "engine",
    "term_bound": "engine",
    "z_rotation": "su2",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
