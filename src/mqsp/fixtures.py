"""Built-in pairs: smoke inputs and the non-constructible witness.

``counterexample_pair`` is the classic two-variable pair that satisfies every
necessary-condition filter (inversion symmetries, degree equality, parity,
unit norm) yet is constructible in no number of steps: at the only admissible
step count (4, the degree sum) neither variable's top coefficient slices are
proportional by a unimodular factor, and larger counts reduce back to the
same stalemate.
"""

from __future__ import annotations

import math

from .laurent import LaurentPoly
from .su2 import PQPair, half_diff, half_sum


def identity_pair() -> PQPair:
    """(1, 0) at arity 1: the zero-step pair with phase 0."""
    return PQPair(LaurentPoly.constant(1, 1.0), LaurentPoly.zero(1))


def signal_pair() -> PQPair:
    """((a + a^-1)/2, (a - a^-1)/2): the top row of a single signal operator."""
    return PQPair(half_sum(1, 1), half_diff(1, 1))


def counterexample_pair() -> PQPair:
    """Degree-(2, 2) two-variable pair rejected at every step count.

    Coefficients are (6/25) sqrt(37/493) times exact Gaussian rationals,
    multiplied out in double precision.
    """
    pref = (6.0 / 25.0) * math.sqrt(37.0 / 493.0)

    p_terms = {
        (2, 2): 1.0 + 0.0j,
        (-2, -2): 1.0 + 0.0j,
        (0, 2): -complex(122.0 / 37.0, 8.0 / 37.0),
        (0, -2): -complex(122.0 / 37.0, 8.0 / 37.0),
        (-2, 2): complex(114.0 / 37.0, 56.0 / 37.0),
        (2, -2): complex(114.0 / 37.0, 56.0 / 37.0),
        (2, 0): complex(362.0 / 111.0, -248.0 / 111.0),
        (-2, 0): complex(362.0 / 111.0, -248.0 / 111.0),
        (0, 0): complex(692.0 / 111.0, -719.0 / 222.0),
    }
    q_terms = {
        (2, 2): 1.0 + 0.0j,
        (-2, -2): -1.0 + 0.0j,
        (0, 2): -complex(122.0 / 37.0, 66.0 / 37.0),
        (0, -2): complex(122.0 / 37.0, 66.0 / 37.0),
        (-2, 2): complex(56.0 / 37.0, 114.0 / 37.0),
        (2, -2): -complex(56.0 / 37.0, 114.0 / 37.0),
        (2, 0): complex(362.0 / 111.0, -418.0 / 111.0),
        (-2, 0): -complex(362.0 / 111.0, -418.0 / 111.0),
    }
    p = LaurentPoly(2, {k: pref * c for k, c in p_terms.items()})
    q = LaurentPoly(2, {k: pref * c for k, c in q_terms.items()})
    return PQPair(p, q)


#: Each built-in pair by name: its builder and the source its document names.
FIXTURES = {
    "identity": (identity_pair, "P = 1, Q = 0"),
    "signal-operator": (signal_pair, "P = (a + a^-1)/2, Q = (a - a^-1)/2"),
    "counterexample-2-2": (
        counterexample_pair,
        "(6/25) sqrt(37/493) times exact Gaussian-rational coefficients; "
        "see mqsp.fixtures.counterexample_pair for the symbolic values",
    ),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(FIXTURES))


def fixture_pair(name: str) -> PQPair:
    try:
        builder, _ = FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    return builder()


def fixture_metadata(name: str) -> dict[str, str]:
    return {"name": name, "source": FIXTURES[name][1]}
