"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

from mqsp import (
    LaurentPoly,
    MqspSequence,
    OracleConfig,
    PQPair,
    evaluate_sequence,
    random_sequence,
)


def oracle_pair(variables, steps, seed, angle_mode="continuous"):
    """Sequence drawn from the seed plus the pair it evaluates to."""
    seq = random_sequence(OracleConfig(variables, steps, seed, angle_mode))
    return evaluate_sequence(seq), seq


def perturb_pair(pair: PQPair, seed: int, magnitude: float = 1e-3) -> PQPair:
    """Bump one stored coefficient of P or Q by ``magnitude`` in a
    deterministic pseudo-random direction.  P is never empty, so there is
    always a coefficient to hit."""
    rng = random.Random(seed)
    candidates = [("p", k) for k in sorted(pair.p.terms)]
    candidates += [("q", k) for k in sorted(pair.q.terms)]
    which, key = candidates[rng.randrange(len(candidates))]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    delta = magnitude * complex(math.cos(angle), math.sin(angle))
    if which == "p":
        terms = dict(pair.p.terms)
        terms[key] += delta
        return PQPair(LaurentPoly(pair.p.variables, terms), pair.q)
    terms = dict(pair.q.terms)
    terms[key] += delta
    return PQPair(pair.p, LaurentPoly(pair.q.variables, terms))


def extend_sequence(seq: MqspSequence, index: int, phase: float) -> MqspSequence:
    """Append one signal operator plus z-rotation to a sequence."""
    return MqspSequence(
        seq.variables, seq.phases + (phase,), seq.indices + (index,)
    )


def fingerprint(poly: LaurentPoly) -> list[tuple[tuple[int, ...], str]]:
    """Terms in storage order with the repr of each coefficient: equal
    fingerprints mean bitwise-equal values (signed zeros included) and the
    same key order."""
    return [(key, repr(coeff)) for key, coeff in poly.terms.items()]
