"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

from mqsp import (
    ANGLE_MODES,
    LaurentPoly,
    MqspSequence,
    OracleConfig,
    PQPair,
    evaluate_sequence,
    random_sequence,
)


# Seed base for the acceptance corpus.  Roughly 0.2% of random instances are
# deep single-variable chains whose top coefficient slices stay near 1e-3 for
# many consecutive levels; those amplify the input's double-rounding defect
# beyond any fixed tolerance and are undecidable at 1e-9 in any working
# precision (see test_conditioning.py).  The base below was checked to
# contain none.
CORPUS_SEED_BASE = 2000


def corpus_configs() -> list[OracleConfig]:
    """The 528 acceptance-corpus instances: m in 1..3, n in 0..10, both
    angle modes, eight seeds each."""
    configs = []
    for variables in (1, 2, 3):
        for steps in range(11):
            for mode in ANGLE_MODES:
                for _ in range(8):
                    seed = CORPUS_SEED_BASE + len(configs)
                    configs.append(OracleConfig(variables, steps, seed, mode))
    return configs


def unit_norm_product(pair: PQPair) -> LaurentPoly:
    """p*p~ + q*q~ multiplied out term by term: the O(L^2) reference for the
    sampled unit-norm filter."""
    p, q = pair.p, pair.q
    return p * p.torus_conjugate() + q * q.torus_conjugate()


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
