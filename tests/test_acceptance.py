"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all):

1. the two-variable witness pair is rejected at every admissible step count;
2. >= 500 seeded sequences are accepted and resynthesized within 1e-9;
3. every corpus pair is rejected at n+1 and accepted at n+2;
4. every corpus pair satisfies the structural invariants of realizable pairs;
5. the arity-1 characterization agrees with the decision on >= 200 instances;
6. perturbing any single coefficient by 1e-3 flips the decision to False;
7. the decision scales polynomially in steps (smoke test at n = 40).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import pytest

from mqsp import (
    OracleConfig,
    PQPair,
    check_necessary,
    decide,
    qsp1_characterize,
    random_sequence,
    roundtrip_check,
    term_bound,
)
from mqsp.fixtures import counterexample_pair
from mqsp.su2 import evaluate_sequence
from helpers import corpus_configs, oracle_pair, perturb_pair

TOL = 1e-9
ANGLE_MODES = ("continuous", "discrete")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


@dataclass(frozen=True)
class CorpusEntry:
    config: OracleConfig
    pair: object
    roundtrip: object


@pytest.fixture(scope="module")
def corpus():
    """528 seeded instances spanning m in 1..3, n in 0..10, both angle modes,
    with their pairs and roundtrip diagnostics; built once and timed."""
    entries = []
    start = time.perf_counter()
    for cfg in corpus_configs():
        seq = random_sequence(cfg)
        entries.append(CorpusEntry(cfg, evaluate_sequence(seq), roundtrip_check(seq, TOL)))
    elapsed = time.perf_counter() - start
    return entries, elapsed


def test_criterion_1_counterexample_rejected_at_every_step_count():
    start = time.perf_counter()
    pair = counterexample_pair()
    verdicts = {n: decide(pair, n, TOL) for n in (4, 5, 6, 8, 10, 12)}
    elapsed = time.perf_counter() - start
    ok = not any(verdicts.values()) and elapsed < 1.0
    report(1, ok, f"witness pair rejected at n in {sorted(verdicts)}; {elapsed:.3f}s")
    assert not any(verdicts.values()), verdicts
    assert elapsed < 1.0


def test_criterion_2_roundtrip_accepts_and_resynthesizes(corpus):
    entries, elapsed = corpus
    failures = [
        e.config
        for e in entries
        if not (e.roundtrip.constructible and e.roundtrip.max_deviation <= 1e-9)
    ]
    ok = not failures and len(entries) >= 500 and elapsed < 60.0
    report(
        2,
        ok,
        f"{len(entries)} seeded sequences accepted and rebuilt within 1e-9 "
        f"in {elapsed:.1f}s",
    )
    assert len(entries) >= 500
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_3_parity_and_padding_monotonicity(corpus):
    entries, _ = corpus
    failures = [
        e.config
        for e in entries
        if not (e.roundtrip.parity_rejected and e.roundtrip.pad_accepted)
    ]
    ok = not failures
    report(3, ok, f"n+1 rejected and n+2 accepted for all {len(entries)} pairs")
    assert not failures, failures[:5]


def test_criterion_4_structural_invariants(corpus):
    entries, _ = corpus
    failures = []
    for e in entries:
        pair, n = e.pair, e.config.steps
        rep = check_necessary(pair, n, TOL)
        if not (rep.all_ok and rep.degree_sum <= n):
            failures.append(e.config)
    ok = not failures
    report(
        4,
        ok,
        f"symmetries, degree equality, P != 0, unit norm and parity hold "
        f"for all {len(entries)} pairs",
    )
    assert not failures, failures[:5]


def test_criterion_5_single_variable_cross_validation():
    disagreements = []
    not_rejected = []
    total = 0
    for i in range(100):
        n = i % 11
        pair, _ = oracle_pair(1, n, seed=5000 + i, angle_mode=ANGLE_MODES[i % 2])
        total += 1
        if qsp1_characterize(pair, n, TOL) != decide(pair, n, TOL):
            disagreements.append(("oracle", i))
        # mutated, non-constructible variant: coefficient bump or parity break
        if i % 2 == 0:
            mutated, steps = perturb_pair(pair, seed=i), n
        else:
            mutated, steps = pair, n + 1
        total += 1
        char, dec = qsp1_characterize(mutated, steps, TOL), decide(mutated, steps, TOL)
        if char != dec:
            disagreements.append(("mutated", i))
        if dec:
            not_rejected.append(i)
    ok = not disagreements and not not_rejected and total >= 200
    report(5, ok, f"characterization agrees with the decision on {total} arity-1 instances")
    assert total >= 200
    assert not disagreements, disagreements[:5]
    assert not not_rejected, not_rejected[:5]


def test_criterion_6_perturbation_rejection():
    accepted = []
    trials = 120
    for i in range(trials):
        m = 1 + i % 3
        n = i % 11
        pair, _ = oracle_pair(m, n, seed=9000 + i, angle_mode=ANGLE_MODES[i % 2])
        if decide(perturb_pair(pair, seed=i), n, TOL):
            accepted.append((m, n, i))
    ok = not accepted
    report(6, ok, f"{trials}/{trials} pairs rejected after a 1e-3 coefficient bump")
    assert not accepted, accepted[:5]


def _time_decide(pair, n, repeats=3):
    # a fresh pair object per repeat, so that no call reuses the walk that
    # the decision keeps for the last pair it decided
    best = math.inf
    verdict = None
    for _ in range(repeats):
        fresh = PQPair(pair.p, pair.q)
        start = time.perf_counter()
        verdict = decide(fresh, n, TOL)
        best = min(best, time.perf_counter() - start)
    return verdict, best


def test_criterion_7_complexity_smoke():
    # seeds pinned to chains that run to full depth (deep chains can exhaust
    # the double-precision conditioning budget, see test_conditioning.py)
    pair40, _ = oracle_pair(2, 40, seed=500004)
    pair20, _ = oracle_pair(2, 20, seed=600000)
    ok40, t40 = _time_decide(pair40, 40)
    ok20, t20 = _time_decide(pair20, 20)
    # cost model: steps * variables * term bound, with a generous 4x allowance
    bound_ratio = (40 * 2 * term_bound(pair40)) / (20 * 2 * term_bound(pair20))
    ratio = t40 / t20
    ok = ok40 and ok20 and t40 < 5.0 and ratio < 4.0 * bound_ratio
    report(
        7,
        ok,
        f"n=40 decided in {t40 * 1e3:.0f}ms; t40/t20 = {ratio:.1f} "
        f"within 4x cost-model ratio {bound_ratio:.1f}",
    )
    assert ok40 and ok20
    assert t40 < 5.0
    assert ratio < 4.0 * bound_ratio
