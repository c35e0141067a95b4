"""Seeded generation and the end-to-end roundtrip checker."""

from __future__ import annotations

import math

import pytest

from mqsp import (
    GENERATOR,
    MqspSequence,
    OracleConfig,
    check_necessary,
    decide,
    evaluate_sequence,
    random_sequence,
    roundtrip_check,
)
from helpers import oracle_pair, perturb_pair

TOL = 1e-9


def test_zero_step_sequence_shape():
    seq = random_sequence(OracleConfig(1, 0, seed=42))
    assert len(seq.phases) == 1
    assert seq.indices == ()


def test_same_seed_same_sequence():
    cfg = OracleConfig(2, 6, seed=123, angle_mode="discrete")
    assert random_sequence(cfg) == random_sequence(cfg)


def test_different_seeds_differ():
    base = OracleConfig(2, 6, seed=1)
    other = OracleConfig(2, 6, seed=2)
    assert random_sequence(base) != random_sequence(other)


def test_sequence_ranges():
    seq = random_sequence(OracleConfig(3, 10, seed=7))
    assert len(seq.phases) == 11
    assert len(seq.indices) == 10
    assert all(1 <= s <= 3 for s in seq.indices)
    assert all(-math.pi < phi <= math.pi for phi in seq.phases)


def test_discrete_mode_angles_are_pi_over_12_multiples():
    seq = random_sequence(OracleConfig(2, 20, seed=99, angle_mode="discrete"))
    for phi in seq.phases:
        steps = phi / (math.pi / 12.0)
        assert steps == pytest.approx(round(steps), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(0, 1, seed=0)
    with pytest.raises(ValueError):
        OracleConfig(1, -1, seed=0)
    with pytest.raises(ValueError):
        OracleConfig(1, 1, seed=0, angle_mode="grid")
    # random.Random draws a None seed from the system's entropy, so two
    # draws would differ
    for seed in (None, 1.0, "1"):
        with pytest.raises(TypeError):
            OracleConfig(1, 1, seed=seed)


# -- roundtrip ------------------------------------------------------------------


def test_roundtrip_identity_padding():
    seq = MqspSequence(1, (0.0, math.pi / 2, -math.pi / 2), (1, 1))
    report = roundtrip_check(seq, TOL)
    assert report.passed
    assert report.generator == GENERATOR
    assert report.max_deviation <= TOL


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_roundtrip_seeded(seed, mode):
    m = 1 + seed % 3
    n = (7 * seed + 1) % 11
    report = roundtrip_check(random_sequence(OracleConfig(m, n, seed, mode)), TOL)
    assert report.constructible
    assert report.resynthesized
    assert report.parity_rejected
    assert report.pad_accepted


@pytest.mark.parametrize("seed", range(6))
def test_perturbed_pair_is_rejected(seed):
    m, n = 2, 5
    pair, _ = oracle_pair(m, n, seed)
    assert decide(perturb_pair(pair, seed), n, TOL) is False


@pytest.mark.parametrize("seed", range(6))
def test_oracle_pairs_pass_every_filter(seed):
    pair, _ = oracle_pair(3, 7, seed)
    assert check_necessary(pair, 7, TOL).all_ok


@pytest.mark.parametrize("seed", range(10))
def test_degree_multiplicity_when_sum_saturates(seed):
    # only asserted when the degree sum equals the step count
    m, n = 3, 8
    pair, seq = oracle_pair(m, n, seed, "discrete")
    if sum(pair.p.degrees()) != n:
        return
    for j in range(1, m + 1):
        assert pair.p.degree(j) == seq.indices.count(j)


def test_diagnostics_deterministic_end_to_end():
    cfg = OracleConfig(2, 9, seed=314, angle_mode="discrete")
    first = roundtrip_check(random_sequence(cfg), TOL)
    second = roundtrip_check(random_sequence(cfg), TOL)
    assert first == second
