"""Two-sided soundness on a corpus fixed before any run.

Each cell draws realizable pairs from fixed seeds in both angle modes and
takes each as a term copy.  Inputs within ``TOL`` of a realizable pair:
the pair itself, and the pair with one P coefficient and its mirror image
at -k moved together by ``TOL / 10`` (``mirrored``), or with one
coefficient moved by ``TOL / 10`` (``helpers.perturb_pair``).  Inputs
outside it: the same two perturbations at ``10 * TOL``, and one
coefficient moved by 1e-3.  Each input runs at the pair's own step count.
Two more families: four discrete-angle pairs that ``decide`` rejects,
each within tol of itself, and the three fixtures at n = 0 to 8.

The assertions are the ones that hold for the decision as it is:

- within tol, the opening degree sum s (``effective_degrees``) has s <= n
  and s = n (mod 2), no trace ends in ``REASON_OVERFLOW``, and the four
  filters that compare at tol hold: both inversion symmetries, P nonzero
  and the unit norm;
- outside tol, ``decide`` rejects;
- every accept rebuilds within tol, by ``PQPair.approx_eq``;
- per cell, two counts are pinned as ceilings: the within-tol inputs that
  ``decide`` rejects, the false rejections of the strict peel (see
  ``test_conditioning.py``), and the outside inputs that pass all four
  filters.  The second is 0 but in one full cell: a discrete-angle pair
  whose P coefficients share one phase, moved at its constant term by
  10 * tol at a nearly orthogonal phase, moves the unit-norm identity by
  less than tol.  A change may lower a ceiling, not raise it.

The cells marked ``soundness_full`` are the larger corpus, deselected by
default; run them with ``pytest -m soundness_full tests/test_soundness.py``.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest

from mqsp import (
    ANGLE_MODES,
    LaurentPoly,
    OracleConfig,
    PQPair,
    check_necessary,
    decide,
    evaluate_sequence,
    random_sequence,
    run_decision,
    synthesize,
)
from mqsp.engine import REASON_OVERFLOW, effective_degrees
from mqsp.fixtures import counterexample_pair, identity_pair, signal_pair
from helpers import perturb_pair

TOL = 1e-9
SEED_BASE = 500000
FILTERS = ("symmetry_p", "symmetry_q", "p_nonzero", "normalization_ok")

# (m, n, seeds): the ceilings on the within-tol inputs that decide rejects,
# and on the outside inputs that pass the four filters
TIER1_CELLS = {
    (1, 10, 20): (14, 0),
    (1, 16, 20): (37, 0),
    (2, 8, 20): (1, 0),
    (2, 12, 20): (8, 0),
    (3, 6, 20): (1, 0),
    (3, 8, 20): (0, 0),
    (4, 6, 20): (0, 0),
}
FULL_CELLS = {
    (1, 10, 300): (286, 1),
    (1, 20, 200): (550, 0),
    (1, 40, 60): (303, 0),
    (2, 20, 150): (158, 0),
    (2, 30, 100): (235, 0),
    (2, 40, 60): (250, 0),
    (3, 20, 100): (17, 0),
    (3, 30, 40): (17, 0),
}

# discrete-angle pairs that decide rejects at their own n, on rounding
# differences below 1e-15 in evaluation's cuts
DISCRETE_REGRESSIONS = ((2, 30, 300183), (2, 40, 300022), (2, 40, 300078), (3, 30, 300186))


def mirrored(pair: PQPair, seed: int, magnitude: float) -> PQPair:
    """Move one P coefficient and its mirror image at -k by ``magnitude``
    in one deterministic pseudo-random direction, which keeps
    P(a^{-1}) = P(a)."""
    rng = random.Random(seed)
    keys = sorted(pair.p.terms)
    key = keys[rng.randrange(len(keys))]
    delta = magnitude * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    terms = dict(pair.p.terms)
    for k in {key, tuple(-e for e in key)}:
        terms[k] = terms.get(k, 0j) + delta
    return PQPair(LaurentPoly(pair.variables, terms), pair.q)


def inputs(pair: PQPair, seed: int) -> tuple[list[PQPair], list[PQPair]]:
    """The inputs within ``TOL`` of ``pair`` and those outside it."""
    within = [pair, mirrored(pair, seed, TOL / 10), perturb_pair(pair, seed, TOL / 10)]
    outside = [
        mirrored(pair, seed, 10 * TOL),
        perturb_pair(pair, seed, 10 * TOL),
        perturb_pair(pair, seed, 1e-3),
    ]
    return within, outside


def accepted(pair: PQPair, n: int) -> bool:
    """``decide``, and on an accept the assertion that the synthesized
    sequence rebuilds the pair within ``TOL``."""
    result = synthesize(pair, n, TOL)
    if result.constructible:
        assert evaluate_sequence(result.sequence).approx_eq(pair, TOL), (pair, n)
    return result.constructible


def filtered(pair: PQPair, n: int) -> bool:
    """Whether one of the four filters that compare at ``TOL`` fails."""
    report = check_necessary(pair, n, TOL)
    return not all(getattr(report, name) for name in FILTERS)


def assert_within(pair: PQPair, n: int, label) -> None:
    s = sum(effective_degrees(pair, TOL))
    assert s <= n and (n - s) % 2 == 0, (label, s)
    rejection = run_decision(pair, n, TOL).rejection
    assert rejection is None or rejection.reason != REASON_OVERFLOW, label
    assert not filtered(pair, n), label


def cell_counts(m: int, n: int, seeds: int) -> tuple[int, int]:
    """Run the assertions on one cell; return how many within-tol inputs
    ``decide`` rejects and how many outside inputs pass the four filters."""
    rejected = unfiltered = 0
    for seed in range(SEED_BASE, SEED_BASE + seeds):
        for mode in ANGLE_MODES:
            evaluated = evaluate_sequence(random_sequence(OracleConfig(m, n, seed, mode)))
            within, outside = inputs(PQPair(evaluated.p, evaluated.q), seed)
            for at, pair in enumerate(within):
                assert_within(pair, n, (seed, mode, at))
                rejected += not accepted(pair, n)
            for at, pair in enumerate(outside):
                assert not decide(pair, n, TOL), (seed, mode, at)
                unfiltered += not filtered(pair, n)
    return rejected, unfiltered


def cells(table, marks=()):
    return [
        pytest.param(*cell, *ceilings, marks=marks, id="-".join(map(str, cell)))
        for cell, ceilings in table.items()
    ]


@pytest.mark.parametrize(
    "m,n,seeds,reject_ceiling,unfiltered_ceiling",
    cells(TIER1_CELLS) + cells(FULL_CELLS, pytest.mark.soundness_full),
)
def test_cell_is_sound_on_both_sides_of_tol(m, n, seeds, reject_ceiling, unfiltered_ceiling):
    rejected, unfiltered = cell_counts(m, n, seeds)
    assert rejected <= reject_ceiling
    assert unfiltered <= unfiltered_ceiling


def test_discrete_regressions_are_within_tol_and_pinned():
    rejected = 0
    for m, n, seed in DISCRETE_REGRESSIONS:
        evaluated = evaluate_sequence(random_sequence(OracleConfig(m, n, seed, "discrete")))
        pair = PQPair(evaluated.p, evaluated.q)
        assert_within(pair, n, seed)
        rejected += not accepted(pair, n)
    assert rejected <= 4


def test_fixtures_at_every_small_step_count():
    # the identity takes even step counts, a signal operator odd ones, and
    # the witness none; a budget of the other parity fails the opening rule
    for n in range(9):
        for pair, realizable in (
            (identity_pair(), n % 2 == 0),
            (signal_pair(), n % 2 == 1),
            (counterexample_pair(), False),
        ):
            assert accepted(pair, n) == realizable, (pair, n)
        for pair in (identity_pair(), signal_pair()):
            s = sum(effective_degrees(pair, TOL))
            assert ((n - s) % 2 == 0) == decide(pair, n, TOL)
