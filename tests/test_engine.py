"""Decision, synthesis, prefilters and the arity-1 cross-check."""

from __future__ import annotations

import cmath
import copy
import json
import math
import pickle
import random
import sys
import threading

import pytest

from mqsp import (
    ANGLE_MODES,
    BaseAccept,
    IdentityPad,
    LaurentPoly,
    MqspSequence,
    NecessaryReport,
    OracleConfig,
    PhaseReduction,
    PQPair,
    Reject,
    check_necessary,
    decide,
    evaluate_sequence,
    find_phase,
    half_diff,
    half_sum,
    pair_to_matrix,
    qsp1_characterize,
    random_sequence,
    reduce_step,
    run_decision,
    signal_operator,
    synthesize,
    term_bound,
    z_rotation,
)
from mqsp import documents, engine, laurent, su2
from mqsp.box import PairBox
from mqsp.engine import REASON_BASE, REASON_DEGREE, REASON_OVERFLOW, REASON_PHASE
from mqsp.fixtures import counterexample_pair, identity_pair, signal_pair
from helpers import (
    M20_CORNERS,
    OVERFLOWING_MISMATCH,
    SPAN_100001,
    corpus_configs,
    fingerprint,
    layout,
    no_box,
    oracle_pair,
    perturb_pair,
    unit_norm_product,
)

TOL = 1e-9


# -- find_phase ---------------------------------------------------------------


def test_find_phase_trivial_ratio():
    assert find_phase(signal_pair(), 1, 1, TOL) == pytest.approx(0.0, abs=1e-12)


def test_find_phase_reads_back_the_last_angle():
    # evaluating with final angle pi/3 leaves ratio e^{2i pi/3} between the
    # top slices, so the phase comes back as pi/3
    pair = evaluate_sequence(MqspSequence(1, (0.0, math.pi / 3), (1,)))
    assert find_phase(pair, 1, 1, TOL) == pytest.approx(math.pi / 3, abs=1e-12)


def test_find_phase_unmatched_zero_slice():
    pair = PQPair(LaurentPoly(1, {(1,): 1.0, (-1,): 1.0}), LaurentPoly.zero(1))
    assert find_phase(pair, 1, 1, TOL) is None


def test_find_phase_vacuous_when_both_slices_vanish():
    pair = PQPair(LaurentPoly(1, {(1,): 1.0, (-1,): 1.0}), LaurentPoly.zero(1))
    assert find_phase(pair, 1, 2, TOL) == 0.0
    # on the box too: a degree of the other parity, or above the top row,
    # has no row, so both slices are empty
    pair, _ = oracle_pair(2, 6, 3)
    box, twin = pair._box, PQPair(pair.p, pair.q)
    assert box.rows == (3, 5)
    for j, degrees in ((1, (1, 3, 4, 5, 7)), (2, (1, 3, 5, 6, 7))):
        for degree in degrees:
            assert box._top_slices(j, degree) == ([], [])
            assert find_phase(box, j, degree, TOL) == find_phase(twin, j, degree, TOL) == 0.0


def test_find_phase_rejects_non_unimodular_ratio():
    pair = PQPair(half_sum(1, 1) * 2.0, half_diff(1, 1))
    assert find_phase(pair, 1, 1, TOL) is None


def test_find_phase_ties_do_not_depend_on_storage_order():
    # two Q terms of exactly equal modulus in the a_1^1 slice, whose P
    # partners differ in angle by 1e-10, well inside the verification
    # tolerance: the angle is read at the lexicographically largest exponent,
    # (1, 1), whichever order the terms are stored in
    phi_low, phi_high = 0.3 + 1e-10, 0.3
    high, low = 0.5 * cmath.exp(2j * phi_high), 0.5 * cmath.exp(2j * phi_low)
    p = LaurentPoly(2, {(1, 1): high, (1, -1): low})
    high_first = PQPair(p, LaurentPoly(2, {(1, 1): 0.5, (1, -1): 0.5}))
    low_first = PQPair(p, LaurentPoly(2, {(1, -1): 0.5, (1, 1): 0.5}))
    phi = find_phase(high_first, 1, 1, TOL)
    assert phi == pytest.approx(phi_high, abs=1e-14)
    assert repr(find_phase(low_first, 1, 1, TOL)) == repr(phi)
    # without the inversion symmetries the pair stays on its terms
    assert PairBox.from_pair(low_first) is None
    # with them it goes on the box, where (1, 1) holds the last maximum of
    # the slice, read from the mirror image of the stored half
    p = LaurentPoly(2, {(-1, -1): high, (-1, 1): low, (1, -1): low, (1, 1): high})
    for keys in ([(-1, -1), (-1, 1), (1, -1), (1, 1)], [(1, 1), (1, -1), (-1, 1), (-1, -1)]):
        q = LaurentPoly(2, {k: 0.5 if k[0] > 0 else -0.5 for k in keys})
        symmetric = PQPair(p, q)
        assert repr(find_phase(symmetric, 1, 1, TOL)) == repr(phi)
        assert repr(find_phase(PairBox.from_pair(symmetric), 1, 1, TOL)) == repr(phi)


def test_find_phase_principal_branch():
    phi = find_phase(evaluate_sequence(MqspSequence(1, (0.0, 1.2), (1,))), 1, 1, TOL)
    assert -math.pi / 2 < phi <= math.pi / 2
    assert phi == pytest.approx(1.2, abs=1e-12)


# -- reduce_step ----------------------------------------------------------------


def test_reduce_step_undoes_single_signal_operator():
    reduced = reduce_step(signal_pair(), 1, 0.0)
    assert reduced.p.approx_eq(LaurentPoly.constant(1, 1.0), 1e-15)
    assert reduced.q.is_zero(1e-15)


def test_reduce_step_inverts_the_appended_factor():
    pair, _ = oracle_pair(2, 5, seed=11)
    degrees = pair.p.degrees()
    phi = None
    for j in (1, 2):
        phi = find_phase(pair, j, degrees[j - 1], TOL)
        if phi is not None:
            break
    assert phi is not None
    reduced = reduce_step(pair, j, phi)
    rebuilt = pair_to_matrix(reduced) @ (signal_operator(j, 2) @ z_rotation(phi, 2))
    original = pair_to_matrix(pair)
    assert rebuilt.a.approx_eq(original.a, TOL)
    assert rebuilt.b.approx_eq(original.b, TOL)
    assert rebuilt.c.approx_eq(original.c, TOL)
    assert rebuilt.d.approx_eq(original.d, TOL)


def test_reduce_step_peels_two_step_product():
    pair = evaluate_sequence(MqspSequence(2, (0.0, 0.0, 0.0), (1, 2)))
    reduced = reduce_step(pair, 2, 0.0)
    assert reduced.p.approx_eq(half_sum(1, 2), 1e-15)
    assert reduced.q.approx_eq(half_diff(1, 2), 1e-15)


def test_reduce_step_lowers_touched_degree_only():
    pair, _ = oracle_pair(3, 6, seed=5)
    degrees = pair.p.degrees()
    for j in range(1, 4):
        phi = find_phase(pair, j, degrees[j - 1], TOL)
        if phi is None:
            continue
        reduced = reduce_step(pair, j, phi)
        after = reduced.p.degrees()
        assert after[j - 1] == degrees[j - 1] - 1
        for other in range(1, 4):
            if other != j:
                assert after[other - 1] == degrees[other - 1]


def truncated(pair: PQPair, j: int, top: int, cutoff: float) -> PQPair:
    """``pair`` without the rows of variable ``j`` beyond +-``top`` at the
    ends of its exponent range that hold no coefficient above ``cutoff``,
    trimmed from the outside in; the first row that does hold one stays.
    Only exact zeros are dropped otherwise."""
    terms = [(k, c) for poly in (pair.p, pair.q) for k, c in poly.terms.items()]
    exponents = sorted({k[j - 1] for k, _ in terms})
    dropped = set()
    for order in (exponents, exponents[::-1]):
        for e in order:
            if abs(e) <= top or any(k[j - 1] == e and abs(c) > cutoff for k, c in terms):
                break
            dropped.add(e)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "DROP_EPS", 0.0)
        return PQPair(*(
            LaurentPoly(poly.variables, {
                k: c for k, c in poly.terms.items() if k[j - 1] not in dropped
            })
            for poly in (pair.p, pair.q)
        ))


def product_form_reduction(pair: PQPair, j: int, phi: float) -> PQPair:
    """reduce_step written with general polynomial products, factor last,
    without the cut (a drop cutoff of 0 keeps every nonzero coefficient);
    the rows of variable j at its ends that hold nothing above DROP_EPS
    times the coefficient scale are then truncated."""
    m = pair.variables
    e = cmath.exp(1j * phi)
    ec = e.conjugate()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "DROP_EPS", 0.0)
        new_p = pair.p * half_sum(j, m) * ec - pair.q * half_diff(j, m) * e
        new_q = pair.q * half_sum(j, m) * e - pair.p * half_diff(j, m) * ec
    scale = max(1.0, new_p.max_modulus(), new_q.max_modulus())
    return truncated(PQPair(new_p, new_q), j, -1, laurent.DROP_EPS * scale)


def scaled_pair(pair: PQPair, scale: float) -> PQPair:
    m = pair.variables
    return PQPair(
        LaurentPoly(m, {k: c * scale for k, c in pair.p.terms.items()}),
        LaurentPoly(m, {k: c * scale for k, c in pair.q.terms.items()}),
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("scale", [1.0, 3.7, 1e-3])
def test_reduce_step_is_bitwise_the_product_form(m, mode, scale):
    # the peel must round exactly like the general products without the
    # cut: same values (signed zeros included), same truncated rows
    for seed in range(3):
        pair, _ = oracle_pair(m, 6 + seed, 100 * m + seed, mode)
        pair = scaled_pair(pair, scale)
        degrees = pair.p.degrees()
        for j in range(1, m + 1):
            matched = find_phase(pair, j, degrees[j - 1], TOL)
            for phi in {0.0, math.pi / 2, -0.7 + seed, matched or 0.0}:
                kernel = reduce_step(pair, j, phi)
                product = product_form_reduction(pair, j, phi)
                assert fingerprint(kernel.p) == fingerprint(product.p)
                assert fingerprint(kernel.q) == fingerprint(product.q)


def stored_in_order(pair: PQPair, reverse: bool) -> PQPair:
    """The same pair with the terms of P and Q stored forwards or reversed."""
    m = pair.variables
    def build(poly):
        items = list(poly.terms.items())
        return LaurentPoly(m, dict(reversed(items) if reverse else items))
    return PQPair(build(pair.p), build(pair.q))


def trace_signature(pair: PQPair, n: int) -> list[tuple]:
    """Branch kinds, indices and the repr of every angle of the decision."""
    signature = []
    for step in run_decision(pair, n, TOL).steps:
        if isinstance(step, PhaseReduction):
            signature.append(("peel", step.steps_left, step.index, repr(step.phase)))
        elif isinstance(step, BaseAccept):
            signature.append(("base", repr(step.phase0)))
        else:
            signature.append((type(step).__name__, step.steps_left))
    return signature


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("scale", [1.0, 3.7, 1e-3])
def test_box_peel_is_bitwise_the_product_form(m, mode, scale):
    # the dense step kernel against the un-cut general products, value by
    # value; the phase read off the box is the one read off the terms
    for seed in range(3):
        pair, _ = oracle_pair(m, 6 + seed, 100 * m + seed, mode)
        pair = scaled_pair(pair, scale)
        box = PairBox.from_pair(pair)
        degrees = pair.p.degrees()
        for j in range(1, m + 1):
            matched = find_phase(pair, j, degrees[j - 1], TOL)
            assert repr(find_phase(box, j, degrees[j - 1], TOL)) == repr(matched)
            for phi in {0.0, math.pi / 2, -0.7 + seed, matched or 0.0}:
                kernel = reduce_step(box, j, phi).to_pair()
                product = product_form_reduction(pair, j, phi)
                assert fingerprint(kernel.p) == fingerprint(product.p)
                assert fingerprint(kernel.q) == fingerprint(product.q)


def mirrored(half: dict, odd: bool) -> LaurentPoly:
    """The polynomial with the terms ``half`` and their mirror images at
    the negated keys: the same coefficient, bit for bit, as in P, or 0j
    minus it when ``odd``, as in Q."""
    terms = {tuple(-e for e in k): 0j - c if odd else c for k, c in half.items()}
    return LaurentPoly(len(next(iter(half))), {**terms, **half})


def test_box_steps_keep_signed_zeros_and_holes():
    # parts that are -0.0, slots of the box that hold no term, and phases in
    # every quadrant: the peel on the box gives the un-cut general products'
    # values and evaluation's step the cut ones, signs of zero parts included
    phis = (0.0, 1.0, 2.0, math.pi, -2.0, -1.0)
    # P holds -0.0 parts at k and -k; Q in the stored half (the
    # lexicographically smaller keys), with 0j - c at the mirror images
    p = mirrored({(-1, 0): complex(-0.5, -0.0), (-1, -2): complex(-0.0, 0.25)}, False)
    q = mirrored({(-1, 0): complex(-0.0, -0.3), (-1, 2): complex(0.2, -0.0)}, True)
    # Q's halves at a1^-1 a2^-2 and a1^-1, both stored, add up to
    # -0.5 + 0j only when each was added to 0j first, as the product does;
    # at phi = 0 that sign reaches the peeled Q at a1^-1 a2^-1, where P's
    # sine part vanishes
    minus_zero = PQPair(
        mirrored({(-1, -2): 0.5, (-1, 0): 0.5}, False),
        mirrored({(-1, -2): complex(-0.5, -0.0), (-1, 0): complex(-0.5, -0.0)}, True),
    )
    for pair in (PQPair(p, q), minus_zero):
        box = PairBox.from_pair(pair)
        assert box.rows == (2, 3) and box.p_half.count(0j) + box.q_half.count(0j) == 2
        for j in range(1, pair.variables + 1):
            for phi in phis:
                peeled = reduce_step(box, j, phi).to_pair()
                product = product_form_reduction(pair, j, phi)
                assert fingerprint(peeled.p) == fingerprint(product.p)
                assert fingerprint(peeled.q) == fingerprint(product.q)
    # the same hazards without the inversion symmetries stay on the terms,
    # whose peel is the general products
    p = LaurentPoly(2, {
        (-1, 0): complex(-0.5, -0.0),
        (1, 0): complex(-0.5, -0.0),
        (1, 2): complex(-0.0, 0.25),
        (-1, -2): complex(0.1, 0.0),
    })
    q = LaurentPoly(2, {(1, 0): complex(-0.0, -0.3), (-1, 2): complex(0.2, -0.0)})
    minus_zero = LaurentPoly(1, {(-1,): complex(-0.5, -0.0), (1,): complex(-0.5, -0.0)})
    for pair in (PQPair(p, q), PQPair(half_sum(1, 1), minus_zero)):
        assert PairBox.from_pair(pair) is None
        for j in range(1, pair.variables + 1):
            for phi in phis:
                peeled = reduce_step(pair, j, phi)
                product = product_form_reduction(pair, j, phi)
                assert fingerprint(peeled.p) == fingerprint(product.p)
                assert fingerprint(peeled.q) == fingerprint(product.q)
    # evaluation steps only pairs with the inversion symmetries, whose half
    # box holds no -0.0 part; zero phases leave holes at a1 a2^-1 and a1^-1 a2
    pair = evaluate_sequence(MqspSequence(2, (0.0, 0.0, 0.0), (1, 2)))
    box = PairBox.from_pair(pair)
    assert box.rows == (2, 2) and box.p_half.count(0j) + box.q_half.count(0j) == 2
    for j in (1, 2):
        for phi in phis:
            phase = cmath.exp(1j * phi)
            extended, product = box._step(j, phase).to_pair(), pair._step(j, phase)
            assert fingerprint(extended.p) == fingerprint(product.p)
            assert fingerprint(extended.q) == fingerprint(product.q)


def test_box_slots_without_a_term_stay_exact_zeros():
    # 0j times a phase with a negative real part is (-0.0 + 0j); the general
    # product holds no term there, so the box must hold 0j, or a -0.0 part
    # would leak into a difference such as 0j - (+0.0 + 1j)
    phase = cmath.exp(-2.0j).conjugate()
    assert repr(0j * phase) != "0j"
    values = su2._turned([0j, 0.5 + 0.5j], phase)
    assert repr(values[0]) == "0j"
    assert values[1] == (0.5 + 0.5j) * phase


def test_box_peel_keeps_slots_without_a_term_exact_zeros():
    # at phi = -2 the peel turns P's halves by e^{2i} (real part < 0,
    # imaginary part > 0), which makes 0j into (-0.0 + 0j); Q's sine part at
    # the constant, a multiple of (sin phi) + (cos phi) i, turns to a real
    # part of exactly +0.0.  The un-cut product holds no P term there, so
    # the peeled P coefficient is 0j - (+0.0 + ...), and the box must not
    # leave a -0.0
    phi = -2.0
    e = cmath.exp(1j * phi)
    v = complex(e.imag, e.real)
    assert (v * e).real == 0.0
    symmetric = PQPair(mirrored({(-3,): 0.5}, False), mirrored({(-1,): 2 * v}, True))
    # without the inversion symmetries the pair stays on its terms
    asymmetric = PQPair(LaurentPoly(1, {(3,): 0.5}), LaurentPoly(1, {(-1,): 2 * v}))
    assert PairBox.from_pair(asymmetric) is None
    for pair, state in ((symmetric, PairBox.from_pair(symmetric)), (asymmetric, asymmetric)):
        peeled = reduce_step(state, 1, phi).to_pair()
        product = product_form_reduction(pair, 1, phi)
        assert fingerprint(peeled.p) == fingerprint(product.p)
        assert fingerprint(peeled.q) == fingerprint(product.q)


@pytest.mark.parametrize("m", [2, 3])
def test_decision_does_not_depend_on_term_storage_order(m):
    # discrete angles make equal-modulus terms in a top Q slice common, the
    # case where a storage-order tie-break would pick a different reference;
    # (m=2, n=6, seed 7011) is one such instance
    for n in range(2, 11):
        for seed in range(7000, 7030):
            pair, _ = oracle_pair(m, n, seed, "discrete")
            forwards = trace_signature(stored_in_order(pair, False), n)
            assert trace_signature(stored_in_order(pair, True), n) == forwards, (n, seed)


def layout_signature(pair: PQPair, n: int) -> list[tuple]:
    """``trace_signature`` plus the fingerprint of every reduced pair."""
    signature = trace_signature(pair, n)
    for step in run_decision(pair, n, TOL).steps:
        if isinstance(step, PhaseReduction):
            signature.append((fingerprint(step.reduced.p), fingerprint(step.reduced.q)))
    return signature


def corpus_outcomes() -> list:
    """Per acceptance-corpus sequence: its evaluated pair, the decision at
    its step count with every reduced pair, and the decisions of the pair
    scaled by 3.7 and 1e-3."""
    outcomes = []
    for cfg in corpus_configs():
        pair = evaluate_sequence(random_sequence(cfg))
        outcomes.append((
            fingerprint(pair.p),
            fingerprint(pair.q),
            layout_signature(pair, cfg.steps),
            [trace_signature(scaled_pair(pair, s), cfg.steps) for s in (3.7, 1e-3)],
        ))
    return outcomes


@pytest.fixture(scope="module")
def product_outcomes():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(su2, "_BOX_PER_TERM", 0)
        return corpus_outcomes()


def test_layouts_agree_on_the_corpus(layout, product_outcomes):
    # every angle (by repr) and every value of every level, on the dense box
    # and on LaurentPoly terms with the general products: un-cut products,
    # truncated to the new degree
    assert corpus_outcomes() == product_outcomes


@pytest.mark.parametrize("m,n", [(1, 40), (2, 30), (3, 20), (4, 16)])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_layouts_agree_on_deep_pairs(m, n, mode, monkeypatch):
    # the deep benchmark cells, where the half box ends inside a chunk of
    # every axis and the peel amplifies any difference level by level
    for seed in range(2):
        seq = random_sequence(OracleConfig(m, n, 3000 * m + 10 * seed + n, mode))
        pair = evaluate_sequence(seq)
        assert PairBox.from_pair(pair) is not None
        on_box = layout_signature(pair, n)
        monkeypatch.setattr(su2, "_BOX_PER_TERM", 0)
        assert layout_signature(evaluate_sequence(seq), n) == on_box, seed
        monkeypatch.undo()


def reduced_fingerprints(trace) -> list[tuple]:
    """The fingerprints of P and Q of every reduced pair of ``trace``."""
    return [
        (fingerprint(step.reduced.p), fingerprint(step.reduced.q))
        for step in trace.steps
        if isinstance(step, PhaseReduction)
    ]


@pytest.mark.parametrize("m,n", [(1, 14), (2, 9), (3, 7), (4, 6)])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("tol", [0.0, TOL, 1e-6])
def test_stored_box_decides_as_its_term_twin(m, n, mode, tol):
    # an evaluated pair keeps its box, which the decision takes as it is;
    # its term twin is laid out on the box again
    for seed in range(3):
        pair, _ = oracle_pair(m, n, 6000 + 100 * m + 10 * seed + n, mode)
        twin = PQPair(pair.p, pair.q)
        assert pair._box is not None and twin._box is None
        for budget in (n, n + 1, n + 2):
            stored, relaid = run_decision(pair, budget, tol), run_decision(twin, budget, tol)
            assert stored == relaid and repr(stored) == repr(relaid), (seed, budget)
            assert reduced_fingerprints(stored) == reduced_fingerprints(relaid), (seed, budget)


def test_trace_states_are_pairs(layout):
    # on the box, each level's pair is stored as its box; on the terms it is
    # the peeled pair itself
    for m, n in ((1, 9), (2, 6), (3, 5), (4, 4)):
        pair, _ = oracle_pair(m, n, 6500 + m)
        reductions = [
            step for step in run_decision(pair, n, TOL).steps if isinstance(step, PhaseReduction)
        ]
        assert reductions, (m, n)
        for step in reductions:
            assert type(step.state) is PQPair and step.reduced is step.state
            assert (step.state._box is not None) == (layout == "box")


def test_traces_of_a_pair_and_its_term_twin_compare_and_pickle():
    for m, n, mode in ((1, 9, "continuous"), (2, 6, "discrete"), (3, 5, "continuous")):
        pair, _ = oracle_pair(m, n, 6600 + m, mode)
        twin = PQPair(pair.p, pair.q)
        for budget in (n, n + 2):
            trace, twin_trace = run_decision(pair, budget, TOL), run_decision(twin, budget, TOL)
            assert trace == twin_trace and twin_trace == trace
            for kept in (trace, twin_trace):
                again = pickle.loads(pickle.dumps(kept))
                assert again == trace and repr(again) == repr(trace)
                states = [s.state for s in again.steps if isinstance(s, PhaseReduction)]
                assert states and all(state._box is None for state in states)


def with_empty_end_rows(box: PairBox, i: int) -> PairBox:
    """``box`` with an empty row added at each end of axis ``i``, as an
    evaluation that zeroes the end rows of an axis it does not step would
    leave it."""
    rows = list(box.rows)
    block = math.prod(rows[i + 1 :])
    chunk = rows[i] * block
    padded = []
    for values in box._prefixes(math.prod(rows)):
        grown = []
        for at in range(0, len(values), chunk):
            grown += [0j] * block + values[at : at + chunk] + [0j] * block
        padded.append(grown)
    rows[i] += 2
    half = (math.prod(rows) + 1) // 2
    return PairBox(rows, padded[0][:half], padded[1][:half])


def test_a_box_with_empty_end_rows_acts_as_its_term_twin():
    # no evaluation was seen to leave such a box, so it is built by hand:
    # the decision steps it, and comparisons fall back to the terms unless
    # the rows agree
    for m, n in ((1, 9), (2, 6), (3, 5)):
        pair, seq = oracle_pair(m, n, 6700 + m)
        shifts = [phi + 1e-10 for phi in seq.phases]
        shifted = evaluate_sequence(MqspSequence(m, shifts, seq.indices))
        for i in range(m):
            padded = PQPair._on_box(with_empty_end_rows(pair._box, i))
            twin = PQPair(padded.p, padded.q)
            assert fingerprint(twin.p) == fingerprint(pair.p)
            assert fingerprint(twin.q) == fingerprint(pair.q)
            for tol in (0.0, TOL, 1e-3):
                for budget in (n, n + 1, n + 2):
                    expected = step_signature(run_decision(twin, budget, tol).steps)
                    got = step_signature(run_decision(padded, budget, tol).steps)
                    assert got == expected, (m, i, tol, budget)
            neighbour = PQPair._on_box(with_empty_end_rows(shifted._box, i))
            assert neighbour._box.rows == padded._box.rows
            for a, b in ((padded, pair), (padded, neighbour), (neighbour, padded)):
                a_twin, b_twin = PQPair(a.p, a.q), PQPair(b.p, b.q)
                assert repr(a.max_deviation(b)) == repr(a_twin.max_deviation(b_twin))
                for tol in (0.0, 1e-15, 1e-12, TOL):
                    assert a.approx_eq(b, tol) == a_twin.approx_eq(b_twin, tol)
            for factor in (1.0, 1.001):
                box = with_empty_end_rows(pair._box, i)
                scaled = ([v * factor for v in half] for half in (box.p_half, box.q_half))
                stored = PQPair._on_box(PairBox(box.rows, *scaled))
                stored_twin = PQPair(stored.p, stored.q)
                for tol in (1e-12, TOL, 1e-3):
                    verdict = stored.is_normalized(tol)
                    assert verdict == stored_twin.is_normalized(tol) == (factor == 1.0)
            assert padded.normalization_defect() <= 1e-13
            assert repr(padded.normalization_defect()) == repr(twin.normalization_defect())


def test_only_centred_mirror_images_go_on_the_box():
    # the box holds half of P and of Q, so a pair goes on it only with
    # stride 2 and centred on every axis, and with P's slot f equal to its
    # mirror image and Q's to its negation, by value
    pair, _ = oracle_pair(2, 8, 5)
    assert PairBox.from_pair(pair) is not None
    text = documents.dumps(documents.pair_to_document(pair))
    assert PairBox.from_pair(documents.pair_from_document(json.loads(text))) is not None
    # Q's mirror stores -0.0 where 0j - 0.5 stores +0.0: equal by value
    q = LaurentPoly(1, {(-1,): complex(-0.5, 0.0), (1,): complex(0.5, -0.0)})
    assert repr(0j - q.terms[(-1,)]) != repr(q.terms[(1,)])
    signed = PQPair(signal_pair().p, q)
    assert PairBox.from_pair(signed) is not None and decide(signed, 1, TOL)
    for rejected in (
        perturb_pair(pair, 1),
        # mixed parity: stride 1, centred or not
        PQPair(LaurentPoly(1, {(-1,): 0.5, (0,): 0.2, (1,): 0.5}), LaurentPoly.zero(1)),
        PQPair(LaurentPoly(1, {(-1,): 0.5, (0,): 0.5}), LaurentPoly.zero(1)),
        # off centre
        PQPair(LaurentPoly(1, {(1,): 1.0}), LaurentPoly.zero(1)),
    ):
        assert PairBox.from_pair(rejected) is None, rejected


def test_sparse_inputs_stay_on_their_terms(no_box):
    seq = MqspSequence(20, (0.0,) * 21, tuple(range(1, 21)))
    pair = evaluate_sequence(seq)
    assert len(pair.p) == len(pair.q) == 2
    assert decide(pair, 20, TOL)
    synthesized = synthesize(pair, 20, TOL).sequence
    assert evaluate_sequence(synthesized).max_deviation(pair) <= TOL
    trace = run_decision(M20_CORNERS, 20, TOL)
    assert trace.rejection.reason == REASON_PHASE
    trace = run_decision(SPAN_100001, 1, TOL)
    assert trace.rejection.reason == REASON_DEGREE
    # their peel is the product form's, value by value
    for pair in (SPAN_100001, M20_CORNERS):
        for j in range(1, pair.variables + 1):
            for phi in (0.0, math.pi / 2, -0.7, 2.0):
                peeled = reduce_step(pair, j, phi)
                product = product_form_reduction(pair, j, phi)
                assert fingerprint(peeled.p) == fingerprint(product.p)
                assert fingerprint(peeled.q) == fingerprint(product.q)


def test_terms_steps_use_no_polynomial_arithmetic(monkeypatch):
    # the terms layout runs the box's step algebra on its keys: evaluation
    # past the sparse hand-off and the peel of an asymmetric pair finish
    # with the operators of LaurentPoly refused
    seq = MqspSequence(6, (0.0,) * 5 + (0.4, -1.1, 2.5), (1, 2, 3, 4, 5, 6, 1))
    pair, _ = oracle_pair(2, 8, 17)
    bumped = perturb_pair(PQPair(pair.p, pair.q), 17, 1e-12)
    assert PairBox.from_pair(bumped) is None

    def refuse(*args):
        raise AssertionError("stepped with the polynomial operators")

    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    assert evaluate_sequence(seq)._box is None
    trace = run_decision(bumped, 8, TOL)
    assert trace.accepted
    assert sum(isinstance(step, PhaseReduction) for step in trace.steps) == 8


# -- decide -----------------------------------------------------------------------


def test_decide_identity_pair():
    assert decide(identity_pair(), 0, TOL) is True
    assert decide(identity_pair(), 1, TOL) is False
    assert decide(identity_pair(), 2, TOL) is True


def test_decide_signal_pair():
    assert decide(signal_pair(), 1, TOL) is True


def test_decide_rejects_monomial_pair():
    pair = PQPair(LaurentPoly(1, {(1,): 1.0}), LaurentPoly.zero(1))
    assert decide(pair, 1, TOL) is False


def test_decide_counterexample():
    assert decide(counterexample_pair(), 4, TOL) is False


def test_decide_negative_steps():
    with pytest.raises(ValueError):
        decide(identity_pair(), -1, TOL)


def test_decide_is_deterministic():
    # a distinct but equal pair on one side, so that both sides walk
    pair, _ = oracle_pair(3, 8, seed=21)
    assert run_decision(pair, 8, TOL) == run_decision(PQPair(pair.p, pair.q), 8, TOL)


class Index:
    """An integer type that is not an ``int``: ``operator.index`` takes it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_budget_must_be_an_integer():
    pair, _ = oracle_pair(2, 4, seed=3)
    line, _ = oracle_pair(1, 4, seed=3)
    s = sum(engine.effective_degrees(pair, TOL))
    for n in (float(s), s + 0.5, float(s + 2)):
        with pytest.raises(TypeError):
            run_decision(pair, n, TOL)
        with pytest.raises(TypeError):
            decide(pair, n, TOL)
        with pytest.raises(TypeError):
            synthesize(pair, n, TOL)
        with pytest.raises(TypeError):
            check_necessary(pair, n, TOL)
    for n in (4.0, 4.5, 6.0):
        with pytest.raises(TypeError):
            qsp1_characterize(line, n, TOL)

    for k in (s, s + 1, s + 2):
        assert run_decision(pair, Index(k), TOL) == run_decision(pair, k, TOL)
        report = check_necessary(pair, Index(k), TOL)
        assert report == check_necessary(pair, k, TOL)
        assert type(report.steps) is int
    for k in (3, 4, 6):
        assert qsp1_characterize(line, Index(k), TOL) is qsp1_characterize(line, k, TOL)
    assert qsp1_characterize(line, Index(4), TOL) is True
    # the generator's counts too, when it is configured, not when it draws
    for args in ((1, 3.0, 1), (2.0, 3, 1)):
        with pytest.raises(TypeError):
            OracleConfig(*args)
    cfg = OracleConfig(Index(2), Index(3), 1)
    assert cfg == OracleConfig(2, 3, 1)
    assert type(cfg.variables) is int and type(cfg.steps) is int


def test_budget_past_the_bound_is_refused():
    # a budget is paid in identity pads, one record each: 10**9 steps would
    # have asked for tens of gigabytes before the decision answered
    bound = laurent.MAX_STEPS
    calls = [run_decision, decide, synthesize, check_necessary, qsp1_characterize]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^need at most {bound} steps, got {bound + 1}$"):
            call(identity_pair(), bound + 1, TOL)
    with pytest.raises(ValueError, match=rf"^need at most {bound} steps, got {'9' * 100}\.\.\.$"):
        OracleConfig(1, 10**150 - 1, 1)
    # the bound itself is a budget: pads down to 0, then the base case
    assert decide(identity_pair(), bound, TOL)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_tolerance_must_be_finite_and_non_negative(tol):
    # a NaN tolerance synthesized the witness pair, with a sequence that
    # rebuilds it to 0.54, and a negative one rejected the identity; the
    # witness's top a_1 slices matched at a NaN tolerance, both variables at
    # an infinite one, and a NaN one gave the degrees (0, 0)
    calls = [
        lambda: decide(identity_pair(), 0, tol),
        lambda: synthesize(counterexample_pair(), 4, tol),
        lambda: run_decision(signal_pair(), 1, tol),
        lambda: check_necessary(identity_pair(), 0, tol),
        lambda: qsp1_characterize(signal_pair(), 1, tol),
        lambda: find_phase(counterexample_pair(), 1, 2, tol),
        lambda: find_phase(PairBox.from_pair(signal_pair()), 1, 1, tol),
        lambda: engine.effective_degrees(counterexample_pair(), tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            call()


def test_zero_tolerance_decides():
    assert decide(identity_pair(), 0, 0.0) and decide(signal_pair(), 3, 0.0)
    assert synthesize(identity_pair(), 2, 0.0).constructible
    assert run_decision(signal_pair(), 1, 0.0).accepted
    assert not decide(counterexample_pair(), 4, 0.0)
    assert check_necessary(identity_pair(), 0, 0.0).all_ok
    assert qsp1_characterize(identity_pair(), 2, 0.0)


def test_trace_shape():
    trace = run_decision(identity_pair(), 4, TOL)
    assert isinstance(trace.steps[-1], BaseAccept)
    assert all(not isinstance(s, (BaseAccept, Reject)) for s in trace.steps[:-1])
    pair, _ = oracle_pair(2, 6, seed=3)
    trace = run_decision(pair, 6, TOL)
    reductions = [s for s in trace.steps if isinstance(s, PhaseReduction)]
    assert len(reductions) <= 6


def test_padding_takes_one_degree_scan(monkeypatch):
    scans = []
    scan = engine.effective_degrees

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(engine, "effective_degrees", counted)
    trace = run_decision(identity_pair(), 2000, TOL)
    assert len(scans) <= 2
    assert trace.steps == tuple(map(IdentityPad, range(2000, 0, -2))) + (BaseAccept(0.0),)
    scans.clear()
    trace = run_decision(signal_pair(), 2001, TOL)
    assert len(scans) <= 2
    assert trace.steps[:-2] == tuple(map(IdentityPad, range(2001, 1, -2)))
    assert [type(step) for step in trace.steps[-2:]] == [PhaseReduction, BaseAccept]
    assert trace.steps[-2].steps_left == 1
    scans.clear()
    assert run_decision(identity_pair(), 2001, TOL).steps[-1] == Reject(1, REASON_DEGREE)
    assert len(scans) <= 2


def budget_loop_steps(pair: PQPair, n: int, tol: float) -> list:
    """The decision as one loop over the budget ``n``, taking pads and peels
    as they come and scanning degrees at every level: the reference that
    ``run_decision``, pads composed onto one walk per pair, must equal."""
    steps = []
    current = PairBox.from_pair(pair) or pair
    remaining = n
    while True:
        if remaining == 0:
            steps.append(engine._base_case(current, tol))
            return steps
        degs = engine.effective_degrees(current, tol)
        total = sum(degs)
        if total <= remaining - 2:
            pads = range(remaining, total + 1, -2)
            steps += map(IdentityPad, pads)
            remaining -= 2 * len(pads)
            if remaining == 0:
                continue
        if total != remaining:
            steps.append(Reject(remaining, REASON_DEGREE))
            return steps
        for j in range(1, current.variables + 1):
            phi = find_phase(current, j, degs[j - 1], tol)
            if phi is not None:
                current = reduce_step(current, j, phi)
                cutoff = tol * max(1.0, *current._moduli)
                current = current._truncated(j, degs[j - 1] - 1, cutoff)
                steps.append(PhaseReduction(remaining, j, phi, current.to_pair()))
                remaining -= 1
                break
        else:
            steps.append(Reject(remaining, REASON_PHASE))
            return steps


def step_signature(steps) -> list:
    """The repr of every step plus the fingerprints of every reduced pair."""
    signature = [repr(step) for step in steps]
    for step in steps:
        if isinstance(step, PhaseReduction):
            signature.append((fingerprint(step.reduced.p), fingerprint(step.reduced.q)))
    return signature


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("tol", [0.0, 1e-16, 1e-9, 1e-3])
def test_every_budget_is_pads_and_one_walk(m, mode, tol):
    # realizable, scaled and perturbed pairs at every budget up to three
    # past the degree sum, decided in ascending order on one pair object so
    # that later budgets reuse the kept walk
    for seed in range(3):
        n = 2 + 2 * seed
        pair, _ = oracle_pair(m, n, 400 * m + seed, mode)
        for case in (pair, scaled_pair(pair, 3.7), perturb_pair(pair, seed)):
            s = sum(engine.effective_degrees(case, tol))
            for k in range(s + 4):
                trace = run_decision(case, k, tol)
                expected = budget_loop_steps(case, k, tol)
                assert step_signature(trace.steps) == step_signature(expected), (seed, k)


def test_walk_pads_after_a_peel_that_drops_two_degrees():
    # at tol 1e-3 the first peel of this pair leaves a degree sum two below
    # the budget, so the walk itself pads before peeling on
    pair, _ = oracle_pair(2, 8, 1)
    s = sum(engine.effective_degrees(pair, 1e-3))
    kinds = [type(step) for step in run_decision(pair, s, 1e-3).steps]
    assert kinds.index(IdentityPad) > kinds.index(PhaseReduction)
    for k in range(s + 4):
        expected = budget_loop_steps(pair, k, 1e-3)
        assert step_signature(run_decision(pair, k, 1e-3).steps) == step_signature(expected), k


def test_walk_pads_down_to_zero_steps():
    # at tol 0.05 the one peel of this pair leaves degree 0 with two steps
    # left, so the walk pads to zero steps and the base case decides
    pair, _ = oracle_pair(1, 5, 53, "discrete")
    s = sum(engine.effective_degrees(pair, 0.05))
    assert s == 3
    steps = run_decision(pair, s, 0.05).steps
    assert steps[-2:] == (IdentityPad(2), Reject(0, REASON_BASE))
    assert step_signature(steps) == step_signature(budget_loop_steps(pair, s, 0.05))


@pytest.mark.parametrize("tol", [0.0, 1e-16, 1e-15])
def test_walk_keeps_the_rows_below_the_peeled_degree(layout, tol):
    # P = t (a^3 + a^-3) + a + a^-1 and Q = t (a^3 - a^-3) + a - a^-1 match at
    # degree 3 with phase 0.  The peel leaves 1.55e-15 at a^+-2 and 2 at a^0,
    # so rows +-2 sit under the rounding floor 1e-15 * 2, but above tol * 2
    # at the two smaller tolerances.  The walk trims only the rows beyond
    # +-2, so they stay, and the degree scan sees them.  A second trim of
    # every end row at the floor dropped them: the walk padded down to the
    # constant 2, which the base case rejected
    t = 1.5e-15
    pair = PQPair(
        LaurentPoly(1, {(3,): t, (1,): 1.0, (-1,): 1.0, (-3,): t}),
        LaurentPoly(1, {(3,): t, (1,): 1.0, (-1,): -1.0, (-3,): -t}),
    )
    steps = run_decision(pair, 3, tol).steps
    reduced = steps[0].reduced
    assert sorted(reduced.p.terms) == [(-2,), (0,), (2,)]
    assert sorted(reduced.q.terms) == [(-2,), (2,)]
    assert reduced.p.terms[(0,)] == 2.0 and reduced.p.terms[(2,)].real < 2e-15
    if tol < 1e-15:
        rest = [PhaseReduction(2, 1, 0.0, None), Reject(1, REASON_PHASE)]
    else:
        # at the floor itself the rows are kept but not seen
        rest = [IdentityPad(2), Reject(0, REASON_BASE)]
    assert list(map(repr, steps)) == list(map(repr, [PhaseReduction(3, 1, 0.0, None), *rest]))


def test_base_case_rejects_a_visible_q():
    pair = PQPair(LaurentPoly.constant(1, 1.0), LaurentPoly.constant(1, 0.5))
    assert engine._base_case(pair, TOL) == Reject(0, REASON_BASE)
    assert run_decision(pair, 0, TOL).steps == (Reject(0, REASON_BASE),)


def test_greedy_variable_choice_loses_no_pair():
    # the walk peels the first variable whose slices match; at every level
    # where another variable matches too, peeling that one instead and
    # deciding the rest must still accept
    alternatives = 0
    for m in (2, 3):
        for n in range(2, 9):
            for mode in ("continuous", "discrete"):
                for seed in range(3):
                    pair, _ = oracle_pair(m, n, 7000 + 100 * m + 10 * n + seed, mode)
                    trace = run_decision(pair, n, TOL)
                    assert trace.accepted
                    state = PairBox.from_pair(pair) or pair
                    for step in trace.steps:
                        if not isinstance(step, PhaseReduction):
                            continue
                        degs = engine.effective_degrees(state, TOL)
                        for j in range(1, m + 1):
                            phi = find_phase(state, j, degs[j - 1], TOL)
                            if j == step.index or phi is None:
                                continue
                            alternatives += 1
                            rest = reduce_step(state, j, phi).to_pair()
                            assert decide(rest, step.steps_left - 1, TOL), (m, n, mode, seed, j)
                        state = step.state
    assert alternatives


def test_equal_pairs_give_equal_traces():
    pair, _ = oracle_pair(2, 8, seed=5)
    twin = copy.deepcopy(pair)
    assert twin == pair and twin is not pair and twin.p is not pair.p
    for k in (8, 9, 10):
        assert run_decision(twin, k, TOL) == run_decision(pair, k, TOL)


def test_interleaved_pairs_keep_their_own_traces():
    a, _ = oracle_pair(2, 8, seed=5)
    b, _ = oracle_pair(3, 6, seed=6)
    first = run_decision(a, 8, TOL)
    assert run_decision(b, 6, TOL).accepted
    again = run_decision(a, 10, TOL)
    assert again.steps == (IdentityPad(10),) + first.steps
    assert step_signature(again.steps) == step_signature(budget_loop_steps(a, 10, TOL))


def test_walk_is_kept_per_pair_and_tolerance(monkeypatch):
    walks = []
    walk = engine._walk

    def counted(current, degs, tol):
        walks.append(tol)
        return walk(current, degs, tol)

    monkeypatch.setattr(engine, "_walk", counted)
    pair, _ = oracle_pair(2, 8, seed=5)
    assert decide(pair, 8, TOL) and synthesize(pair, 8, TOL).constructible
    assert not decide(pair, 9, TOL) and decide(pair, 10, TOL) and decide(pair, 30, TOL)
    assert walks == [TOL]
    # the same object at another tolerance is walked again
    loose = run_decision(pair, 8, 1e-3)
    assert walks == [TOL, 1e-3]
    assert step_signature(loose.steps) == step_signature(budget_loop_steps(pair, 8, 1e-3))
    assert decide(pair, 8, TOL) and walks == [TOL, 1e-3, TOL]


def test_one_walk_is_kept():
    a, _ = oracle_pair(2, 8, seed=5)
    b, _ = oracle_pair(2, 8, seed=6)
    held = sys.getrefcount(a)
    run_decision(a, 8, TOL)
    assert sys.getrefcount(a) == held + 1
    run_decision(b, 8, TOL)
    assert sys.getrefcount(a) == held
    assert engine._last_walk[0] is b
    # a budget that needs no walk leaves the kept one in place
    assert run_decision(a, 3, TOL).rejection == Reject(3, REASON_DEGREE)
    assert run_decision(a, 9, TOL).rejection == Reject(9, REASON_DEGREE)
    assert engine._last_walk[0] is b and sys.getrefcount(a) == held


def test_concurrent_callers_get_their_own_traces():
    # more threads than cores, switching often, each deciding its own pair
    # at several budgets: a caller must never see another pair's walk
    cases = [oracle_pair(1, 4, seed=20 + i)[0] for i in range(8)]
    expected = [
        [run_decision(copy.deepcopy(pair), k, TOL) for k in (4, 5, 6)] for pair in cases
    ]
    wrong = []

    def decide_often(i):
        for _ in range(300):
            for k, trace in zip((4, 5, 6), expected[i]):
                if run_decision(cases[i], k, TOL) != trace:
                    wrong.append((i, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decide_often, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def with_term_above(poly: LaurentPoly, top: LaurentPoly, j: int, coeff: complex) -> LaurentPoly:
    """``poly`` plus ``coeff`` one exponent above the degree of ``top`` in
    variable ``j``, at the largest key of ``top`` that reaches that degree."""
    d = top.degree(j)
    key = max(k for k in top.terms if k[j - 1] == d)
    key = key[: j - 1] + (d + 1,) + key[j:]
    terms = dict(poly.terms)
    terms[key] = terms.get(key, 0j) + coeff
    return LaurentPoly(poly.variables, terms)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_peel_keeps_terms_above_the_degree(m):
    """A term above P's degree, in Q (even at 1e-7) or in P, makes a
    realizable pair unrealizable at its n.  The degree scan reads P only, so
    a junk Q term is caught only because each peel carries it along; a peel
    that dropped every row above the new degree would accept these pairs."""
    for n in range(2, 9):
        for seed in range(4):
            pair, _ = oracle_pair(m, n, 7100 + 10 * n + seed)
            assert decide(pair, n, TOL)
            for j in range(1, m + 1):
                for in_q, size in ((True, 1e-2), (True, 1e-7), (False, 1e-2)):
                    coeff = size * cmath.exp(0.7j)
                    if in_q:
                        junk = PQPair(pair.p, with_term_above(pair.q, pair.p, j, coeff))
                    else:
                        junk = PQPair(with_term_above(pair.p, pair.p, j, coeff), pair.q)
                    assert not decide(junk, n, TOL), (n, seed, j, in_q, size)


def visible_degree(pair: PQPair, j: int) -> int:
    """Degree of P in variable ``j`` over the coefficients above TOL times
    the coefficient scale of the pair."""
    cutoff = TOL * max(1.0, pair.p.max_modulus(), pair.q.max_modulus())
    return max((abs(k[j - 1]) for k, c in pair.p.terms.items() if abs(c) > cutoff), default=0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_peel_truncates_to_the_new_degree(m, mode):
    """After every peel at degree d of variable j, no stored term of P or Q
    has |exponent of j| above d - 1: the residue rows are gone, not merely
    small.  A peel that left them would keep the verdicts but grow the box
    by a row per level."""
    for n in range(1, 13 - m):
        for seed in range(4):
            pair, _ = oracle_pair(m, n, 7400 + 10 * n + seed, mode)
            before = pair
            for step in run_decision(pair, n, TOL).steps:
                if isinstance(step, PhaseReduction):
                    j, after = step.index, step.reduced
                    d = visible_degree(before, j)
                    keys = [*after.p.terms, *after.q.terms]
                    assert max(abs(k[j - 1]) for k in keys) <= d - 1, (n, seed, step)
                    before = after


def within_half_tol(seq: MqspSequence, tol: float, rng: random.Random) -> PQPair:
    """The pair of ``seq`` with up to three of its terms in each of P and Q
    bumped, and three terms added to each where the product has none: above
    its degree in one variable, at the wrong parity there, or both.  Every
    change is at most tol / 2 in modulus."""
    pair = evaluate_sequence(seq)
    counts = [seq.indices.count(j) for j in range(1, seq.variables + 1)]

    def bump() -> complex:
        return tol / 2 * rng.random() * cmath.exp(2j * math.pi * rng.random())

    polys = []
    for poly in (pair.p, pair.q):
        terms = dict(poly.terms)
        for key in rng.sample(sorted(terms), min(3, len(terms))):
            terms[key] += bump()
        for _ in range(3):
            key = [rng.randint(-c, c) for c in counts]
            i = rng.randrange(seq.variables)
            c = counts[i]
            key[i] = rng.choice([c + 1, c + 2, -(c + 1), -(c + 2), c - 1 if c else 1])
            terms[tuple(key)] = terms.get(tuple(key), 0j) + bump()
        polys.append(LaurentPoly(seq.variables, terms))
    return PQPair(*polys)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_opening_degree_rejects_are_sound(m, tol):
    """For a pair within ``tol`` of an n-step product, every term of P
    visible at ``tol`` is a term of the product.  So the degree sum s is at
    most n and has n's parity: neither opening reject fires at n, and the
    parity reject at n + 1 is right."""
    rng = random.Random(8000 + m)
    for mode in ANGLE_MODES:
        for n in range(9):
            seq = random_sequence(OracleConfig(m, n, 8000 + 100 * m + n, mode))
            near = within_half_tol(seq, tol, rng)
            assert near.approx_eq(evaluate_sequence(seq), tol)
            # tol <= 1 / (2 L + 1) for L <= 2^n terms of the product's P
            assert near._visible_degrees(tol * max(1.0, *near._moduli)) is not None
            s = sum(engine.effective_degrees(near, tol))
            assert s <= n and (n - s) % 2 == 0, (mode, n, s)
            steps = run_decision(near, n, tol).steps
            assert steps[: (n - s) // 2] == tuple(map(IdentityPad, range(n, s, -2)))
            assert steps[(n - s) // 2 :] and not isinstance(steps[(n - s) // 2], IdentityPad)
            assert run_decision(near, n + 1, tol).rejection == Reject(s + 1, REASON_DEGREE)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e-3, 3.7, 1e300, 1.7e308])
def test_decision_survives_extreme_scales(layout, scale):
    """The peel multiplies without cuts.  Realizable pairs scaled by any of
    these factors still decide without an exception, and are rejected at
    the base case: a tiny pair pads down to step 0, and any other scale
    peels to a constant that is not unimodular."""
    for m in (1, 2, 3, 4):
        for mode in ("continuous", "discrete"):
            for n in (2, 4, 6):
                pair, _ = oracle_pair(m, n, 7300 + 10 * n, mode)
                trace = run_decision(scaled_pair(pair, scale), n, TOL)
                assert trace.rejection == Reject(0, REASON_BASE), (m, mode, n)


def signal_pair_times(c: complex) -> PQPair:
    """c (a + a^{-1}) and c (a - a^{-1}): the top slices match at phase 0,
    and the peel doubles the constant."""
    return PQPair(LaurentPoly(1, {(1,): c, (-1,): c}), LaurentPoly(1, {(1,): c, (-1,): -c}))


@pytest.mark.parametrize(
    "c",
    [1e308, 1e308j, 1e308 * cmath.exp(0.25j * math.pi)],
    ids=["real", "imaginary", "finite-past-its-modulus"],
)
def test_an_overflowing_peel_is_rejected(layout, c):
    # the peeled constant is past the largest double, or, for the last c,
    # finite with a modulus past it; both used to raise from the peel
    pair = signal_pair_times(c)
    assert (PairBox.from_pair(pair) is not None) == (layout == "box")
    assert run_decision(pair, 1, TOL).steps == (Reject(1, REASON_OVERFLOW),)
    assert run_decision(pair, 3, TOL).steps == (IdentityPad(3), Reject(1, REASON_OVERFLOW))
    result = synthesize(pair, 1, TOL)
    assert not result.constructible and result.trace.rejection == Reject(1, REASON_OVERFLOW)
    # a pair whose peel stays finite keeps its trace
    steps = run_decision(signal_pair_times(c * 0.8), 1, TOL).steps
    assert [type(step) for step in steps] == [PhaseReduction, Reject]
    assert steps[-1] == Reject(0, REASON_BASE)


def test_an_overflowing_slice_mismatch_is_no_match(layout):
    # the a1 slices mismatch by a modulus past the largest double, which
    # used to raise OverflowError from find_phase; the a2 slices match at
    # e^{2i phi} = -1, and that peel overflows
    pair = OVERFLOWING_MISMATCH
    current = PairBox.from_pair(pair) or pair
    assert (current is not pair) == (layout == "box")
    assert find_phase(current, 1, 1, TOL) is None
    assert find_phase(current, 2, 1, TOL) == math.pi / 2
    assert run_decision(pair, 2, TOL).steps == (Reject(2, REASON_OVERFLOW),)


# -- synthesize ----------------------------------------------------------------------


def test_synthesize_identity_padding_values():
    result = synthesize(identity_pair(), 2, TOL)
    assert result.constructible
    assert result.sequence.phases == (0.0, math.pi / 2, -math.pi / 2)
    assert result.sequence.indices == (1, 1)


def test_synthesize_signal_pair():
    result = synthesize(signal_pair(), 1, TOL)
    assert result.sequence.phases == (0.0, 0.0)
    assert result.sequence.indices == (1,)


def test_synthesize_unconstructible_has_no_sequence():
    result = synthesize(counterexample_pair(), 4, TOL)
    assert not result.constructible
    assert result.sequence is None
    assert result.trace.rejection is not None


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_synthesize_roundtrip(seed, mode):
    # the synthesized parameters need not match the generating ones, but the
    # pair they evaluate to must
    m = 1 + seed % 3
    n = (3 * seed) % 11
    pair, _ = oracle_pair(m, n, seed, mode)
    result = synthesize(pair, n, TOL)
    assert result.constructible
    assert result.sequence.steps == n
    rebuilt = evaluate_sequence(result.sequence)
    assert rebuilt.max_deviation(pair) <= TOL


# -- necessary-condition prefilter ------------------------------------------------------


@pytest.mark.parametrize("seed,m,n,mode", [
    pytest.param(0, 1, 3, "continuous", id="0-1-3"),
    pytest.param(1, 2, 4, "continuous", id="1-2-4"),
    pytest.param(2, 3, 6, "continuous", id="2-3-6"),
    # the deep benchmark cells, whose degrees the filters read off the
    # stored terms of evaluated pairs, cut once per step
    pytest.param(3, 1, 40, "discrete", id="3-1-40-discrete"),
    pytest.param(4, 2, 30, "discrete", id="4-2-30-discrete"),
    pytest.param(5, 3, 20, "discrete", id="5-3-20-discrete"),
    pytest.param(6, 4, 16, "discrete", id="6-4-16-discrete"),
    # keeps a term of 1.6e-15 at a1^+-7 a2^+-9, the top exponents of a1 and
    # a2, which cuts inside each step dropped
    pytest.param(504342, 4, 34, "continuous", id="504342-4-34"),
])
def test_check_necessary_accepts_oracle_pairs(seed, m, n, mode):
    pair, _ = oracle_pair(m, n, seed, mode)
    report = check_necessary(pair, n, TOL)
    assert report.all_ok
    assert report.degrees == pair.p.degrees()
    assert report.degree_sum == sum(pair.p.degrees())


def test_check_necessary_flags_broken_symmetry():
    pair = PQPair(LaurentPoly(1, {(1,): 1.0}), LaurentPoly.zero(1))
    report = check_necessary(pair, 1, TOL)
    assert not report.symmetry_p
    assert not report.all_ok


def test_check_necessary_flags_parity():
    report = check_necessary(identity_pair(), 1, TOL)
    assert not report.parity_ok
    # flags are computed independently: everything else still passes
    assert report.symmetry_p and report.symmetry_q and report.normalization_ok
    assert report.degree_equality and report.p_nonzero


def product_form_report(pair: PQPair, n: int) -> NecessaryReport:
    """check_necessary with the unit-norm identity multiplied out in full and
    the degrees compared one variable at a time."""
    p, q = pair.p, pair.q
    one = LaurentPoly.constant(pair.variables, 1.0)
    return NecessaryReport(
        symmetry_p=p.invert_vars().approx_eq(p, TOL),
        symmetry_q=q.invert_vars().approx_eq(-q, TOL),
        degree_equality=all(p.degree(j) == q.degree(j) for j in range(1, pair.variables + 1)),
        p_nonzero=not p.is_zero(TOL),
        parity_ok=(sum(p.degrees()) - n) % 2 == 0,
        normalization_ok=unit_norm_product(pair).approx_eq(one, TOL),
        degrees=p.degrees(),
        degree_sum=sum(p.degrees()),
        steps=n,
    )


def test_check_necessary_is_the_product_form_report():
    witness = counterexample_pair()
    unequal_degrees = PQPair(witness.p, LaurentPoly.zero(2))
    for pair in (witness, unequal_degrees):
        for n in (4, 5, 6):
            assert check_necessary(pair, n, TOL) == product_form_report(pair, n)
    assert not check_necessary(unequal_degrees, 4, TOL).degree_equality
    # the acceptance corpus, each pair also with one coefficient moved by 1e-3
    for i, cfg in enumerate(corpus_configs()):
        pair = evaluate_sequence(random_sequence(cfg))
        report = check_necessary(pair, cfg.steps, TOL)
        assert report == product_form_report(pair, cfg.steps)
        assert report.all_ok
        broken = perturb_pair(pair, i)
        report = check_necessary(broken, cfg.steps, TOL)
        assert report == product_form_report(broken, cfg.steps)
        assert not report.normalization_ok


def test_check_necessary_negative_steps():
    with pytest.raises(ValueError, match="non-negative"):
        check_necessary(identity_pair(), -1, TOL)


def test_check_necessary_fails_the_identity_on_overflow():
    pair = PQPair(LaurentPoly(1, {(0,): 1e160}), LaurentPoly.zero(1))
    report = check_necessary(pair, 0, TOL)
    assert not report.normalization_ok and not report.all_ok
    assert report.symmetry_p and report.symmetry_q and report.parity_ok


def test_check_necessary_counterexample_all_true_yet_rejected():
    pair = counterexample_pair()
    assert check_necessary(pair, 4, TOL).all_ok
    assert not decide(pair, 4, TOL)


# -- single-variable characterization ------------------------------------------------------


def test_qsp1_signal_pair():
    assert qsp1_characterize(signal_pair(), 1, TOL) is True


def test_qsp1_rejects_wrong_parity():
    assert qsp1_characterize(identity_pair(), 1, TOL) is False


def test_qsp1_requires_arity_one():
    with pytest.raises(ValueError):
        qsp1_characterize(counterexample_pair(), 4, TOL)


def test_qsp1_negative_steps():
    with pytest.raises(ValueError, match="non-negative"):
        qsp1_characterize(signal_pair(), -1, TOL)


def test_qsp1_rejects_on_the_parity_of_q_alone(monkeypatch):
    # P = 1 is even under a -> -a, as n = 2 asks, and Q = (a - a^-1)/2 has
    # the inversion antisymmetry but is odd: the closed form rejects before
    # the unit-norm identity
    pair = PQPair(LaurentPoly.constant(1, 1.0), LaurentPoly(1, {(1,): 0.5, (-1,): -0.5}))

    def refuse(self, tol):
        raise AssertionError("reached the unit-norm identity")

    monkeypatch.setattr(PQPair, "is_normalized", refuse)
    assert qsp1_characterize(pair, 2, TOL) is False


def test_qsp1_rejects_an_overflowing_pair():
    # |P|^2 overflows: the identity used to pass at a scale of inf
    pair = PQPair(LaurentPoly(1, {(0,): 1e160}), LaurentPoly.zero(1))
    assert qsp1_characterize(pair, 0, TOL) is False
    assert not decide(pair, 0, TOL)


@pytest.mark.parametrize("seed", range(12))
def test_qsp1_agrees_with_decide(seed):
    n = seed % 7
    pair, _ = oracle_pair(1, n, seed)
    assert qsp1_characterize(pair, n, TOL) == decide(pair, n, TOL) is True
    broken = perturb_pair(pair, seed)
    assert qsp1_characterize(broken, n, TOL) == decide(broken, n, TOL) is False


# -- term bound --------------------------------------------------------------------------


def test_term_bound_values():
    assert term_bound(identity_pair()) == 1
    assert term_bound(signal_pair()) == 2
    assert term_bound(counterexample_pair()) == 9


@pytest.mark.parametrize("m,n", [(1, 12), (2, 9), (3, 7), (4, 6)])
def test_term_bound_is_the_box(m, n):
    # realizable pairs fill their parity-lattice box: prod_j (d_j + 1)
    for seed in range(4):
        pair, _ = oracle_pair(m, n, 50 * m + seed)
        bound = math.prod(d + 1 for d in pair.p.degrees())
        assert term_bound(pair) == bound == max(len(pair.p), len(pair.q))
    # mixed parities need stride 1: prod_j (2 d_j + 1)
    mixed = PQPair(
        LaurentPoly(2, {(-2, 1): 0.1, (1, -1): 0.2, (2, 0): 0.3}), LaurentPoly(2, {(0, 1): 0.4})
    )
    assert term_bound(mixed) == (2 * 2 + 1) * (2 * 1 + 1)
