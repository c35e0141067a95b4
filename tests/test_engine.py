"""Decision, synthesis, prefilters and the arity-1 cross-check."""

from __future__ import annotations

import cmath
import copy
import math
import sys
import threading

import pytest

from mqsp import (
    BaseAccept,
    IdentityPad,
    LaurentPoly,
    MqspSequence,
    NecessaryReport,
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
from mqsp import engine, laurent, su2
from mqsp.engine import REASON_BASE, REASON_DEGREE, REASON_PHASE
from mqsp.fixtures import counterexample_pair, identity_pair, signal_pair
from mqsp.su2 import PairBox
from helpers import (
    M20_CORNERS,
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


def test_find_phase_rejects_non_unimodular_ratio():
    pair = PQPair(half_sum(1, 1) * 2.0, half_diff(1, 1))
    assert find_phase(pair, 1, 1, TOL) is None


def test_find_phase_ties_do_not_depend_on_storage_order():
    # two Q terms of exactly equal modulus in the a_1^1 slice, whose P
    # partners differ in angle by 1e-10, well inside the verification
    # tolerance: the angle is read at the lexicographically largest exponent,
    # (1, 1), whichever order the terms are stored in
    phi_low, phi_high = 0.3 + 1e-10, 0.3
    p = LaurentPoly(2, {(1, 1): 0.5 * cmath.exp(2j * phi_high), (1, -1): 0.5 * cmath.exp(2j * phi_low)})
    high_first = PQPair(p, LaurentPoly(2, {(1, 1): 0.5, (1, -1): 0.5}))
    low_first = PQPair(p, LaurentPoly(2, {(1, -1): 0.5, (1, 1): 0.5}))
    phi = find_phase(high_first, 1, 1, TOL)
    assert phi == pytest.approx(phi_high, abs=1e-14)
    assert repr(find_phase(low_first, 1, 1, TOL)) == repr(phi)
    # on the dense box, (1, 1) holds the last maximum of the slice
    assert repr(find_phase(PairBox.from_pair(low_first), 1, 1, TOL)) == repr(phi)


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


def test_box_steps_keep_signed_zeros_and_holes():
    # parts that are -0.0, slots of the box that hold no term, and phases in
    # every quadrant: the peel on the box gives the un-cut general products'
    # values and evaluation the cut ones, signs of zero parts included
    p = LaurentPoly(2, {
        (-1, 0): complex(-0.5, -0.0),
        (1, 0): complex(-0.5, -0.0),
        (1, 2): complex(-0.0, 0.25),
        (-1, -2): complex(0.1, 0.0),
    })
    q = LaurentPoly(2, {(1, 0): complex(-0.0, -0.3), (-1, 2): complex(0.2, -0.0)})
    # Q's two halves (-0.25 - 0j) add up to -0.5 + 0j only when the first
    # is added to 0j first, as the product does; at phi = 0 that sign
    # reaches the peeled Q
    minus_zero = LaurentPoly(1, {(-1,): complex(-0.5, -0.0), (1,): complex(-0.5, -0.0)})
    for pair in (PQPair(p, q), PQPair(half_sum(1, 1), minus_zero)):
        box = PairBox.from_pair(pair)
        assert len(box.p) in (6, 2)
        for j in range(1, pair.variables + 1):
            for phi in (0.0, 1.0, 2.0, math.pi, -2.0, -1.0):
                peeled = reduce_step(box, j, phi).to_pair()
                product = product_form_reduction(pair, j, phi)
                assert fingerprint(peeled.p) == fingerprint(product.p)
                assert fingerprint(peeled.q) == fingerprint(product.q)
                phase = cmath.exp(1j * phi)
                extended, product = box._extend(j, phase).to_pair(), pair._extend(j, phase)
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
    # imaginary part > 0), which makes 0j into (-0.0 + 0j); Q's half at the
    # constant, (sin phi) + (cos phi) i, turns to a real part of exactly
    # +0.0.  The un-cut product holds no P term there, so the peeled P
    # coefficient is 0j - (+0.0 + ...), and the box must not leave a -0.0
    phi = -2.0
    e = cmath.exp(1j * phi)
    v = complex(e.imag, e.real)
    assert (v * e).real == 0.0
    pair = PQPair(LaurentPoly(1, {(3,): 0.5}), LaurentPoly(1, {(-1,): 2 * v}))
    peeled = reduce_step(PairBox.from_pair(pair), 1, phi).to_pair()
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


def test_budget_must_be_an_integer():
    pair, _ = oracle_pair(2, 4, seed=3)
    s = sum(engine.effective_degrees(pair, TOL))
    for n in (float(s), s + 0.5, float(s + 2)):
        with pytest.raises(TypeError):
            run_decision(pair, n, TOL)
        with pytest.raises(TypeError):
            decide(pair, n, TOL)
        with pytest.raises(TypeError):
            synthesize(pair, n, TOL)

    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    for k in (s, s + 1, s + 2):
        assert run_decision(pair, Index(k), TOL) == run_decision(pair, k, TOL)


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
                steps.append(PhaseReduction(remaining, j, phi, current))
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
@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
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


@pytest.mark.parametrize("seed,m,n", [(0, 1, 3), (1, 2, 4), (2, 3, 6)])
def test_check_necessary_accepts_oracle_pairs(seed, m, n):
    pair, _ = oracle_pair(m, n, seed)
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
