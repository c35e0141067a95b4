"""Signal operators, z-rotations, products and sequence evaluation."""

from __future__ import annotations

import cmath
import copy
import math
import pickle
import tracemalloc
from unittest import mock

import pytest

from mqsp import (
    LaurentPoly,
    Mat2,
    MqspSequence,
    OracleConfig,
    PQPair,
    evaluate_sequence,
    half_diff,
    half_sum,
    identity_matrix,
    pair_to_matrix,
    random_sequence,
    signal_operator,
    z_rotation,
)
from mqsp import box as half_box, documents, laurent, roundtrip_check, su2
from helpers import (
    M20_CORNERS,
    SPAN_100001,
    extend_sequence,
    fingerprint,
    layout,
    no_box,
    oracle_pair,
    perturb_pair,
    unit_norm_product,
)

TOL = 1e-9


def test_signal_operator_entries():
    op = signal_operator(1, 1)
    cos_part = LaurentPoly(1, {(1,): 0.5, (-1,): 0.5})
    sin_part = LaurentPoly(1, {(1,): 0.5, (-1,): -0.5})
    assert op.a == cos_part and op.d == cos_part
    assert op.b == sin_part and op.c == sin_part


def test_signal_operator_second_variable():
    op = signal_operator(2, 2)
    assert op.a == LaurentPoly(2, {(0, 1): 0.5, (0, -1): 0.5})


def test_signal_operator_determinant_is_one():
    # ((a+a^-1)/2)^2 - ((a-a^-1)/2)^2 collapses to 1 exactly
    for j, m in ((1, 1), (2, 3)):
        assert signal_operator(j, m).determinant() == LaurentPoly.constant(m, 1.0)


def test_signal_operator_index_out_of_range():
    with pytest.raises(IndexError):
        signal_operator(3, 2)


@pytest.mark.parametrize("half", [half_sum, half_diff])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_half_factors_index_out_of_range(half, m):
    for j in (0, m + 1):
        with pytest.raises(IndexError):
            half(j, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_half_factors_are_the_two_term_polynomials(m):
    for j in range(1, m + 1):
        up = tuple(1 if i == j else 0 for i in range(1, m + 1))
        down = tuple(-e for e in up)
        assert fingerprint(half_sum(j, m)) == fingerprint(LaurentPoly(m, {up: 0.5, down: 0.5}))
        assert fingerprint(half_diff(j, m)) == fingerprint(LaurentPoly(m, {up: 0.5, down: -0.5}))


def test_z_rotation_at_zero_is_identity():
    assert z_rotation(0.0, 2) == identity_matrix(2)


def test_z_rotation_quarter_turn():
    rot = z_rotation(math.pi / 2, 1)
    assert rot.a.approx_eq(LaurentPoly.constant(1, 1j), 1e-15)
    assert rot.d.approx_eq(LaurentPoly.constant(1, -1j), 1e-15)
    assert rot.b == LaurentPoly.zero(1) and rot.c == LaurentPoly.zero(1)


def test_z_rotation_inverse():
    product = z_rotation(0.7, 1) @ z_rotation(-0.7, 1)
    ident = identity_matrix(1)
    assert product.a.approx_eq(ident.a, 1e-15)
    assert product.d.approx_eq(ident.d, 1e-15)


def test_matmul_identity():
    op = signal_operator(1, 2)
    assert identity_matrix(2) @ op == op


def test_matmul_squared_signal_top_left():
    squared = signal_operator(1, 1) @ signal_operator(1, 1)
    assert squared.a == LaurentPoly(1, {(2,): 0.5, (-2,): 0.5})


def test_matmul_conjugated_signal_inverts():
    # A(a) times z(pi/2) A(a) z(-pi/2) is the identity: the padding relation
    a = signal_operator(1, 1)
    conjugated = z_rotation(math.pi / 2, 1) @ a @ z_rotation(-math.pi / 2, 1)
    product = a @ conjugated
    ident = identity_matrix(1)
    for got, want in zip(
        (product.a, product.b, product.c, product.d),
        (ident.a, ident.b, ident.c, ident.d),
    ):
        assert got.approx_eq(want, 1e-15)


def test_matmul_arity_mismatch():
    with pytest.raises(ValueError):
        signal_operator(1, 1) @ signal_operator(1, 2)


# -- sequence evaluation ---------------------------------------------------------


def test_evaluate_empty_sequence():
    pair = evaluate_sequence(MqspSequence(1, (0.0,), ()))
    assert pair.p == LaurentPoly.constant(1, 1.0)
    assert pair.q == LaurentPoly.zero(1)


def test_evaluate_single_signal_operator():
    pair = evaluate_sequence(MqspSequence(1, (0.0, 0.0), (1,)))
    assert pair.p == half_sum(1, 1)
    assert pair.q == half_diff(1, 1)


def test_evaluate_identity_padding():
    pair = evaluate_sequence(MqspSequence(1, (0.0, math.pi / 2, -math.pi / 2), (1, 1)))
    assert pair.p.approx_eq(LaurentPoly.constant(1, 1.0), 1e-15)
    assert pair.q.is_zero(1e-15)


def matrix_oracle_top_row(seq: MqspSequence) -> PQPair:
    """Top row of the full Mat2 product z(phi_0) A(s_1) z(phi_1) ... A(s_n) z(phi_n),
    each step A(s_k) z(phi_k) multiplied without cuts (a drop cutoff of 0
    keeps every nonzero coefficient) and then cut once, each entry at its
    own scale as LaurentPoly construction cuts."""
    mat = z_rotation(seq.phases[0], seq.variables)
    for phi, s in zip(seq.phases[1:], seq.indices):
        mat = matrix_oracle_step(mat, s, phi)
    return PQPair(mat.a, mat.b)


def matrix_oracle_step(mat: Mat2, s: int, phi: float) -> Mat2:
    """``mat`` times A(s) z(phi), multiplied without cuts and then cut
    once, each entry at its own scale."""
    m = mat.variables
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "DROP_EPS", 0.0)
        mat = mat @ signal_operator(s, m) @ z_rotation(phi, m)
    return Mat2(*(LaurentPoly(m, entry.terms) for entry in (mat.a, mat.b, mat.c, mat.d)))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_evaluate_is_bitwise_the_matrix_oracle(m, mode):
    # the shift-add kernel must round exactly like the matrix product:
    # same values (signed zeros included), same dropped terms, same key order
    for seed in range(3):
        for n in (1, 2, 5, 9):
            seq = random_sequence(OracleConfig(m, n, 1000 * m + 10 * seed + n, mode))
            kernel = evaluate_sequence(seq)
            oracle = matrix_oracle_top_row(seq)
            assert fingerprint(kernel.p) == fingerprint(oracle.p)
            assert fingerprint(kernel.q) == fingerprint(oracle.q)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_both_layouts_evaluate_bitwise_the_matrix_oracle(m, mode, layout):
    # on the dense box and on LaurentPoly terms alike; discrete angles make
    # exact cancellations, so boxes get trimmed and terms dropped
    for seed in range(3):
        for n in (3, 8, 12):
            seq = random_sequence(OracleConfig(m, n, 2000 * m + 10 * seed + n, mode))
            kernel = evaluate_sequence(seq)
            oracle = matrix_oracle_top_row(seq)
            assert fingerprint(kernel.p) == fingerprint(oracle.p)
            assert fingerprint(kernel.q) == fingerprint(oracle.q)


def recorded_box_sizes(monkeypatch) -> list:
    """The slot counts of the ``PairBox``es built from now on, as they are built."""
    built = []

    def record(box, rows, *args):
        built.append(math.prod(rows))
        original(box, rows, *args)

    original = half_box.PairBox.__init__
    monkeypatch.setattr(half_box.PairBox, "__init__", record)
    return built


def test_evaluation_leaves_a_box_that_gets_sparse(monkeypatch):
    # with zero phases, 20 signal operators on 20 variables multiply out to
    # two terms each in P and Q, on a box of 2^20 slots
    built = recorded_box_sizes(monkeypatch)
    seq = MqspSequence(20, (0.0,) * 21, tuple(range(1, 21)))
    pair = evaluate_sequence(seq)
    corners = ((1,) * 20, (-1,) * 20)
    assert pair.p == LaurentPoly(20, dict(zip(corners, (0.5, 0.5))))
    assert pair.q == LaurentPoly(20, dict(zip(corners, (0.5, -0.5))))
    # two terms allow 8 slots: the first box past that, of 16, is left at once
    assert max(built) == 16


def test_evaluation_cuts_residue_so_the_box_gets_sparse(monkeypatch):
    # e^{i pi/2} rounds to 6.1e-17 + 1j, so the exact cancellations of this
    # sequence leave rounding residue in every slot that the zero-phase one
    # leaves empty; each step's cut zeroes it, and the box is left as soon
    # as for zero phases, where the residue kept would fill all 2^20 slots
    built = recorded_box_sizes(monkeypatch)
    seq = MqspSequence(20, (math.pi / 2,) * 21, tuple(range(1, 21)))
    assert cmath.exp(1j * math.pi / 2).real != 0.0
    pair = evaluate_sequence(seq)
    corners = {(1, -1) * 10, (-1, 1) * 10}
    assert pair.p.terms.keys() == pair.q.terms.keys() == corners
    assert max(built) == 16


def test_evaluation_hands_off_mid_sequence_bitwise(monkeypatch):
    # zero phases keep the first four steps at two terms each, so the box of
    # 16 slots is left for the terms, whose general products take the rest
    extend, stepped = su2.PQPair._step, []

    def record(pair, j, phase):
        stepped.append(j)
        return extend(pair, j, phase)

    monkeypatch.setattr(su2.PQPair, "_step", record)
    seq = MqspSequence(6, (0.0,) * 5 + (0.4, -1.1, 2.5), (1, 2, 3, 4, 5, 6, 1))
    kernel = evaluate_sequence(seq)
    assert stepped == [5, 6, 1]
    assert kernel._box is None
    oracle = matrix_oracle_top_row(seq)
    assert fingerprint(kernel.p) == fingerprint(oracle.p)
    assert fingerprint(kernel.q) == fingerprint(oracle.q)


@pytest.mark.parametrize("m,n", [(1, 40), (2, 30), (3, 20), (4, 16)])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_deep_evaluation_is_bitwise_the_matrix_oracle(m, n, mode):
    # the boxes of the deep benchmark cells, where the half that evaluation
    # computes ends inside a chunk of every axis
    for seed in range(2):
        seq = random_sequence(OracleConfig(m, n, 3000 * m + 10 * seed + n, mode))
        kernel = evaluate_sequence(seq)
        oracle = matrix_oracle_top_row(seq)
        assert fingerprint(kernel.p) == fingerprint(oracle.p)
        assert fingerprint(kernel.q) == fingerprint(oracle.q)


def assert_mirror_images(pair: PQPair) -> None:
    """P(a^{-1}) = P(a) and Q(a^{-1}) = -Q(a) bitwise: P's coefficient at -k
    is the one at k, and Q's is 0j minus the one at k."""
    for poly, mirrored in ((pair.p, lambda c: c), (pair.q, lambda c: 0j - c)):
        for k, c in poly.terms.items():
            assert repr(poly.terms[tuple(-e for e in k)]) == repr(mirrored(c))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_evaluated_boxes_are_mirror_images(m, mode):
    # the invariant that lets evaluation compute half of each box, on every
    # prefix of the sequences; discrete angles cancel exactly, so some boxes
    # lose end rows (a degree below the number of steps in that variable)
    trimmed = 0
    for seed in range(12):
        seq = random_sequence(OracleConfig(m, 12, 4000 * m + seed, mode))
        for n in range(seq.steps + 1):
            prefix = MqspSequence(m, seq.phases[: n + 1], seq.indices[:n])
            pair = evaluate_sequence(prefix)
            assert_mirror_images(pair)
            steps = [prefix.indices.count(j) for j in range(1, m + 1)]
            trimmed += pair.p.degrees() != tuple(steps)
    assert trimmed or mode == "continuous"


def test_phase_factor_cuts_like_the_matrix_product(monkeypatch):
    # P = 2 tiny (a^3 + a^-3) + 2 (a + a^-1) and Q = 0 as the half-box
    # state, stepped along a by e^{i phi}: P's new coefficients are
    # tiny e^{i phi} at a^+-4 and 2 e^{i phi} at the constant, and Q's are
    # +-tiny e^{-i phi} at a^+-4 and at most 1 elsewhere
    phase = complex(0.8707277809370632, -0.49176532157566544)
    tiny = complex(1.5e-15, 0.0)
    box = half_box.PairBox((4,), [2 * tiny, 2.0], [0j, 0j])
    pair, stepped = box.to_pair(), box._step(1, phase).to_pair()
    assert fingerprint(stepped.p) == fingerprint(pair._step(1, phase).p)
    assert fingerprint(stepped.q) == fingerprint(pair._step(1, phase).q)
    # the tiny terms survive the multiply in both components; the step's one
    # cut is made at each component's own scale, as LaurentPoly construction
    # cuts: P's, about 2, drops the tiny term and Q's, 1, keeps it, where one
    # scale for both would drop both or keep both
    monkeypatch.setattr(laurent, "DROP_EPS", 0.0)
    monkeypatch.setattr(su2, "DROP_EPS", 0.0)
    uncut = pair._step(1, phase)
    monkeypatch.undo()
    assert (4,) in uncut.p.terms and (4,) in uncut.q.terms
    assert (4,) not in stepped.p.terms and (4,) in stepped.q.terms
    assert fingerprint(stepped.p) == fingerprint(LaurentPoly(1, uncut.p.terms))
    assert fingerprint(stepped.q) == fingerprint(LaurentPoly(1, uncut.q.terms))


def test_sequence_validation():
    with pytest.raises(ValueError):
        MqspSequence(1, (0.0,), (1,))
    with pytest.raises(ValueError):
        MqspSequence(2, (0.0, 0.0), (3,))
    with pytest.raises(ValueError):
        MqspSequence(0, (0.0,), ())


def test_sequence_variable_count_goes_through_index():
    # a float count raises at construction, not in evaluate_sequence; a
    # polynomial runs the same check
    with pytest.raises(TypeError):
        MqspSequence(2.0, (0.0, 0.1), (1,))
    with pytest.raises(TypeError):
        LaurentPoly(2.0)

    class Two:
        def __index__(self):
            return 2

    seq = MqspSequence(Two(), (0.0, 0.1), (2,))
    assert type(seq.variables) is int and seq.variables == 2
    poly = LaurentPoly(Two(), {(1, -1): 1.0})
    assert type(poly.variables) is int and poly == LaurentPoly(2, {(1, -1): 1.0})


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_sequence_phases_must_be_finite(phase):
    with pytest.raises(ValueError, match="not finite"):
        MqspSequence(1, (0.0, phase), (1,))


# -- pairs stored as their box ----------------------------------------------------------


def term_twin(pair: PQPair) -> PQPair:
    """The pair built from its terms, so stored as terms."""
    return PQPair(pair.p, pair.q)


@pytest.mark.parametrize("m,n", [(1, 0), (1, 9), (2, 6), (3, 5), (4, 4)])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_evaluated_pair_keeps_the_box_its_terms_lay_out_on(m, n, mode):
    # every box that stays dense is kept; the box its terms lay out on again
    # is the kept one without the empty end rows it may have
    pair, _ = oracle_pair(m, n, 5000 + 10 * m + n, mode)
    box = pair._box
    assert box is not None and pair.variables == m
    twin = term_twin(pair)
    assert twin._box is None
    assert half_box.PairBox.from_pair(pair) is box
    trimmed = box
    for j in range(1, m + 1):
        trimmed = trimmed._truncated(j, -1, 0.0)
    relaid = half_box.PairBox.from_pair(twin)
    assert relaid.rows == trimmed.rows
    assert list(map(repr, relaid.p_half)) == list(map(repr, trimmed.p_half))
    assert list(map(repr, relaid.q_half)) == list(map(repr, trimmed.q_half))


@pytest.mark.parametrize("m,n", [(1, 0), (2, 6), (4, 4)])
def test_evaluated_pair_behaves_as_its_term_twin(m, n):
    # the box is not a field: equality, hash, repr, pickling and copying see
    # the terms alone, and a copy holds them; each check gets a fresh pair,
    # whose terms nothing has read yet
    seq = random_sequence(OracleConfig(m, n, 5100 + m))
    twin = term_twin(evaluate_sequence(seq))
    assert evaluate_sequence(seq) == twin and twin == evaluate_sequence(seq)
    assert repr(evaluate_sequence(seq)) == repr(twin)
    assert fingerprint(evaluate_sequence(seq).p) == fingerprint(twin.p)
    assert fingerprint(evaluate_sequence(seq).q) == fingerprint(twin.q)
    for unhashable in (evaluate_sequence(seq), twin):
        with pytest.raises(TypeError, match="unhashable"):
            hash(unhashable)
    for copier in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        again = copier(evaluate_sequence(seq))
        assert type(again) is PQPair and again._box is None
        assert again == twin and repr(again) == repr(twin)


def comparisons(a: PQPair, b: PQPair, tols: list) -> list:
    """``max_deviation`` by repr and ``approx_eq`` at each of ``tols``."""
    return [repr(a.max_deviation(b))] + [a.approx_eq(b, tol) for tol in tols]


def component_comparisons(a: PQPair, b: PQPair, tols: list) -> list:
    """``comparisons`` made by ``LaurentPoly`` on P and on Q."""
    deviation = max(a.p.max_deviation(b.p), a.q.max_deviation(b.q))
    return [repr(deviation)] + [a.p.approx_eq(b.p, tol) and a.q.approx_eq(b.q, tol) for tol in tols]


def near_tolerances(a: PQPair, b: PQPair) -> list:
    """Tolerances a hair below and above the deviation over the scale of P
    and of Q, where ``approx_eq`` turns."""
    tols = []
    for x, y in (a.p, b.p), (a.q, b.q):
        ratio = x.max_deviation(y) / max(1.0, x.max_modulus(), y.max_modulus())
        tols += [ratio * (1.0 - 1e-12), ratio * (1.0 + 1e-12)]
    return tols


@pytest.mark.parametrize("m,n", [(1, 12), (2, 8), (3, 6), (4, 5)])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_box_comparisons_are_bitwise_the_term_comparisons(m, n, mode):
    # two boxes with equal rows compare on their halves; any other
    # combination, or boxes with different rows, on the terms; every one
    # gives LaurentPoly's comparisons of P and of Q, also at the tolerances
    # where they turn and on a box of coefficients above 1
    pair, seq = oracle_pair(m, n, 5200 + 10 * m + n, mode)
    others = [
        evaluate_sequence(MqspSequence(m, [phi + shift for phi in seq.phases], seq.indices))
        for shift in (0.0, 1e-13, 1e-10, 1e-3)
    ]
    tripled = ([3.0 * v for v in half] for half in (pair._box.p_half, pair._box.q_half))
    others.append(PQPair._on_box(half_box.PairBox(pair._box.rows, *tripled)))
    others.append(evaluate_sequence(MqspSequence(m, seq.phases[:-1], seq.indices[:-1])))
    assert all(other._box is not None for other in others)
    assert others[-1]._box.rows != pair._box.rows
    assert others[2]._box.rows == pair._box.rows and others[2].max_deviation(pair) > 0.0
    for other in others:
        tols = [0.0, 1e-15, 1e-12, TOL, *near_tolerances(term_twin(pair), term_twin(other))]
        forwards = component_comparisons(term_twin(pair), term_twin(other), tols)
        backwards = component_comparisons(term_twin(other), term_twin(pair), tols)
        for a in (pair, term_twin(pair)):
            for b in (other, term_twin(other)):
                assert comparisons(a, b, tols) == forwards
                assert comparisons(b, a, tols) == backwards


def test_sparse_evaluations_come_back_as_terms():
    # zero phases keep two terms each in P and Q: three steps on three
    # variables end on a box of 8 slots, which two terms may fill; a fourth
    # on a fourth variable ends on 16, too sparse, so its last step leaves
    # the box; a fifth step is taken on the terms
    for m in (3, 4, 5):
        pair = evaluate_sequence(MqspSequence(m, (0.0,) * (m + 1), tuple(range(1, m + 1))))
        assert len(pair.p) == len(pair.q) == 2
        assert (pair._box is not None) == (m == 3)
        assert half_box.PairBox.from_pair(pair) is pair._box
    # documents and perturbed pairs hold terms
    pair, _ = oracle_pair(2, 6, 5300)
    assert perturb_pair(pair, 1)._box is None
    assert documents.pair_from_document(documents.pair_to_document(pair))._box is None


def test_a_roundtrip_never_builds_the_terms(monkeypatch):
    # decide, synthesize, rebuild and compare: all on the boxes
    def refuse(box):
        raise AssertionError("terms built")

    monkeypatch.setattr(half_box.PairBox, "_terms", refuse)
    for m, n, seed in ((1, 12, 1), (2, 8, 2), (3, 6, 3), (4, 5, 4)):
        seq = random_sequence(OracleConfig(m, n, 5400 + seed))
        report = roundtrip_check(seq)
        assert report.passed and report.max_deviation <= TOL, report
        pair = evaluate_sequence(seq)
    with pytest.raises(AssertionError, match="terms built"):
        repr(pair)


# -- pair embedding ----------------------------------------------------------------


def test_pair_to_matrix_identity():
    pair = PQPair(LaurentPoly.constant(1, 1.0), LaurentPoly.zero(1))
    assert pair_to_matrix(pair) == identity_matrix(1)


def test_pair_to_matrix_signal_operator():
    pair = PQPair(half_sum(1, 1), half_diff(1, 1))
    assert pair_to_matrix(pair) == signal_operator(1, 1)


def test_pair_to_matrix_phase():
    phase = 0.31
    pair = evaluate_sequence(MqspSequence(1, (phase,), ()))
    mat = pair_to_matrix(pair)
    rot = z_rotation(phase, 1)
    assert mat.a.approx_eq(rot.a, 1e-15) and mat.d.approx_eq(rot.d, 1e-15)
    assert mat.b == rot.b and mat.c == rot.c


def test_pair_arity_mismatch():
    with pytest.raises(ValueError):
        PQPair(LaurentPoly.zero(1), LaurentPoly.zero(2))


# -- structural properties of evaluated sequences --------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_product_of_pair_matrices_is_pair_form(seed):
    left, _ = oracle_pair(2, 4, seed)
    right, _ = oracle_pair(2, 3, seed + 100)
    product = pair_to_matrix(left) @ pair_to_matrix(right)
    assert product.c.approx_eq(-product.b.torus_conjugate(), TOL)
    assert product.d.approx_eq(product.a.torus_conjugate(), TOL)


@pytest.mark.parametrize("seed,m,n", [(0, 1, 5), (1, 2, 6), (2, 3, 8), (3, 2, 0)])
def test_determinant_and_normalization(seed, m, n):
    pair, _ = oracle_pair(m, n, seed)
    det = pair_to_matrix(pair).determinant()
    assert det.approx_eq(LaurentPoly.constant(m, 1.0), TOL)
    assert pair.is_normalized(TOL)
    assert pair.normalization_defect() <= TOL


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_degree_bounds(seed, mode):
    m, n = 3, 9
    pair, seq = oracle_pair(m, n, seed, mode)
    degrees = pair.p.degrees()
    assert sum(degrees) <= n
    for j in range(1, m + 1):
        assert degrees[j - 1] <= seq.indices.count(j)


@pytest.mark.parametrize("seed", range(6))
def test_one_step_degree_change(seed):
    # appending one factor changes the touched variable's degree by exactly
    # one and leaves the other variables' degrees unchanged
    m, n = 2, 5
    pair, seq = oracle_pair(m, n, seed)
    index = 1 + seed % m
    extended = evaluate_sequence(extend_sequence(seq, index, 0.1 * seed - 0.3))
    before, after = pair.p.degrees(), extended.p.degrees()
    assert abs(after[index - 1] - before[index - 1]) == 1
    for j in range(1, m + 1):
        if j != index:
            assert after[j - 1] == before[j - 1]


@pytest.mark.parametrize("seed,m,n", [(0, 1, 4), (1, 2, 5), (2, 3, 7), (3, 1, 0)])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_evaluated_pair_symmetries(seed, m, n, mode):
    pair, _ = oracle_pair(m, n, seed, mode)
    assert pair.p.invert_vars().approx_eq(pair.p, TOL)
    assert pair.q.invert_vars().approx_eq(-pair.q, TOL)
    for j in range(1, m + 1):
        assert pair.p.degree(j) == pair.q.degree(j)
    assert not pair.p.is_zero(TOL)
    assert (sum(pair.p.degrees()) - n) % 2 == 0


# -- unit-norm filter ------------------------------------------------------------------


def verdict_by_the_inverse(pair: PQPair, tol: float) -> bool:
    """``is_normalized`` with the Parseval bounds switched off, so that a
    sampled pair is always transformed back."""
    with mock.patch.object(half_box, "_parseval_bounds", return_value=None):
        return pair.is_normalized(tol)


def tolerances_around(pair: PQPair) -> list[float]:
    """0, the default, and tolerances a hair above and below the pair's exact
    relative deviation, where a verdict from loose bounds would go wrong."""
    deviation, scale = half_box._unit_norm_deviation(pair)
    exact = deviation / scale
    return [0.0, TOL, 1e-3, exact * (1 + 1e-9), exact * (1 - 1e-9)]


def assert_filter_matches_product(pair: PQPair) -> None:
    one = LaurentPoly.constant(pair.variables, 1.0)
    product = unit_norm_product(pair)
    assert abs(pair.normalization_defect() - product.max_deviation(one)) <= 1e-13
    assert pair.is_normalized(TOL) == product.approx_eq(one, TOL)
    # sampled, by bounds or the inverse, unless too sparse for its lattice
    rows = half_box._lattice(pair)[2]
    if not su2._too_sparse(math.prod(rows), max(len(pair.p), len(pair.q))):
        for tol in tolerances_around(pair):
            assert pair.is_normalized(tol) == verdict_by_the_inverse(pair, tol)


def with_off_parity_term(poly: LaurentPoly, coeff: complex) -> LaurentPoly:
    """Add a term one step above the first key in variable 1, so that variable
    1's exponents no longer share one parity (stride 1 on that axis)."""
    terms = dict(poly.terms)
    key = next(iter(terms), (0,) * poly.variables)
    shifted = (key[0] + 1,) + key[1:]
    terms[shifted] = terms.get(shifted, 0j) + coeff
    return LaurentPoly(poly.variables, terms)


# The filter under the layout rule ("chosen"), sampled on the pair's box
# whatever its fill, or multiplied out: the ``layout`` fixture forced to the
# box or to the terms.
FILTER_METHODS = [("chosen", "chosen"), ("box", "sampled"), ("terms", "multiplied")]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize(
    "layout", [pytest.param(layout, id=method) for layout, method in FILTER_METHODS], indirect=True
)
def test_unit_norm_filter_matches_the_product(m, mode, layout):
    for seed in range(3):
        pair, _ = oracle_pair(m, (12, 9, 7, 6)[m - 1] + seed, 300 * m + seed, mode)
        cases = [
            pair,
            perturb_pair(pair, seed),
            PQPair(with_off_parity_term(pair.p, 1e-3j), pair.q),
            PQPair(pair.p, with_off_parity_term(pair.q, -1e-3)),
            # scaled: deviation 6e-10 (normalized), 2e-9 (not), and a scale above 1
            PQPair(pair.p * (1 + 3e-10), pair.q * (1 + 3e-10)),
            PQPair(pair.p * (1 + 1e-9), pair.q * (1 + 1e-9)),
            PQPair(pair.p * 3.7, pair.q * 3.7),
        ]
        verdicts = []
        for case in cases:
            assert_filter_matches_product(case)
            verdicts.append(case.is_normalized(TOL))
        assert verdicts == [True, False, False, False, True, False, False]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_parseval_verdict_is_the_inverse_verdict(m, mode):
    # the bounds settle a verdict only where the exact deviation would give
    # the same one: on oracle pairs, perturbed by 1e-3 down to 1e-9, at
    # tolerance 0, and a hair above and below the exact deviation
    for seed in range(3):
        pair, _ = oracle_pair(m, (12, 9, 7, 6)[m - 1] + seed, 700 * m + seed, mode)
        cases = [pair, PQPair(pair.p * 3.7, pair.q * 3.7)]
        cases += [perturb_pair(pair, seed, 10.0**-k) for k in range(3, 10)]
        for case in cases:
            deviation, scale = half_box._unit_norm_deviation(case)
            for tol in tolerances_around(case) + [1e-12, 1e-6]:
                verdict = case.is_normalized(tol)
                assert verdict == verdict_by_the_inverse(case, tol)
                assert verdict == (deviation <= tol * scale)
            exact = deviation / scale
            assert case.is_normalized(exact * (1 + 1e-9))
            assert not case.is_normalized(exact * (1 - 1e-9))


@pytest.mark.parametrize("m,n", [(1, 40), (2, 20), (3, 10), (4, 8)])
def test_parseval_bounds_settle_clear_verdicts(m, n, monkeypatch):
    # realizable pairs pass and grossly perturbed ones fail without the
    # transform back; at tolerance 0 no pass is ever settled
    pair, _ = oracle_pair(m, n, 3 * m + n)
    seen = []
    bounds = half_box._parseval_bounds

    def recorded(*args):
        seen.append(bounds(*args))
        return seen[-1]

    monkeypatch.setattr(half_box, "_parseval_bounds", recorded)
    assert pair.is_normalized(TOL)
    assert seen[-1] is not None and seen[-1][1] == 1.0
    assert not perturb_pair(pair, 1, 1e-3).is_normalized(TOL)
    assert seen[-1] is not None and seen[-1][1] >= 1.0
    for case in (pair, perturb_pair(pair, 2, 1e-12), PQPair(pair.p, pair.q * (1 + 1e-15))):
        case.is_normalized(0.0)
        assert seen[-1] is None or not seen[-1][0] <= 0.0


def test_parseval_bounds_leave_overflow_to_the_inverse():
    assert half_box._parseval_bounds([1.0, math.inf, 1.0], [3], 1e-9) is None
    assert half_box._parseval_bounds([1.0, 1e200, 1.0], [3], math.inf) is None
    # exact samples: only the rounding allowance is left, (3 + 28) eps
    assert half_box._parseval_bounds([1.0, 1.0, 1.0], [3], 1e-9) == (31 * 2.0**-52, 1.0)
    assert half_box._parseval_bounds([1.0, 1.0, 1.0], [3], 0.0) is None


ZERO2 = LaurentPoly.zero(2)
HALF_UP = LaurentPoly(2, {(0, 0): 0.5, (1, 0): 0.5})
HALF_DOWN = LaurentPoly(2, {(0, 0): 0.5, (1, 0): -0.5})
WIDE = LaurentPoly(2, {(600, -400): 0.5, (-600, 400): 0.5})
WIDE_ODD = LaurentPoly(2, {(600, -400): 0.5, (-600, 400): -0.5})

EDGE_CASES = [
    (PQPair(ZERO2, ZERO2), 1.0, "both-zero"),
    (PQPair(ZERO2, LaurentPoly(2, {(3, -1): 1j})), 0.0, "p-zero"),
    (PQPair(ZERO2, half_diff(1, 2)), 0.5, "p-zero-unnormalized"),
    (PQPair(LaurentPoly.constant(2, cmath.exp(0.3j)), ZERO2), 0.0, "q-zero"),
    (PQPair(half_sum(2, 2), ZERO2), 0.5, "q-zero-unnormalized"),
    (PQPair(LaurentPoly.constant(2, 0.6), LaurentPoly.constant(2, 0.8j)), 0.0, "constant"),
    (
        PQPair(LaurentPoly.constant(2, 0.6), LaurentPoly.constant(2, 0.6)),
        0.28,
        "constant-unnormalized",
    ),
    # 0.5 + 0.5 a_1 and 0.5 -+ 0.5 a_1 mix parities (stride 1); the lag-1
    # cross terms cancel between P and Q, or add up
    (PQPair(HALF_UP, HALF_DOWN), 0.0, "mixed-parity"),
    (PQPair(HALF_UP, HALF_UP), 0.5, "mixed-parity-unnormalized"),
    (PQPair(LaurentPoly(2, {(1000, -999): cmath.exp(0.3j)}), ZERO2), 0.0, "far-monomial"),
    # two or four terms on boxes of 241001 and 6004 slots: multiplied out,
    # and too large to sample, so they have no forced-box variant
    (PQPair(WIDE, WIDE_ODD), 0.0, "wide-sparse"),
    (PQPair(WIDE, WIDE), 0.5, "wide-sparse-unnormalized"),
    (
        PQPair(LaurentPoly(2, {(1001, 6): 0.6}), LaurentPoly(2, {(-2000, 7): 0.8})),
        0.0,
        "far-monomials-own-offsets",
    ),
]
TOO_WIDE_TO_SAMPLE = {"wide-sparse", "wide-sparse-unnormalized", "far-monomials-own-offsets"}


@pytest.mark.parametrize(
    "layout,pair,defect",
    [
        pytest.param(layout, pair, defect, id=f"{method}-{name}")
        for layout, method in FILTER_METHODS
        for pair, defect, name in EDGE_CASES
        if not (layout == "box" and name in TOO_WIDE_TO_SAMPLE)
    ],
    indirect=["layout"],
)
def test_unit_norm_filter_edge_cases(layout, pair, defect):
    assert_filter_matches_product(pair)
    assert pair.normalization_defect() == pytest.approx(defect, abs=1e-15)
    assert pair.is_normalized(TOL) == (defect == 0.0)


SPARSE_WIDE = [
    # a span of 100001 at stride 1: twiddle tables of about 2e10 entries
    pytest.param(SPAN_100001, id="span-100001"),
    # two opposite corners of a 20-variable box: a grid of 3^20 points
    pytest.param(M20_CORNERS, id="m20-corners"),
]


@pytest.mark.parametrize("pair", SPARSE_WIDE)
@pytest.mark.usefixtures("no_box")
def test_sparse_wide_pair_is_multiplied_out(pair):
    assert_filter_matches_product(pair)
    assert not pair.is_normalized(TOL)


@pytest.mark.parametrize("pair", SPARSE_WIDE)
@pytest.mark.usefixtures("no_box")
def test_sparse_wide_pair_steps_as_the_matrix_product(pair):
    # evaluation's step on the terms, value by value
    for j in range(1, pair.variables + 1):
        for phi in (0.0, math.pi / 2, -0.7, 2.0):
            stepped = pair._step(j, cmath.exp(1j * phi))
            product = matrix_oracle_step(pair_to_matrix(pair), j, phi)
            assert fingerprint(stepped.p) == fingerprint(product.a)
            assert fingerprint(stepped.q) == fingerprint(product.b)


# |P|^2 + |Q|^2 overflows a double.  The first two have a constant
# coefficient, the sum of |c|^2, that is not finite; the last has finite
# coefficients and only its samples overflow (4 * 6e153 at a = 1, squared)
OVERFLOWING = [
    pytest.param(PQPair(LaurentPoly(1, {(0,): 1e160}), LaurentPoly.zero(1)), id="constant"),
    pytest.param(
        PQPair(LaurentPoly(1, {(0,): 1e200, (100000,): 1e190}), LaurentPoly.zero(1)),
        id="sparse",
    ),
    pytest.param(
        PQPair(LaurentPoly(1, {(e,): 6e153 for e in (-3, -1, 1, 3)}), LaurentPoly.zero(1)),
        id="samples",
    ),
]


@pytest.mark.parametrize("pair", OVERFLOWING)
def test_overflowing_pair_fails_the_identity(pair, monkeypatch):
    # the samples used to overflow to a deviation and a scale of inf, and
    # inf <= tol * inf passed; the product raised on its inf coefficient
    def refuse(*args):
        raise AssertionError("multiplied out or transformed back")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(half_box, "_parseval_bounds", refuse)
    for tol in (0.0, TOL, 0.5):
        assert pair.is_normalized(tol) is False
    assert pair.normalization_defect() == math.inf


@pytest.mark.parametrize("m,n", [(1, 40), (2, 16), (3, 8), (4, 8)])
def test_realizable_pair_is_sampled(m, n, monkeypatch):
    pair, _ = oracle_pair(m, n, 11 * m + n)

    def no_product(self, other):
        raise AssertionError("multiplied the identity out")

    monkeypatch.setattr(LaurentPoly, "__mul__", no_product)
    assert pair.is_normalized(TOL)
    assert pair.normalization_defect() <= TOL


def test_unit_norm_filter_keeps_no_transform_matrix():
    # one transform takes P and Q, and each matrix row is made when its pass
    # reaches it, so on a dense 300-row pair the filter holds about its grid
    # of 599 points, not 599 x 300 matrices (8.6 MiB for both directions)
    keys = range(-299, 300, 2)
    p = LaurentPoly(1, {(k,): cmath.exp(0.1j * k * k) / 300 for k in keys})
    q = LaurentPoly(1, {(k,): cmath.exp(0.3j * k) / 300 for k in keys})
    pair = PQPair(p, q)
    tracemalloc.start()
    try:
        defect = pair.normalization_defect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 < defect < 1.0
    assert peak < 2**20
