"""Constructivity decision and parameter synthesis for polynomial pairs.

Decides whether a pair (P, Q) of m-variable Laurent polynomials is the top
row of an n-step interleaved product of signal operators and z-rotations.
The decision peels the product one factor at a time: whenever the top
coefficient slices of P and Q in some variable agree up to a unimodular
factor e^{2i phi}, right-multiplying by the inverse of A(a_j) e^{i phi s_z}
lowers the degree in that variable by one.  If the degree sum falls short of
the remaining step count by two or more, two steps are absorbed into an
identity padding instead.  A pair is accepted once the step budget is
exhausted and what remains is a pure phase rotation (unimodular constant P,
zero Q).  That pad rule, with the degree reject when the pads cannot land on
the degree sum, is written once, in ``_padded``, for the opening budget and
for every level of the walk.

Every branch taken is recorded in a trace, from which one valid choice of
angle and index parameters can be read off when the pair is accepted.  The
level logic (degree scan, top-slice phase match, reduction, base case) is
written once over the storage primitives of ``box.PairBox`` and ``PQPair``;
the public level functions read a ``PQPair`` stored as its box on the box.
The pair is laid out once: on the half box that evaluation steps, or as
terms when the pair lacks the inversion symmetries or its box would be
mostly empty; both peel with evaluation's front and one combine.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from operator import index, mul, sub

from .laurent import DROP_EPS, EPS, _axis, _budget, _tolerance
from .box import PairBox, _lattice
from .su2 import MqspSequence, PQPair, _Record

REASON_BASE = "final pair is not a pure phase rotation"
REASON_DEGREE = "degree sum neither equals the step count nor leaves room for padding"
REASON_PHASE = "no variable has unimodular-proportional top coefficient slices"
REASON_OVERFLOW = "a peeled coefficient overflows a double"


class IdentityPad(_Record):
    """Two trailing steps absorbed by an identity padding (degree sum <= steps - 2),
    from the step budget ``steps_left`` (int)."""

    __slots__ = ("steps_left",)


class PhaseReduction(_Record):
    """One signal operator peeled off variable ``index`` (int, from 1) at
    angle ``phase`` (float), from the step budget ``steps_left`` (int).

    ``state`` is the reduced pair, a ``PQPair``; ``reduced`` is the same
    object.  When the decision runs on a ``PairBox``, the pair is stored as
    the box (see ``PQPair``) and builds its terms only when read.  ``repr``
    leaves ``state`` out.
    """

    __slots__ = ("steps_left", "index", "phase", "state")
    _hidden = ("state",)

    @property
    def reduced(self) -> PQPair:
        return self.state


class BaseAccept(_Record):
    """Step budget exhausted with a pure phase rotation left over, at the
    angle ``phase0`` (float), which is phi_0."""

    __slots__ = ("phase0",)


class Reject(_Record):
    """The walk stopped at the budget ``steps_left`` (int) for ``reason`` (str, a REASON_*)."""

    __slots__ = ("steps_left", "reason")


TraceStep = IdentityPad | PhaseReduction | BaseAccept | Reject


class DecisionTrace(_Record):
    """Ordered record of the branches taken, ``steps`` (a tuple of
    ``TraceStep``); ends in BaseAccept or Reject."""

    __slots__ = ("steps",)

    @property
    def accepted(self) -> bool:
        return bool(self.steps) and isinstance(self.steps[-1], BaseAccept)

    @property
    def rejection(self) -> Reject | None:
        last = self.steps[-1] if self.steps else None
        return last if isinstance(last, Reject) else None


class SynthesisResult(_Record):
    """``constructible`` (bool), ``sequence`` (``MqspSequence``, or None when
    not constructible) and ``trace`` (``DecisionTrace``)."""

    __slots__ = ("constructible", "sequence", "trace")


class NecessaryReport(_Record):
    """Outcome of the cheap rejection filters, each computed independently.

    Any False flag certifies that the pair is not *exactly* constructible
    in ``steps`` steps; all-True proves nothing.  The decision works at its
    tolerance, so it can accept a pair that a filter fails: the degree
    filters count every stored term, so a realizable pair plus a 1e-12 term
    above its degree fails them.  ``mqsp check`` prints this report;
    ``mqsp decide`` does not.

    The flags ``symmetry_p`` to ``normalization_ok`` are bool; ``degrees``
    (tuple of int) are P's over every stored term, ``degree_sum`` (int) is
    their sum and ``steps`` (int) the step count checked.
    """

    __slots__ = (
        "symmetry_p",
        "symmetry_q",
        "degree_equality",
        "p_nonzero",
        "parity_ok",
        "normalization_ok",
        "degrees",
        "degree_sum",
        "steps",
    )

    #: The six filter flags, in the order ``mqsp check`` prints them.
    _FLAGS = __slots__[:6]

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, name) for name in self._FLAGS)


def find_phase(pair: PQPair | PairBox, j: int, degree: int, tol: float = EPS) -> float | None:
    """Angle phi with P-slice = e^{2i phi} Q-slice at a_j^degree, or None.

    Both slices zero counts as vacuously satisfied with phi = 0.  Otherwise
    the candidate ratio is taken at the largest-modulus Q term (for
    stability) and verified term-wise across the whole slice.  Among Q terms
    of exactly equal modulus the one with the lexicographically largest
    exponent vector is the reference: the last maximum in the slice's flat
    order, which is lexicographic in either layout.  So the returned angle
    depends on the polynomials alone, not on how their terms are stored.
    The slices are compared as stored, without a ``DROP_EPS`` cut.
    Unimodularity of the ratio is measured as a modulus mismatch at the
    floored coefficient scale, like every other comparison; a scale-free
    test on the ratio itself would amplify the absolute rounding error
    carried by small slices.  A mismatch, or a turned Q slice, whose modulus
    passes the largest double is no match.  The returned angle is the
    principal representative in (-pi/2, pi/2]; any representative mod pi
    reproduces the pair.  A ``PQPair`` stored as its box is read on the
    box, as ``effective_degrees`` and ``reduce_step`` read it.  ``tol``
    must be a finite number >= 0, or ValueError is raised, ``j`` and
    ``degree`` integers by ``operator.index``, or TypeError is raised (a
    float such as 2.0 too), and ``j`` from 1 to m, or IndexError is raised,
    on either storage and on a ``PairBox``.
    """
    tol = _tolerance(tol)
    _axis(j, pair.variables)
    cp, cq = (pair._box or pair)._top_slices(j, index(degree))
    top_p = max(map(abs, cp), default=0.0)
    sizes = list(map(abs, cq))
    top_q = max(sizes, default=0.0)
    p_zero = top_p <= tol * max(1.0, top_p)
    q_zero = top_q <= tol * max(1.0, top_q)
    if p_zero and q_zero:
        return 0.0
    if p_zero or q_zero:
        return None
    ref = len(sizes) - 1 - sizes[::-1].index(top_q)
    ref_p, ref_q = cp[ref], cq[ref]
    if ref_p == 0 or abs(abs(ref_p) - abs(ref_q)) > tol * max(1.0, top_p, top_q):
        return None
    ratio = ref_p / ref_q
    ratio /= abs(ratio)
    # cp.approx_eq(cq * ratio, tol), on the aligned slices
    turned = list(map(mul, cq, repeat(ratio)))
    try:
        top_turned = max(map(abs, turned))
        mismatch = max(map(abs, map(sub, cp, turned)))
    except OverflowError:
        return None  # a mismatch too large for a double is no match
    if mismatch > tol * max(1.0, top_p, top_turned):
        return None
    phi = cmath.phase(ratio) / 2.0
    if phi <= -math.pi / 2.0:
        phi += math.pi
    return phi


def reduce_step(pair: PQPair | PairBox, j: int, phi: float) -> PQPair | PairBox:
    """Right-multiply the pair's matrix by (A(a_j) e^{i phi s_z})^{-1}.

    The products are not cut.  Variable ``j`` gains an exponent at each
    end, and only the rows of ``j`` at the ends of the result that hold
    nothing above ``DROP_EPS`` times the coefficient scale (floored at 1) are
    dropped: rounding residue, which the cuts used to zero.  With ``phi``
    returned by ``find_phase`` at the top degree d of variable ``j``, the
    rows at +-(d + 1) cancel, so for a pair whose top slices match to
    rounding (a freshly evaluated one, say) the degree in that variable
    drops by exactly one and the other degrees are unchanged.  A ``PQPair``
    stored as its box (see ``PQPair``) is peeled on that box and gives a
    ``PQPair`` stored as the reduced box; a pair that holds its terms gives
    terms, and a ``PairBox`` a ``PairBox``.  This is the decision's level
    step (``_reduced``) with any row free to go and the cutoff at
    ``DROP_EPS``; the decision's own walk keeps the rows within +-(d - 1)
    and cuts at max(tol, ``DROP_EPS``) (see ``_walk``).  ``j`` must be an
    integer by ``operator.index``, or TypeError is raised, and a variable
    index from 1 to m, or IndexError is raised, on either storage and on a
    ``PairBox``.
    """
    _axis(j, pair.variables)
    reduced = _reduced(pair._box or pair, j, phi, -1, DROP_EPS)
    return reduced.to_pair() if isinstance(pair, PQPair) else reduced


def _reduced(
    pair: PQPair | PairBox, j: int, phi: float, top: int, floor: float
) -> PQPair | PairBox:
    """The level step: the pair with the factor of variable ``j`` at angle
    ``phi`` peeled off, then the rows of ``j`` beyond +-``top`` that hold
    nothing above ``floor`` times the peeled pair's coefficient scale
    (floored at 1) truncated from the ends of the axis (``_truncated``)."""
    peeled = pair._peel(j, cmath.exp(1j * phi))
    return peeled._truncated(j, top, floor * max(1.0, *peeled._moduli))


def effective_degrees(pair: PQPair | PairBox, tol: float = EPS) -> tuple[int, ...]:
    """Per-variable degrees of P counting only coefficients visible at ``tol``;
    all zeros when no coefficient is visible.

    Ignoring terms at or below tol times the (floored) coefficient scale
    keeps the recursion's degree bookkeeping consistent with its coefficient
    comparisons: the rounding residue that a peeled factor leaves inside
    the rows it keeps sits far below the tolerance and must not masquerade
    as surviving degree.  (The rows above the new degree are truncated by
    ``_walk``.)

    On the input pair these degrees bound the step count: for a pair within
    ``tol`` of an n-step product, every term counted here is a term of the
    product, so the degrees sum to at most n and to n's parity (see
    ``run_decision``).  On a reduced pair, read again at ``tol`` in the
    middle of the walk, they certify nothing.  A ``PQPair`` stored as its
    box is read on the box.  ``tol`` must be a finite number >= 0, or
    ValueError is raised.
    """
    tol = _tolerance(tol)
    return (pair._box or pair)._visible_degrees(tol * max(1.0, *pair._moduli))


# The most recent walk, (pair, tol, degree sum, steps), or None.  One entry,
# matched by the pair's identity: it holds the pair, so a recycled id never
# matches, and it is replaced as a whole, so a reader that binds it once
# sees one consistent entry.
_last_walk = None


def run_decision(pair: PQPair, n: int, tol: float = EPS) -> DecisionTrace:
    """Decide constructibility in ``n`` steps, recording every branch.

    The budget enters only through identity padding.  With s the degree
    sum of the pair at ``tol``, a budget n < s is rejected on degree (at
    n = 0 as the base case would reject the pair: a term visible at ``tol``
    off the origin keeps P from being a constant); at n >= s pads absorb the
    surplus two steps at a time, down to s, where the walk from s follows
    (see ``_walk``), or down to s + 1, which is rejected on degree.  So every
    budget of one pair shares one walk, which depends on the pair and
    ``tol`` alone.  The last walk is kept, matched by the pair's identity
    and ``tol``: deciding and synthesizing one pair object at several
    budgets walks it once.  Only one walk is kept, with its pair and the
    reduced pairs of its trace, until the next walk replaces it.

    ``n`` must be an integer (an ``int`` or any type ``operator.index``
    takes): a float, even an integral one, raises TypeError.  ``tol`` must
    be a finite number >= 0, or ValueError is raised.

    The two opening rejects are certificates.  Let the pair be within
    ``tol`` of an n-step product R, as ``PQPair.approx_eq`` measures it, and
    let variable j take c_j of its steps.  R's coefficients have modulus at
    most 1, as Fourier coefficients of an entry of a unitary matrix.  So a
    term of P above the cutoff of ``effective_degrees``,
    tol * max(1, max|P|, max|Q|), is more than tol * max(1, max|P|,
    max|R_P|) from zero, and R's P has a term at its exponent.  Variable j's
    exponent in a term of R has the parity of c_j and is at most c_j in
    modulus.  So s <= n and s = n (mod 2), and a budget below s, or of the
    other parity, has no n-step product within ``tol``.  That takes a
    visible term in P, which exists when tol <= 1 / (2 L + 1) for L the
    number of terms of R's P, at most prod_j (c_j + 1): at a = (1, ..., 1)
    every signal operator is the identity, so |R_P(1)| = 1 and some term of
    R's P has modulus at least 1 / L.  The other degree branches only guess.
    Padding when s falls below n takes the pair's rows below ``tol`` for
    rounding, though they may be genuine, and a degree reject in the middle
    of the walk reads the reduced pair again at ``tol``.

    The pair is laid out once: on its ``PairBox`` when it is centred and
    stride 2 on every axis, its P and Q are mirror images by value, and
    the box is dense enough (``PairBox.from_pair``); a pair that
    ``evaluate_sequence`` left on its box is taken as it is.  Otherwise its
    ``LaurentPoly`` terms are peeled with the same step algebra on their
    keys, which gives bitwise the same trace on a pair the box takes.
    """
    global _last_walk
    n, tol = _budget(n), _tolerance(tol)
    memo = _last_walk
    if memo is not None and memo[0] is pair and memo[1] == tol:
        current, degs, s, walk = None, None, memo[2], memo[3]
    else:
        current = PairBox.from_pair(pair) or pair
        degs = effective_degrees(current, tol)
        s, walk = sum(degs), None
    pads = _padded(n, s)
    if pads and isinstance(pads[-1], Reject):
        return DecisionTrace(pads)
    if walk is None:
        walk = _walk(current, degs, tol)
        _last_walk = (pair, tol, s, walk)
    return DecisionTrace(pads + walk)


def _padded(remaining: int, total: int) -> tuple[TraceStep, ...]:
    """The pad rule at the budget ``remaining`` over the degree sum
    ``total``: identity pads two steps at a time, down to ``total`` or
    ``total + 1``, then, unless they land on ``total``, a reject at the
    budget left, on degree (at 0 as the base case would reject)."""
    pads = tuple(map(IdentityPad, range(remaining, total + 1, -2)))
    left = remaining - 2 * len(pads)
    if left == total:
        return pads
    return (*pads, Reject(left, REASON_DEGREE if left else REASON_BASE))


def _walk(current: PQPair | PairBox, degs: tuple[int, ...], tol: float) -> tuple[TraceStep, ...]:
    """The decision's steps from a budget equal to the degree sum ``degs``
    of ``current`` (laid out by ``run_decision``).

    The recursion only ever shrinks the budget by one or two, so it is
    realized as a loop.  Variables are scanned in ascending order and the
    first phase match wins, which makes the walk deterministic.  A peel at
    the matched degree d of variable j lowers that degree to d - 1, so each
    level peels the factor off and trims once (``_reduced``, the step
    ``reduce_step`` takes with its own trim): the rows of j beyond
    +-(d - 1) are truncated from the ends of the axis, as long as every
    entry of P and Q in them is at or below max(tol, ``DROP_EPS``) times the
    peeled pair's coefficient scale: the cutoff ``effective_degrees`` uses,
    raised to the rounding floor.  A row with a visible entry stops the
    truncation and is kept, so the next degree scan or the base case
    rejects the pair.  The rows within +-(d - 1) are kept whatever they
    hold.  Row d - 1 of P + Q after the peel is row d of
    P e^{-i phi} + Q e^{i phi} before it, so only a tolerance below about
    2 ``DROP_EPS`` lets a match leave them under the floor.  A peel that lowers the degree sum by two or more leaves room for
    identity pads inside the walk.  A peel whose coefficients overflow a
    double ends the walk with ``REASON_OVERFLOW``.  A peeled coefficient is
    at most twice as large as the largest one it is peeled from, and the
    peel is unitary on the torus, so only a pair whose coefficients have a
    root sum of squares near the largest double overflows.  No tolerance
    below 1 puts such a pair near a product, whose coefficients have modulus
    at most 1.
    """
    steps: list[TraceStep] = []
    remaining = sum(degs)
    while remaining:
        total = sum(degs)
        if total != remaining:
            # the pair is unchanged, so pad down to total at once, or reject
            steps += _padded(remaining, total)
            if isinstance(steps[-1], Reject):
                return tuple(steps)
            remaining = total
            if remaining == 0:
                break
        for j in range(1, current.variables + 1):
            phi = find_phase(current, j, degs[j - 1], tol)
            if phi is not None:
                try:
                    current = _reduced(current, j, phi, degs[j - 1] - 1, max(tol, DROP_EPS))
                except (OverflowError, ValueError):
                    # a peeled value, or its modulus, is not a finite double
                    return (*steps, Reject(remaining, REASON_OVERFLOW))
                steps.append(PhaseReduction(remaining, j, phi, current.to_pair()))
                remaining -= 1
                break
        else:
            return (*steps, Reject(remaining, REASON_PHASE))
        if remaining:
            degs = effective_degrees(current, tol)
    return (*steps, _base_case(current, tol))


def _base_case(pair: PQPair | PairBox, tol: float) -> BaseAccept | Reject:
    """BaseAccept at arg(P) if P is a unimodular constant and Q is zero."""
    c0, rest = pair._origin()
    mod_p, mod_q = pair._moduli
    if abs(abs(c0) - 1.0) > tol:
        return Reject(0, REASON_BASE)
    if rest > tol * max(1.0, mod_p):  # P.approx_eq(constant c0)
        return Reject(0, REASON_BASE)
    if mod_q > tol * max(1.0, mod_q):  # Q.is_zero
        return Reject(0, REASON_BASE)
    return BaseAccept(cmath.phase(c0))


def decide(pair: PQPair, n: int, tol: float = EPS) -> bool:
    """True iff the pair is constructible in exactly ``n`` steps.

    Pads plus one walk per pair and ``tol`` (see ``run_decision``): calls on
    one pair object at several ``n`` walk it once."""
    return run_decision(pair, n, tol).accepted


def synthesize(pair: PQPair, n: int, tol: float = EPS) -> SynthesisResult:
    """Decide, and on acceptance assemble angle and index parameters.

    Parameters are assembled in one pass over the trace from its end, from
    phi_0 outward: the base case gives phi_0, a peeled factor appends its
    matched phase and its index, and an identity padding appends the phases
    +pi/2 then -pi/2 and the index 1 twice.  The realized sequence always
    has exactly ``n`` steps and reproduces the pair; it is one valid choice,
    not a canonical one.  The trace is ``run_decision``'s, so after
    ``decide`` on the same pair object and ``tol`` only the assembly is new
    work.
    """
    trace = run_decision(pair, n, tol)
    if not trace.accepted:
        return SynthesisResult(False, None, trace)
    phases, indices = [], []
    for step in reversed(trace.steps):
        if isinstance(step, PhaseReduction):
            phases.append(step.phase)
            indices.append(step.index)
        elif isinstance(step, IdentityPad):
            phases += (math.pi / 2.0, -math.pi / 2.0)
            indices += (1, 1)
        else:
            phases.append(step.phase0)
    sequence = MqspSequence(pair.variables, phases, indices)
    return SynthesisResult(True, sequence, trace)


def check_necessary(pair: PQPair, n: int, tol: float = EPS) -> NecessaryReport:
    """Run every rejection filter, without short-circuiting.

    Checks the inversion symmetries P(a^{-1}) = P(a) and Q(a^{-1}) = -Q(a),
    per-variable degree equality of P and Q, P != 0, matching parity of the
    degree sum and the step count, and the unit-norm identity (sampled on a
    torus grid, see ``PQPair.is_normalized``).  ``n`` must be an integer,
    as for ``run_decision``, and ``tol`` a finite number >= 0.
    """
    n, tol = _budget(n), _tolerance(tol)
    p, q = pair.p, pair.q
    degrees = p.degrees()
    total = sum(degrees)
    symmetry_p, symmetry_q = _symmetries(p, q, tol)
    return NecessaryReport(
        symmetry_p=symmetry_p,
        symmetry_q=symmetry_q,
        degree_equality=degrees == q.degrees(),
        p_nonzero=not p.is_zero(tol),
        parity_ok=(total - n) % 2 == 0,
        normalization_ok=pair.is_normalized(tol),
        degrees=degrees,
        degree_sum=total,
        steps=n,
    )


def _symmetries(p: LaurentPoly, q: LaurentPoly, tol: float):
    """Whether P(a^{-1}) = P(a), then whether Q(a^{-1}) = -Q(a), within
    ``tol``; the second is tested only when it is read."""
    yield p.invert_vars().approx_eq(p, tol)
    yield q.invert_vars().approx_eq(-q, tol)


def qsp1_characterize(pair: PQPair, n: int, tol: float = EPS) -> bool:
    """Closed-form constructivity test for single-variable pairs.

    True iff the degrees of P and Q are at most n, P(a^{-1}) = P(a) and
    Q(a^{-1}) = -Q(a), both components pick up the factor (-1)^n under
    a -> -a, and the unit-norm identity holds.  This is the closed form, not
    the peel: ``decide`` can reject pairs it accepts, namely ill-conditioned
    deep chains whose small top slices amplify rounding past the tolerance
    (18 of the 60 oracle pairs at n = 20, seeds 100000 to 100059, which the
    closed form all accepts; see
    ``test_closed_form_accepts_what_the_peel_rejects`` in
    ``tests/test_conditioning.py``).  ``n`` must be an integer and ``tol``
    a finite number >= 0, as for ``run_decision``.
    """
    if pair.variables != 1:
        raise ValueError(
            f"single-variable characterization needs arity 1, got {pair.variables}"
        )
    n, tol = _budget(n), _tolerance(tol)
    p, q = pair.p, pair.q
    if p.degree(1) > n or q.degree(1) > n:
        return False
    if not all(_symmetries(p, q, tol)):
        return False
    sign = -1.0 if n % 2 else 1.0
    if not p.negate_var(1).approx_eq(p * sign, tol):
        return False
    if not q.negate_var(1).approx_eq(q * sign, tol):
        return False
    return pair.is_normalized(tol)


def term_bound(pair: PQPair) -> int:
    """Number of slots of the general lattice that holds the pair: the
    product over variables of (span_j / stride_j + 1), with span_j the
    spread of the j-exponents of P and Q and stride_j 2 when they share one
    parity, else 1.  The unit-norm filter samples on this lattice.  On a
    realizable pair it is the centred box the decision runs on (see
    ``box.PairBox``), of prod_j (d_j + 1) slots, the largest number of terms
    either component can carry at its degrees.  The decision runs in
    O(steps * variables * term_bound)."""
    return math.prod(_lattice(pair)[2])
