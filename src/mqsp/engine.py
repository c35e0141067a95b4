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
zero Q).

Every branch taken is recorded in a trace, from which one valid choice of
angle and index parameters can be read off when the pair is accepted.  The
level logic (degree scan, top-slice phase match, reduction, base case) is
written once over the storage primitives of ``su2.PairBox`` and ``PQPair``:
the pair is laid out once on its dense box, or kept as terms when that box
would be mostly empty.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import repeat
from operator import mul, sub

from .laurent import DROP_EPS, EPS
from .su2 import MqspSequence, PairBox, PQPair, _Record, _set_field

REASON_BASE = "final pair is not a pure phase rotation"
REASON_DEGREE = "degree sum neither equals the step count nor leaves room for padding"
REASON_PHASE = "no variable has unimodular-proportional top coefficient slices"


class IdentityPad(_Record):
    """Two trailing steps absorbed by an identity padding (degree sum <= steps - 2)."""

    __slots__ = ("steps_left",)

    def __init__(self, steps_left: int):
        _set_field(self, "steps_left", steps_left)


class PhaseReduction(_Record):
    """One signal operator peeled off variable ``index`` at angle ``phase``.

    ``state`` is the reduced pair in the layout the decision runs on (a
    ``PairBox`` or a ``PQPair``); ``reduced`` converts it to a ``PQPair``
    when read.  ``repr`` leaves ``state`` out.
    """

    __slots__ = ("steps_left", "index", "phase", "state")
    _hidden = ("state",)

    def __init__(self, steps_left: int, index: int, phase: float, state: PQPair | PairBox):
        _set_field(self, "steps_left", steps_left)
        _set_field(self, "index", index)
        _set_field(self, "phase", phase)
        _set_field(self, "state", state)

    @property
    def reduced(self) -> PQPair:
        return self.state.to_pair()


class BaseAccept(_Record):
    """Step budget exhausted with a pure phase rotation left over."""

    __slots__ = ("phase0",)

    def __init__(self, phase0: float):
        _set_field(self, "phase0", phase0)


class Reject(_Record):
    __slots__ = ("steps_left", "reason")

    def __init__(self, steps_left: int, reason: str):
        _set_field(self, "steps_left", steps_left)
        _set_field(self, "reason", reason)


TraceStep = IdentityPad | PhaseReduction | BaseAccept | Reject


class DecisionTrace(_Record):
    """Ordered record of the branches taken; ends in BaseAccept or Reject."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[TraceStep, ...]):
        _set_field(self, "steps", steps)

    @property
    def accepted(self) -> bool:
        return bool(self.steps) and isinstance(self.steps[-1], BaseAccept)

    @property
    def rejection(self) -> Reject | None:
        last = self.steps[-1] if self.steps else None
        return last if isinstance(last, Reject) else None


class SynthesisResult(_Record):
    __slots__ = ("constructible", "sequence", "trace")

    def __init__(self, constructible: bool, sequence: MqspSequence | None, trace: DecisionTrace):
        _set_field(self, "constructible", constructible)
        _set_field(self, "sequence", sequence)
        _set_field(self, "trace", trace)


class NecessaryReport(_Record):
    """Outcome of the cheap rejection filters, each computed independently.

    Any False flag certifies the pair is not constructible in ``steps``
    steps; all-True proves nothing.
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

    def __init__(
        self,
        symmetry_p: bool,
        symmetry_q: bool,
        degree_equality: bool,
        p_nonzero: bool,
        parity_ok: bool,
        normalization_ok: bool,
        degrees: tuple[int, ...],
        degree_sum: int,
        steps: int,
    ):
        _set_field(self, "symmetry_p", symmetry_p)
        _set_field(self, "symmetry_q", symmetry_q)
        _set_field(self, "degree_equality", degree_equality)
        _set_field(self, "p_nonzero", p_nonzero)
        _set_field(self, "parity_ok", parity_ok)
        _set_field(self, "normalization_ok", normalization_ok)
        _set_field(self, "degrees", degrees)
        _set_field(self, "degree_sum", degree_sum)
        _set_field(self, "steps", steps)

    @property
    def all_ok(self) -> bool:
        return (
            self.symmetry_p
            and self.symmetry_q
            and self.degree_equality
            and self.p_nonzero
            and self.parity_ok
            and self.normalization_ok
        )


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
    carried by small slices.  The returned angle is the principal
    representative in (-pi/2, pi/2]; any representative mod pi reproduces
    the pair.
    """
    cp, cq = pair._top_slices(j, degree)
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
    top_turned = max(map(abs, turned))
    if max(map(abs, map(sub, cp, turned))) > tol * max(1.0, top_p, top_turned):
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
    drops by exactly one and the other degrees are unchanged.
    ``run_decision`` truncates a larger residue at its tolerance.  The result
    has the input's layout.
    """
    peeled = pair._peel(j, cmath.exp(1j * phi))
    return peeled._truncated(j, -1, DROP_EPS * max(1.0, *peeled._moduli))


def effective_degrees(pair: PQPair | PairBox, tol: float = EPS) -> tuple[int, ...]:
    """Per-variable degrees of P counting only coefficients visible at ``tol``.

    Ignoring terms at or below tol times the (floored) coefficient scale
    keeps the recursion's degree bookkeeping consistent with its coefficient
    comparisons: the rounding residue that a peeled factor leaves inside
    the rows it keeps sits far below the tolerance and must not masquerade
    as surviving degree.  (The rows above the new degree are truncated by
    ``run_decision``.)
    """
    degrees = pair._visible_degrees(tol * max(1.0, *pair._moduli))
    return degrees or (0,) * pair.variables


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
    takes): a float, even an integral one, raises TypeError.

    The pair is laid out once: on its ``PairBox`` unless that box would be
    too sparse, in which case its ``LaurentPoly`` terms are peeled with the
    general products (both give bitwise the same trace).
    """
    global _last_walk
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    memo = _last_walk
    if memo is not None and memo[0] is pair and memo[1] == tol:
        current, degs, s, walk = None, None, memo[2], memo[3]
    else:
        current = PairBox.from_pair(pair) or pair
        degs = effective_degrees(current, tol)
        s, walk = sum(degs), None
    if n < s:
        return DecisionTrace((Reject(n, REASON_DEGREE if n else REASON_BASE),))
    pads = tuple(map(IdentityPad, range(n, s + 1, -2)))
    if (n - s) % 2:
        return DecisionTrace(pads + (Reject(s + 1, REASON_DEGREE),))
    if walk is None:
        walk = _walk(current, degs, tol)
        _last_walk = (pair, tol, s, walk)
    return DecisionTrace(pads + walk)


def _walk(current: PQPair | PairBox, degs: tuple[int, ...], tol: float) -> tuple[TraceStep, ...]:
    """The decision's steps from a budget equal to the degree sum ``degs``
    of ``current`` (laid out by ``run_decision``).

    The recursion only ever shrinks the budget by one or two, so it is
    realized as a loop.  Variables are scanned in ascending order and the
    first phase match wins, which makes the walk deterministic.  A peel at
    the matched degree d of variable j lowers that degree to d - 1, so after
    each ``reduce_step`` the rows of j beyond +-(d - 1) are truncated from
    the ends of the axis, as long as every entry of P and Q in them is at or
    below the cutoff ``effective_degrees`` uses.  A row with a visible entry
    stops the truncation and is kept, so the next degree scan or the base
    case rejects the pair.  A peel that lowers the degree sum by two or more
    leaves room for identity pads inside the walk.
    """
    steps: list[TraceStep] = []
    remaining = sum(degs)
    while remaining:
        total = sum(degs)
        if total <= remaining - 2:
            # the pair is unchanged, so pad down to total or total + 1 at once
            pads = range(remaining, total + 1, -2)
            steps += map(IdentityPad, pads)
            remaining -= 2 * len(pads)
            if remaining == 0:
                break
        if total != remaining:
            steps.append(Reject(remaining, REASON_DEGREE))
            return tuple(steps)
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
            return tuple(steps)
        if remaining:
            degs = effective_degrees(current, tol)
    steps.append(_base_case(current, tol))
    return tuple(steps)


def _base_case(pair: PQPair | PairBox, tol: float) -> BaseAccept | Reject:
    """BaseAccept at arg(P) if P is a unimodular constant and Q is zero."""
    c0, rest = pair._origin()
    mod_p, mod_q = pair._moduli
    if abs(abs(c0) - 1.0) > tol:
        return Reject(0, REASON_BASE)
    if rest > tol * max(1.0, mod_p, abs(c0)):  # P.approx_eq(constant c0)
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

    Parameters are filled from the tail of the sequence inward, mirroring
    the trace: an identity padding occupies the two trailing positions of
    the current window (phases +pi/2 then -pi/2 on variable 1), a peeled
    factor occupies the trailing position with its matched phase, and the
    base case fixes phi_0.  The realized sequence always has exactly ``n``
    steps and reproduces the pair; it is one valid choice, not a canonical
    one.  The trace is ``run_decision``'s, so after ``decide`` on the same
    pair object and ``tol`` only the assembly is new work.
    """
    trace = run_decision(pair, n, tol)
    if not trace.accepted:
        return SynthesisResult(False, None, trace)
    phases = [0.0] * (n + 1)
    indices = [0] * n
    t = n
    for step in trace.steps:
        if isinstance(step, IdentityPad):
            phases[t - 1] = math.pi / 2.0
            phases[t] = -math.pi / 2.0
            indices[t - 2] = 1
            indices[t - 1] = 1
            t -= 2
        elif isinstance(step, PhaseReduction):
            phases[t] = step.phase
            indices[t - 1] = step.index
            t -= 1
        else:
            phases[0] = step.phase0
    sequence = MqspSequence(pair.variables, tuple(phases), tuple(indices))
    return SynthesisResult(True, sequence, trace)


def check_necessary(pair: PQPair, n: int, tol: float = EPS) -> NecessaryReport:
    """Run every rejection filter, without short-circuiting.

    Checks the inversion symmetries P(a^{-1}) = P(a) and Q(a^{-1}) = -Q(a),
    per-variable degree equality of P and Q, P != 0, matching parity of the
    degree sum and the step count, and the unit-norm identity (sampled on a
    torus grid, see ``PQPair.is_normalized``).
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    p, q = pair.p, pair.q
    degrees = p.degrees()
    total = sum(degrees)
    return NecessaryReport(
        symmetry_p=p.invert_vars().approx_eq(p, tol),
        symmetry_q=q.invert_vars().approx_eq(-q, tol),
        degree_equality=degrees == q.degrees(),
        p_nonzero=not p.is_zero(tol),
        parity_ok=(total - n) % 2 == 0,
        normalization_ok=pair.is_normalized(tol),
        degrees=degrees,
        degree_sum=total,
        steps=n,
    )


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
    ``tests/test_conditioning.py``).
    """
    if pair.variables != 1:
        raise ValueError(
            f"single-variable characterization needs arity 1, got {pair.variables}"
        )
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    p, q = pair.p, pair.q
    if p.degree(1) > n or q.degree(1) > n:
        return False
    if not p.invert_vars().approx_eq(p, tol):
        return False
    if not q.invert_vars().approx_eq(-q, tol):
        return False
    sign = -1.0 if n % 2 else 1.0
    if not p.negate_var(1).approx_eq(p * sign, tol):
        return False
    if not q.negate_var(1).approx_eq(q * sign, tol):
        return False
    return pair.is_normalized(tol)


def term_bound(pair: PQPair) -> int:
    """Number of slots of the pair's coefficient box (see ``PairBox``): the
    product over variables of (span_j / stride_j + 1), with span_j the spread
    of the j-exponents of P and Q and stride_j 2 when they share one parity,
    else 1.  On a realizable pair this is prod_j (d_j + 1), the largest
    number of terms either component can carry at its degrees.  The decision
    runs in O(steps * variables * term_bound)."""
    return math.prod(PairBox.lattice(pair)[2])
