"""Structured 2x2 matrices over Laurent polynomials.

The building blocks of an interleaved signal-processing product: one signal
operator per variable, constant z-rotations, their matrix products, and the
(P, Q) top-row embedding whose bottom row is forced to be
(-star(invert_vars(Q)), star(invert_vars(P))).

``evaluate_sequence`` carries only the top row.  It steps the pair on a
``box.PairBox``: P and Q as flat coefficient lists on one centred stride-2
box, of which only the half that the inversion symmetries do not fix is
stored, and where multiplying by (a_j +- a_j^{-1})/2 is one shift pass,
whose two copies the step's combine adds and subtracts.
Its one loop calls the state's ``_step``: ``PairBox._step`` trims the
box's zero end rows and hands the pair over as terms once the box gets too
sparse (the density rule, ``box._BOX_PER_TERM``), and ``PQPair._step``
steps the terms.
``evaluate_sequence``, ``PQPair.is_normalized`` and
``PQPair.normalization_defect`` load ``box`` when they run, so building
and saving pairs does not compile it.  The evaluated pair keeps its box
and builds its terms only when they are read.  The decision in ``engine``
peels factors off the same half box with the same step front.  A pair
whose box would be mostly empty, or that lacks the symmetries (a perturbed
or hand-written document, say), stays as ``LaurentPoly`` terms, whose
front makes the same shift on the exponent keys; both layouts share
one combine per direction, so they give bitwise the same values.  The peel
makes no ``DROP_EPS`` cut; evaluation makes one per step, after the whole
step.  Multiplying the full ``Mat2`` factors out term by term without
cuts, and cutting the product once after each step, is the independent
test oracle; the public ``Mat2`` product itself cuts after every
operation.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, compress, repeat
from operator import add, mul, neg, sub

from .laurent import DROP_EPS, EPS, LaurentPoly, _axis, _tolerance, _variables


#: Stores a field of a record from its constructor, past ``_Record.__setattr__``.
_set_field = object.__setattr__


class _Record:
    """Base of the package's immutable records (``Mat2``, ``PQPair``,
    ``MqspSequence``, the trace and report types of ``engine`` and those of
    ``oracle``).

    A record lists its fields in ``__slots__``.  The base takes them in that
    order, by position or keyword, and stores each with ``_set_field``, after
    a record's own ``__init__`` checks them or fills a default.  It makes the
    fields read-only, compares and hashes records by type and field values,
    shows them as ``Name(field=value, ...)`` without the fields named in
    ``_hidden``, and pickles and copies them through their constructor.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args) :]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                call = f"{type(self).__qualname__}({', '.join(names)})"
                raise TypeError(f"{call} got {len(args)} positional and keywords {sorted(kwargs)}")
            args += tuple(map(kwargs.get, rest))
        for name, value in zip(names, args):
            _set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


def half_sum(j: int, variables: int) -> LaurentPoly:
    """(a_j + a_j^{-1}) / 2 with the full ambient arity; IndexError
    unless 1 <= j <= variables."""
    return _half_factor(j, variables, 0.5)


def half_diff(j: int, variables: int) -> LaurentPoly:
    """(a_j - a_j^{-1}) / 2 with the full ambient arity; IndexError
    unless 1 <= j <= variables."""
    return _half_factor(j, variables, -0.5)


def _half_factor(j: int, variables: int, low: float) -> LaurentPoly:
    variables = _variables(variables)
    i = _axis(j, variables)
    up = (0,) * i + (1,) + (0,) * (variables - 1 - i)
    terms = {up: complex(0.5), tuple(map(neg, up)): complex(low)}
    return LaurentPoly._from_arithmetic(variables, terms, 1.0)


class Mat2(_Record):
    """2x2 matrix of Laurent polynomials, row-major (a b / c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly):
        if any(entry.variables != a.variables for entry in (b, c, d)):
            raise ValueError("matrix entries must share one variable count")
        _Record.__init__(self, a, b, c, d)

    @property
    def variables(self) -> int:
        return self.a.variables

    def __matmul__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def determinant(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c


def identity_matrix(variables: int) -> Mat2:
    one = LaurentPoly.constant(variables, 1.0)
    zero = LaurentPoly.zero(variables)
    return Mat2(one, zero, zero, one)


def signal_operator(j: int, variables: int) -> Mat2:
    """X-rotation-form signal operator of variable ``j``: diagonal entries
    (a_j + a_j^{-1})/2, off-diagonal entries (a_j - a_j^{-1})/2."""
    cos_part = half_sum(j, variables)
    sin_part = half_diff(j, variables)
    return Mat2(cos_part, sin_part, sin_part, cos_part)


def z_rotation(phi: float, variables: int) -> Mat2:
    """Constant matrix diag(e^{i phi}, e^{-i phi})."""
    phase = cmath.exp(1j * phi)
    zero = LaurentPoly.zero(variables)
    return Mat2(
        LaurentPoly.constant(variables, phase),
        zero,
        zero,
        LaurentPoly.constant(variables, phase.conjugate()),
    )


class _BoxSlot(_Record):
    """A record with a slot ``_box`` that is not one of its fields."""

    __slots__ = ("_box",)


class PQPair(_BoxSlot):
    """Ordered top row (p, q) of a structured 2x2 matrix.

    The bottom row is determined by the top one, see ``pair_to_matrix``.  A
    pair realizable by some parameter sequence additionally satisfies the
    unit-norm identity p*p~ + q*q~ = 1 (with x~ = star(invert_vars(x))),
    which is |p|^2 + |q|^2 = 1 for variables on the unit circle; use
    ``is_normalized`` to test for it.  The identity is usually not
    multiplied out but sampled on a torus grid (see
    ``box._unit_norm_deviation``).

    A pair has one of two storages.  Most hold their ``LaurentPoly`` terms
    ``p`` and ``q``.  A pair that ``evaluate_sequence`` finishes on its
    ``PairBox``, and each reduced pair of a decision that runs on a box
    (``PhaseReduction.state``), keeps that box instead (``PairBox.to_pair``):
    ``p`` and ``q`` are built from it on first read and then kept.  Such a
    box may have more rows than the lattice of the terms, when an axis ends
    in rows whose slots are all 0j.  The decision reads the box, and two
    such pairs on boxes of equal rows compare the stored half of P with P's
    and that of Q with Q's, so their terms are built only when asked for;
    boxes of different rows are compared on the terms.  The level functions
    of ``engine`` (``effective_degrees``, ``find_phase``, ``reduce_step``)
    read the box too; the unit-norm filter reads the terms.  The box is not
    a field: equality, hash, repr, pickling and copying see only ``p`` and
    ``q``, and a copy or unpickled pair holds terms.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: LaurentPoly, q: LaurentPoly):
        if p.variables != q.variables:
            raise ValueError(f"variable-count mismatch: {p.variables} != {q.variables}")
        _Record.__init__(self, p, q)
        _set_field(self, "_box", None)

    @classmethod
    def _on_box(cls, box: PairBox) -> PQPair:
        """The pair stored as ``box``, whose terms are built when first read."""
        pair = cls.__new__(cls)
        _set_field(pair, "_box", box)
        return pair

    def __getattr__(self, name):
        # only an unset field of a pair stored as a box gets here
        if name not in ("p", "q"):
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        p, q = self._box._terms()
        _set_field(self, "p", p)
        _set_field(self, "q", q)
        return p if name == "p" else q

    @property
    def variables(self) -> int:
        box = self._box
        return self.p.variables if box is None else box.variables

    def normalization_defect(self) -> float:
        """Largest coefficient-wise |difference| of p*p~ + q*q~ against 1;
        inf when |p|^2 + |q|^2 overflows a double: its constant coefficient,
        the sum of |c|^2, or one of its samples."""
        from .box import _unit_norm_deviation

        return _unit_norm_deviation(self)[0]

    def is_normalized(self, tol: float = EPS) -> bool:
        """The unit-norm identity within ``tol`` relative to the coefficient
        scale, the test ``LaurentPoly.approx_eq`` makes.  The verdict is that
        of ``normalization_defect`` against the scale, usually settled from
        Parseval bounds on the samples without transforming back.  A pair
        whose |p|^2 + |q|^2 overflows a double fails: its defect is inf.
        ``tol`` must be a finite number >= 0, or ValueError is raised."""
        from .box import _unit_norm_deviation

        deviation, scale = _unit_norm_deviation(self, _tolerance(tol))
        return deviation <= tol * scale

    def max_deviation(self, other: PQPair) -> float:
        return max(self._deviations(other))

    def approx_eq(self, other: PQPair, tol: float = EPS) -> bool:
        """``LaurentPoly.approx_eq`` of P and of Q against ``other``'s, with
        its check of ``tol``."""
        (dp, dq), (sp, sq), (op, oq) = self._deviations(other), self._moduli, other._moduli
        return dp <= _tolerance(tol) * max(1.0, sp, op) and dq <= tol * max(1.0, sq, oq)

    def _deviations(self, other: PQPair) -> tuple[float, float]:
        """``LaurentPoly.max_deviation`` of P and of Q against ``other``'s,
        read from ``p_half`` and ``q_half`` when both pairs are stored on
        boxes with equal rows, else from the terms.  A slot and its mirror
        image differ by one modulus, as Q's 0j - v is exact, so the half
        gives the same float."""
        box, other_box = self._box, other._box
        if box is None or other_box is None or box.rows != other_box.rows:
            return self.p.max_deviation(other.p), self.q.max_deviation(other.q)
        halves = (box.p_half, other_box.p_half), (box.q_half, other_box.q_half)
        return tuple(max(map(abs, map(sub, a, b)), default=0.0) for a, b in halves)

    # -- storage primitives of the step logic, shared with PairBox ------------

    def to_pair(self) -> PQPair:
        return self

    @property
    def _moduli(self) -> tuple[float, float]:
        box = self._box
        return (self.p.max_modulus(), self.q.max_modulus()) if box is None else box._moduli

    def _visible_degrees(self, cutoff: float) -> tuple[int, ...]:
        """P's degrees over its terms above ``cutoff``; zeros when no term
        is visible, as the origin's key heads the columns."""
        terms = self.p.terms
        visible = compress(terms, map(cutoff.__lt__, map(abs, terms.values())))
        return tuple(max(map(abs, column)) for column in zip((0,) * self.variables, *visible))

    def _top_slices(self, j: int, exponent: int) -> tuple[list, list]:
        i = j - 1
        cp = {k: c for k, c in self.p.terms.items() if k[i] == exponent}
        cq = {k: c for k, c in self.q.terms.items() if k[i] == exponent}
        keys = sorted(cp.keys() | cq.keys())
        return list(map(cp.get, keys, repeat(0j))), list(map(cq.get, keys, repeat(0j)))

    def _origin(self) -> tuple[complex, float]:
        rest = dict(self.p.terms)
        c0 = rest.pop((0,) * self.variables, 0j)
        return c0, max(map(abs, rest.values()), default=0.0)

    def _step(self, j: int, phase: complex) -> PQPair:
        """``PairBox._step`` on the terms, which hold no zero rows to trim."""
        keys, *parts = self._front(j)
        return PQPair(*_as_terms(self.variables, keys, *_stepped(*parts, phase)[:2]))

    def _peel(self, j: int, e: complex) -> PQPair:
        """``PairBox._peel`` on the terms."""
        keys, *parts = self._front(j)
        return PQPair(*_as_terms(self.variables, keys, *_peeled(*parts, e)))

    def _front(self, j: int) -> tuple:
        """``PairBox._front`` on the terms: the product's keys, and the four
        shifted copies aligned on them.  As in ``_halves``, each term's
        0j + c / 2 is copied to k + e_j, P's or Q's low copy, and to
        k - e_j, its high copy; a key that a copy misses holds 0j there."""
        i = j - 1
        copies = []  # P's terms moved up and down, then Q's
        for terms in (self.p.terms, self.q.terms):
            halves = list(map(add, repeat(_ZERO), map(mul, terms.values(), repeat(_HALF))))
            for e in (1, -1):
                copies.append(dict(zip([k[:i] + (k[i] + e,) + k[i + 1 :] for k in terms], halves)))
        keys = list(dict.fromkeys(chain(*copies)))
        return keys, *[list(map(c.get, keys, repeat(_ZERO))) for c in copies]

    def _truncated(self, j: int, top: int, cutoff: float) -> PQPair:
        """``PairBox._truncated`` on the terms."""
        i = j - 1
        terms = [*self.p.terms.items(), *self.q.terms.items()]
        bounds = [k[i] for k, c in terms if not abs(c) <= cutoff]
        if top >= 0:
            bounds += (-top, top)
        low, high = min(bounds, default=1), max(bounds, default=0)
        return PQPair(*(
            LaurentPoly._from_arithmetic(
                self.variables, {k: c for k, c in poly.terms.items() if low <= k[i] <= high}, 0.0
            )
            for poly in (self.p, self.q)
        ))


_ZERO = 0j
_HALF = complex(0.5)


def _stepped(p_low: list, p_high: list, q_low: list, q_high: list, phase: complex) -> tuple:
    """Evaluation's combine in both layouts, on the front's shifted copies.
    A component's cosine part is its low copy plus its high one, and its
    sine part its low copy less its high one.  P's cosine part plus Q's sine
    part is turned as 0j + x e^{i phi}, the product with a constant, and
    Q's cosine part plus P's sine part as 0j + x e^{-i phi}, each in one
    pass over the copies.  Then each is cut once: its values at or below
    ``DROP_EPS`` times max(1, its own largest modulus) become 0j.  Returns
    P, Q and their moduli, which the cut measures and which are 0.0 where
    it cuts."""
    out = []
    for cos, sin, turn in ((map(add, p_low, p_high), map(sub, q_low, q_high), phase),
                           (map(add, q_low, q_high), map(sub, p_low, p_high), phase.conjugate())):
        part = list(map(add, repeat(_ZERO), map(mul, map(add, cos, sin), repeat(turn))))
        sizes = list(map(abs, part))
        cutoff = DROP_EPS * max(1.0, max(sizes))
        if not min(filter(None, sizes), default=math.inf) > cutoff:
            part = [value if size > cutoff else _ZERO for value, size in zip(part, sizes)]
            sizes = [size if size > cutoff else 0.0 for size in sizes]
        out += part, sizes
    p, p_sizes, q, q_sizes = out
    return p, q, (p_sizes, q_sizes)


def _peeled(p_low: list, p_high: list, q_low: list, q_high: list, e: complex) -> list:
    """The peel's combine in both layouts, on the front's shifted copies and
    with no cut: P's cosine part turned by e^{-i phi} less Q's sine part
    turned by e^{i phi}, and Q's cosine part turned by e^{i phi} less P's
    sine part turned by e^{-i phi}, each in one pass over the copies, the
    parts formed as in ``_stepped``.  A zero part stays ``0j`` when turned:
    a product of polynomials holds no term there, and 0j times e can have a
    -0.0 part that would leak into the difference.  A nonzero value times a
    unimodular factor is never zero, even below the normal range."""
    ec = e.conjugate()
    return [[(x * c if x else _ZERO) - (y * d if y else _ZERO) for x, y in zip(cos, sin)]
            for cos, sin, c, d in ((map(add, p_low, p_high), map(sub, q_low, q_high), ec, e),
                                   (map(add, q_low, q_high), map(sub, p_low, p_high), e, ec))]


def _as_terms(variables: int, keys: list, *parts: list) -> tuple[LaurentPoly, ...]:
    """Each of ``parts``, a list aligned on ``keys``, as terms without its
    exact zeros; ValueError on a non-finite value."""
    return tuple(
        LaurentPoly._from_arithmetic(variables, dict(compress(zip(keys, values), values)), 0.0)
        for values in parts
    )


class MqspSequence(_Record):
    """Angle parameters phi_0..phi_n and index parameters s_1..s_n.

    ``indices`` are 1-based variable choices; there is always exactly one
    more phase than there are indices.  ``variables`` passes the variable
    count check of ``LaurentPoly`` (``laurent._variables``), so a float
    count raises TypeError; ``phases`` and ``indices`` are stored as tuples
    of float and of int.
    """

    __slots__ = ("variables", "phases", "indices")

    def __init__(self, variables: int, phases, indices):
        variables = _variables(variables)
        phases = tuple(map(float, phases))
        indices = tuple(map(int, indices))
        if not all(map(math.isfinite, phases)):
            phi = next(phi for phi in phases if not math.isfinite(phi))
            raise ValueError(f"phase {phi!r} is not finite")
        if len(phases) != len(indices) + 1:
            raise ValueError(
                f"got {len(phases)} phases for {len(indices)} indices; "
                "expected one more phase than indices"
            )
        if indices and not 1 <= min(indices) <= max(indices) <= variables:
            s = next(s for s in indices if not 1 <= s <= variables)
            raise ValueError(f"index {s} out of range 1..{variables}")
        _Record.__init__(self, variables, phases, indices)

    @property
    def steps(self) -> int:
        return len(self.indices)


def pair_to_matrix(pair: PQPair) -> Mat2:
    """Embed a pair as the full structured matrix
    [[p, q], [-star(invert_vars(q)), star(invert_vars(p))]]."""
    return Mat2(
        pair.p,
        pair.q,
        -pair.q.torus_conjugate(),
        pair.p.torus_conjugate(),
    )


def evaluate_sequence(seq: MqspSequence) -> PQPair:
    """Multiply out z(phi_0) A(s_1) z(phi_1) ... A(s_n) z(phi_n) and return the top row.

    Only the top row is carried: each step maps (p, q) to
    ((p c + q s) e^{i phi}, (p s + q c) e^{-i phi}) with c, s the cosine and
    sine parts of A(s_k).  The pair starts as a one-slot ``PairBox`` and
    takes each step by its ``_step``, on either layout: the box grows by
    one row, loses the zero end rows of the stepped axis and, as soon as it
    gets too sparse, hands the pair over as ``LaurentPoly`` terms, which
    take the remaining steps with the same step algebra
    (``PQPair._step``).  A box that stays dense to the end is the result's
    storage, and the terms are built when first read (see ``PQPair``).
    Only the stepped axis is trimmed, so such a box may keep an empty end
    row on another axis; it then has more rows than the lattice of its
    terms, and every slot of those rows is 0j.  A step
    multiplies without cuts and then makes one ``DROP_EPS`` cut, on each
    component at max(1, its own largest modulus), as ``LaurentPoly``
    construction cuts.  That cut turns the rounding residue of exact
    cancellations into exact zeros, which the trim and the sparse hand-off
    count; kept to the end, the residue of a discrete-angle sequence on m
    variables can fill all 2^m slots of its box.  Either way the result is
    bitwise the top row of the ``Mat2`` product of ``z_rotation`` and
    ``signal_operator`` factors multiplied without cuts (a drop scale of 0)
    and cut in that way after each step, which stays as the test oracle.
    For an empty sequence this is (e^{i phi_0}, 0).

    Only half of the box is computed.  Every box evaluation builds has
    lowest exponent -(rows - 1) on each axis, so the exponents k and -k sit
    at the flat slots f and N - 1 - f of its N slots, and the pair keeps the
    inversion symmetries P(a^{-1}) = P(a) and Q(a^{-1}) = -Q(a) bitwise:
    P's coefficient at -k is the same sum as at k with its terms swapped,
    and addition commutes; Q's is the sum of the negated terms, and
    rounding to nearest commutes with negation.  Every list of the step
    passes through 0j + x, or is a sum or difference of such lists, so no
    zero part is -0.0, and Q's coefficient at -k is 0j - v for v the one at
    k, which the cut keeps: a slot and its mirror have one modulus.  So the
    state is the half box, the first ceil(N / 2) slots of P and of Q in two
    lists.  ``PairBox._step`` counts the terms left by a trim on it, each
    zero of a half standing for a slot and its mirror, and unfolds the whole
    box only to hand it over.
    """
    from .box import PairBox

    state = PairBox((1,) * seq.variables, [cmath.exp(1j * seq.phases[0])], [_ZERO])
    for phi, s in zip(seq.phases[1:], seq.indices):
        state = state._step(s, cmath.exp(1j * phi))
    return state.to_pair()
