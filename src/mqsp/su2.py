"""Structured 2x2 matrices over Laurent polynomials.

The building blocks of an interleaved signal-processing product: one signal
operator per variable, constant z-rotations, their matrix products, and the
(P, Q) top-row embedding whose bottom row is forced to be
(-star(invert_vars(Q)), star(invert_vars(P))).

``evaluate_sequence`` carries only the top row.  It steps the pair on a
``PairBox``, P and Q as flat coefficient lists on one shared parity-lattice
box, where multiplying by (a_j +- a_j^{-1})/2 is one shift-add pass, and
computes only the half of the box that the inversion symmetries do not
fix; the decision in ``engine`` peels factors off with the same kernel.  A
pair whose box would be mostly empty stays as ``LaurentPoly`` terms and uses
the general products, which the kernel reproduces bit for bit.  The peel
makes no ``DROP_EPS`` cut; evaluation makes one per step, after the whole
step.  Multiplying the full ``Mat2`` factors out term by term without cuts,
and cutting the product once after each step, is the independent test
oracle; the public ``Mat2`` product itself cuts after every operation.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import compress, product, repeat
from operator import add, mul, neg, sub

from .laurent import DROP_EPS, EPS, LaurentPoly, _require_finite


#: Stores a field of a record from its constructor, past ``_Record.__setattr__``.
_set_field = object.__setattr__


class _Record:
    """Base of the package's immutable records (``Mat2``, ``PQPair``,
    ``MqspSequence``, the trace and report types of ``engine`` and those of
    ``oracle``).

    A record lists its fields in ``__slots__`` and takes them, in that
    order, as the parameters of its own ``__init__``, which checks them and
    stores each with ``_set_field``.  The base makes the fields read-only,
    compares and hashes records by type and field values, shows them as
    ``Name(field=value, ...)`` without the fields named in ``_hidden``, and
    pickles and copies them through their constructor.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

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
    i = LaurentPoly.zero(variables)._index(j)
    up = (0,) * i + (1,) + (0,) * (variables - 1 - i)
    terms = {up: complex(0.5), tuple(map(neg, up)): complex(low)}
    return LaurentPoly._from_arithmetic(variables, terms, 1.0)


class Mat2(_Record):
    """2x2 matrix of Laurent polynomials, row-major (a b / c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly):
        if any(entry.variables != a.variables for entry in (b, c, d)):
            raise ValueError("matrix entries must share one variable count")
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "c", c)
        _set_field(self, "d", d)

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


class PQPair(_Record):
    """Ordered top row (p, q) of a structured 2x2 matrix.

    The bottom row is determined by the top one, see ``pair_to_matrix``.  A
    pair realizable by some parameter sequence additionally satisfies the
    unit-norm identity p*p~ + q*q~ = 1 (with x~ = star(invert_vars(x))),
    which is |p|^2 + |q|^2 = 1 for variables on the unit circle; use
    ``is_normalized`` to test for it.  The identity is usually not
    multiplied out: |p|^2 + |q|^2 is sampled on a torus grid of
    N_j = 2 r_j - 1 points per variable, for the r_j rows of the pair's
    ``PairBox`` (its exponents at stride 1 or 2), which holds each of its
    lags once.  ``is_normalized`` decides from Parseval bounds on those
    samples and transforms back only when the bounds leave the verdict
    open; ``normalization_defect`` always transforms back (see
    ``_unit_norm_deviation``).  That costs O(G * sum_j N_j) for a grid of
    G = prod_j N_j points instead of the product's O(L^2) in the term count
    L.  A pair too sparse for its box, by the slots-per-term rule that
    evaluation and the decision use, is multiplied out instead.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: LaurentPoly, q: LaurentPoly):
        if p.variables != q.variables:
            raise ValueError(f"variable-count mismatch: {p.variables} != {q.variables}")
        _set_field(self, "p", p)
        _set_field(self, "q", q)

    @property
    def variables(self) -> int:
        return self.p.variables

    def normalization_defect(self) -> float:
        """Largest coefficient-wise |difference| of p*p~ + q*q~ against 1."""
        return _unit_norm_deviation(self)[0]

    def is_normalized(self, tol: float = EPS) -> bool:
        """The unit-norm identity within ``tol`` relative to the coefficient
        scale, the test ``LaurentPoly.approx_eq`` makes.  The verdict is that
        of ``normalization_defect`` against the scale, usually settled from
        Parseval bounds on the samples without transforming back."""
        deviation, scale = _unit_norm_deviation(self, tol)
        return deviation <= tol * scale

    def max_deviation(self, other: PQPair) -> float:
        return max(self.p.max_deviation(other.p), self.q.max_deviation(other.q))

    def approx_eq(self, other: PQPair, tol: float = EPS) -> bool:
        return self.p.approx_eq(other.p, tol) and self.q.approx_eq(other.q, tol)

    # -- storage primitives of the step logic, shared with PairBox ------------

    def to_pair(self) -> PQPair:
        return self

    @property
    def _moduli(self) -> tuple[float, float]:
        return self.p.max_modulus(), self.q.max_modulus()

    def _visible_degrees(self, cutoff: float) -> tuple[int, ...] | None:
        terms = self.p.terms
        visible = list(compress(terms, map(cutoff.__lt__, map(abs, terms.values()))))
        if not visible:
            return None
        return tuple(max(map(abs, column)) for column in zip(*visible))

    def _top_slices(self, j: int, exponent: int) -> tuple[list, list]:
        i = self.p._index(j)
        cp = {k: c for k, c in self.p.terms.items() if k[i] == exponent}
        cq = {k: c for k, c in self.q.terms.items() if k[i] == exponent}
        keys = sorted(cp.keys() | cq.keys())
        return list(map(cp.get, keys, repeat(0j))), list(map(cq.get, keys, repeat(0j)))

    def _origin(self) -> tuple[complex, float]:
        rest = dict(self.p.terms)
        c0 = rest.pop((0,) * self.variables, 0j)
        return c0, max(map(abs, rest.values()), default=0.0)

    def _extend(self, j: int, phase: complex) -> PQPair:
        # evaluation's step once the pair has left its box: the general
        # products with a drop scale of 0, as in _peel, and one cut of each
        # component at its own scale, as LaurentPoly construction cuts
        m = self.variables
        cos_part, sin_part = half_sum(j, m), half_diff(j, m)

        def stepped(a: LaurentPoly, b: LaurentPoly, e: complex) -> LaurentPoly:
            # (a c + b s) e; Q's sum q c + p s is the product's p s + q c,
            # since a sum of two terms commutes
            mixed = a._product(cos_part, 0.0)._sum(b._product(sin_part, 0.0), 0.0)
            turned = mixed._product(LaurentPoly.constant(m, e), 0.0)
            return LaurentPoly._from_arithmetic(m, turned.terms, max(1.0, turned.max_modulus()))

        return PQPair(stepped(self.p, self.q, phase), stepped(self.q, self.p, phase.conjugate()))

    def _peel(self, j: int, e: complex) -> PQPair:
        # the general products with a drop scale of 0: only exact zeros go
        cos_part, sin_part = half_sum(j, self.variables), half_diff(j, self.variables)
        ec = e.conjugate()
        p, q = self.p, self.q
        return PQPair(
            p._product(cos_part, 0.0)._scaled(ec, 0.0)._difference(
                q._product(sin_part, 0.0)._scaled(e, 0.0), 0.0
            ),
            q._product(cos_part, 0.0)._scaled(e, 0.0)._difference(
                p._product(sin_part, 0.0)._scaled(ec, 0.0), 0.0
            ),
        )

    def _truncated(self, j: int, top: int, cutoff: float) -> PQPair:
        """``PairBox._truncated`` on the terms."""
        i = self.p._index(j)
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


#: A pair or sequence is stepped on a ``PairBox`` while the box has at most
#: this many slots per stored term (of the larger of P and Q).  A sparser
#: one keeps its ``LaurentPoly`` terms and the general products, so a few
#: terms spread over a wide or many-variable box stay cheap.
_BOX_PER_TERM = 4


def _too_sparse(slots: int, terms: int) -> bool:
    """A box of ``slots`` slots is too sparse for ``terms`` stored terms."""
    return slots > _BOX_PER_TERM * terms


_ZERO = 0j
_HALF = complex(0.5)


class PairBox:
    """P and Q of one pair as flat coefficient lists on one shared box.

    Variable i + 1 has ``rows[i]`` rows at the exponents
    ``lows[i] + strides[i] * r``; the stride is 2 when all its exponents in P
    and Q share one parity, as in every realizable pair, and 1 otherwise.
    The lists are row-major, the last variable fastest, so flat order is
    lexicographic exponent order.  Absent terms are exact zeros ``0j``.
    ``_moduli`` is the largest |coefficient| of P and of Q, and ``sizes``
    |coefficient| of every slot of P; each is given when the step that built
    the box measured it, and is otherwise measured once when first read.

    The box and ``PQPair`` provide the same storage primitives, over which
    the peel in ``engine`` is written once: ``_moduli``,
    ``_visible_degrees``, ``_top_slices``, ``_origin``, ``_peel``,
    ``_truncated`` and ``to_pair``.  The peel steps the box with one
    shift-add pass (``_halves``) per component and no cuts, as the general
    products multiply with a drop scale of 0, and leaves the residue rows to
    ``_truncated``.  ``evaluate_sequence`` holds only the first half of the
    slots of P and of Q, which fix the rest bitwise by the inversion
    symmetries of every pair it builds, and steps both with one ``_halves``
    pass and one ``DROP_EPS`` cut of each (``_half_step``), as the general
    products step the pair once it has left its box (``PQPair._extend``).
    It unfolds the whole box only to trim zero end rows of the stepped
    variable and to convert it.  Either way both layouts give bitwise the
    same values.
    """

    __slots__ = ("variables", "lows", "strides", "rows", "p", "q", "_tops", "_sizes")

    def __init__(self, variables, lows, strides, rows, p, q, moduli=None, sizes=None):
        self.variables, self.p, self.q, self._tops = variables, p, q, moduli
        self.lows, self.strides, self.rows = tuple(lows), tuple(strides), tuple(rows)
        self._sizes = sizes

    @staticmethod
    def lattice(pair: PQPair) -> tuple[list[int], list[int], list[int]]:
        """Lowest exponent, stride and row count per variable of the box
        that holds ``pair``."""
        lows, strides, rows = [], [], []
        for column in list(zip(*pair.p.terms, *pair.q.terms)) or [(0,)] * pair.variables:
            low = min(column)
            stride = 2 if len(set(map((1).__and__, column))) == 1 else 1
            lows.append(low)
            strides.append(stride)
            rows.append((max(column) - low) // stride + 1)
        return lows, strides, rows

    @classmethod
    def from_pair(cls, pair: PQPair) -> PairBox | None:
        """The pair on its box, or None when the box would have more than
        ``_BOX_PER_TERM`` slots per stored term."""
        lows, strides, rows = cls.lattice(pair)
        if _too_sparse(math.prod(rows), max(len(pair.p), len(pair.q))):
            return None
        return cls._placed(pair, lows, strides, rows)

    @classmethod
    def _placed(cls, pair: PQPair, lows, strides, rows) -> PairBox:
        lists = []
        for poly in (pair.p, pair.q):
            index = [0] * len(poly)
            for column, low, stride, n in zip(zip(*poly.terms), lows, strides, rows):
                index = [at * n + (e - low) // stride for at, e in zip(index, column)]
            values = [0j] * math.prod(rows)
            for at, coeff in zip(index, poly.terms.values()):
                values[at] = coeff
            lists.append(values)
        return cls(pair.variables, lows, strides, rows, *lists, pair._moduli)

    def to_pair(self) -> PQPair:
        stops = map(add, self.lows, map(mul, self.strides, self.rows))
        keys = list(product(*map(range, self.lows, stops, self.strides)))
        p = dict(compress(zip(keys, self.p), self.p))
        q = dict(compress(zip(keys, self.q), self.q))
        m = self.variables
        return PQPair(LaurentPoly._from_arithmetic(m, p, 0.0), LaurentPoly._from_arithmetic(m, q, 0.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PairBox, PQPair)):
            return NotImplemented
        return self.to_pair() == other.to_pair()

    __hash__ = None

    # -- storage primitives ---------------------------------------------------

    @property
    def _moduli(self) -> tuple[float, float]:
        if self._tops is None:
            self._tops = max(map(abs, self.p), default=0.0), max(map(abs, self.q), default=0.0)
        return self._tops

    def _p_sizes(self) -> list[float]:
        if self._sizes is None:
            self._sizes = list(map(abs, self.p))
        return self._sizes

    def _visible_degrees(self, cutoff: float) -> tuple[int, ...] | None:
        if not self._moduli[0] > cutoff:
            return None
        sizes = self._p_sizes()
        degrees = []
        for i, low, stride in zip(range(self.variables), self.lows, self.strides):
            # the largest |exponent| sits in the first or the last visible row
            first, last = 0, self.rows[i] - 1
            while not max(self._rows(sizes, i, first, first + 1)) > cutoff:
                first += 1
            while not max(self._rows(sizes, i, last, last + 1)) > cutoff:
                last -= 1
            degrees.append(max(abs(low + stride * first), abs(low + stride * last)))
        return tuple(degrees)

    def _top_slices(self, j: int, exponent: int) -> tuple[list, list]:
        i = j - 1
        r, off = divmod(exponent - self.lows[i], self.strides[i])
        if off or not 0 <= r < self.rows[i]:
            return [], []
        return self._rows(self.p, i, r, r + 1), self._rows(self.q, i, r, r + 1)

    def _origin(self) -> tuple[complex, float]:
        sizes = self._p_sizes()
        index = 0
        for low, stride, n in zip(self.lows, self.strides, self.rows):
            r, off = divmod(-low, stride)
            if off or not 0 <= r < n:
                return 0j, max(sizes, default=0.0)
            index = index * n + r
        sizes = sizes.copy()
        sizes[index] = 0.0
        return self.p[index], max(sizes)

    def _peel(self, j: int, e: complex) -> PairBox:
        i = j - 1
        ec = e.conjugate()
        block = math.prod(self.rows[i + 1 :])
        chunk, pad = self.rows[i] * block, (3 - self.strides[i]) * block
        p_cos, p_sin = _halves(self.p, chunk, pad)
        q_cos, q_sin = _halves(self.q, chunk, pad)
        p = list(map(sub, _turned(p_cos, ec), _turned(q_sin, e)))
        q = list(map(sub, _turned(q_cos, e), _turned(p_sin, ec)))
        sizes, q_sizes = list(map(abs, p)), list(map(abs, q))
        _require_finite(p, sizes)
        _require_finite(q, q_sizes)
        return self._stepped(i, p, q, (max(sizes), max(q_sizes)), sizes)

    def _truncated(self, j: int, top: int, cutoff: float) -> PairBox:
        """The box without the rows of variable ``j`` beyond +-``top`` whose
        entries in P and Q are all at or below ``cutoff``, trimmed from both
        ends of the axis: from either end, the first row within +-``top`` or
        with an entry above the cutoff stops the trim.  With ``top`` below 0
        any row can go."""
        i = j - 1
        low, stride = self.lows[i], self.strides[i]

        def hidden(r: int) -> bool:
            return abs(low + stride * r) > top and all(
                all(map(cutoff.__ge__, map(abs, self._rows(values, i, r, r + 1))))
                for values in (self.p, self.q)
            )

        start, stop = 0, self.rows[i]
        while start < stop and hidden(start):
            start += 1
        while start < stop and hidden(stop - 1):
            stop -= 1
        if stop - start == self.rows[i]:
            return self
        lows, rows = list(self.lows), list(self.rows)
        lows[i] += start * stride
        rows[i] = stop - start
        p, q = self._rows(self.p, i, start, stop), self._rows(self.q, i, start, stop)
        sizes = self._sizes and self._rows(self._sizes, i, start, stop)
        # a dropped entry is at most the cutoff, so a larger modulus stays
        moduli = self._tops and tuple(
            modulus if cutoff < modulus else max(map(abs, values), default=0.0)
            for modulus, values in zip(self._tops, (p, q))
        )
        return PairBox(self.variables, lows, self.strides, rows, p, q, moduli, sizes)

    # -- the box geometry -------------------------------------------------------

    def _stepped(self, i: int, p: list, q: list, moduli: tuple, sizes=None) -> PairBox:
        """The box of a step along axis ``i``, one exponent lower and one
        higher on that axis, holding the new P and Q."""
        lows, rows = list(self.lows), list(self.rows)
        lows[i] -= 1
        rows[i] += 3 - self.strides[i]
        return PairBox(self.variables, lows, self.strides, rows, p, q, moduli, sizes)

    def _rows(self, values: list, i: int, start: int, stop: int) -> list:
        """The entries of ``values`` in rows ``start`` to ``stop`` - 1 of
        axis ``i``: one slice per outer chunk, or, when the chunks outnumber
        the entries taken from each, one extended slice per entry."""
        block = math.prod(self.rows[i + 1 :])
        chunk = self.rows[i] * block
        if chunk == len(values):
            return values[start * block : stop * block]
        if block == 1 and stop == start + 1:
            return values[start::chunk]
        first, width = start * block, (stop - start) * block
        if len(values) <= chunk * width:
            out = []
            for at in range(first, len(values), chunk):
                out += values[at : at + width]
            return out
        out = [_ZERO] * (len(values) // chunk * width)
        for at in range(width):
            out[at::width] = values[first + at :: chunk]
        return out


def _halves(values: list, chunk: int, pad: int) -> tuple[list, list]:
    """``values`` times (a + a^{-1})/2 and times (a - a^{-1})/2, for a the
    variable of one box axis: the step kernel.  ``values`` is a run of
    chunks of ``chunk`` entries, one chunk per index of the axes before the
    stepped one, and each chunk grows by ``pad`` entries, one row of the
    stepped axis (two on a stride-1 axis), below and above.  The products
    are not cut; evaluation's step cuts once, after the whole step.

    The product's coefficient at k is 0j + c[k - e] / 2 +- c[k + e] / 2,
    and c[k - e] sits one row (two on a stride-1 axis) below c[k + e] on
    the grown axis.  So the halved input is padded with zero rows below and
    above, and one pass adds the two copies, another subtracts them.
    Adding two terms commutes, and subtracting c[k + e] / 2 instead of
    adding c[k + e] * (-0.5) changes at most the sign of a zero part, which
    vanishes in the sum (the first term, 0j + x, has no -0.0 part), so the
    values are bitwise the product's.  The copies are placed one chunk at
    a time, or, when the chunks outnumber the entries of one, one extended
    slice per entry.
    """
    half = list(map(add, repeat(_ZERO), map(mul, values, repeat(_HALF))))
    grown = chunk + pad
    count = len(half) // chunk
    if count <= chunk:
        zeros = [_ZERO] * pad
        below, above = [], []
        for at in range(0, len(half), chunk):
            part = half[at : at + chunk]
            below += zeros
            below += part
            above += part
            above += zeros
    else:
        below, above = [_ZERO] * (count * grown), [_ZERO] * (count * grown)
        for at in range(chunk):
            column = half[at::chunk]
            below[pad + at :: grown] = column
            above[at::grown] = column
    return list(map(add, below, above)), list(map(sub, below, above))


def _turned(values: list, c: complex) -> list:
    """``values`` times the unimodular ``c``, with every zero slot left as
    ``0j``.  The general product holds no term there, and 0j * c can have a
    -0.0 part that would leak into a later difference.  A nonzero value
    times a unimodular factor is never zero, even below the normal range."""
    return [v * c if v else _ZERO for v in values]


class MqspSequence(_Record):
    """Angle parameters phi_0..phi_n and index parameters s_1..s_n.

    ``indices`` are 1-based variable choices; there is always exactly one
    more phase than there are indices.  ``phases`` and ``indices`` are
    stored as tuples of float and of int.
    """

    __slots__ = ("variables", "phases", "indices")

    def __init__(self, variables: int, phases, indices):
        phases = tuple(map(float, phases))
        indices = tuple(map(int, indices))
        if variables < 1:
            raise ValueError(f"need at least one variable, got {variables}")
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
        _set_field(self, "variables", variables)
        _set_field(self, "phases", phases)
        _set_field(self, "indices", indices)

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
    sine parts of A(s_k).  The pair lives on a stride-2 ``PairBox`` that
    starts as one slot and grows by one row per step (``_half_step``).  Its
    zero end rows are trimmed, and it is converted to ``LaurentPoly`` terms
    at the end, or as soon as it gets too sparse, after which the general
    products take the remaining steps (``PQPair._extend``).  A step
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
    state is the first ceil(N / 2) slots of P followed by those of Q, and
    the whole box is unfolded from it only to trim rows, when the half
    holds a zero, and to convert it.
    """
    start = cmath.exp(1j * seq.phases[0])
    halves, rows = [start, _ZERO], (1,) * seq.variables
    steps = zip(seq.phases[1:], seq.indices)
    for phi, s in steps:
        halves, rows = _half_step(halves, rows, s - 1, cmath.exp(1j * phi))
        slots = terms = math.prod(rows)
        # only Q's middle slot, of an odd box, is always zero; any other
        # zero may belong to an end row that cancelled
        if halves.count(_ZERO) > slots % 2:
            box = _unfolded(halves, rows)._truncated(s, -1, 0.0)
            rows, slots = box.rows, len(box.p)
            terms = max(slots - box.p.count(_ZERO), slots - box.q.count(_ZERO))
            halves = box.p[: (slots + 1) // 2] + box.q[: (slots + 1) // 2]
        if _too_sparse(slots, terms):
            break
    pair = _unfolded(halves, rows).to_pair()
    for phi, s in steps:
        pair = pair._extend(s, cmath.exp(1j * phi))
    return pair


def _half_step(halves: list, rows: tuple, i: int, phase: complex) -> tuple[list, tuple]:
    """One evaluation step along axis ``i`` of the half-box state ``halves``
    (see ``evaluate_sequence``) on a box with ``rows``: the new state and
    its rows.

    The step reads the input rows that the new half depends on: the chunks
    of the axes before ``i`` up to the one the half ends in, or the first
    rows of the only chunk it touches.  One ``_halves`` call on P and Q
    together gives their cosine and sine parts; each component's cosine
    part meets the other's sine part, and the sums are turned by e^{i phi}
    and e^{-i phi} as 0j + x e^{+-i phi}, the product with a constant.
    Then each component is cut once, at ``DROP_EPS`` times max(1, its own
    largest modulus): its values at or below that become 0j.
    """
    block = math.prod(rows[i + 1 :])
    grown = rows[:i] + (rows[i] + 1,) + rows[i + 1 :]
    half = (math.prod(grown) + 1) // 2
    # rows 0 to r of the stepped axis give rows 0 to r of the product
    chunk = min(rows[i], (half - 1) // block + 1) * block
    length = ((half - 1) // (grown[i] * block) + 1) * chunk
    p, q = _prefixes(halves, math.prod(rows), length)
    cos, sin = _halves(p + q, chunk, block)
    out = len(cos) // 2
    total = map(add, cos[:half] + cos[out : out + half], sin[out : out + half] + sin[:half])
    turns = [phase] * half + [phase.conjugate()] * half
    turned = list(map(add, repeat(_ZERO), map(mul, total, turns)))
    stepped = []
    for part in (turned[:half], turned[half:]):
        sizes = list(map(abs, part))
        cutoff = DROP_EPS * max(1.0, max(sizes))
        if not min(filter(None, sizes), default=math.inf) > cutoff:
            part = [value if size > cutoff else _ZERO for value, size in zip(part, sizes)]
        stepped += part
    return stepped, grown


def _prefixes(halves: list, slots: int, length: int) -> tuple[list, list]:
    """The first ``length`` slots of P and of Q on a box of ``slots`` slots,
    from the half-box state ``halves``: past the half, P's mirror images
    and 0j minus Q's."""
    size = len(halves) // 2
    if length <= size:
        return halves[:length], halves[size : size + length]
    p, q = halves[:size], halves[size:]
    p += p[slots - length : slots - size][::-1]
    q += map(sub, repeat(_ZERO), q[slots - length : slots - size][::-1])
    return p, q


def _unfolded(halves: list, rows: tuple) -> PairBox:
    """The whole ``PairBox`` of a half-box state."""
    slots, m = math.prod(rows), len(rows)
    p, q = _prefixes(halves, slots, slots)
    return PairBox(m, [1 - r for r in rows], (2,) * m, rows, p, q)


def _unit_norm_deviation(pair: PQPair, tol: float | None = None) -> tuple[float, float]:
    """Largest deviation of a coefficient of p*p~ + q*q~ from the constant 1,
    and the coefficient scale max(1, max |coefficient|).

    On the unit torus p*p~ + q*q~ equals |p|^2 + |q|^2.  On the pair's
    ``PairBox`` variable j has r_j rows at stride 1 or 2, so in
    b_j = a_j^stride_j, with P and Q shifted to b-exponents 0..r_j - 1 (a
    unimodular factor on the torus), every lag of |p|^2 + |q|^2 lies in
    [-(r_j - 1), r_j - 1].  So P and Q are evaluated on N_j = 2 r_j - 1
    roots of unity per axis, a grid that holds each lag exactly once, and
    the sum of squared moduli is transformed back: the coefficients come
    out exact up to rounding, for any input.  The samples are real, so the
    coefficients are Hermitian and only the lags with a non-negative last
    component are computed.

    With ``tol`` given, only the verdict deviation <= tol * scale is asked
    for.  When the samples' Parseval bounds settle it (``_parseval_bounds``),
    those bounds are returned in place of the two values and give the same
    verdict; the transform back, and its twiddles, are built only when the
    bounds leave it open.

    A pair too sparse for its box (``PairBox.from_pair`` returns None, the
    rule that evaluation and the decision use) is multiplied out instead;
    both ways are exact up to rounding.
    """
    box = PairBox.from_pair(pair)
    if box is None:
        p, q = pair.p, pair.q
        combo = p * p.torus_conjugate() + q * q.torus_conjugate()
        one = LaurentPoly.constant(pair.variables, 1.0)
        return combo.max_deviation(one), max(1.0, combo.max_modulus())
    roots = [
        [cmath.exp(2j * math.pi * k / (2 * rows - 1)) for k in range(2 * rows - 1)]
        for rows in box.rows
    ]
    forward = [
        [[row[t * u % len(row)] for u in range(rows)] for t in range(len(row))]
        for row, rows in zip(roots, box.rows)
    ]
    samples = repeat(0.0)
    for values in (box.p, box.q):
        values = _separable_transform(values, forward)
        samples = [f + v.real * v.real + v.imag * v.imag for f, v in zip(samples, values)]

    if tol is not None:
        bounds = _parseval_bounds(samples, list(map(len, roots)), tol)
        if bounds is not None:
            return bounds
    inverse = []
    for i, (row, rows) in enumerate(zip(roots, box.rows)):
        n = len(row)
        # Hermitian: lags 0..rows - 1 suffice on the last axis
        lags = range(rows if i == len(roots) - 1 else n)
        inverse.append([[row[-lag * t % n] / n for t in range(n)] for lag in lags])
    coeffs = _separable_transform(samples, inverse)
    sizes = list(map(abs, coeffs))
    scale = max(1.0, max(sizes))
    sizes[0] = abs(coeffs[0] - 1.0)
    return max(sizes), scale


def _parseval_bounds(
    samples: list[float], axes: list[int], tol: float
) -> tuple[float, float] | None:
    """A deviation and a scale that settle deviation <= tol * scale as the
    values from the transform back would, or None when the samples leave
    that open.

    The grid of G = prod(axes) samples S of |p|^2 + |q|^2 holds each lag
    once, so by Parseval rms(S - 1) is the l2 norm of the coefficients'
    deviation from 1, and rms(S) the l2 norm of the coefficients.  The
    largest deviation lies between rms(S - 1) / sqrt(G) and rms(S - 1), and
    the scale between 1 and max(1, rms(S)).  Each bound is widened by a
    relative margin for the rounding of its sums of G squares, and by an
    absolute allowance for the rounding of the transform back: its pass
    over an axis of N points averages N terms of modulus at most max(S)
    with twiddles good to about 22 u (u = eps / 2, the angle 2 pi k / N is
    rounded), so it adds at most (N + 28) u max(S) to the error of each
    coefficient, and the allowance is twice the sum of that over the axes.
    With a tolerance of 0 no pass is ever settled here.
    """
    count = len(samples)
    size = math.sqrt(sum(map(mul, samples, samples)) / count)
    if not size < math.inf:
        return None
    deviations = [s - 1.0 for s in samples]
    spread = math.sqrt(sum(map(mul, deviations, deviations)) / count)
    epsilon = sys.float_info.epsilon
    relative = (count + 4) * epsilon
    allowance = (sum(axes) + 28 * len(axes)) * epsilon * max(samples)
    upper = spread * (1.0 + relative) + allowance
    if upper <= tol:
        return upper, 1.0
    lower = spread * (1.0 - relative) / math.sqrt(count) - allowance
    scale = max(1.0, size * (1.0 + relative) + allowance)
    if lower > tol * scale:
        return lower, scale
    return None


def _separable_transform(values: list, matrices: list[list[list[complex]]]) -> list:
    """Apply one matrix per axis to a row-major grid, the last axis first.

    Each pass contracts the trailing axis with the rows of its matrix and
    moves the result to the front, so after all passes the axes are back in
    their original order, each of length ``len(matrices[i])``.
    """
    for matrix in reversed(matrices):
        rows = list(zip(*[iter(values)] * len(matrix[0])))
        values = [sum(map(mul, w, row)) for w in matrix for row in rows]
    return values
