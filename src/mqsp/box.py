"""The dense half box of a pair with the inversion symmetries.

``PairBox`` holds P and Q as flat coefficient lists on one centred stride-2
box, of which only the half that the inversion symmetries do not fix is
stored.  ``su2.evaluate_sequence`` steps a pair on it, multiplying by
(a_j +- a_j^{-1})/2 in one shift-add pass (``_halves``); the step
(``PairBox._step``) also trims the zero end rows it leaves and hands a pair
that gets too sparse over as terms.  The decision in ``engine`` peels
factors off the box with the same step front.  The module also
holds the general lattice of a pair (``_lattice``, ``_placed``) and the
unit-norm test on a torus grid (``_unit_norm_deviation``) that
``PQPair.is_normalized`` and ``PQPair.normalization_defect`` run.  ``su2``
loads it when it first evaluates or tests a pair, so reading and writing
documents never compiles the step kernel.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterator
from itertools import product, repeat
from operator import add, mul, neg, sub

from .laurent import LaurentPoly, _require_finite
from .su2 import _HALF, _ZERO, PQPair, _as_terms, _peeled, _stepped, _too_sparse


class PairBox:
    """P and Q of one pair with the inversion symmetries, on one centred box.

    Variable i + 1 has ``rows[i]`` rows at the exponents 1 - r, 3 - r, ...,
    r - 1 for r = ``rows[i]``.  In row-major order, the last variable
    fastest, flat order is lexicographic exponent order, and the exponents k
    and -k sit at the flat slots f and N - 1 - f of the N slots.  Both
    directions keep P(a^{-1}) = P(a) and Q(a^{-1}) = -Q(a) bitwise: P's
    coefficient at -k is the one at k, and Q's is 0j minus it (see
    ``su2.evaluate_sequence``).  So ``p_half`` and ``q_half`` hold only the
    first ceil(N / 2) slots of P and of Q, and the rest is their mirror
    image (``_prefixes``).  Absent terms are exact zeros ``0j``.
    ``_moduli`` is the largest |coefficient| of P and of Q, read from the
    moduli of the stored slots of each, which the peel or the trim that
    built the box gives and which are otherwise measured once, when first
    read.  The peel keeps the symmetries as evaluation's step does: its
    value at -k is the same sum as at k with its terms swapped, or negated
    for Q, and ``_turned`` keeps an empty slot from gaining a -0.0 part.

    The box and ``PQPair`` provide the same storage primitives, over which
    the peel in ``engine`` is written once: ``_moduli``,
    ``_visible_degrees``, ``_top_slices``, ``_origin``, ``_peel``,
    ``_truncated`` and ``to_pair``.  Evaluation's ``_step`` and the
    decision's ``_peel`` share one front (``_front``): the input prefix the
    new half depends on, and one ``_halves`` pass over P and Q together,
    the one place where the two sit in one list.  Each direction then runs
    its combine (``_stepped``, ``_peeled``) on P's and Q's parts, as
    ``PQPair`` does on its terms, so both layouts give the same values.
    """

    __slots__ = ("variables", "rows", "p_half", "q_half", "_tops", "_sizes")

    def __init__(self, rows, p_half, q_half, sizes=None):
        self.variables, self.rows = len(rows), tuple(rows)
        self.p_half, self.q_half = p_half, q_half
        self._tops, self._sizes = None, sizes

    @classmethod
    def from_pair(cls, pair: PQPair) -> PairBox | None:
        """The pair on its box, or None unless the pair's lattice has stride
        2 and is centred on every axis, its placed P and Q are mirror images
        by value (P's slot f equals slot N - 1 - f, Q's is its negation) and
        the box has at most ``_BOX_PER_TERM`` slots per stored term.  A pair
        stored as its box (see ``PQPair``) gives that box, which may have
        empty end rows that a box built from the terms would not."""
        if pair._box is not None:
            return pair._box
        lows, strides, rows = _lattice(pair)
        centred = strides == [2] * pair.variables and lows == [1 - r for r in rows]
        if not centred or _too_sparse(math.prod(rows), max(len(pair.p), len(pair.q))):
            return None
        p, q = _placed(pair, lows, strides, rows)
        if p != p[::-1] or q != list(map(neg, reversed(q))):
            return None
        half = (len(p) + 1) // 2
        return cls(rows, p[:half], q[:half])

    def to_pair(self) -> PQPair:
        """The pair stored as this box; its terms are built when first read."""
        return PQPair._on_box(self)

    def _terms(self) -> tuple[LaurentPoly, LaurentPoly]:
        """P and Q as ``LaurentPoly`` terms: the whole box, without its zeros."""
        keys = list(product(*(range(1 - n, n, 2) for n in self.rows)))
        return _as_terms(self.variables, keys, *self._prefixes(math.prod(self.rows)))

    # -- storage primitives ---------------------------------------------------

    def _half_sizes(self) -> tuple[list[float], list[float]]:
        """|coefficient| of every slot of ``p_half`` and of ``q_half``."""
        if self._sizes is None:
            self._sizes = list(map(abs, self.p_half)), list(map(abs, self.q_half))
        return self._sizes

    @property
    def _moduli(self) -> tuple[float, float]:
        if self._tops is None:
            p, q = self._half_sizes()
            self._tops = max(p, default=0.0), max(q, default=0.0)
        return self._tops

    def _visible_degrees(self, cutoff: float) -> tuple[int, ...] | None:
        if not self._moduli[0] > cutoff:
            return None
        # rows k and -k hold the same moduli, so the first visible row of
        # an axis gives its degree
        sizes = self._half_sizes()[0]
        degrees = []
        for i, n in enumerate(self.rows):
            first = 0
            while not self._row_top(sizes, i, first) > cutoff:
                first += 1
            degrees.append(n - 1 - 2 * first)
        return tuple(degrees)

    def _top_slices(self, j: int, exponent: int) -> tuple[list, list]:
        """Row r of axis j - 1 of P and of Q in flat order, read from the
        half: the row's slots in it, then the mirror images of the rest,
        the first slots of row n - 1 - r reversed, with Q's values 0j minus
        the stored ones, as ``_prefixes`` unfolds them."""
        i, n = j - 1, self.rows[j - 1]
        r, off = divmod(exponent + n - 1, 2)
        if off or not 0 <= r < n:
            return [], []
        row_size = math.prod(self.rows) // n
        rows = []
        for half in (self.p_half, self.q_half):
            near = self._rows(half, i, r, r + 1)
            far = self._rows(half, i, n - 1 - r, n - r)[: row_size - len(near)]
            rows.append((near, far[::-1]))
        (p, p_far), (q, q_far) = rows
        return p + p_far, q + list(map(sub, repeat(_ZERO), q_far))

    def _origin(self) -> tuple[complex, float]:
        # the constant, when every axis has an odd row count, is the middle
        # slot: the last of P's half
        sizes = self._half_sizes()[0]
        if math.prod(self.rows) % 2:
            return self.p_half[-1], max(sizes[:-1], default=0.0)
        return _ZERO, max(sizes, default=0.0)

    def _peel(self, j: int, e: complex) -> PairBox:
        grown, *parts = self._front(j - 1)
        p, q = _peeled(*parts, e)
        sizes = list(map(abs, p)), list(map(abs, q))
        _require_finite(p, sizes[0])
        _require_finite(q, sizes[1])
        return PairBox(grown, p, q, sizes)

    def _truncated(self, j: int, top: int, cutoff: float) -> PairBox:
        """The box without the rows of variable ``j`` beyond +-``top`` whose
        entries in P and Q are all at or below ``cutoff``, trimmed from both
        ends of the axis: from either end, the first row within +-``top`` or
        with an entry above the cutoff stops the trim.  With ``top`` below 0
        any row can go.  Rows r and -r hold the same moduli, so they go in
        mirrored pairs."""
        i, n = j - 1, self.rows[j - 1]
        parts = self._half_sizes()
        trim = 0
        while 2 * trim < n and n - 1 - 2 * trim > top and not any(
            self._row_top(part, i, trim) > cutoff for part in parts
        ):
            trim += 1
        if not trim:
            return self
        rows = list(self.rows)
        rows[i] = max(0, n - 2 * trim)
        # the kept rows are centred as before, so the new half is a prefix
        # of the kept rows' entries in the old one
        half = (math.prod(rows) + 1) // 2
        p, q, p_sizes, q_sizes = (
            self._rows(values, i, trim, trim + rows[i])[:half]
            for values in (self.p_half, self.q_half, *parts)
        )
        return PairBox(rows, p, q, (p_sizes, q_sizes))

    # -- the step front -------------------------------------------------------

    def _step(self, j: int, phase: complex) -> PairBox | PQPair:
        """One evaluation step along variable ``j`` (see ``_stepped``), with
        the zero end rows of ``j`` trimmed; the pair as terms, to take the
        remaining steps (``PQPair._step``), once the box is too sparse for
        the terms it holds (``_too_sparse``)."""
        grown, *parts = self._front(j - 1)
        box = PairBox(grown, *_stepped(*parts, phase))
        slots = terms = math.prod(box.rows)
        # only Q's middle slot, of an odd box, is always zero; any other
        # zero may belong to an end row that cancelled
        if box.p_half.count(_ZERO) + box.q_half.count(_ZERO) > slots % 2:
            box = box._truncated(j, -1, 0.0)
            slots = math.prod(box.rows)
            # a half's zeros stand for two slots each, save the middle slot
            halves = box.p_half, box.q_half
            terms = slots - min(2 * h.count(_ZERO) - (slots % 2 and not h[-1]) for h in halves)
        if _too_sparse(slots, terms):
            return PQPair(*box._terms())
        return box

    def _front(self, i: int) -> tuple:
        """The rows of the box grown by one row along axis ``i``, and the
        first half of the product's slots of P and of Q times (a + a^{-1})/2
        and times (a - a^{-1})/2: P's cosine part, Q's, P's sine part, Q's.

        The front reads the input rows that the new half depends on: the
        chunks of the axes before ``i`` up to the one the half ends in, or
        the first rows of the only chunk it touches, and gives them to one
        ``_halves`` call on P and Q together."""
        rows = self.rows
        block = math.prod(rows[i + 1 :])
        grown = rows[:i] + (rows[i] + 1,) + rows[i + 1 :]
        half = (math.prod(grown) + 1) // 2
        # rows 0 to r of the stepped axis give rows 0 to r of the product
        chunk = min(rows[i], (half - 1) // block + 1) * block
        length = ((half - 1) // (grown[i] * block) + 1) * chunk
        p, q = self._prefixes(length)
        cos, sin = _halves(p + q, chunk, block)
        out = len(cos) // 2
        return grown, cos[:half], cos[out : out + half], sin[:half], sin[out : out + half]

    # -- the box geometry -------------------------------------------------------

    def _prefixes(self, length: int) -> tuple[list, list]:
        """The first ``length`` slots of P and of Q: past the half, P's
        mirror images and 0j minus Q's."""
        p, q = self.p_half, self.q_half
        size = len(p)
        if length <= size:
            return p[:length], q[:length]
        slots = math.prod(self.rows)
        far = slice(slots - length, slots - size)
        return p + p[far][::-1], q + list(map(sub, repeat(_ZERO), q[far][::-1]))

    def _row_top(self, sizes: list, i: int, r: int) -> float:
        """The largest modulus in row ``r`` of axis ``i`` of the whole box,
        from ``sizes``, the moduli of P's or Q's half: the row's slots in the
        half and those of row n - 1 - r, which hold the mirror images of the
        rest; 0.0 for an empty row."""
        n = self.rows[i]
        row = self._rows(sizes, i, r, r + 1) + self._rows(sizes, i, n - 1 - r, n - r)
        return max(row, default=0.0)

    def _rows(self, values: list, i: int, start: int, stop: int) -> list:
        """The entries of ``values``, the box's first slots, in rows ``start``
        to ``stop`` - 1 of axis ``i``: one slice per outer chunk, or, when the
        chunks outnumber the entries taken from each, one extended slice per
        entry and one slice of a last, partial chunk."""
        block = math.prod(self.rows[i + 1 :])
        chunk = self.rows[i] * block
        if len(values) <= chunk:
            return values[start * block : stop * block]
        if block == 1 and stop == start + 1:
            return values[start::chunk]
        first, width = start * block, (stop - start) * block
        if len(values) <= chunk * width:
            out = []
            for at in range(first, len(values), chunk):
                out += values[at : at + width]
            return out
        whole = len(values) - len(values) % chunk
        out = [_ZERO] * (whole // chunk * width)
        for at in range(width):
            out[at::width] = values[first + at : whole : chunk]
        return out + values[whole + first : whole + first + width]


def _halves(values: list, chunk: int, pad: int) -> tuple[list, list]:
    """``values`` times (a + a^{-1})/2 and times (a - a^{-1})/2, for a the
    variable of one box axis: the step kernel.  ``values`` is a run of
    chunks of ``chunk`` entries, one chunk per index of the axes before the
    stepped one, and each chunk grows by ``pad`` entries, one row of the
    stepped axis, below and above.  The products are not cut; evaluation's
    step cuts once, after the whole step.

    The product's coefficient at k is 0j + c[k - e] / 2 +- c[k + e] / 2,
    and c[k - e] sits one row below c[k + e] on the grown axis.  So the
    halved input is padded with zero rows below and above, and one pass
    adds the two copies, another subtracts them.  Adding two terms
    commutes, and subtracting c[k + e] / 2 instead of adding
    c[k + e] * (-0.5) changes at most the sign of a zero part, which
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


def _lattice(pair: PQPair) -> tuple[list[int], list[int], list[int]]:
    """Lowest exponent, stride and row count per variable of the general
    lattice that holds ``pair``: the stride is 2 when all the variable's
    exponents in P and Q share one parity, as in every realizable pair, and
    1 otherwise."""
    lows, strides, rows = [], [], []
    for column in list(zip(*pair.p.terms, *pair.q.terms)) or [(0,)] * pair.variables:
        low = min(column)
        stride = 2 if len(set(map((1).__and__, column))) == 1 else 1
        lows.append(low)
        strides.append(stride)
        rows.append((max(column) - low) // stride + 1)
    return lows, strides, rows


def _placed(pair: PQPair, lows, strides, rows) -> list[list]:
    """P and Q as flat row-major coefficient lists on the lattice with
    ``lows``, ``strides`` and ``rows``; absent terms are exact zeros 0j."""
    lists = []
    for poly in (pair.p, pair.q):
        index = [0] * len(poly)
        for column, low, stride, n in zip(zip(*poly.terms), lows, strides, rows):
            index = [at * n + (e - low) // stride for at, e in zip(index, column)]
        values = [0j] * math.prod(rows)
        for at, coeff in zip(index, poly.terms.values()):
            values[at] = coeff
        lists.append(values)
    return lists


def _unit_norm_deviation(pair: PQPair, tol: float | None = None) -> tuple[float, float]:
    """Largest deviation of a coefficient of p*p~ + q*q~ from the constant 1,
    and the coefficient scale max(1, max |coefficient|).

    On the unit torus p*p~ + q*q~ equals |p|^2 + |q|^2.  On the general
    lattice that holds the pair (``_lattice``), which need not be centred or
    have the inversion symmetries, variable j has r_j rows at stride 1 or 2,
    so in b_j = a_j^stride_j, with P and Q shifted to b-exponents
    0..r_j - 1 (a unimodular factor on the torus), every lag of
    |p|^2 + |q|^2 lies in [-(r_j - 1), r_j - 1].  So P and Q are evaluated
    on N_j = 2 r_j - 1 roots of unity per axis, a grid that holds each lag
    exactly once, and the sum of squared moduli is transformed back: the
    coefficients come out exact up to rounding, for any input.  The samples
    are real, so the coefficients are Hermitian and only the lags with a
    non-negative last component are computed.  P and Q go through one
    transform, and each matrix row is made when its pass reaches it
    (``_dft_rows``), so no matrix is kept and the memory is the grid's.

    With ``tol`` given, only the verdict deviation <= tol * scale is asked
    for.  When the samples' Parseval bounds settle it (``_parseval_bounds``),
    those bounds are returned in place of the two values and give the same
    verdict; the transform back, and its twiddles, are built only when the
    bounds leave it open.

    A pair too sparse for its lattice, by the slots-per-term rule that
    evaluation and the decision use (``_too_sparse``), is multiplied out
    instead; both ways are exact up to rounding.  Either way the report
    reads only P and Q, so a pair stored as its box gives the report of
    its terms.

    When |p|^2 + |q|^2 overflows a double, the pair fails the identity:
    the deviation is inf and the scale 1.  That is so when any sample is
    not finite, or, for a pair multiplied out, the constant coefficient of
    p*p~ + q*q~, the sum of |c|^2, which by Cauchy-Schwarz bounds every
    other; then neither the transform back nor the product is made.
    """
    lows, strides, counts = _lattice(pair)
    if _too_sparse(math.prod(counts), max(len(pair.p), len(pair.q))):
        p, q = pair.p, pair.q
        squares = (c.real * c.real + c.imag * c.imag for x in (p, q) for c in x.terms.values())
        if not sum(squares) < math.inf:
            return math.inf, 1.0
        combo = p * p.torus_conjugate() + q * q.torus_conjugate()
        one = LaurentPoly.constant(pair.variables, 1.0)
        return combo.max_deviation(one), max(1.0, combo.max_modulus())
    p, q = _placed(pair, lows, strides, counts)
    # P and Q as one grid with a leading axis of two, which no pass touches:
    # after the passes each grid point's values of P and Q sit side by side
    at = iter(_separable_transform([*p, *q], list(map(_dft_rows, counts))))
    samples = [
        u.real * u.real + u.imag * u.imag + v.real * v.real + v.imag * v.imag
        for u, v in zip(at, at)
    ]
    if not all(map(math.isfinite, samples)):
        return math.inf, 1.0

    points = [2 * rows - 1 for rows in counts]
    if tol is not None:
        bounds = _parseval_bounds(samples, points, tol)
        if bounds is not None:
            return bounds
    # Hermitian: lags 0..rows - 1 suffice on the last axis
    lags = points[:-1] + [counts[-1]]
    coeffs = _separable_transform(samples, list(map(_dft_rows, counts, lags)))
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


def _dft_rows(rows: int, lags: int | None = None) -> tuple[int, Iterator[list]]:
    """One axis of the unit-norm transform, for ``_separable_transform``:
    its input width and its matrix rows, each made when it is reached.
    Forward, with ``lags`` None, the ``rows`` coefficients go to the
    N = 2 rows - 1 roots of unity; back, the N samples go to the first
    ``lags`` lags, divided by N."""
    n = 2 * rows - 1
    root = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    if lags is None:
        return rows, ([root[t * u % n] for u in range(rows)] for t in range(n))
    return n, ([root[-lag * t % n] / n for t in range(n)] for lag in range(lags))


def _separable_transform(values: list, axes: list[tuple[int, Iterator[list]]]) -> list:
    """Apply one matrix per axis to a row-major grid, the last axis first.

    ``axes`` gives, per axis, its input width and the rows of its matrix,
    read once.  Each pass contracts the trailing axis with the rows and
    moves the result to the front, so after all passes the axes are back in
    their original order, each as long as its matrix, and any leading axes
    that ``axes`` does not cover come last.
    """
    for width, matrix in reversed(axes):
        rows = list(zip(*[iter(values)] * width))
        values = [sum(map(mul, w, row)) for w in matrix for row in rows]
    return values
