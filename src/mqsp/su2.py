"""Structured 2x2 matrices over Laurent polynomials.

The building blocks of an interleaved signal-processing product: one signal
operator per variable, constant z-rotations, their matrix products, and the
(P, Q) top-row embedding whose bottom row is forced to be
(-star(invert_vars(Q)), star(invert_vars(P))).

``evaluate_sequence`` carries only the top row and applies each factor with
the shift-add step kernel ``LaurentPoly.mul_half``.  Multiplying the full
``Mat2`` factors out term by term is the independent test oracle: the kernel
reproduces its top row bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul

from .laurent import EPS, LaurentPoly


def half_sum(j: int, variables: int) -> LaurentPoly:
    """(a_j + a_j^{-1}) / 2 with the full ambient arity; IndexError
    unless 1 <= j <= variables."""
    return LaurentPoly.constant(variables, 1.0).mul_half(j, 1)


def half_diff(j: int, variables: int) -> LaurentPoly:
    """(a_j - a_j^{-1}) / 2 with the full ambient arity; IndexError
    unless 1 <= j <= variables."""
    return LaurentPoly.constant(variables, 1.0).mul_half(j, -1)


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix of Laurent polynomials, row-major (a b / c d)."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    def __post_init__(self):
        arity = self.a.variables
        if any(entry.variables != arity for entry in (self.b, self.c, self.d)):
            raise ValueError("matrix entries must share one variable count")

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


@dataclass(frozen=True)
class PQPair:
    """Ordered top row (p, q) of a structured 2x2 matrix.

    The bottom row is determined by the top one, see ``pair_to_matrix``.  A
    pair realizable by some parameter sequence additionally satisfies the
    unit-norm identity p*p~ + q*q~ = 1 (with x~ = star(invert_vars(x))),
    which is |p|^2 + |q|^2 = 1 for variables on the unit circle; use
    ``is_normalized`` to test for it.  The identity is usually not
    multiplied out: |p|^2 + |q|^2 is sampled on a torus grid just large
    enough to hold its coefficients and transformed back (see
    ``_unit_norm_deviation``), which costs O(G * sum_j N_j) for a grid of
    G = prod_j N_j points, N_j about twice the span of variable j, instead of
    the product's O(L^2) in the term count L.  A sparse pair whose grid would
    cost more than that product is multiplied out instead.
    """

    p: LaurentPoly
    q: LaurentPoly

    def __post_init__(self):
        if self.p.variables != self.q.variables:
            raise ValueError(
                f"variable-count mismatch: {self.p.variables} != {self.q.variables}"
            )

    @property
    def variables(self) -> int:
        return self.p.variables

    def normalization_defect(self) -> float:
        """Largest coefficient-wise |difference| of p*p~ + q*q~ against 1."""
        return _unit_norm_deviation(self.p, self.q)[0]

    def is_normalized(self, tol: float = EPS) -> bool:
        """The unit-norm identity within ``tol`` relative to the coefficient
        scale, the test ``LaurentPoly.approx_eq`` makes."""
        deviation, scale = _unit_norm_deviation(self.p, self.q)
        return deviation <= tol * scale

    def max_deviation(self, other: PQPair) -> float:
        return max(self.p.max_deviation(other.p), self.q.max_deviation(other.q))

    def approx_eq(self, other: PQPair, tol: float = EPS) -> bool:
        return self.p.approx_eq(other.p, tol) and self.q.approx_eq(other.q, tol)


@dataclass(frozen=True)
class MqspSequence:
    """Angle parameters phi_0..phi_n and index parameters s_1..s_n.

    ``indices`` are 1-based variable choices; there is always exactly one
    more phase than there are indices.
    """

    variables: int
    phases: tuple[float, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(x) for x in self.phases))
        object.__setattr__(self, "indices", tuple(int(s) for s in self.indices))
        if self.variables < 1:
            raise ValueError(f"need at least one variable, got {self.variables}")
        if len(self.phases) != len(self.indices) + 1:
            raise ValueError(
                f"got {len(self.phases)} phases for {len(self.indices)} indices; "
                "expected one more phase than indices"
            )
        for s in self.indices:
            if not 1 <= s <= self.variables:
                raise ValueError(f"index {s} out of range 1..{self.variables}")

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
    sine parts of A(s_k), one ``mul_half`` pass per product.  The result is
    bitwise the top row of the ``Mat2`` product of ``z_rotation`` and
    ``signal_operator`` factors, which stays as the test oracle.  For an
    empty sequence this is (e^{i phi_0}, 0).
    """
    m = seq.variables
    p = LaurentPoly.constant(m, cmath.exp(1j * seq.phases[0]))
    q = LaurentPoly.zero(m)
    for phi, s in zip(seq.phases[1:], seq.indices):
        phase = cmath.exp(1j * phi)
        p, q = (
            (p.mul_half(s, 1) + q.mul_half(s, -1))._times_phase(phase),
            (p.mul_half(s, -1) + q.mul_half(s, 1))._times_phase(phase.conjugate()),
        )
    return PQPair(p, q)


# One term pair of the multiplied-out identity (tuple and dict work per
# pair) costs about as much as four multiply-adds of the grid transforms.
_TERM_PAIR_COST = 4


def _unit_norm_deviation(p: LaurentPoly, q: LaurentPoly) -> tuple[float, float]:
    """Largest deviation of a coefficient of p*p~ + q*q~ from the constant 1,
    and the coefficient scale max(1, max |coefficient|).

    On the unit torus p*p~ + q*q~ equals |p|^2 + |q|^2.  Its j-exponents are
    differences of two j-exponents of one polynomial.  With stride sigma_j the
    greatest common divisor of those differences in p and in q (2 when each
    polynomial's j-exponents share one parity, as in every realizable pair),
    and span s_j the larger of (max - min) / sigma_j + 1 over p and q, every
    lag in b_j = a_j^sigma_j lies in [-(s_j - 1), s_j - 1].  So each
    polynomial is shifted to b-exponents 0..s_j - 1 (a unimodular factor on
    the torus), evaluated on N_j = 2 s_j - 1 roots of unity per axis, and the
    sum of squared moduli is transformed back: the coefficients come out
    exact up to rounding, for any input.  The samples are real, so the
    coefficients are Hermitian and only the lags with a non-negative last
    component are computed.

    The grid follows the exponent box, not the term count, so a sparse pair
    spread over a wide box would need far more points than it has term
    pairs.  When the grid work prod_j N_j * sum_j N_j exceeds the product's
    |p|^2 + |q|^2 term pairs (weighted by ``_TERM_PAIR_COST``), the identity
    is multiplied out instead; both ways are exact up to rounding.
    """
    polys = [poly for poly in (p, q) if poly.terms]
    columns = [list(zip(*poly.terms)) for poly in polys]
    lows = [list(map(min, column)) for column in columns]
    strides, spans = [], []
    for i in range(p.variables):
        axis = [(column[i], low[i]) for column, low in zip(columns, lows)]
        stride = math.gcd(*(e - lo for exps, lo in axis for e in exps)) or 1
        strides.append(stride)
        spans.append(max(((max(exps) - lo) // stride + 1 for exps, lo in axis), default=1))
    points = [2 * s - 1 for s in spans]
    if math.prod(points) * sum(points) > _TERM_PAIR_COST * (len(p) ** 2 + len(q) ** 2):
        combo = p * p.torus_conjugate() + q * q.torus_conjugate()
        one = LaurentPoly.constant(p.variables, 1.0)
        return combo.max_deviation(one), max(1.0, combo.max_modulus())
    return _sampled_deviation(polys, lows, strides, spans)


def _sampled_deviation(
    polys: list[LaurentPoly], lows: list[list[int]], strides: list[int], spans: list[int]
) -> tuple[float, float]:
    """``_unit_norm_deviation`` on the torus grid: each polynomial is placed
    at b-exponents (e - low) / stride, evaluated, and |p|^2 + |q|^2 is
    transformed back."""
    points = [2 * s - 1 for s in spans]
    forward, inverse = [], []
    last = len(spans) - 1
    for i, (s, n) in enumerate(zip(spans, points)):
        roots = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
        forward.append([[roots[t * u % n] for u in range(s)] for t in range(n)])
        # Hermitian: lags 0..s-1 suffice on the last axis
        lags = range(s if i == last else n)
        inverse.append([[roots[-lag * t % n] / n for t in range(n)] for lag in lags])

    places = [math.prod(spans[i + 1 :]) for i in range(len(spans))]
    samples = [0.0] * math.prod(points)
    for poly, low in zip(polys, lows):
        dense = [0j] * math.prod(spans)
        for key, coeff in poly.terms.items():
            at = zip(key, low, strides, places)
            dense[sum((e - lo) // st * pl for e, lo, st, pl in at)] = coeff
        values = _separable_transform(dense, forward)
        samples = [f + v.real * v.real + v.imag * v.imag for f, v in zip(samples, values)]

    coeffs = _separable_transform(samples, inverse)
    sizes = list(map(abs, coeffs))
    scale = max(1.0, max(sizes))
    sizes[0] = abs(coeffs[0] - 1.0)
    return max(sizes), scale


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
