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
from dataclasses import dataclass

from .laurent import EPS, LaurentPoly


def half_sum(j: int, variables: int) -> LaurentPoly:
    """(a_j + a_j^{-1}) / 2 with the full ambient arity."""
    exps = [0] * variables
    exps[j - 1] = 1
    up = tuple(exps)
    exps[j - 1] = -1
    down = tuple(exps)
    return LaurentPoly(variables, {up: 0.5, down: 0.5})


def half_diff(j: int, variables: int) -> LaurentPoly:
    """(a_j - a_j^{-1}) / 2 with the full ambient arity."""
    exps = [0] * variables
    exps[j - 1] = 1
    up = tuple(exps)
    exps[j - 1] = -1
    down = tuple(exps)
    return LaurentPoly(variables, {up: 0.5, down: -0.5})


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
    if not 1 <= j <= variables:
        raise IndexError(f"variable index {j} out of range 1..{variables}")
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
    ``is_normalized`` to test for it.
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
        combo, one = self._unit_norm_terms()
        return combo.max_deviation(one)

    def is_normalized(self, tol: float = EPS) -> bool:
        combo, one = self._unit_norm_terms()
        return combo.approx_eq(one, tol)

    def _unit_norm_terms(self) -> tuple[LaurentPoly, LaurentPoly]:
        """Both sides of the unit-norm identity: p*p~ + q*q~ and the constant 1."""
        combo = self.p * self.p.torus_conjugate() + self.q * self.q.torus_conjugate()
        return combo, LaurentPoly.constant(self.variables, 1.0)

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
